//! The repository benchmark: seeded workloads driven through the public
//! entry points, bit-exact output checks, and end-to-end or per-layer
//! metrics.
//!
//! ```text
//! ltnc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no trace sink and no
//! flight recorder installed. `--trace 1` runs the traced variant of the
//! workload beside an untraced one and replays each layer's public calls
//! from outside, printing the per-layer metrics. Either way the last line
//! of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `BENCHMARK.json` at the repository root records why each workload and
//! metric exists.

mod cpu;
mod edge;
mod layers;
mod stats;
mod swarm;

use std::process::ExitCode;
use std::time::Duration;

/// The end-to-end metrics every untraced run prints, in order.
pub const END_TO_END: [&str; 8] = [
    "converge_s",
    "setup_s",
    "cpu_s",
    "wire_bytes_per_byte",
    "bit_exact_ratio",
    "fetch_p50_ms",
    "fetch_p99_ms",
    "fetch_MBps",
];

/// The per-layer metrics every traced run prints, in order.
#[must_use]
pub fn per_layer_names() -> Vec<String> {
    let head = [
        "gf2.xor_ns_1k",
        "gf2.xor_ns_32",
        "codec.encode_us",
        "codec.recode_us",
        "codec.accept_us",
        "codec.deliver_us",
        "codec.reassemble_ms",
        "codec.busy_s",
        "codec.recode_control_ops_per_useful",
        "codec.recode_data_ops_per_useful",
        "codec.decode_control_ops_per_useful",
        "codec.decode_data_ops_per_useful",
        "envelope.encode_ns",
        "envelope.decode_ns",
        "net.sendto_us",
        "net.recvfrom_us",
        "net.datagrams_per_useful",
        "net.header_bytes_per_datagram",
        "net.offers_per_useful",
        "net.abort_ratio",
        "net.useful_ratio",
        "net.timeouts_per_offer",
        "protocol.node_complete_p50_s",
        "protocol.node_complete_p90_s",
    ];
    let hops = (1..=swarm::MAX_HOP).map(|hop| format!("protocol.complete_s.hop{hop}"));
    let tail = [
        "protocol.rtt_p50_us",
        "protocol.rtt_p99_us",
        "faults.drop_share",
        "reactor.dispatch_busy_s",
        "reactor.dispatch_mean_ns",
        "reactor.poll_wait_s",
        "reactor.tick_lag_mean_us",
        "reactor.dispatches_per_datagram",
        "reactor.polls_per_datagram",
        "serve.hit_ratio",
        "serve.hit_ns",
        "serve.miss_us",
        "serve.offers_per_symbol",
        "serve.abort_ratio",
        "ledger.unattributed_s",
        "trace.overhead_cpu",
        "trace.completion_coverage",
    ];
    head.iter()
        .map(ToString::to_string)
        .chain(hops)
        .chain(tail.iter().map(ToString::to_string))
        .collect()
}

/// One metric as printed: name, value, unit.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What one invocation measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (receivers, fetches or codec replays).
    pub attempted: u64,
    /// Operations that did not produce a bit-exact object.
    pub failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// Records one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.check_many(1, usize::from(ok));
    }

    /// Counts `attempted` checked operations of which `ok` succeeded.
    pub fn check_many(&mut self, attempted: usize, ok: usize) {
        self.attempted += attempted as u64;
        self.failed += attempted.saturating_sub(ok) as u64;
    }

    /// The share of checked operations that produced a bit-exact object.
    #[must_use]
    pub fn ratio_exact(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// Prints each metric on its own line, then the JSON result line.
    fn print(&self) {
        for metric in &self.metrics {
            println!("{:<44} {:>16.6} {}", metric.name, metric.value, metric.unit);
        }
        println!(
            "attempted {} failed {} fail_ratio {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs(seconds),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("ltnc-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "edge_zipf" => edge::run(args.seed, args.seconds, args.trace),
        name => match swarm::Spec::named(name) {
            Some(spec) => swarm::run(&spec, args.seed, args.seconds, args.trace),
            None => Err(format!("unknown workload {name:?}")),
        },
    };
    match outcome {
        Ok(outcome) => {
            if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
                eprintln!("ltnc-perfbench: metric {} is not finite", bad.name);
                return ExitCode::FAILURE;
            }
            let expected: Vec<String> = if args.trace {
                per_layer_names()
            } else {
                END_TO_END.iter().map(ToString::to_string).collect()
            };
            let mut printed: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
            printed.sort_unstable();
            let mut wanted: Vec<&str> = expected.iter().map(String::as_str).collect();
            wanted.sort_unstable();
            if printed != wanted {
                eprintln!("ltnc-perfbench: printed metrics {printed:?} differ from {wanted:?}");
                return ExitCode::FAILURE;
            }
            outcome.print();
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("ltnc-perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// A splitmix64 step: derives independent sub-seeds from the run seed.
#[must_use]
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `len` seeded pseudo-random bytes.
#[must_use]
pub fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
    use rand::{RngCore, SeedableRng};
    let mut bytes = vec![0u8; len];
    rand::rngs::SmallRng::seed_from_u64(seed).fill_bytes(&mut bytes);
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one top-level list of `BENCHMARK.json`.
    fn listed(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let end = json[start..].find(']').expect("list closes") + start;
        json[start..end]
            .split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        assert_eq!(listed(&json, "end_to_end"), END_TO_END);
        assert_eq!(listed(&json, "per_layer"), per_layer_names());
        for name in listed(&json, "workloads") {
            let known = name == "edge_zipf" || swarm::Spec::named(&name).is_some();
            assert!(known, "{name} is not a workload");
        }
    }

    #[test]
    fn sub_seeds_differ_per_salt_and_repeat_per_seed() {
        assert_eq!(mix(7, 1), mix(7, 1));
        assert_ne!(mix(7, 1), mix(7, 2));
        assert_ne!(mix(7, 1), mix(8, 1));
        assert_eq!(seeded_bytes(64, 3), seeded_bytes(64, 3));
    }
}
