//! The swarm workloads: one seeded dissemination per repetition, over a
//! seeded random 4-regular overlay with seeded per-link loss, on the
//! sharded runtime with two reactor workers, driven through
//! `ltnc_topo::run_topology`.

use std::time::{Duration, Instant};

use ltnc_metrics::{ReactorSnapshot, WireCounters};
use ltnc_net::faults::DatagramFaultPlan;
use ltnc_net::NodeOptions;
use ltnc_scheme::SchemeKind;
use ltnc_serve::ServeOptions;
use ltnc_telemetry::TraceEvent;
use ltnc_topo::{
    run_topology, FlightRecorder, SwarmRuntime, Topology, TopologyConfig, TopologyFaults,
    TopologyReport,
};

use crate::layers::{self, Frames, REPLAY_RESERVE};
use crate::stats::{median, quantile, summarize};
use crate::{cpu, mix, seeded_bytes, Outcome};

/// Reactor workers: the box the sizings were measured on has two cores.
const WORKERS: usize = 2;

/// Overlay degree of every swarm workload.
const DEGREE: usize = 4;

/// Per-directed-link datagram loss of every swarm workload.
const LOSS: f64 = 0.05;

/// A swarm run that has not converged by then counts its incomplete
/// receivers as failed.
const TIMEOUT: Duration = Duration::from_secs(60);

/// Fewest repetitions a run makes, whatever `--seconds` says: the
/// reported figures are medians over repetitions.
const MIN_REPS: usize = 3;

/// Deepest BFS ring with its own per-hop completion metric.
pub const MAX_HOP: usize = 8;

/// One swarm workload.
pub struct Spec {
    scheme: SchemeKind,
    code_length: usize,
    payload_size: usize,
    object_len: usize,
    nodes: usize,
    tick: Duration,
    /// Per-node trace ring of the traced run: large enough that each
    /// node's `ObjectDecoded` event usually survives until the drain.
    trace_capacity: usize,
}

impl Spec {
    /// The workload called `name`, if it is a swarm workload.
    #[must_use]
    pub fn named(name: &str) -> Option<Spec> {
        let default_tick = NodeOptions::default().tick;
        match name {
            "paper_ltnc" => Some(Spec {
                scheme: SchemeKind::Ltnc,
                code_length: 512,
                payload_size: 1024,
                object_len: 512 * 1024,
                nodes: 16,
                tick: default_tick,
                trace_capacity: 1 << 17,
            }),
            "paper_rlnc" => Some(Spec {
                scheme: SchemeKind::Rlnc,
                code_length: 1024,
                payload_size: 1024,
                object_len: 1024 * 1024,
                nodes: 32,
                tick: default_tick,
                trace_capacity: 1 << 16,
            }),
            // A 10 ms tick saturates both cores of a 2-core machine, and a
            // saturated swarm re-offers more the slower the machine runs,
            // so its figures track host contention. 40 ms leaves headroom.
            "swarm_1k" => Some(Spec {
                scheme: SchemeKind::Ltnc,
                code_length: 8,
                payload_size: 32,
                object_len: 512,
                nodes: 1000,
                tick: Duration::from_millis(40),
                trace_capacity: 1 << 12,
            }),
            _ => None,
        }
    }

    fn receivers(&self) -> usize {
        self.nodes - 1
    }

    /// The run configuration of repetition seed `seed`: every input of
    /// the repetition (overlay, object, loss pattern, node RNGs, session)
    /// is derived from it.
    fn config(&self, seed: u64, traced: bool) -> (TopologyConfig, Vec<u8>) {
        let object = seeded_bytes(self.object_len, mix(seed, 2));
        let mut config = TopologyConfig::quick(
            self.scheme,
            object.clone(),
            Topology::random_regular(self.nodes, DEGREE, mix(seed, 1)),
        );
        config.code_length = self.code_length;
        config.payload_size = self.payload_size;
        config.link_faults =
            TopologyFaults::uniform(DatagramFaultPlan::clean(mix(seed, 3)).drop_rate(LOSS));
        config.options =
            NodeOptions { seed: mix(seed, 4), tick: self.tick, ..NodeOptions::default() };
        config.session = mix(seed, 5);
        config.timeout = TIMEOUT;
        config.runtime = SwarmRuntime::Sharded { workers: WORKERS };
        if traced {
            config.trace_capacity = Some(self.trace_capacity);
            config.flight_recorder = Some(FlightRecorder::default());
        }
        (config, object)
    }
}

/// One finished repetition.
struct Rep {
    converge_s: f64,
    setup_s: f64,
    cpu_s: f64,
    /// Receivers holding a bit-exact object at the deadline.
    exact: usize,
    report: TopologyReport,
}

fn run_rep(spec: &Spec, seed: u64, traced: bool) -> Result<Rep, String> {
    let (config, object) = spec.config(seed, traced);
    let started = Instant::now();
    let (report, cpu_s) = cpu::measure(|| run_topology(&config)).map_err(|e| e.to_string())?;
    let wall = started.elapsed();
    let report = report.map_err(|e| format!("swarm failed to start: {e}"))?;
    let exact = report
        .swarm
        .peer_reports
        .iter()
        .filter(|peer| peer.complete && peer.object.as_deref() == Some(&object[..]))
        .count();
    Ok(Rep {
        converge_s: report.swarm.elapsed.as_secs_f64(),
        setup_s: wall.saturating_sub(report.swarm.elapsed).as_secs_f64(),
        cpu_s,
        exact,
        report,
    })
}

/// Runs a swarm workload for about `budget` and reports its metrics.
///
/// # Errors
///
/// When a swarm cannot be set up at all.
pub fn run(spec: &Spec, seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    if trace {
        return run_traced(spec, seed, budget);
    }
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut last = Duration::ZERO;
    // Another repetition starts only while one as long as the last fits.
    while reps.len() < MIN_REPS || started.elapsed() + last <= budget {
        let rep_started = Instant::now();
        let rep = run_rep(spec, mix(seed, reps.len() as u64), false)?;
        println!(
            "rep {} converge_s {:.3} setup_s {:.3} cpu_s {:.2} radius {}",
            reps.len(),
            rep.converge_s,
            rep.setup_s,
            rep.cpu_s,
            rep.report.max_hops()
        );
        reps.push(rep);
        last = rep_started.elapsed();
    }

    let mut outcome = Outcome::default();
    for rep in &reps {
        outcome.check_many(spec.receivers(), rep.exact);
    }
    let per_rep = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let delivered = (spec.object_len * spec.receivers()) as f64;
    let converge = per_rep(&|r| r.converge_s).unwrap_or(0.0);
    outcome.push("converge_s", converge, "s");
    outcome.push("setup_s", per_rep(&|r| r.setup_s).unwrap_or(0.0), "s");
    outcome.push("cpu_s", per_rep(&|r| r.cpu_s).unwrap_or(0.0), "s");
    outcome.push(
        "wire_bytes_per_byte",
        per_rep(&|r| r.report.swarm.total_wire.bytes_sent as f64 / delivered).unwrap_or(0.0),
        "ratio",
    );
    outcome.push("bit_exact_ratio", outcome.ratio_exact(), "ratio");
    // Without a trace sink a swarm reports only when its slowest receiver
    // completed, which bounds every receiver's fetch latency from above
    // (and is exactly the nearest-rank p99 of fewer than 100 receivers).
    // The traced run reports the per-receiver distribution.
    outcome.push("fetch_p50_ms", converge * 1e3, "ms");
    outcome.push("fetch_p99_ms", converge * 1e3, "ms");
    outcome.push(
        "fetch_MBps",
        delivered * outcome.ratio_exact() / converge.max(f64::MIN_POSITIVE) / 1e6,
        "MB/s",
    );
    println!("repetitions {}", reps.len());
    Ok(outcome)
}

/// The traced run: alternating untraced and traced repetitions of the
/// same seeds, then the layer replays at the workload's dimensions.
fn run_traced(spec: &Spec, seed: u64, budget: Duration) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut last = Duration::ZERO;
    // One pair always runs; further pairs only while a pair still fits.
    while traced.is_empty() || started.elapsed() + last + REPLAY_RESERVE <= budget {
        let pair_started = Instant::now();
        let rep_seed = mix(seed, traced.len() as u64);
        plain.push(run_rep(spec, rep_seed, false)?);
        traced.push(run_rep(spec, rep_seed, true)?);
        last = pair_started.elapsed();
    }

    let mut outcome = Outcome::default();
    for rep in plain.iter().chain(&traced) {
        outcome.check_many(spec.receivers(), rep.exact);
    }
    let reps = traced.len() as f64;
    let receivers = spec.receivers() as f64;

    let mut wire = WireCounters::new();
    let mut source_offers = 0u64;
    let mut dropped = 0u64;
    let mut reactor = ReactorSnapshot::new();
    let (mut recode_control, mut recode_data, mut decode_control, mut decode_data) = (0, 0, 0, 0);
    let mut completions = Vec::new();
    let mut by_hop: Vec<Vec<f64>> = vec![Vec::new(); MAX_HOP + 1];
    let mut rtts_us = Vec::new();
    for rep in &traced {
        let swarm = &rep.report.swarm;
        wire.merge(&swarm.total_wire);
        source_offers += swarm.source_report.wire.transfers_offered;
        dropped += swarm.total_faults.dropped_in;
        for shard in &swarm.reactor {
            reactor.merge(shard);
        }
        for (index, node) in swarm.node_reports().enumerate() {
            recode_control += node.recoding.control_ops();
            recode_data += node.recoding.data_ops();
            decode_control += node.decoding.control_ops();
            decode_data += node.decoding.data_ops();
            for timed in &node.events {
                match timed.event {
                    // Each node's trace clock starts when its ring is
                    // created during set-up, before the start gun.
                    TraceEvent::ObjectDecoded => {
                        let at = timed.at.as_secs_f64();
                        completions.push(at);
                        // The source is topology node 0, so swarm and
                        // topology indices coincide.
                        let hop = rep.report.distances[index];
                        if hop <= MAX_HOP {
                            by_hop[hop].push(at);
                        }
                    }
                    TraceEvent::FeedbackReceived { rtt, .. } => {
                        rtts_us.push(rtt.as_secs_f64() * 1e6);
                    }
                    _ => {}
                }
            }
        }
    }
    let useful = wire.useful_deliveries.max(1) as f64;
    let offered = wire.transfers_offered.max(1) as f64;

    let plain_cpu = median(&plain.iter().map(|r| r.cpu_s).collect::<Vec<_>>()).unwrap_or(0.0);
    let traced_cpu = median(&traced.iter().map(|r| r.cpu_s).collect::<Vec<_>>()).unwrap_or(0.0);

    // Layer replays at the workload's dimensions.
    let gf2_1k = layers::xor_ns(1024);
    let gf2_32 = layers::xor_ns(32);
    let codec = layers::codec_replay(spec.scheme, spec.code_length, spec.payload_size, LOSS, seed);
    for &exact in &codec.exact {
        outcome.check(exact);
    }
    let frames = Frames {
        headers: wire.transfers_offered,
        feedback: wire.transfers_delivered + wire.transfers_aborted,
        payloads: wire.transfers_delivered,
    };
    let envelope = layers::envelope_ns(spec.scheme, spec.code_length, spec.payload_size, &frames);
    let socket = layers::udp_us(spec.scheme, spec.code_length, spec.payload_size, &frames)
        .map_err(|e| format!("loopback socket replay failed: {e}"))?;
    // A swarm serves nothing; the serving layer is replayed at the
    // workload's dimensions: its object fetched from an edge server.
    let serve = layers::serve_replay(
        spec.scheme,
        spec.code_length,
        spec.payload_size,
        spec.object_len,
        seed,
    )?;
    for &exact in &serve.exact {
        outcome.check(exact);
    }
    let store = layers::store_times(
        spec.scheme,
        spec.code_length,
        spec.payload_size,
        ServeOptions::default().warm_cache_capacity,
    );

    // Busy time per repetition, attributed from outside: per-call time of
    // each layer × the report counter that stands for its calls.
    let relay_offers = wire.transfers_offered - source_offers;
    let codec_busy = (codec.encode_us * source_offers as f64
        + codec.recode_us * relay_offers as f64
        + codec.accept_us * frames.feedback as f64
        + codec.deliver_us * wire.transfers_delivered as f64)
        / 1e6
        / reps
        + codec.reassemble_ms / 1e3 * receivers;
    let sent = wire.datagrams_sent as f64;
    let received = wire.datagrams_received as f64;
    let envelope_busy = (envelope.encode_ns * sent + envelope.decode_ns * received) / 1e9 / reps;
    let socket_busy = (socket.send_us * sent + socket.recv_us * received) / 1e6 / reps;

    outcome.push("gf2.xor_ns_1k", gf2_1k, "ns");
    outcome.push("gf2.xor_ns_32", gf2_32, "ns");
    outcome.push("codec.encode_us", codec.encode_us, "us");
    outcome.push("codec.recode_us", codec.recode_us, "us");
    outcome.push("codec.accept_us", codec.accept_us, "us");
    outcome.push("codec.deliver_us", codec.deliver_us, "us");
    outcome.push("codec.reassemble_ms", codec.reassemble_ms, "ms");
    outcome.push("codec.busy_s", codec_busy, "s");
    outcome.push("codec.recode_control_ops_per_useful", recode_control as f64 / useful, "ops");
    outcome.push("codec.recode_data_ops_per_useful", recode_data as f64 / useful, "ops");
    outcome.push("codec.decode_control_ops_per_useful", decode_control as f64 / useful, "ops");
    outcome.push("codec.decode_data_ops_per_useful", decode_data as f64 / useful, "ops");
    outcome.push("envelope.encode_ns", envelope.encode_ns, "ns");
    outcome.push("envelope.decode_ns", envelope.decode_ns, "ns");
    outcome.push("net.sendto_us", socket.send_us, "us");
    outcome.push("net.recvfrom_us", socket.recv_us, "us");
    outcome.push("net.datagrams_per_useful", sent / useful, "ratio");
    outcome.push(
        "net.header_bytes_per_datagram",
        (wire.bytes_sent - wire.payload_bytes_sent) as f64 / sent.max(1.0),
        "B",
    );
    outcome.push("net.offers_per_useful", wire.transfers_offered as f64 / useful, "ratio");
    outcome.push("net.abort_ratio", wire.transfers_aborted as f64 / offered, "ratio");
    outcome.push(
        "net.useful_ratio",
        wire.useful_deliveries as f64 / wire.transfers_delivered.max(1) as f64,
        "ratio",
    );
    outcome.push("net.timeouts_per_offer", wire.offer_timeouts as f64 / offered, "ratio");

    let found = completions.len();
    let mut completions_sorted = completions;
    let completion = summarize(&mut completions_sorted);
    outcome.push("protocol.node_complete_p50_s", completion.map_or(0.0, |s| s.median), "s");
    outcome.push(
        "protocol.node_complete_p90_s",
        quantile(&completions_sorted, 0.90).unwrap_or(0.0),
        "s",
    );
    for (hop, times) in by_hop.iter().enumerate().skip(1) {
        // 0 marks a ring no node of this overlay sits on.
        outcome.push(format!("protocol.complete_s.hop{hop}"), median(times).unwrap_or(0.0), "s");
    }
    let rtt = summarize(&mut rtts_us);
    outcome.push("protocol.rtt_p50_us", rtt.map_or(0.0, |s| s.median), "us");
    outcome.push("protocol.rtt_p99_us", quantile(&rtts_us, 0.99).unwrap_or(0.0), "us");
    outcome.push(
        "faults.drop_share",
        dropped as f64 / (received + dropped as f64).max(1.0),
        "ratio",
    );

    let dispatches =
        reactor.readable_dispatches + reactor.timer_dispatches + reactor.control_dispatches;
    outcome.push("reactor.dispatch_busy_s", reactor.dispatch_ns.sum as f64 / 1e9 / reps, "s");
    outcome.push("reactor.dispatch_mean_ns", reactor.dispatch_ns.mean(), "ns");
    outcome.push("reactor.poll_wait_s", reactor.poll_wait_us.sum as f64 / 1e6 / reps, "s");
    outcome.push("reactor.tick_lag_mean_us", reactor.tick_lag_us.mean(), "us");
    outcome.push("reactor.dispatches_per_datagram", dispatches as f64 / received.max(1.0), "ratio");
    outcome.push("reactor.polls_per_datagram", reactor.polls as f64 / received.max(1.0), "ratio");

    outcome.push("serve.hit_ratio", serve.hit_ratio, "ratio");
    outcome.push("serve.hit_ns", store.hit_ns, "ns");
    outcome.push("serve.miss_us", store.miss_us, "us");
    outcome.push("serve.offers_per_symbol", serve.offers_per_symbol, "ratio");
    outcome.push("serve.abort_ratio", serve.abort_ratio, "ratio");

    outcome.push(
        "ledger.unattributed_s",
        plain_cpu - (codec_busy + envelope_busy + socket_busy),
        "s",
    );
    outcome.push("trace.overhead_cpu", traced_cpu / plain_cpu.max(f64::MIN_POSITIVE), "ratio");
    outcome.push("trace.completion_coverage", found as f64 / (receivers * reps), "ratio");

    println!(
        "traced repetitions {} | node completions {found} | rtt samples {} | codec replays {} | \
         serving fetches {} | busy s/rep: codec {codec_busy:.3} envelope {envelope_busy:.3} \
         socket {socket_busy:.3} of cpu {plain_cpu:.3}",
        traced.len(),
        rtt.map_or(0, |s| s.count),
        codec.exact.len(),
        serve.exact.len(),
    );
    Ok(outcome)
}
