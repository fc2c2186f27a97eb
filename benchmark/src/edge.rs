//! The `edge_zipf` workload: one edge-cache `Server` and two closed-loop
//! clients calling `fetch` back to back, with Zipf(1) object popularity.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ltnc_metrics::{ServeCounters, WireCounters};
use ltnc_scheme::{SchemeKind, SchemeParams};
use ltnc_serve::{fetch, ClientOptions, ServeOptions, Server};
use ltnc_telemetry::{RingSink, TraceEvent};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::layers::{self, Frames, REPLAY_RESERVE};
use crate::stats::{median, quantile, summarize};
use crate::swarm::MAX_HOP;
use crate::{cpu, mix, seeded_bytes, Outcome};

/// Registered objects; object `i` (from 0) is requested with probability
/// proportional to `1 / (i + 1)`.
const OBJECTS: usize = 16;
const CODE_LENGTH: usize = 256;
const PAYLOAD_SIZE: usize = 1024;
/// One generation per object.
const OBJECT_LEN: usize = CODE_LENGTH * PAYLOAD_SIZE;
/// Warm-ring symbols kept per generation.
const WARM_RING: usize = 256;
/// Closed-loop client threads.
const CLIENTS: usize = 2;
/// Server session workers.
const WORKERS: usize = 2;
/// Fetches each client makes per round: a round is a fixed amount of
/// work, so its wall and CPU time are comparable across runs.
const FETCHES_PER_CLIENT: usize = 100;
/// Fewest rounds a run makes: five rounds give 1000 timed fetches, so
/// p99 has at least ten samples beyond it.
const MIN_ROUNDS: usize = 5;
/// Trace ring of the traced server.
const TRACE_CAPACITY: usize = 1 << 18;

/// One fetch: its latency and whether it returned the source object
/// bit-exactly.
struct Sample {
    latency_ms: f64,
    exact: bool,
}

/// One round: a fresh server set up and warmed, then every client's
/// fetches.
struct Round {
    setup_s: f64,
    warm_exact: Vec<bool>,
    wall_s: f64,
    cpu_s: f64,
    samples: Vec<Sample>,
    /// Server counters of the timed section alone.
    server: ServeCounters,
    /// Client-side wire counters summed over the timed fetches.
    client: WireCounters,
    /// `SessionCompleted` events the trace ring kept (traced rounds).
    completions_traced: usize,
}

/// Fetches `id` once and checks it against `object`.
fn fetch_checked(addr: SocketAddr, id: usize, object: &[u8]) -> (Sample, WireCounters) {
    let started = Instant::now();
    let options = ClientOptions::default();
    match fetch(addr, id as u64, SchemeKind::Ltnc, &options) {
        Ok(report) => (
            Sample {
                latency_ms: started.elapsed().as_secs_f64() * 1e3,
                exact: report.object == object,
            },
            report.wire,
        ),
        // A failed fetch misses any latency limit.
        Err(_) => (
            Sample {
                latency_ms: started.elapsed().max(options.timeout).as_secs_f64() * 1e3,
                exact: false,
            },
            WireCounters::new(),
        ),
    }
}

/// Cumulative Zipf(1) weights over the objects.
fn zipf_cdf() -> Vec<f64> {
    let weights: Vec<f64> = (1..=OBJECTS).map(|rank| 1.0 / rank as f64).collect();
    let total: f64 = weights.iter().sum();
    weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect()
}

fn run_round(objects: &Arc<Vec<Vec<u8>>>, seed: u64, traced: bool) -> Result<Round, String> {
    let sink = traced.then(|| Arc::new(RingSink::new(TRACE_CAPACITY)));
    let bind: SocketAddr = "127.0.0.1:0".parse().expect("valid address");
    let options = ServeOptions {
        workers: WORKERS,
        warm_cache_capacity: WARM_RING,
        ..ServeOptions::default()
    };

    let setup_started = Instant::now();
    let server = Server::spawn_traced(bind, options, sink.clone().map(|s| s as _))
        .map_err(|e| format!("server failed to start: {e}"))?;
    let params = SchemeParams::new(SchemeKind::Ltnc, CODE_LENGTH, PAYLOAD_SIZE);
    for (id, object) in objects.iter().enumerate() {
        server.register(id as u64, object, params).map_err(|e| format!("register: {e}"))?;
    }
    let addr = server.local_addr();
    let warm_exact: Vec<bool> = objects
        .iter()
        .enumerate()
        .map(|(id, object)| fetch_checked(addr, id, object).0.exact)
        .collect();
    let setup_s = setup_started.elapsed().as_secs_f64();

    let before = server.counters();
    let cdf = zipf_cdf();
    let started = Instant::now();
    let (per_client, cpu_s) = cpu::measure(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let cdf = &cdf;
                    scope.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(mix(seed, client as u64));
                        let mut samples = Vec::with_capacity(FETCHES_PER_CLIENT);
                        let mut wire = WireCounters::new();
                        for _ in 0..FETCHES_PER_CLIENT {
                            let draw: f64 = rng.gen();
                            let id = cdf.iter().position(|&c| draw < c).unwrap_or(OBJECTS - 1);
                            let (sample, fetched) = fetch_checked(addr, id, &objects[id]);
                            samples.push(sample);
                            wire.merge(&fetched);
                        }
                        (samples, wire)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect::<Vec<_>>()
        })
    })
    .map_err(|e| e.to_string())?;
    let wall_s = started.elapsed().as_secs_f64();
    let server_counters = server.counters().snapshot_delta(&before);
    let _ = server.shutdown();

    let mut samples = Vec::new();
    let mut client = WireCounters::new();
    for (client_samples, wire) in per_client {
        samples.extend(client_samples);
        client.merge(&wire);
    }
    let completions_traced = sink.map_or(0, |sink| {
        sink.drain()
            .iter()
            .filter(|timed| matches!(timed.event, TraceEvent::SessionCompleted { .. }))
            .count()
    });
    Ok(Round {
        setup_s,
        warm_exact,
        wall_s,
        cpu_s,
        samples,
        server: server_counters,
        client,
        completions_traced,
    })
}

fn check_all(outcome: &mut Outcome, rounds: &[Round]) {
    for round in rounds {
        for &exact in round.warm_exact.iter().chain(round.samples.iter().map(|s| &s.exact)) {
            outcome.check(exact);
        }
    }
}

fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Runs `edge_zipf` for about `budget` and reports its metrics.
///
/// # Errors
///
/// When the server cannot be set up.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    let objects: Arc<Vec<Vec<u8>>> = Arc::new(
        (0..OBJECTS).map(|id| seeded_bytes(OBJECT_LEN, mix(seed, 100 + id as u64))).collect(),
    );
    if trace {
        return run_traced(&objects, seed, budget);
    }
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut last = Duration::ZERO;
    while rounds.len() < MIN_ROUNDS || started.elapsed() + last <= budget {
        let round_started = Instant::now();
        rounds.push(run_round(&objects, mix(seed, rounds.len() as u64), false)?);
        last = round_started.elapsed();
    }

    let mut outcome = Outcome::default();
    check_all(&mut outcome, &rounds);
    let fetches: usize = rounds.iter().map(|r| r.samples.len()).sum();
    let exact_fetches: usize = rounds.iter().flat_map(|r| &r.samples).filter(|s| s.exact).count();
    let wire_bytes: u64 = rounds.iter().map(|r| r.server.bytes_out + r.client.bytes_sent).sum();
    let mut latencies: Vec<f64> =
        rounds.iter().flat_map(|r| r.samples.iter().map(|s| s.latency_ms)).collect();
    let latency = summarize(&mut latencies).ok_or("no fetch was made")?;
    let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();

    outcome.push("converge_s", median_of(&rounds, |r| r.wall_s), "s");
    outcome.push("setup_s", median_of(&rounds, |r| r.setup_s), "s");
    outcome.push("cpu_s", median_of(&rounds, |r| r.cpu_s), "s");
    outcome.push("wire_bytes_per_byte", wire_bytes as f64 / (OBJECT_LEN * fetches) as f64, "ratio");
    outcome.push("bit_exact_ratio", outcome.ratio_exact(), "ratio");
    outcome.push("fetch_p50_ms", latency.median, "ms");
    outcome.push("fetch_p99_ms", quantile(&latencies, 0.99).unwrap_or(0.0), "ms");
    outcome.push("fetch_MBps", (exact_fetches * OBJECT_LEN) as f64 / wall / 1e6, "MB/s");
    println!(
        "rounds {} | fetch_samples {} | best-supported tail {:?}",
        rounds.len(),
        latency.count,
        latency.tail
    );
    Ok(outcome)
}

/// The traced run: alternating untraced and traced rounds of the same
/// seeds, then the layer replays at the workload's dimensions.
fn run_traced(objects: &Arc<Vec<Vec<u8>>>, seed: u64, budget: Duration) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut last = Duration::ZERO;
    while traced.is_empty() || started.elapsed() + last + REPLAY_RESERVE <= budget {
        let pair_started = Instant::now();
        let round_seed = mix(seed, traced.len() as u64);
        plain.push(run_round(objects, round_seed, false)?);
        traced.push(run_round(objects, round_seed, true)?);
        last = pair_started.elapsed();
    }
    let mut outcome = Outcome::default();
    check_all(&mut outcome, &plain);
    check_all(&mut outcome, &traced);

    let rounds = plain.len() as f64;
    let mut server = ServeCounters::new();
    let mut client = WireCounters::new();
    for round in &plain {
        server.merge(&round.server);
        client.merge(&round.client);
    }
    let fetches = (plain.len() * CLIENTS * FETCHES_PER_CLIENT) as f64;
    let useful = client.useful_deliveries.max(1) as f64;
    let offered = server.transfers_offered.max(1) as f64;

    let gf2_1k = layers::xor_ns(1024);
    let gf2_32 = layers::xor_ns(32);
    let codec = layers::codec_replay(SchemeKind::Ltnc, CODE_LENGTH, PAYLOAD_SIZE, 0.0, seed);
    for &exact in &codec.exact {
        outcome.check(exact);
    }
    let frames = Frames {
        headers: server.transfers_offered,
        feedback: server.transfers_delivered + server.transfers_aborted,
        payloads: server.transfers_delivered,
    };
    let envelope = layers::envelope_ns(SchemeKind::Ltnc, CODE_LENGTH, PAYLOAD_SIZE, &frames);
    let store = layers::store_times(SchemeKind::Ltnc, CODE_LENGTH, PAYLOAD_SIZE, WARM_RING);

    // Per round: each symbol request is a warm hit or a cold encode on the
    // server; each offer is checked, each accepted payload delivered and
    // each fetch reassembled on a client. Every frame is encoded once and
    // decoded once.
    let codec_busy = (store.miss_us * server.cache_misses as f64
        + store.hit_ns / 1e3 * server.cache_hits as f64
        + codec.accept_us * server.transfers_offered as f64
        + codec.deliver_us * server.transfers_delivered as f64)
        / 1e6
        / rounds
        + codec.reassemble_ms / 1e3 * fetches / rounds;
    let frame_count = (frames.headers + frames.feedback + frames.payloads) as f64;
    let envelope_busy = (envelope.encode_ns + envelope.decode_ns) * frame_count / 1e9 / rounds;
    let plain_cpu = median_of(&plain, |r| r.cpu_s);
    let traced_cpu = median_of(&traced, |r| r.cpu_s);
    let traced_fetches: usize = traced.iter().map(|r| r.samples.len() + r.warm_exact.len()).sum();
    let completions: usize = traced.iter().map(|r| r.completions_traced).sum();

    outcome.push("gf2.xor_ns_1k", gf2_1k, "ns");
    outcome.push("gf2.xor_ns_32", gf2_32, "ns");
    outcome.push("codec.encode_us", codec.encode_us, "us");
    outcome.push("codec.recode_us", codec.recode_us, "us");
    outcome.push("codec.accept_us", codec.accept_us, "us");
    outcome.push("codec.deliver_us", codec.deliver_us, "us");
    outcome.push("codec.reassemble_ms", codec.reassemble_ms, "ms");
    outcome.push("codec.busy_s", codec_busy, "s");
    // Fetch reports carry no coding counters; the replay's source and
    // sink stand in for the server and a client.
    outcome.push("codec.recode_control_ops_per_useful", codec.ops.recode_control, "ops");
    outcome.push("codec.recode_data_ops_per_useful", codec.ops.recode_data, "ops");
    outcome.push("codec.decode_control_ops_per_useful", codec.ops.decode_control, "ops");
    outcome.push("codec.decode_data_ops_per_useful", codec.ops.decode_data, "ops");
    outcome.push("envelope.encode_ns", envelope.encode_ns, "ns");
    outcome.push("envelope.decode_ns", envelope.decode_ns, "ns");
    // TCP streams: no datagrams, no UDP socket calls.
    outcome.push("net.sendto_us", 0.0, "us");
    outcome.push("net.recvfrom_us", 0.0, "us");
    outcome.push("net.datagrams_per_useful", 0.0, "ratio");
    outcome.push("net.header_bytes_per_datagram", 0.0, "B");
    outcome.push("net.offers_per_useful", server.transfers_offered as f64 / useful, "ratio");
    outcome.push("net.abort_ratio", server.transfers_aborted as f64 / offered, "ratio");
    outcome.push(
        "net.useful_ratio",
        client.useful_deliveries as f64 / server.transfers_delivered.max(1) as f64,
        "ratio",
    );
    outcome.push("net.timeouts_per_offer", client.offer_timeouts as f64 / offered, "ratio");
    // No peer protocol, fault layer or reactor runs on the serving path.
    outcome.push("protocol.node_complete_p50_s", 0.0, "s");
    outcome.push("protocol.node_complete_p90_s", 0.0, "s");
    for hop in 1..=MAX_HOP {
        outcome.push(format!("protocol.complete_s.hop{hop}"), 0.0, "s");
    }
    outcome.push("protocol.rtt_p50_us", 0.0, "us");
    outcome.push("protocol.rtt_p99_us", 0.0, "us");
    outcome.push("faults.drop_share", 0.0, "ratio");
    outcome.push("reactor.dispatch_busy_s", 0.0, "s");
    outcome.push("reactor.dispatch_mean_ns", 0.0, "ns");
    outcome.push("reactor.poll_wait_s", 0.0, "s");
    outcome.push("reactor.tick_lag_mean_us", 0.0, "us");
    outcome.push("reactor.dispatches_per_datagram", 0.0, "ratio");
    outcome.push("reactor.polls_per_datagram", 0.0, "ratio");

    let requests = (server.cache_hits + server.cache_misses).max(1) as f64;
    outcome.push("serve.hit_ratio", server.cache_hits as f64 / requests, "ratio");
    outcome.push("serve.hit_ns", store.hit_ns, "ns");
    outcome.push("serve.miss_us", store.miss_us, "us");
    outcome.push(
        "serve.offers_per_symbol",
        server.transfers_offered as f64 / server.transfers_delivered.max(1) as f64,
        "ratio",
    );
    outcome.push("serve.abort_ratio", server.transfers_aborted as f64 / offered, "ratio");

    outcome.push("ledger.unattributed_s", plain_cpu - (codec_busy + envelope_busy), "s");
    outcome.push("trace.overhead_cpu", traced_cpu / plain_cpu.max(f64::MIN_POSITIVE), "ratio");
    outcome.push("trace.completion_coverage", completions as f64 / traced_fetches as f64, "ratio");
    println!(
        "round pairs {} | codec replays {} | busy s/round: codec {codec_busy:.3} envelope \
         {envelope_busy:.3} of cpu {plain_cpu:.3}",
        plain.len(),
        codec.exact.len()
    );
    Ok(outcome)
}
