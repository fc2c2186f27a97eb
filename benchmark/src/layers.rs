//! Per-layer replays: each layer's public calls, timed from outside at a
//! workload's dimensions.

use std::hint::black_box;
use std::io;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

use ltnc_gf2::{EncodedPacket, Payload};
use ltnc_net::envelope::{self, EnvelopeHeader, Message, MessageKind, TraceContext};
use ltnc_scheme::{SchemeKind, SchemeParams};
use ltnc_serve::{fetch, ClientOptions, ObjectStore, ServeOptions, Server};
use ltnc_session::{ReceiverSession, SourceSession};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::stats::median;
use crate::{mix, seeded_bytes};

/// Timed batches per micro-measurement; the median batch is reported.
const BATCHES: usize = 7;

/// Shortest timed batch, so the clock's resolution is negligible.
const MIN_BATCH: Duration = Duration::from_millis(5);

/// Time a traced run keeps free for the layer replays after its last
/// traced repetition.
pub const REPLAY_RESERVE: Duration = Duration::from_secs(5);

/// Least total time the codec and serving replays each run for.
const MIN_REPLAY: Duration = Duration::from_millis(300);

/// Fewest fetches a serving replay makes.
const MIN_FETCHES: usize = 5;

/// Nanoseconds per call of `call`, as the median over [`BATCHES`] batches
/// each long enough to dwarf the clock's resolution.
fn ns_per_call(mut call: impl FnMut()) -> f64 {
    let mut iterations = 1u64;
    loop {
        let started = Instant::now();
        for _ in 0..iterations {
            call();
        }
        if started.elapsed() >= MIN_BATCH || iterations >= 1 << 30 {
            break;
        }
        iterations *= 2;
    }
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..iterations {
                call();
            }
            started.elapsed().as_secs_f64() * 1e9 / iterations as f64
        })
        .collect();
    median(&batches).expect("at least one batch")
}

/// Nanoseconds per `Payload::xor_assign` at `size` bytes.
#[must_use]
pub fn xor_ns(size: usize) -> f64 {
    let mut target = Payload::from_vec(seeded_bytes(size, 1));
    let source = Payload::from_vec(seeded_bytes(size, 2));
    ns_per_call(|| black_box(&mut target).xor_assign(black_box(&source)))
}

/// Per-call times of one generation's coding calls.
pub struct CodecTimes {
    /// `SourceSession::make_packet`, microseconds.
    pub encode_us: f64,
    /// Relay recode, `ReceiverSession::make_packet`, microseconds.
    pub recode_us: f64,
    /// Header-first check, `ReceiverSession::would_accept`, microseconds.
    pub accept_us: f64,
    /// `ReceiverSession::deliver`, microseconds.
    pub deliver_us: f64,
    /// `ReceiverSession::reassemble`, milliseconds.
    pub reassemble_ms: f64,
    /// Whether each replay reassembled its object bit-exactly.
    pub exact: Vec<bool>,
    /// Source encoding and sink decoding work of the first replay.
    pub ops: OpsPerUseful,
}

/// Coding operations per useful delivery, split as in the paper's Fig. 8.
#[derive(Default)]
pub struct OpsPerUseful {
    /// Control-structure operations of the source's encoding.
    pub recode_control: f64,
    /// Packet-data operations of the source's encoding.
    pub recode_data: f64,
    /// Control-structure operations of the sink's decoding.
    pub decode_control: f64,
    /// Packet-data operations of the sink's decoding.
    pub decode_data: f64,
}

/// Accumulated time and calls of one coding call.
#[derive(Default)]
struct Tally {
    total: Duration,
    calls: u64,
}

impl Tally {
    fn time<T>(&mut self, call: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let result = call();
        self.add(started.elapsed());
        result
    }

    fn add(&mut self, elapsed: Duration) {
        self.total += elapsed;
        self.calls += 1;
    }

    fn mean_us(&self) -> f64 {
        self.total.as_secs_f64() * 1e6 / self.calls.max(1) as f64
    }
}

/// Replays one generation in-process through the session layer, the way
/// a swarm moves it: a source feeds a relay, the relay recodes from its
/// partial state to a sink, and each hop loses a `loss` share of its
/// datagrams. Replays repeat, each with fresh seeded inputs, until
/// [`MIN_REPLAY`] has passed.
#[must_use]
pub fn codec_replay(
    scheme: SchemeKind,
    code_length: usize,
    payload_size: usize,
    loss: f64,
    seed: u64,
) -> CodecTimes {
    let params = SchemeParams::new(scheme, code_length, payload_size);
    let (mut encode, mut recode, mut accept, mut deliver, mut reassemble) =
        (Tally::default(), Tally::default(), Tally::default(), Tally::default(), Tally::default());
    let mut exact = Vec::new();
    let mut ops = None;
    let started = Instant::now();
    while exact.is_empty() || started.elapsed() < MIN_REPLAY {
        let replay_seed = mix(seed, 0xC0DE + exact.len() as u64);
        let object = seeded_bytes(code_length * payload_size, replay_seed);
        let mut source = SourceSession::new(&object, params);
        let mut relay = ReceiverSession::new(*source.manifest());
        let mut sink = ReceiverSession::new(*source.manifest());
        let mut rng = SmallRng::seed_from_u64(mix(replay_seed, 1));
        let mut lossy = SmallRng::seed_from_u64(mix(replay_seed, 2));
        let mut useful = 0u64;
        for _ in 0..64 * code_length + 1024 {
            if sink.is_complete() {
                break;
            }
            if !relay.is_complete() {
                let made = encode.time(|| source.make_packet(&mut rng, |_| true));
                if let Some((generation, packet)) = made {
                    if !lossy.gen_bool(loss) {
                        relay.deliver(generation, &packet);
                    }
                }
            }
            // A relay with nothing to recode from returns at once; only
            // calls that produced a packet count as recodes.
            let recode_started = Instant::now();
            let Some(packet) = relay.make_packet(0, &mut rng) else { continue };
            recode.add(recode_started.elapsed());
            if lossy.gen_bool(loss) {
                continue;
            }
            let wanted = accept.time(|| sink.would_accept(0, packet.vector()));
            if wanted && !lossy.gen_bool(loss) {
                useful += u64::from(deliver.time(|| sink.deliver(0, &packet)));
            }
        }
        let rebuilt = reassemble.time(|| sink.reassemble());
        exact.push(rebuilt.as_deref() == Some(&object[..]));
        ops.get_or_insert_with(|| {
            let (encoding, decoding) = (source.recoding_counters(), sink.decoding_counters());
            let useful = useful.max(1) as f64;
            OpsPerUseful {
                recode_control: encoding.control_ops() as f64 / useful,
                recode_data: encoding.data_ops() as f64 / useful,
                decode_control: decoding.control_ops() as f64 / useful,
                decode_data: decoding.data_ops() as f64 / useful,
            }
        });
    }
    CodecTimes {
        encode_us: encode.mean_us(),
        recode_us: recode.mean_us(),
        accept_us: accept.mean_us(),
        deliver_us: deliver.mean_us(),
        reassemble_ms: reassemble.mean_us() / 1e3,
        exact,
        ops: ops.unwrap_or_default(),
    }
}

/// How many frames of each kind a run sent: the weights of the
/// per-frame envelope and socket times.
pub struct Frames {
    /// `DATA-HEADER` offers.
    pub headers: u64,
    /// `FEEDBACK-ACCEPT`/`ABORT` verdicts.
    pub feedback: u64,
    /// `DATA-PAYLOAD` deliveries.
    pub payloads: u64,
}

impl Frames {
    /// The `(header, feedback, payload)` weighted mean of three per-kind
    /// values.
    fn weigh(&self, header: f64, feedback: f64, payload: f64) -> f64 {
        let total = (self.headers + self.feedback + self.payloads).max(1) as f64;
        (header * self.headers as f64
            + feedback * self.feedback as f64
            + payload * self.payloads as f64)
            / total
    }
}

/// One encoded frame of each kind at the given dimensions:
/// `[header, feedback, payload]`.
fn sample_frames(scheme: SchemeKind, code_length: usize, payload_size: usize) -> [Vec<u8>; 3] {
    let params = SchemeParams::new(scheme, code_length, payload_size);
    let object = seeded_bytes(code_length * payload_size, 3);
    let mut source = SourceSession::new(&object, params);
    let mut rng = SmallRng::seed_from_u64(4);
    let (_, packet): (u32, EncodedPacket) =
        source.make_packet(&mut rng, |_| true).expect("a source always has a packet");
    let header = |kind| EnvelopeHeader { kind, scheme, session: 0x5EED, generation: 0 };
    let trace = TraceContext::origin_now();
    [
        envelope::encode(
            &header(MessageKind::DataHeader),
            &Message::DataHeader {
                transfer: 7,
                trace,
                payload_size,
                vector: packet.vector().clone(),
            },
        ),
        envelope::encode(
            &header(MessageKind::FeedbackAccept),
            &Message::Feedback { transfer: 7, accept: true },
        ),
        envelope::encode(
            &header(MessageKind::DataPayload),
            &Message::DataPayload { transfer: 7, trace, packet },
        ),
    ]
}

/// Mean per-frame envelope times, nanoseconds.
pub struct EnvelopeTimes {
    /// `envelope::encode`.
    pub encode_ns: f64,
    /// `envelope::decode_view`.
    pub decode_ns: f64,
}

/// `envelope::encode` and `decode_view` per frame, weighted by the
/// run's frame mix.
#[must_use]
pub fn envelope_ns(
    scheme: SchemeKind,
    code_length: usize,
    payload_size: usize,
    frames: &Frames,
) -> EnvelopeTimes {
    let encoded = sample_frames(scheme, code_length, payload_size);
    let decoded: Vec<ltnc_net::Envelope> = encoded
        .iter()
        .map(|bytes| envelope::decode(bytes).expect("a freshly encoded frame decodes"))
        .collect();
    let encode: Vec<f64> = decoded
        .iter()
        .map(|frame| {
            ns_per_call(|| {
                black_box(envelope::encode(black_box(&frame.header), black_box(&frame.message)));
            })
        })
        .collect();
    let decode: Vec<f64> = encoded
        .iter()
        .map(|bytes| {
            ns_per_call(|| {
                let _ = black_box(envelope::decode_view(black_box(bytes)));
            })
        })
        .collect();
    EnvelopeTimes {
        encode_ns: frames.weigh(encode[0], encode[1], encode[2]),
        decode_ns: frames.weigh(decode[0], decode[1], decode[2]),
    }
}

/// Mean per-datagram socket times, microseconds.
pub struct SocketTimes {
    /// `UdpSocket::send_to`.
    pub send_us: f64,
    /// `UdpSocket::recv_from` of an already queued datagram.
    pub recv_us: f64,
}

/// `send_to` and `recv_from` on loopback at the workload's frame sizes,
/// weighted by the run's frame mix.
///
/// # Errors
///
/// When the loopback sockets cannot be set up.
pub fn udp_us(
    scheme: SchemeKind,
    code_length: usize,
    payload_size: usize,
    frames: &Frames,
) -> io::Result<SocketTimes> {
    let sizes = sample_frames(scheme, code_length, payload_size).map(|f| f.len());
    let sender = UdpSocket::bind("127.0.0.1:0")?;
    let receiver = UdpSocket::bind("127.0.0.1:0")?;
    let to = receiver.local_addr()?;
    // A lost datagram must fail the replay, not hang it.
    receiver.set_read_timeout(Some(Duration::from_secs(1)))?;
    // Small bursts stay far below the loopback socket buffer, so no
    // datagram is lost and every receive finds one queued.
    const BURST: usize = 16;
    const BURSTS: usize = 400;
    let mut per_size = Vec::new();
    for size in sizes {
        let datagram = vec![0xA5u8; size];
        let mut buf = vec![0u8; size + 64];
        let (mut send, mut recv) = (Tally::default(), Tally::default());
        for _ in 0..BURSTS {
            for _ in 0..BURST {
                send.time(|| sender.send_to(&datagram, to))?;
            }
            for _ in 0..BURST {
                recv.time(|| receiver.recv_from(&mut buf))?;
            }
        }
        per_size.push((send.mean_us(), recv.mean_us()));
    }
    Ok(SocketTimes {
        send_us: frames.weigh(per_size[0].0, per_size[1].0, per_size[2].0),
        recv_us: frames.weigh(per_size[0].1, per_size[1].1, per_size[2].1),
    })
}

/// Warm-ring hit and cold miss times of `ObjectStore::symbol`.
pub struct StoreTimes {
    /// A retained symbol, nanoseconds.
    pub hit_ns: f64,
    /// A freshly encoded symbol, microseconds.
    pub miss_us: f64,
}

/// `ObjectStore::symbol` on a private store holding one generation at the
/// given dimensions.
#[must_use]
pub fn store_times(
    scheme: SchemeKind,
    code_length: usize,
    payload_size: usize,
    capacity: usize,
) -> StoreTimes {
    let store = ObjectStore::new(capacity).expect("a valid warm-ring capacity");
    let object = seeded_bytes(code_length * payload_size, 5);
    store
        .register(1, &object, SchemeParams::new(scheme, code_length, payload_size))
        .expect("a fresh store registers the object");
    // Past the head, every request encodes a fresh symbol.
    let miss_ns = ns_per_call(|| {
        black_box(store.symbol(1, 0, u64::MAX));
    });
    // Sequence 0 clamps forward to the oldest retained symbol: a hit.
    let hit_ns = ns_per_call(|| {
        black_box(store.symbol(1, 0, 0));
    });
    StoreTimes { hit_ns, miss_us: miss_ns / 1e3 }
}

/// What one serving replay saw, from `Server::counters`.
pub struct ServeReplay {
    /// Store hits ÷ symbol requests.
    pub hit_ratio: f64,
    /// Offers ÷ delivered symbols.
    pub offers_per_symbol: f64,
    /// Aborted offers ÷ offers.
    pub abort_ratio: f64,
    /// Whether each fetch returned the object bit-exactly.
    pub exact: Vec<bool>,
}

/// Serves one seeded object of `object_len` bytes at the given dimensions
/// from a fresh `Server` (default options, one worker) and fetches it with
/// one client, back to back, for at least [`MIN_FETCHES`] fetches and
/// [`MIN_REPLAY`].
///
/// # Errors
///
/// When the server cannot be set up.
pub fn serve_replay(
    scheme: SchemeKind,
    code_length: usize,
    payload_size: usize,
    object_len: usize,
    seed: u64,
) -> Result<ServeReplay, String> {
    let object = seeded_bytes(object_len, mix(seed, 0x5E4E));
    let options = ServeOptions { workers: 1, ..ServeOptions::default() };
    let bind = "127.0.0.1:0".parse().expect("valid address");
    let server =
        Server::spawn(bind, options).map_err(|e| format!("server failed to start: {e}"))?;
    server
        .register(1, &object, SchemeParams::new(scheme, code_length, payload_size))
        .map_err(|e| format!("register: {e}"))?;
    let mut exact = Vec::new();
    let started = Instant::now();
    while exact.len() < MIN_FETCHES || started.elapsed() < MIN_REPLAY {
        let fetched = fetch(server.local_addr(), 1, scheme, &ClientOptions::default());
        exact.push(fetched.is_ok_and(|report| report.object == object));
    }
    let counters = server.shutdown();
    let requests = (counters.cache_hits + counters.cache_misses).max(1) as f64;
    let offered = counters.transfers_offered.max(1) as f64;
    Ok(ServeReplay {
        hit_ratio: counters.cache_hits as f64 / requests,
        offers_per_symbol: offered / counters.transfers_delivered.max(1) as f64,
        abort_ratio: counters.transfers_aborted as f64 / offered,
        exact,
    })
}
