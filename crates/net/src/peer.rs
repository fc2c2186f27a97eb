//! The peer node: a scheme node behind a real UDP socket.
//!
//! Every node is one `NodeStateMachine` owning all its coding state
//! ([`SourceSession`] / [`ReceiverSession`]), driven by the callbacks of
//! an `ltnc-reactor` worker (`crate::sharded`): its nonblocking socket is
//! drained whenever it turns readable, its gossip tick is a reactor
//! timer, and datagrams the fault layer holds back are released by a
//! second timer. On every tick the node pushes header-first transfer
//! offers to randomly chosen peers, subject to the aggressiveness gate
//! and a per-peer in-flight budget. A swarm shards many nodes onto a few
//! workers ([`crate::swarm::run_wired_swarm`]); a [`PeerNode`] is the
//! standalone handle — one node on a reactor of its own, with a single
//! worker thread.
//!
//! The in-flight budget is **loss-adaptive** by default (AIMD, with the
//! asymmetry inverted relative to TCP because loss here is erasure, not
//! congestion): an offer that times out while the peer is still
//! answering *other* offers proves the link lossy — that offer pinned a
//! budget slot down for a whole TTL, so the budget grows additively to
//! hand the slot back and keep the live pipeline deep (the paper's
//! redundancy-tracks-the-channel point applied to pacing). A peer gone
//! entirely silent for a TTL is treated as dead: its budget is cut
//! multiplicatively (at most once per TTL window) down to the floor,
//! sparing offers for live peers — and its feedback, once it returns,
//! grows the budget back to (never past) its initial value, so one
//! outage is not a life sentence at the floor. On a clean link nothing
//! times out and the budget never moves — fixed-cap behaviour exactly.
//! Bounds come
//! from [`NodeOptions::inflight_floor`] /
//! [`NodeOptions::inflight_ceiling`]; per-peer loss estimates (EWMA over
//! offer outcomes) are reported in [`PeerReport::loss_estimates`], and
//! budget moves are counted in [`WireCounters`].
//!
//! The pending TTL itself is **latency-adaptive** by default: every
//! feedback arrival is an offer→feedback RTT sample, and the TTL in
//! force per peer is a multiple of that peer's RTT EWMA, clamped so the
//! configured [`NodeOptions::pending_ttl`] stays the floor (and the
//! fallback before any feedback has been measured). On localhost the
//! derived TTL equals the floor; across slow or jittery links it grows
//! with the measured round trip, so live offers are not declared lost —
//! and budget slots not churned — by latency alone. Estimates are
//! reported in [`PeerReport::rtt_estimates`];
//! [`NodeOptions::adaptive_ttl`] switches the derivation off.
//!
//! All traffic runs through a [`FaultySocket`], so seeded datagram
//! loss/reordering/delay ([`PeerNode::spawn_faulty`]) exercises the same
//! code paths as a clean socket ([`PeerNode::spawn`]). No fault blocks
//! the node: a delay holds only the delayed datagram until its deadline,
//! and later datagrams may overtake it.
//!
//! The transfer protocol mirrors the paper's binary feedback channel (see
//! [`crate::envelope`]): `DATA-HEADER` offer → `FEEDBACK-ACCEPT`/`ABORT` →
//! `DATA-PAYLOAD`. An aborted transfer costs the wire only the header and
//! the one-byte-of-intent feedback datagram — never payload bytes.
//! `COMPLETE` messages prune finished generations from every sender's
//! schedule.
//!
//! The public handle is deliberately small: spawn, wire up peers, poll
//! completion, shut down gracefully and collect a [`PeerReport`].

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ltnc_gf2::EncodedPacket;
use ltnc_metrics::{HopLatency, LogHistogramSnapshot, OpCounters, WireCounters};
use ltnc_reactor::Reactor;
use ltnc_scheme::SchemeParams;
use ltnc_telemetry::{
    hop_latency_histograms, wire_samples, MetricsRegistry, ScrapeOptions, ScrapeServer, TimedEvent,
    TraceEvent, TraceSink, Tracer,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::envelope::{
    self, EnvelopeHeader, EnvelopeView, Message, MessageKind, MessageView, TraceContext,
    GENERATION_OBJECT,
};
use crate::faults::{DatagramFaultCounters, DatagramFaultPlan, DatagramFaults, FaultySocket};
use crate::generation::{ObjectManifest, ReceiverSession, SourceSession};
use crate::sharded::ShardedNode;

/// Smoothing factor of the per-peer loss EWMA (higher reacts faster).
const LOSS_EWMA_ALPHA: f64 = 0.1;

/// Multiplicative-decrease factor applied to an adaptive budget when
/// offers to a peer time out.
const BUDGET_CUT_FACTOR: f64 = 0.5;

/// Smoothing factor of the per-peer offer→feedback RTT EWMA.
const RTT_EWMA_ALPHA: f64 = 0.2;

/// Derived pending TTL as a multiple of the measured RTT: an offer is
/// declared lost once several round trips have passed without feedback.
const RTT_TTL_FACTOR: f64 = 4.0;

/// Cap on the derived TTL relative to the configured
/// [`NodeOptions::pending_ttl`] floor, so one absurd RTT sample cannot
/// freeze eviction.
const RTT_TTL_CEILING_FACTOR: u32 = 16;

/// What a node is in the session.
pub enum NodeRole {
    /// Holds the full object and only emits.
    Source {
        /// The object to disseminate.
        object: Vec<u8>,
        /// Scheme and code dimensions.
        params: SchemeParams,
    },
    /// Starts empty; decodes, relays and eventually reconstructs.
    Peer {
        /// The manifest agreed with the source.
        manifest: ObjectManifest,
    },
}

/// Tuning knobs of a peer actor.
#[derive(Debug, Clone, Copy)]
pub struct NodeOptions {
    /// Fraction of `k` a relay must hold (per generation) before it starts
    /// recoding — the paper's aggressiveness parameter. Sources ignore it.
    pub aggressiveness: f64,
    /// Transfer offers initiated per tick.
    pub push_rate: usize,
    /// Transfers simultaneously awaiting feedback per peer: the *initial*
    /// budget when [`NodeOptions::adaptive_pacing`] is on, the fixed cap
    /// when it is off.
    pub per_peer_inflight: usize,
    /// Adapt each peer's in-flight budget to observed loss (AIMD over
    /// feedback arrivals and offer timeouts). Off means the fixed
    /// [`NodeOptions::per_peer_inflight`] cap of the original design.
    pub adaptive_pacing: bool,
    /// Lower bound of an adaptive budget (treated as at least 1).
    pub inflight_floor: usize,
    /// Upper bound of an adaptive budget.
    pub inflight_ceiling: usize,
    /// Gossip tick period.
    pub tick: Duration,
    /// Offers not answered within the pending TTL are forgotten. With
    /// [`NodeOptions::adaptive_ttl`] on, this fixed value is the *floor*
    /// (and the fallback before any feedback has been measured): the TTL
    /// actually in force per peer is derived from the offer→feedback RTT
    /// EWMA, clamped to `[pending_ttl, 16 × pending_ttl]`.
    pub pending_ttl: Duration,
    /// Derive each peer's pending TTL (and the silence window of the
    /// pacing budget) from its measured offer→feedback RTT. Off means the
    /// fixed [`NodeOptions::pending_ttl`] everywhere, as before PR 5.
    pub adaptive_ttl: bool,
    /// Seed of the node's deterministic RNG.
    pub seed: u64,
    /// When set, the node serves its live [`WireCounters`] (and injected
    /// fault counters) over a TCP scrape endpoint bound here — see
    /// [`PeerNode::metrics_addr`]. Port 0 picks a free port. `None` (the
    /// default) spawns nothing.
    pub metrics_bind: Option<SocketAddr>,
}

impl NodeOptions {
    /// Bounds of an adaptive budget: `(floor, ceiling)`, floor ≥ 1.
    fn budget_bounds(&self) -> (f64, f64) {
        let floor = self.inflight_floor.max(1) as f64;
        let ceiling = (self.inflight_ceiling as f64).max(floor);
        (floor, ceiling)
    }

    /// The clamped budget every fresh per-peer pacing entry starts with
    /// (also the cap for peers with no pacing state yet).
    fn initial_budget(&self) -> f64 {
        let (floor, ceiling) = self.budget_bounds();
        (self.per_peer_inflight.max(1) as f64).clamp(floor, ceiling)
    }

    /// The pending TTL in force for a peer with the given RTT estimate:
    /// `RTT_TTL_FACTOR × rtt` clamped to `[pending_ttl, 16 × pending_ttl]`.
    /// Without a measurement (or with [`NodeOptions::adaptive_ttl`] off)
    /// the fixed [`NodeOptions::pending_ttl`] applies.
    fn derived_ttl(&self, rtt_ewma: Option<f64>) -> Duration {
        let floor = self.pending_ttl;
        let Some(rtt) = rtt_ewma.filter(|_| self.adaptive_ttl) else {
            return floor;
        };
        Duration::from_secs_f64((rtt * RTT_TTL_FACTOR).max(0.0))
            .clamp(floor, floor.saturating_mul(RTT_TTL_CEILING_FACTOR))
    }
}

impl Default for NodeOptions {
    fn default() -> Self {
        NodeOptions {
            aggressiveness: 0.01,
            push_rate: 2,
            per_peer_inflight: 4,
            adaptive_pacing: true,
            inflight_floor: 1,
            inflight_ceiling: 64,
            tick: Duration::from_millis(2),
            pending_ttl: Duration::from_millis(250),
            adaptive_ttl: true,
            seed: 0xC0DE,
            metrics_bind: None,
        }
    }
}

/// Full configuration of one node.
pub struct NodeConfig {
    /// Session identifier shared by every node of the dissemination.
    pub session: u64,
    /// Source or peer.
    pub role: NodeRole,
    /// Tuning knobs.
    pub options: NodeOptions,
    /// Optional sink receiving [`TraceEvent`]s from the node's hot paths
    /// (offers, feedback, pacing moves, fault injections). `None` — the
    /// default, see [`NodeConfig::new`] — makes every hook a no-op.
    pub trace: Option<Arc<dyn TraceSink>>,
    /// Force the per-tick live mirror refresh even without a per-node
    /// metrics endpoint — set by swarm drivers whose *aggregated*
    /// endpoint reads every node's [`Shared`] mid-run.
    pub(crate) publish_live: bool,
}

impl NodeConfig {
    /// A configuration with no trace sink installed.
    #[must_use]
    pub fn new(session: u64, role: NodeRole, options: NodeOptions) -> NodeConfig {
        NodeConfig { session, role, options, trace: None, publish_live: false }
    }
}

/// Final accounting returned by [`PeerNode::shutdown`].
#[derive(Debug, Clone)]
pub struct PeerReport {
    /// Transport-level counters.
    pub wire: WireCounters,
    /// Whether every generation decoded.
    pub complete: bool,
    /// Number of generations decoded.
    pub complete_generations: usize,
    /// The reassembled object (receivers only, once complete).
    pub object: Option<Vec<u8>>,
    /// Coding cost of the reception/decoding path.
    pub decoding: OpCounters,
    /// Coding cost of the emission/recoding path.
    pub recoding: OpCounters,
    /// Faults the node's [`FaultySocket`] injected (all zero for
    /// [`PeerNode::spawn`]'s clean socket).
    pub faults: DatagramFaultCounters,
    /// Final per-peer loss estimates (EWMA over offer outcomes: feedback
    /// arrived = 0, offer timed out = 1), sorted by peer address.
    pub loss_estimates: Vec<(SocketAddr, f64)>,
    /// Final per-peer offer→feedback RTT estimates (EWMA over measured
    /// round trips; peers that never answered are absent), sorted by peer
    /// address. With [`NodeOptions::adaptive_ttl`] on, each peer's
    /// pending TTL was derived from this estimate.
    pub rtt_estimates: Vec<(SocketAddr, Duration)>,
    /// Faults injected per inbound link plan
    /// ([`PeerNode::set_link_faults`]), keyed by sender address — the
    /// per-link attribution of [`PeerReport::faults`] in topology runs.
    pub link_faults: Vec<(SocketAddr, DatagramFaultCounters)>,
    /// Trace events recorded during the run, oldest first. Populated by
    /// harnesses that install a draining sink (e.g. a swarm run with
    /// [`crate::SwarmConfig::trace_capacity`] set); empty when no sink
    /// was attached or the sink is owned by the caller.
    pub events: Vec<TimedEvent>,
    /// Origin→delivery latency distributions from wire-carried trace
    /// contexts, one entry per populated hop depth (number of overlay
    /// links crossed), sorted by depth. Sources (which deliver nothing)
    /// report an empty list.
    pub latency_by_hop: Vec<(usize, LogHistogramSnapshot)>,
}

/// State a node publishes for observers outside its reactor worker —
/// the [`PeerNode`] handle, the scrape endpoints, and the swarm driver's
/// completion poll and stall watchdog.
pub(crate) struct Shared {
    pub(crate) complete: AtomicBool,
    pub(crate) complete_generations: AtomicUsize,
    /// Live mirror of the state machine's [`WireCounters`], refreshed
    /// once per gossip tick — only when a metrics endpoint is attached
    /// ([`NodeOptions::metrics_bind`]); never touched otherwise.
    pub(crate) wire: Mutex<WireCounters>,
    /// Origin→delivery latency histograms keyed by hop depth, recorded
    /// lock-free by the state machine on every payload arrival and read
    /// live by the scrape endpoint mid-run.
    pub(crate) latency: HopLatency,
    /// Total innovative (rank-increasing) symbols decoded so far, bumped
    /// on every useful delivery. Always maintained — it is one relaxed
    /// add — because the swarm's stall watchdog uses it as its progress
    /// signal even when no metrics endpoint is attached.
    pub(crate) decoded_rank: AtomicU64,
    /// Per-generation decoder rank mirror (useful symbols accumulated
    /// per generation), refreshed once per gossip tick alongside the
    /// wire mirror — same `publish_live` gate, same cost model. Empty
    /// until the first refresh (and always, for sources).
    pub(crate) decoder: Mutex<Vec<u64>>,
}

impl Shared {
    pub(crate) fn new() -> Shared {
        Shared {
            complete: AtomicBool::new(false),
            complete_generations: AtomicUsize::new(0),
            wire: Mutex::new(WireCounters::new()),
            latency: HopLatency::new(),
            decoded_rank: AtomicU64::new(0),
            decoder: Mutex::new(Vec::new()),
        }
    }

    /// The per-generation rank mirror as last published (empty when the
    /// node never published, i.e. no live endpoint was attached).
    pub(crate) fn decoder_ranks(&self) -> Vec<u64> {
        self.decoder.lock().map(|ranks| ranks.clone()).unwrap_or_default()
    }

    /// The wire counters as last published.
    pub(crate) fn wire_snapshot(&self) -> WireCounters {
        self.wire.lock().map(|wire| *wire).unwrap_or_default()
    }
}

/// Handle to a running peer node: one `NodeStateMachine` on a
/// single-worker reactor of its own.
pub struct PeerNode {
    local_addr: SocketAddr,
    /// A handle onto the node's socket sharing its fault state, kept so
    /// link plans can be installed after spawn (addresses are only known
    /// once every node of a topology is bound).
    socket: FaultySocket,
    shared: Arc<Shared>,
    metrics_addr: Option<SocketAddr>,
    reactor: Reactor<ShardedNode>,
}

impl PeerNode {
    /// Binds a UDP socket on `bind` (use port 0 for an ephemeral port) and
    /// starts the node's reactor worker. The node stays quiet until
    /// [`PeerNode::set_peers`] wires it into the swarm.
    ///
    /// # Errors
    ///
    /// Propagates socket creation/configuration failures.
    pub fn spawn(bind: SocketAddr, config: NodeConfig) -> io::Result<PeerNode> {
        let seed = config.options.seed;
        PeerNode::spawn_faulty(bind, config, DatagramFaults::clean(seed))
    }

    /// Like [`PeerNode::spawn`], but every datagram this node sends or
    /// receives crosses the seeded `faults` plans first — the way the
    /// swarm tests emulate lossy, reordering links without touching the
    /// protocol code.
    ///
    /// # Errors
    ///
    /// Propagates socket creation/configuration failures.
    pub fn spawn_faulty(
        bind: SocketAddr,
        config: NodeConfig,
        faults: DatagramFaults,
    ) -> io::Result<PeerNode> {
        let node = ShardedNode::bind(bind, config, faults)?;
        let local_addr = node.local_addr();
        let socket = node.socket().try_clone()?;
        let shared = node.shared();
        let metrics_addr = node.metrics_addr();
        let reactor = Reactor::start(vec![node], 1)?;
        Ok(PeerNode { local_addr, socket, shared, metrics_addr, reactor })
    }

    /// Installs a dedicated inbound fault plan for datagrams arriving
    /// from `from` — one overlay *link* of a topology, identified by its
    /// sender. Overrides the node's default inbound plan for that origin
    /// only; injected faults are tallied per link in
    /// [`PeerReport::link_faults`] (and in [`PeerReport::faults`]).
    pub fn set_link_faults(&self, from: SocketAddr, plan: DatagramFaultPlan) {
        self.socket.set_link_plan(from, plan);
    }

    /// The socket address this node receives on.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Wires the node into the swarm and starts its gossip ticks.
    pub fn set_peers(&self, peers: Vec<SocketAddr>) {
        self.reactor.send(0, peers);
    }

    /// Whether the node has decoded every generation (sources report
    /// `true` immediately).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.shared.complete.load(Ordering::Acquire)
    }

    /// Number of generations decoded so far.
    #[must_use]
    pub fn complete_generations(&self) -> usize {
        self.shared.complete_generations.load(Ordering::Acquire)
    }

    /// The node's live wire counters, as published once per gossip tick.
    /// Only meaningful with [`NodeOptions::metrics_bind`] set (the node
    /// skips the mirror otherwise and this returns zeros).
    #[must_use]
    pub fn counters(&self) -> WireCounters {
        self.shared.wire_snapshot()
    }

    /// The address of the node's metrics scrape endpoint (`GET /metrics`
    /// for Prometheus text, `GET /metrics.json` for JSON), or `None`
    /// when [`NodeOptions::metrics_bind`] was not set.
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Graceful shutdown: stops the node's worker after a final drain of
    /// its socket and returns the final report.
    ///
    /// # Panics
    ///
    /// Panics if the node's worker thread panicked.
    #[must_use]
    pub fn shutdown(self) -> PeerReport {
        self.reactor.shutdown().pop().expect("the reactor runs exactly one node")
    }
}

/// [`DatagramFaultCounters`] as registry samples (family `faults`).
fn fault_samples(c: &DatagramFaultCounters) -> Vec<ltnc_telemetry::Sample> {
    use ltnc_telemetry::Sample;
    vec![
        Sample::plain("dropped_in", c.dropped_in),
        Sample::plain("dropped_out", c.dropped_out),
        Sample::plain("duplicated_in", c.duplicated_in),
        Sample::plain("duplicated_out", c.duplicated_out),
        Sample::plain("reordered_in", c.reordered_in),
        Sample::plain("reordered_out", c.reordered_out),
        Sample::plain("delayed_in", c.delayed_in),
        Sample::plain("delayed_out", c.delayed_out),
    ]
}

/// Spawns the node's metrics scrape endpoint when
/// [`NodeOptions::metrics_bind`] is set. The endpoint reads the shared
/// live mirror (refreshed per tick by the state machine) and the
/// socket's fault totals — it never touches state-machine state
/// directly.
pub(crate) fn spawn_scrape(
    options: &NodeOptions,
    local_addr: SocketAddr,
    shared: &Arc<Shared>,
    socket: &FaultySocket,
) -> io::Result<Option<ScrapeServer>> {
    let Some(addr) = options.metrics_bind else { return Ok(None) };
    let registry = Arc::new(MetricsRegistry::new());
    let node_label = [("node", local_addr.to_string())];
    let wire_shared = Arc::clone(shared);
    registry.register("wire", &node_label, move || wire_samples(&wire_shared.wire_snapshot()));
    let latency_shared = Arc::clone(shared);
    registry.register_histograms("wire", &node_label, move || {
        hop_latency_histograms(&latency_shared.latency)
    });
    let fault_handle = socket.try_clone()?;
    registry.register("faults", &node_label, move || fault_samples(&fault_handle.fault_counters()));
    Ok(Some(ScrapeServer::spawn(addr, registry, ScrapeOptions::default())?))
}

struct PendingTransfer {
    generation: u32,
    packet: EncodedPacket,
    /// The trace context stamped on the offer, echoed verbatim on the
    /// payload — so the delivered frame carries the true origin send
    /// time (including the offer/feedback round trip, which is real
    /// dissemination latency).
    trace: TraceContext,
    to: SocketAddr,
    born: Instant,
}

/// Adaptive pacing state for one peer: the AIMD budget and the loss and
/// RTT estimates driving it.
struct PeerPacing {
    /// Fractional in-flight budget; its integer part is the cap.
    budget: f64,
    /// EWMA over offer outcomes (feedback = 0, timeout = 1).
    loss_ewma: f64,
    /// EWMA over measured offer→feedback round trips, in seconds; `None`
    /// until the first feedback arrives. Drives the derived pending TTL.
    rtt_ewma: Option<f64>,
    /// Last time any feedback arrived from this peer — the aliveness
    /// signal that separates "lossy link" (raise) from "dead peer" (cut).
    last_feedback: Option<Instant>,
    /// Last multiplicative decrease — cuts fire at most once per pending
    /// TTL so one silent window costs one cut, not a collapse.
    last_cut: Option<Instant>,
}

/// The protocol core of one node: every recv, tick and peer-wiring
/// transition lives here, behind a poll-style surface
/// ([`NodeStateMachine::handle_datagram`], [`NodeStateMachine::tick`],
/// [`NodeStateMachine::set_peers`]) that the reactor adapter in
/// `crate::sharded` drives from its callbacks.
pub(crate) struct NodeStateMachine {
    socket: FaultySocket,
    session: u64,
    params: SchemeParams,
    options: NodeOptions,
    source: Option<SourceSession>,
    receiver: Option<ReceiverSession>,
    generation_count: u32,
    peers: Vec<SocketAddr>,
    rng: SmallRng,
    next_transfer: u64,
    pending: HashMap<u64, PendingTransfer>,
    inflight_per_peer: HashMap<SocketAddr, usize>,
    pacing: HashMap<SocketAddr, PeerPacing>,
    peer_done: HashMap<SocketAddr, HashSet<u32>>,
    object_done: HashSet<SocketAddr>,
    announced: HashSet<u32>,
    /// Per-generation recode lineage (relays only): the merged trace of
    /// every payload delivered for that generation — earliest origin
    /// stamp, deepest hop count — so recoded offers advertise the true
    /// critical path of the data they are built from.
    lineage: HashMap<u32, TraceContext>,
    wire: WireCounters,
    shared: Arc<Shared>,
    tracer: Tracer,
    /// Refresh the shared wire mirror each tick (only when a metrics
    /// endpoint reads it — the mirror costs nothing otherwise).
    publish_live: bool,
}

impl NodeStateMachine {
    pub(crate) fn new(
        socket: FaultySocket,
        config: NodeConfig,
        shared: Arc<Shared>,
    ) -> NodeStateMachine {
        let tracer = Tracer::from_option(config.trace);
        let publish_live = config.options.metrics_bind.is_some() || config.publish_live;
        let (params, source, receiver) = match config.role {
            NodeRole::Source { object, params } => {
                // A source is complete by definition: publish that before
                // anything drives the node, so completion observers never
                // see a stale "incomplete" for it.
                let source = SourceSession::new(&object, params);
                shared.complete.store(true, Ordering::Release);
                shared
                    .complete_generations
                    .store(source.manifest().generation_count() as usize, Ordering::Release);
                (params, Some(source), None)
            }
            NodeRole::Peer { manifest } => {
                (manifest.params, None, Some(ReceiverSession::new(manifest)))
            }
        };
        let generation_count = source
            .as_ref()
            .map(|s| s.manifest().generation_count())
            .or_else(|| receiver.as_ref().map(|r| r.manifest().generation_count()))
            .expect("role provides a manifest");
        NodeStateMachine {
            socket,
            session: config.session,
            params,
            options: config.options,
            source,
            receiver,
            generation_count,
            peers: Vec::new(),
            rng: SmallRng::seed_from_u64(config.options.seed),
            next_transfer: 1,
            pending: HashMap::new(),
            inflight_per_peer: HashMap::new(),
            pacing: HashMap::new(),
            peer_done: HashMap::new(),
            object_done: HashSet::new(),
            announced: HashSet::new(),
            lineage: HashMap::new(),
            wire: WireCounters::new(),
            shared,
            tracer,
            publish_live,
        }
    }

    /// Wires the node into the swarm: its ticks push to `peers` from now
    /// on.
    pub(crate) fn set_peers(&mut self, peers: Vec<SocketAddr>) {
        self.peers = peers;
    }

    /// The node's socket, shared with the reactor adapter that drains it.
    pub(crate) fn socket(&self) -> &FaultySocket {
        &self.socket
    }

    /// Final accounting; consumes the state machine.
    pub(crate) fn into_report(mut self) -> PeerReport {
        let (complete, complete_generations, object, decoding, mut recoding) = match self
            .receiver
            .as_mut()
        {
            Some(receiver) => (
                receiver.is_complete(),
                receiver.complete_generations(),
                receiver.reassemble(),
                receiver.decoding_counters(),
                receiver.recoding_counters(),
            ),
            None => {
                (true, self.generation_count as usize, None, OpCounters::new(), OpCounters::new())
            }
        };
        if let Some(source) = &self.source {
            recoding.merge(&source.recoding_counters());
        }
        let mut loss_estimates: Vec<(SocketAddr, f64)> =
            self.pacing.iter().map(|(&peer, pacing)| (peer, pacing.loss_ewma)).collect();
        loss_estimates.sort_by_key(|&(peer, _)| peer);
        let mut rtt_estimates: Vec<(SocketAddr, Duration)> = self
            .pacing
            .iter()
            .filter_map(|(&peer, pacing)| {
                pacing.rtt_ewma.map(|rtt| (peer, Duration::from_secs_f64(rtt.max(0.0))))
            })
            .collect();
        rtt_estimates.sort_by_key(|&(peer, _)| peer);
        self.publish_wire();
        PeerReport {
            wire: self.wire,
            complete,
            complete_generations,
            object,
            decoding,
            recoding,
            faults: self.socket.fault_counters(),
            loss_estimates,
            rtt_estimates,
            link_faults: self.socket.link_counters(),
            events: Vec::new(),
            latency_by_hop: self.shared.latency.snapshot(),
        }
    }

    /// Copies the actor's counters into the shared live mirror — the
    /// scrape endpoint's read side. A no-op unless an endpoint is
    /// attached, so nodes without one never touch the mutex.
    pub(crate) fn publish_wire(&self) {
        if !self.publish_live {
            return;
        }
        if let Ok(mut wire) = self.shared.wire.lock() {
            *wire = self.wire;
        }
        if let Some(receiver) = self.receiver.as_ref() {
            if let Ok(mut ranks) = self.shared.decoder.lock() {
                ranks.clear();
                ranks
                    .extend((0..self.generation_count).map(|g| receiver.useful_received(g) as u64));
            }
        }
    }

    /// Records the outcome of one offer to `peer` — feedback arrived
    /// after `rtt` (whatever the verdict), or `None`: the offer died at
    /// its TTL — updating the loss and RTT estimates and, when adaptive
    /// pacing is on, the AIMD budget.
    ///
    /// The asymmetry is deliberate and opposite to TCP's: loss here is
    /// *erasure*, not congestion. A timed-out offer to a peer that is
    /// still answering others pinned a budget slot down for a whole TTL —
    /// the additive increase hands that slot back, so the live pipeline
    /// stays as deep as the clean-link one (redundancy tracking channel
    /// loss, as in the paper). Only a peer gone entirely silent for a TTL
    /// triggers the multiplicative decrease, throttling offers to the
    /// dead until the floor.
    fn note_outcome(&mut self, peer: SocketAddr, rtt: Option<Duration>) {
        let options = self.options;
        let (floor, ceiling) = options.budget_bounds();
        let base = options.initial_budget();
        let pacing = self.pacing.entry(peer).or_insert_with(|| PeerPacing {
            budget: base,
            loss_ewma: 0.0,
            rtt_ewma: None,
            last_feedback: None,
            last_cut: None,
        });
        let observed = if rtt.is_some() { 0.0 } else { 1.0 };
        pacing.loss_ewma += LOSS_EWMA_ALPHA * (observed - pacing.loss_ewma);
        if let Some(rtt) = rtt {
            let sample = rtt.as_secs_f64();
            pacing.rtt_ewma = Some(match pacing.rtt_ewma {
                Some(ewma) => ewma + RTT_EWMA_ALPHA * (sample - ewma),
                None => sample,
            });
            pacing.last_feedback = Some(Instant::now());
            // A peer cut for silence that answers again recovers: grow
            // back toward the initial budget (never past it — raising
            // above base is reserved for the loss signal), so one
            // transient outage does not pin the peer at the floor for
            // the rest of the session.
            if options.adaptive_pacing && pacing.budget < base {
                let before = pacing.budget as usize;
                pacing.budget = (pacing.budget + 1.0 / pacing.budget.max(1.0)).min(base);
                if pacing.budget as usize > before {
                    self.wire.budget_raises += 1;
                    let budget = pacing.budget as u64;
                    self.tracer.emit(|| TraceEvent::BudgetRaised { peer, budget });
                }
            }
            return;
        }
        if !options.adaptive_pacing {
            return;
        }
        let before = pacing.budget as usize;
        let ttl = options.derived_ttl(pacing.rtt_ewma);
        let alive = pacing.last_feedback.is_some_and(|at| at.elapsed() < ttl);
        if alive {
            // Lossy but live: the lost offer wasted one slot for a full
            // TTL; grow the budget by one to keep the live pipeline deep.
            pacing.budget = (pacing.budget + 1.0).clamp(floor, ceiling);
            if pacing.budget as usize > before {
                self.wire.budget_raises += 1;
                let budget = pacing.budget as u64;
                self.tracer.emit(|| TraceEvent::BudgetRaised { peer, budget });
            }
        } else if pacing.last_cut.is_none_or(|at| at.elapsed() >= ttl) {
            // Silent for a whole TTL: multiplicative decrease, at most
            // once per window, down to the floor.
            pacing.last_cut = Some(Instant::now());
            pacing.budget = (pacing.budget * BUDGET_CUT_FACTOR).clamp(floor, ceiling);
            if (pacing.budget as usize) < before {
                self.wire.budget_cuts += 1;
                let budget = pacing.budget as u64;
                self.tracer.emit(|| TraceEvent::BudgetCut { peer, budget });
            }
        }
    }

    /// The pending TTL currently in force for offers to `peer`: derived
    /// from its RTT estimate when [`NodeOptions::adaptive_ttl`] is on
    /// (fixed [`NodeOptions::pending_ttl`] as the floor and the fallback
    /// before any feedback has been measured).
    fn ttl_for(&self, peer: &SocketAddr) -> Duration {
        self.options.derived_ttl(self.pacing.get(peer).and_then(|pacing| pacing.rtt_ewma))
    }

    /// The in-flight cap currently in force for `peer`.
    fn inflight_cap(&self, peer: &SocketAddr) -> usize {
        if !self.options.adaptive_pacing {
            return self.options.per_peer_inflight;
        }
        match self.pacing.get(peer) {
            Some(pacing) => (pacing.budget as usize).max(1),
            // Not yet tracked: the same clamped initial budget a fresh
            // pacing entry starts with.
            None => self.options.initial_budget() as usize,
        }
    }

    fn send(&mut self, to: SocketAddr, header: &EnvelopeHeader, message: &Message) {
        let bytes = envelope::encode(header, message);
        self.wire.datagrams_sent += 1;
        self.wire.bytes_sent += bytes.len() as u64;
        if let Message::DataPayload { packet, .. } = message {
            self.wire.payload_bytes_sent += packet.payload_size() as u64;
        }
        // Datagram sends are fire-and-forget; a vanished peer must not
        // stall the actor.
        let _ = self.socket.send_to(&bytes, to);
    }

    fn header(&self, kind: MessageKind, generation: u32) -> EnvelopeHeader {
        EnvelopeHeader { kind, scheme: self.params.kind, session: self.session, generation }
    }

    pub(crate) fn handle_datagram(&mut self, bytes: &[u8], from: SocketAddr) {
        // Borrowing decode: the payload of a `DataPayload` stays a view
        // into the datagram buffer until the packet is actually retained
        // below, so frames we drop (corrupt, stale session, no receiver)
        // never copy payload bytes.
        let envelope = match envelope::decode_view(bytes) {
            Ok(envelope) => envelope,
            Err(_) => {
                self.wire.decode_errors += 1;
                return;
            }
        };
        if envelope.header.session != self.session || envelope.header.scheme != self.params.kind {
            // Decoded fine, just not ours (e.g. a stale peer from an
            // earlier run) — keep decode_errors meaning "corrupt bytes".
            self.wire.session_mismatches += 1;
            return;
        }
        self.wire.datagrams_received += 1;
        self.wire.bytes_received += bytes.len() as u64;
        let EnvelopeView { header, message } = envelope;
        match message {
            MessageView::DataHeader { transfer, payload_size, vector, .. } => {
                let generation = header.generation;
                let accept = payload_size == self.params.payload_size
                    && self.receiver.as_ref().is_some_and(|r| r.would_accept(generation, &vector));
                self.send(
                    from,
                    &self.header(
                        if accept {
                            MessageKind::FeedbackAccept
                        } else {
                            MessageKind::FeedbackAbort
                        },
                        generation,
                    ),
                    &Message::Feedback { transfer, accept },
                );
                // Aborts caused by a finished generation also tell the
                // sender to stop offering it altogether. A node with no
                // receiver (a pure source) needs nothing, ever — say so
                // instead of absorbing offers forever.
                if !accept {
                    match self.receiver.as_ref() {
                        Some(receiver) if receiver.generation_complete(generation) => {
                            self.send(
                                from,
                                &self.header(MessageKind::Complete, generation),
                                &Message::Complete,
                            );
                        }
                        None => {
                            self.send(
                                from,
                                &self.header(MessageKind::Complete, GENERATION_OBJECT),
                                &Message::Complete,
                            );
                        }
                        _ => {}
                    }
                }
            }
            MessageView::Feedback { transfer, accept } => {
                // Only the peer the offer went to may decide its fate; a
                // verdict from anyone else (bug or hostility) must not
                // consume the pending transfer.
                if self.pending.get(&transfer).is_none_or(|p| p.to != from) {
                    return; // evicted, duplicate, or misdirected feedback
                }
                let pending = self.pending.remove(&transfer).expect("checked above");
                if let Some(count) = self.inflight_per_peer.get_mut(&pending.to) {
                    *count = count.saturating_sub(1);
                }
                // Either verdict proves the offer/feedback round trip
                // survived the link — a success for pacing purposes, and
                // an RTT sample for the derived TTL.
                let rtt = pending.born.elapsed();
                self.note_outcome(pending.to, Some(rtt));
                self.tracer.emit(|| TraceEvent::FeedbackReceived { peer: from, accept, rtt });
                if accept {
                    self.wire.transfers_delivered += 1;
                    self.send(
                        pending.to,
                        &self.header(MessageKind::DataPayload, pending.generation),
                        &Message::DataPayload {
                            transfer,
                            trace: pending.trace,
                            packet: pending.packet,
                        },
                    );
                } else {
                    self.wire.transfers_aborted += 1;
                }
            }
            MessageView::DataPayload { trace, packet, .. } => {
                let generation = header.generation;
                // The wire-carried trace is the arriving data's whole
                // history: record the true origin→delivery latency at
                // this hop depth, and fold the lineage into what our own
                // recoded offers for this generation will advertise.
                self.shared.latency.record(trace.links(), trace.latency_micros());
                self.lineage
                    .entry(generation)
                    .and_modify(|known| *known = known.absorb(trace))
                    .or_insert(trace);
                let (useful, newly_complete, object_complete) = {
                    let Some(receiver) = self.receiver.as_mut() else { return };
                    let was_complete = receiver.generation_complete(generation);
                    // The single retain point: only here does the borrowed
                    // payload get copied out of the datagram buffer.
                    let useful = receiver.deliver(generation, &packet.into_packet());
                    self.shared
                        .complete_generations
                        .store(receiver.complete_generations(), Ordering::Release);
                    (
                        useful,
                        !was_complete && receiver.generation_complete(generation),
                        receiver.is_complete(),
                    )
                };
                if useful {
                    self.wire.useful_deliveries += 1;
                    self.shared.decoded_rank.fetch_add(1, Ordering::Relaxed);
                }
                self.tracer.emit(|| TraceEvent::PayloadDelivered { generation, useful });
                if newly_complete {
                    self.tracer.emit(|| TraceEvent::GenerationDecoded { generation });
                    self.announce_complete(generation);
                }
                if object_complete && !self.shared.complete.load(Ordering::Acquire) {
                    self.shared.complete.store(true, Ordering::Release);
                    self.tracer.emit(|| TraceEvent::ObjectDecoded);
                    self.announce_complete(GENERATION_OBJECT);
                }
            }
            MessageView::Complete => {
                if header.generation == GENERATION_OBJECT {
                    self.object_done.insert(from);
                } else {
                    self.peer_done.entry(from).or_default().insert(header.generation);
                }
            }
            // The serving handshake (ltnc-serve) rides the same envelope but
            // has no meaning in the gossip protocol.
            MessageView::Request | MessageView::Manifest { .. } | MessageView::Reject => {}
        }
    }

    fn announce_complete(&mut self, generation: u32) {
        if !self.announced.insert(generation) {
            return;
        }
        let header = self.header(MessageKind::Complete, generation);
        for peer in self.peers.clone() {
            self.send(peer, &header, &Message::Complete);
        }
    }

    pub(crate) fn tick(&mut self) {
        self.publish_wire();
        self.evict_stale_pending();
        if self.peers.is_empty() {
            return;
        }
        for _ in 0..self.options.push_rate {
            self.push_once();
        }
    }

    fn evict_stale_pending(&mut self) {
        let expired: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, pending)| pending.born.elapsed() >= self.ttl_for(&pending.to))
            .map(|(&transfer, _)| transfer)
            .collect();
        for transfer in expired {
            let pending = self.pending.remove(&transfer).expect("collected above");
            if let Some(count) = self.inflight_per_peer.get_mut(&pending.to) {
                *count = count.saturating_sub(1);
            }
            self.wire.offer_timeouts += 1;
            self.note_outcome(pending.to, None);
            self.tracer.emit(|| TraceEvent::OfferTimedOut { peer: pending.to });
        }
    }

    fn push_once(&mut self) {
        // Choose a target that still needs something, respecting the
        // per-peer in-flight budget.
        let candidates: Vec<SocketAddr> = self
            .peers
            .iter()
            .copied()
            .filter(|peer| !self.object_done.contains(peer))
            .filter(|peer| {
                self.inflight_per_peer.get(peer).copied().unwrap_or(0) < self.inflight_cap(peer)
            })
            .collect();
        if candidates.is_empty() {
            return;
        }
        let target = candidates[self.rng.gen_range(0..candidates.len())];
        let target_done = self.peer_done.get(&target);
        let needs = |generation: u32| -> bool {
            target_done.is_none_or(|done| !done.contains(&generation))
        };

        let made = if let Some(source) = self.source.as_mut() {
            source.make_packet(&mut self.rng, needs)
        } else if let Some(receiver) = self.receiver.as_mut() {
            // A relay pushes from generations that passed the gate.
            let threshold = ((self.options.aggressiveness * self.params.code_length as f64).ceil()
                as usize)
                .max(1);
            let eligible: Vec<u32> = (0..self.generation_count)
                .filter(|&generation| needs(generation))
                .filter(|&generation| receiver.useful_received(generation) >= threshold)
                .collect();
            if eligible.is_empty() {
                None
            } else {
                let generation = eligible[self.rng.gen_range(0..eligible.len())];
                receiver.make_packet(generation, &mut self.rng).map(|packet| (generation, packet))
            }
        } else {
            None
        };
        let Some((generation, packet)) = made else { return };
        if self.source.is_none() {
            // Relays recode every pushed packet from their partial store.
            self.tracer.emit(|| TraceEvent::RelayRecode { generation });
        }

        // Sources start a fresh lineage (hop 0, stamped now); relays
        // extend the merged lineage of the payloads the recode is built
        // from. A relay racing ahead of its own lineage record (possible
        // only if it never received a payload, which the gate prevents)
        // degrades to a fresh origin stamp.
        let trace = if self.source.is_some() {
            TraceContext::origin_now()
        } else {
            self.lineage
                .get(&generation)
                .copied()
                .map(TraceContext::next_hop)
                .unwrap_or_else(TraceContext::origin_now)
        };
        let transfer = self.next_transfer;
        self.next_transfer += 1;
        self.send(
            target,
            &self.header(MessageKind::DataHeader, generation),
            &Message::DataHeader {
                transfer,
                trace,
                payload_size: packet.payload_size(),
                vector: packet.vector().clone(),
            },
        );
        self.wire.transfers_offered += 1;
        self.tracer.emit(|| TraceEvent::OfferSent { peer: target, generation });
        self.pending.insert(
            transfer,
            PendingTransfer { generation, packet, trace, to: target, born: Instant::now() },
        );
        *self.inflight_per_peer.entry(target).or_insert(0) += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltnc_scheme::SchemeKind;
    use std::net::UdpSocket;
    use std::thread;

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().expect("valid addr")
    }

    fn quick_options(seed: u64) -> NodeOptions {
        NodeOptions { tick: Duration::from_millis(1), seed, ..NodeOptions::default() }
    }

    #[test]
    fn source_reports_complete_immediately() {
        let params = SchemeParams::new(SchemeKind::Ltnc, 8, 4);
        let node = PeerNode::spawn(
            loopback(),
            NodeConfig::new(1, NodeRole::Source { object: vec![7; 64], params }, quick_options(1)),
        )
        .expect("spawn");
        assert!(node.is_complete());
        assert_eq!(node.complete_generations(), 2);
        let report = node.shutdown();
        assert!(report.complete);
        assert!(report.object.is_none(), "sources do not reassemble");
    }

    #[test]
    fn one_source_one_peer_end_to_end() {
        let params = SchemeParams::new(SchemeKind::Rlnc, 8, 4);
        let object: Vec<u8> = (0..100u32).map(|i| (i * 13 % 251) as u8).collect();
        let source = PeerNode::spawn(
            loopback(),
            NodeConfig::new(
                9,
                NodeRole::Source { object: object.clone(), params },
                quick_options(2),
            ),
        )
        .expect("spawn source");
        let manifest = crate::generation::split_object(&object, params).0;
        let peer = PeerNode::spawn(
            loopback(),
            NodeConfig::new(9, NodeRole::Peer { manifest }, quick_options(3)),
        )
        .expect("spawn peer");

        source.set_peers(vec![peer.local_addr()]);
        peer.set_peers(vec![]);

        let deadline = Instant::now() + Duration::from_secs(20);
        while !peer.is_complete() && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert!(peer.is_complete(), "peer did not complete in time");

        let peer_report = peer.shutdown();
        let source_report = source.shutdown();
        assert_eq!(peer_report.object.as_deref(), Some(&object[..]), "bit-exact reconstruction");
        assert!(source_report.wire.transfers_offered > 0);
        assert!(peer_report.wire.useful_deliveries > 0);
    }

    #[test]
    fn feedback_from_the_wrong_peer_is_ignored() {
        // A source offers to peer A (a raw socket we control); an accept
        // forged by peer C must not release the payload — only A's own
        // accept may.
        let params = SchemeParams::new(SchemeKind::Rlnc, 4, 2);
        let object = vec![9u8; 8];
        // One in-flight offer, never evicted: after the first DATA-HEADER
        // the source goes quiet until that transfer is resolved, so the
        // sockets below see a deterministic message sequence.
        let options = NodeOptions {
            push_rate: 1,
            per_peer_inflight: 1,
            pending_ttl: Duration::from_secs(60),
            tick: Duration::from_millis(2),
            seed: 8,
            ..NodeOptions::default()
        };
        let source = PeerNode::spawn(
            loopback(),
            NodeConfig::new(77, NodeRole::Source { object, params }, options),
        )
        .expect("spawn source");

        let a = UdpSocket::bind("127.0.0.1:0").expect("bind A");
        let c = UdpSocket::bind("127.0.0.1:0").expect("bind C");
        a.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        c.set_read_timeout(Some(Duration::from_millis(300))).expect("timeout");
        source.set_peers(vec![a.local_addr().expect("addr")]);

        // Receive one DATA-HEADER offer at A.
        let mut buf = [0u8; 2048];
        let (offer_transfer, offer_generation) = loop {
            let (len, _) = a.recv_from(&mut buf).expect("offer should arrive");
            let env = envelope::decode(&buf[..len]).expect("valid frame");
            if let Message::DataHeader { transfer, .. } = env.message {
                break (transfer, env.header.generation);
            }
        };

        // C forges an accept for A's transfer.
        let forged = envelope::encode(
            &EnvelopeHeader {
                kind: MessageKind::FeedbackAccept,
                scheme: SchemeKind::Rlnc,
                session: 77,
                generation: offer_generation,
            },
            &Message::Feedback { transfer: offer_transfer, accept: true },
        );
        c.send_to(&forged, source.local_addr()).expect("send forged accept");

        // Neither C nor A may receive a payload for it.
        let mut leaked = false;
        for socket in [&c, &a] {
            socket.set_read_timeout(Some(Duration::from_millis(300))).expect("timeout");
            while let Ok((len, _)) = socket.recv_from(&mut buf) {
                if let Ok(env) = envelope::decode(&buf[..len]) {
                    if matches!(env.message, Message::DataPayload { transfer, .. } if transfer == offer_transfer)
                    {
                        leaked = true;
                    }
                }
            }
        }
        assert!(!leaked, "forged accept must not release the payload");

        // A's own accept still works: the pending entry survived the forgery.
        let genuine = envelope::encode(
            &EnvelopeHeader {
                kind: MessageKind::FeedbackAccept,
                scheme: SchemeKind::Rlnc,
                session: 77,
                generation: offer_generation,
            },
            &Message::Feedback { transfer: offer_transfer, accept: true },
        );
        a.send_to(&genuine, source.local_addr()).expect("send genuine accept");
        a.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let delivered = loop {
            let (len, _) = a.recv_from(&mut buf).expect("payload should arrive");
            if let Ok(env) = envelope::decode(&buf[..len]) {
                if let Message::DataPayload { transfer, .. } = env.message {
                    if transfer == offer_transfer {
                        break true;
                    }
                }
            }
        };
        assert!(delivered);
        let _ = source.shutdown();
    }

    /// A source state machine driven directly (no reactor) to unit-test
    /// the pacing logic.
    fn pacing_actor(options: NodeOptions) -> NodeStateMachine {
        let params = SchemeParams::new(SchemeKind::Rlnc, 4, 2);
        let socket = crate::faults::FaultySocket::new(
            UdpSocket::bind("127.0.0.1:0").expect("bind"),
            crate::faults::DatagramFaults::clean(1),
        )
        .expect("wrap");
        let shared = Arc::new(Shared::new());
        NodeStateMachine::new(
            socket,
            NodeConfig::new(1, NodeRole::Source { object: vec![1u8; 8], params }, options),
            shared,
        )
    }

    #[test]
    fn budget_recovers_to_base_after_a_silent_period() {
        // Drive the pacing state machine directly: a peer goes silent
        // (timeouts only) and is cut to the floor; when it answers again
        // on a clean link, successes must grow the budget back to the
        // initial value — and not past it.
        let options = NodeOptions {
            pending_ttl: Duration::from_millis(5),
            seed: 13,
            ..NodeOptions::default()
        };
        let mut actor = pacing_actor(options);
        let peer: SocketAddr = "127.0.0.1:9".parse().expect("addr");

        // Dead period: timeouts with no feedback, one cut per TTL window.
        for _ in 0..12 {
            actor.note_outcome(peer, None);
            thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(actor.inflight_cap(&peer), options.inflight_floor.max(1));
        assert!(actor.wire.budget_cuts > 0, "silence must cut");

        // Revival on a clean link: successes alone restore the base cap.
        for _ in 0..64 {
            actor.note_outcome(peer, Some(Duration::from_micros(50)));
        }
        assert_eq!(actor.inflight_cap(&peer), options.per_peer_inflight);
        assert!(actor.wire.budget_raises > 0, "recovery must count as raises");

        // A timeout while the peer is alive grows the budget *past* base.
        actor.note_outcome(peer, None);
        assert_eq!(actor.inflight_cap(&peer), options.per_peer_inflight + 1);
    }

    #[test]
    fn budget_bounds_clamp_the_initial_cap_too() {
        let peer: SocketAddr = "127.0.0.1:9".parse().expect("addr");

        // Initial budget above the ceiling: clamped down, tracked or not.
        let over = NodeOptions {
            per_peer_inflight: 100,
            inflight_ceiling: 8,
            seed: 14,
            ..NodeOptions::default()
        };
        let mut actor = pacing_actor(over);
        assert_eq!(actor.inflight_cap(&peer), 8, "untracked peer clamps to ceiling");
        actor.note_outcome(peer, Some(Duration::from_micros(50)));
        assert_eq!(actor.inflight_cap(&peer), 8, "tracked peer starts clamped");
        assert_eq!(actor.wire.budget_raises, 0, "clamping is not a raise");

        // Initial budget below the floor: clamped up.
        let under = NodeOptions {
            per_peer_inflight: 1,
            inflight_floor: 4,
            seed: 15,
            ..NodeOptions::default()
        };
        let mut actor = pacing_actor(under);
        assert_eq!(actor.inflight_cap(&peer), 4, "untracked peer clamps to floor");
        actor.note_outcome(peer, Some(Duration::from_micros(50)));
        assert_eq!(actor.inflight_cap(&peer), 4, "tracked peer starts clamped");
    }

    #[test]
    fn pending_ttl_derives_from_the_rtt_ewma() {
        let options = NodeOptions {
            pending_ttl: Duration::from_millis(10),
            seed: 16,
            ..NodeOptions::default()
        };
        let mut actor = pacing_actor(options);
        let peer: SocketAddr = "127.0.0.1:9".parse().expect("addr");

        // No feedback measured yet: the fixed TTL is the fallback.
        assert_eq!(actor.ttl_for(&peer), Duration::from_millis(10));

        // Localhost-fast feedback: the floor still applies.
        actor.note_outcome(peer, Some(Duration::from_micros(80)));
        assert_eq!(actor.ttl_for(&peer), Duration::from_millis(10));

        // A slow link: the TTL tracks 4× the RTT EWMA…
        for _ in 0..64 {
            actor.note_outcome(peer, Some(Duration::from_millis(50)));
        }
        let ttl = actor.ttl_for(&peer);
        assert!(ttl > Duration::from_millis(100), "TTL must grow with RTT, got {ttl:?}");
        // …but never past 16× the configured floor.
        for _ in 0..64 {
            actor.note_outcome(peer, Some(Duration::from_secs(30)));
        }
        assert_eq!(actor.ttl_for(&peer), Duration::from_millis(160), "ceiling caps the TTL");

        // The estimate surfaces in the report.
        let report = actor.into_report();
        let (reported_peer, rtt) = report.rtt_estimates.first().expect("rtt tracked");
        assert_eq!(*reported_peer, peer);
        assert!(*rtt > Duration::from_millis(100));
    }

    #[test]
    fn fixed_ttl_when_adaptive_ttl_is_off() {
        let options = NodeOptions {
            pending_ttl: Duration::from_millis(10),
            adaptive_ttl: false,
            seed: 17,
            ..NodeOptions::default()
        };
        let mut actor = pacing_actor(options);
        let peer: SocketAddr = "127.0.0.1:9".parse().expect("addr");
        for _ in 0..32 {
            actor.note_outcome(peer, Some(Duration::from_millis(200)));
        }
        assert_eq!(actor.ttl_for(&peer), Duration::from_millis(10));
    }

    #[test]
    fn shutdown_without_peers_is_clean() {
        let params = SchemeParams::new(SchemeKind::Wc, 4, 2);
        let manifest = crate::generation::split_object(&[1, 2, 3], params).0;
        let node = PeerNode::spawn(
            loopback(),
            NodeConfig::new(5, NodeRole::Peer { manifest }, quick_options(4)),
        )
        .expect("spawn");
        assert!(!node.is_complete());
        let report = node.shutdown();
        assert!(!report.complete);
        assert_eq!(report.wire.datagrams_sent, 0);
    }
}
