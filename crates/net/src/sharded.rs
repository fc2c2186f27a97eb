//! The reactor adapter: how an `ltnc-reactor` worker drives a node.
//!
//! Every node — one of a swarm's thousand or a standalone
//! [`crate::peer::PeerNode`] — is a [`ShardedNode`]: the node's
//! [`NodeStateMachine`] behind the [`Driven`] callbacks. Its nonblocking
//! [`FaultySocket`] is polled edge-triggered and drained to empty on
//! every readiness edge, its gossip tick is a recurring reactor timer,
//! and a one-shot release timer stays armed at the socket's earliest
//! hold deadline ([`FaultySocket::next_release`]). Fault holds never
//! block the worker: a delayed datagram waits in the socket's hold queue
//! until its deadline, holding up only itself — later datagrams may
//! overtake it — and reaches the state machine within one timer-wheel
//! slot of that deadline.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::os::fd::RawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ltnc_reactor::{Cx, Driven, TimerId};
use ltnc_telemetry::{ScrapeServer, Tracer};

use crate::faults::{DatagramFaults, FaultySocket};
use crate::peer::{spawn_scrape, NodeConfig, NodeStateMachine, PeerReport, Shared};

/// Timer tag of the recurring gossip tick.
const TICK_TAG: u64 = 0;

/// Timer tag of the one-shot hold release.
const RELEASE_TAG: u64 = 1;

/// One node on a reactor worker: the [`NodeStateMachine`] plus the
/// timers that schedule it.
pub(crate) struct ShardedNode {
    /// `Some` until [`Driven::finish`] extracts the report.
    sm: Option<NodeStateMachine>,
    /// The socket's descriptor, registered with the worker's poller.
    fd: RawFd,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    /// Gossip tick period ([`crate::NodeOptions::tick`]).
    tick: Duration,
    /// The pending release timer and the hold deadline it is armed at.
    release: Option<(TimerId, Instant)>,
    /// Metrics endpoint, when [`crate::NodeOptions::metrics_bind`] asked
    /// for one; shut down in [`Driven::finish`].
    scrape: Option<ScrapeServer>,
}

impl ShardedNode {
    /// Binds a nonblocking socket on `bind` behind the seeded `faults`
    /// and builds the node around it, ready to hand to a reactor.
    ///
    /// # Errors
    ///
    /// Propagates socket creation/configuration failures.
    pub(crate) fn bind(
        bind: SocketAddr,
        config: NodeConfig,
        faults: DatagramFaults,
    ) -> io::Result<ShardedNode> {
        let tracer = Tracer::from_option(config.trace.clone());
        let socket = FaultySocket::with_tracer(UdpSocket::bind(bind)?, faults, tracer)?;
        socket.set_nonblocking(true)?;
        let local_addr = socket.local_addr()?;
        let fd = socket.as_raw_fd();
        let shared = Arc::new(Shared::new());
        let scrape = spawn_scrape(&config.options, local_addr, &shared, &socket)?;
        let tick = config.options.tick;
        let sm = NodeStateMachine::new(socket, config, Arc::clone(&shared));
        Ok(ShardedNode { sm: Some(sm), fd, local_addr, shared, tick, release: None, scrape })
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The node's published state, for observers off the worker.
    pub(crate) fn shared(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    pub(crate) fn metrics_addr(&self) -> Option<SocketAddr> {
        self.scrape.as_ref().map(ScrapeServer::local_addr)
    }

    fn sm(&mut self) -> &mut NodeStateMachine {
        self.sm.as_mut().expect("the state machine lives until finish")
    }

    /// The node's socket (link plans go in here before the reactor
    /// starts).
    pub(crate) fn socket(&self) -> &FaultySocket {
        self.sm.as_ref().expect("the state machine lives until finish").socket()
    }

    /// Wires the node into the swarm before the reactor starts.
    pub(crate) fn set_peers(&mut self, peers: Vec<SocketAddr>) {
        self.sm().set_peers(peers);
    }

    /// Drains the socket to empty — the edge-triggered contract —
    /// feeding every delivered datagram to the state machine, then
    /// re-arms the release timer.
    fn drain(&mut self, cx: &mut Cx) {
        let sm = self.sm();
        loop {
            let buf = cx.scratch();
            match sm.socket().try_recv_from(buf) {
                Ok(Some((len, from))) => sm.handle_datagram(&buf[..len], from),
                Ok(None) => break,
                // Transient socket errors (e.g. ICMP port-unreachable
                // surfacing as ECONNREFUSED) are not fatal for a
                // datagram listener.
                Err(_) => break,
            }
        }
        self.arm_release(cx);
    }

    /// Keeps the one release timer armed at the socket's earliest hold
    /// deadline (none when nothing is held).
    fn arm_release(&mut self, cx: &mut Cx) {
        let next = self.sm().socket().next_release();
        if next == self.release.map(|(_, at)| at) {
            return;
        }
        if let Some((id, _)) = self.release.take() {
            cx.cancel(id);
        }
        if let Some(at) = next {
            let id = cx.arm(at.saturating_duration_since(cx.now()), RELEASE_TAG);
            self.release = Some((id, at));
        }
    }
}

impl Driven for ShardedNode {
    /// A new peer list ([`crate::peer::PeerNode::set_peers`]).
    type Control = Vec<SocketAddr>;
    type Output = PeerReport;

    fn fd(&self) -> RawFd {
        self.fd
    }

    fn on_start(&mut self, cx: &mut Cx) {
        cx.arm(self.tick, TICK_TAG);
        self.drain(cx);
    }

    fn on_readable(&mut self, cx: &mut Cx) {
        self.drain(cx);
    }

    fn on_timer(&mut self, tag: u64, cx: &mut Cx) {
        match tag {
            TICK_TAG => {
                self.sm().tick();
                cx.arm(self.tick, TICK_TAG);
                self.arm_release(cx);
            }
            RELEASE_TAG => {
                self.release = None;
                self.sm().socket().release_due(cx.now());
                self.drain(cx);
            }
            _ => {}
        }
    }

    fn on_control(&mut self, peers: Vec<SocketAddr>, _cx: &mut Cx) {
        self.set_peers(peers);
    }

    fn finish(&mut self) -> PeerReport {
        if let Some(scrape) = self.scrape.take() {
            scrape.shutdown();
        }
        self.sm.take().expect("finish is called exactly once").into_report()
    }
}
