//! Worker-count equivalence: the same seeded configuration must behave
//! the same on one reactor worker as on three, for every topology shape
//! and every scheme.
//!
//! "The same" is deliberately precise, because the worker count changes
//! *scheduling*, which timing-dependent quantities reflect:
//!
//! * **clean runs**: both configurations converge, every delivered
//!   object is bit-exact, and the injected-fault totals are identical
//!   (zero — there is nothing to inject);
//! * **faulty runs**: both converge bit-exactly *through* the loss or
//!   delay, both actually injected faults, and both exercised relay
//!   recoding. Exact fault-count equality across worker counts is not a
//!   meaningful property: how many datagrams cross a lossy link before
//!   convergence depends on traffic volume, which is timing-dependent —
//!   what is invariant is the delivered data and the protocol outcome.
//!
//! The runtime's own determinism (same seed + same worker count, twice)
//! is pinned in `sharded_determinism.rs`.

use std::time::Duration;

use ltnc_net::faults::DatagramFaultPlan;
use ltnc_net::NodeOptions;
use ltnc_scheme::SchemeKind;
use ltnc_topo::{
    run_topology, SwarmRuntime, Topology, TopologyConfig, TopologyFaults, TopologyReport,
};

fn object(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 37 % 251) as u8).collect()
}

/// Seeded default, overridable for replay like every fault test.
fn fault_seed() -> u64 {
    std::env::var("LTNC_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xF00D_u64)
}

/// Every overlay shape the topology crate can build, smallest useful
/// instance of each.
fn shapes() -> Vec<Topology> {
    vec![
        Topology::line(4),
        Topology::ring(5),
        Topology::star(5),
        Topology::binary_tree(7),
        Topology::complete(5),
        Topology::random_regular(8, 3, 0x7E9),
    ]
}

fn config(scheme: SchemeKind, topology: Topology, runtime: SwarmRuntime) -> TopologyConfig {
    let mut config = TopologyConfig::quick(scheme, object(400), topology);
    config.code_length = 8;
    config.payload_size = 16;
    config.timeout = Duration::from_secs(60);
    config.options = NodeOptions { seed: 0xE0_01CE, ..NodeOptions::default() };
    config.session = 0xE0_0000 + u64::from(scheme.wire_id());
    config.runtime = runtime;
    config
}

fn run(scheme: SchemeKind, topology: &Topology, runtime: SwarmRuntime) -> TopologyReport {
    let config = config(scheme, topology.clone(), runtime);
    let report = run_topology(&config).expect("run starts");
    assert!(
        report.swarm.converged,
        "{scheme:?} on {} under {runtime:?} did not converge: {}/{} peers in {:?}",
        report.topology_label,
        report.swarm.peers_complete,
        topology.nodes() - 1,
        report.swarm.elapsed
    );
    assert!(
        report.swarm.bit_exact,
        "{scheme:?} on {} under {runtime:?} was not bit-exact",
        report.topology_label
    );
    report
}

/// The two worker counts every case compares.
const ONE: SwarmRuntime = SwarmRuntime::Sharded { workers: 1 };
const THREE: SwarmRuntime = SwarmRuntime::Sharded { workers: 3 };

/// Clean runs: both worker counts converge bit-exactly on every shape
/// and scheme, deliver identical objects, inject nothing, and exercise
/// relay recoding wherever the overlay actually has relays.
#[test]
fn every_shape_and_scheme_is_equivalent_across_runtimes() {
    for topology in shapes() {
        for scheme in SchemeKind::ALL {
            let one = run(scheme, &topology, ONE);
            let three = run(scheme, &topology, THREE);

            for (a, b) in one.swarm.peer_reports.iter().zip(three.swarm.peer_reports.iter()) {
                assert_eq!(
                    a.object, b.object,
                    "{scheme:?} on {}: delivered objects differ across worker counts",
                    one.topology_label
                );
            }
            assert_eq!(one.swarm.total_faults.total(), 0, "clean 1-worker run must inject nothing");
            assert_eq!(
                three.swarm.total_faults.total(),
                0,
                "clean 3-worker run must inject nothing"
            );
            assert_eq!(one.swarm.generations, three.swarm.generations);
            if one.max_hops() >= 2 {
                assert!(
                    one.relay_recoding_ops > 0,
                    "{scheme:?} on {}: 1-worker relays must recode",
                    one.topology_label
                );
                assert!(
                    three.relay_recoding_ops > 0,
                    "{scheme:?} on {}: 3-worker relays must recode",
                    three.topology_label
                );
            }
        }
    }
}

/// Faulty runs: seeded per-link loss, then per-link delays, on a pure
/// relay chain. Both worker counts must converge bit-exactly through the
/// faults, both must have injected them, and both must have recoded at
/// relays — the protocol outcome is scheduling-invariant even when the
/// traffic volume is not.
#[test]
fn lossy_line_converges_bit_exactly_on_both_runtimes() {
    let plans = [
        DatagramFaultPlan::clean(fault_seed()).drop_rate(0.15),
        DatagramFaultPlan::clean(fault_seed()).delay(0.3, Duration::from_millis(15)),
    ];
    for plan in plans {
        for scheme in SchemeKind::ALL {
            let mut reports = Vec::new();
            for runtime in [ONE, THREE] {
                let mut config = config(scheme, Topology::line(4), runtime);
                config.link_faults = TopologyFaults::uniform(plan);
                let report = run_topology(&config).expect("run starts");
                assert!(
                    report.swarm.converged && report.swarm.bit_exact,
                    "{scheme:?} faulty line ({plan:?}) under {runtime:?} failed: {}/{} peers \
                     in {:?}",
                    report.swarm.peers_complete,
                    3,
                    report.swarm.elapsed
                );
                assert!(
                    report.swarm.total_faults.total() > 0,
                    "{scheme:?} under {runtime:?}: the per-link plan must inject something"
                );
                if plan.delay_rate > 0.0 {
                    assert!(
                        report.swarm.total_faults.delayed_in > 0,
                        "{scheme:?} under {runtime:?}: the delay plan must delay something"
                    );
                }
                assert!(
                    report.relay_recoding_ops > 0,
                    "{scheme:?} under {runtime:?}: relays must recode through the faults"
                );
                reports.push(report);
            }
            for (a, b) in
                reports[0].swarm.peer_reports.iter().zip(reports[1].swarm.peer_reports.iter())
            {
                assert_eq!(
                    a.object, b.object,
                    "{scheme:?}: delivered objects differ across worker counts"
                );
            }
        }
    }
}
