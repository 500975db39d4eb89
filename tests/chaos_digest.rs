//! One seed of the `cargo xtask chaos` gate, in Tier-1: a lossy control
//! channel (20 % drop, deliveries delayed up to two slots), a controller
//! crash with checkpoint failover, and a mid-run outage of a fabric
//! cable. The outage and the failover are what make the controller
//! re-pack (`Arbiter::repack`) and absorb a fault epoch into its delta
//! cache, which the golden chaos trace (no link fault) does not reach.
//! The digest is the one the gate printed at the parent of the change
//! that marks a delta-pass departure at its rank; the safety audit must
//! stay clean.

use taps::trace_scenarios::testbed_workload;
use taps_sdn::{run_chaos, ChannelConfig, ChaosConfig, ControllerConfig};
use taps_topology::build::{partial_fat_tree_testbed, GBPS};
use taps_workload::FaultPlan;

#[test]
fn a_chaos_seed_with_a_link_outage_is_pinned() {
    // `cargo xtask chaos`, seed 0, spelled out.
    let seed = 0;
    let topo = partial_fat_tree_testbed(GBPS);
    let wl = testbed_workload(1000 + seed, 16);
    let horizon = wl.tasks.last().expect("non-empty workload").deadline + 0.08;
    let mut cfg = ChaosConfig::unreliable(
        ControllerConfig::default(),
        ChannelConfig::lossy(0.2, 0.0002),
        seed,
        horizon,
    );
    let (cable, _) = topo
        .links()
        .find(|(_, l)| topo.node(l.src).kind.is_switch() && topo.node(l.dst).kind.is_switch())
        .expect("the testbed has a switch-to-switch cable");
    cfg.faults = FaultPlan::controller_outage(0.005, 0.010)
        .merge(FaultPlan::link_outage(cable, 0.015, 0.022))
        .events;

    let rep = run_chaos(&topo, &wl, &cfg);
    topo.reset_faults();
    assert_eq!(rep.violations(), 0, "chaos safety invariants");
    assert_eq!(rep.failovers.len(), 1, "the planned crash must fail over");
    assert_eq!(format!("{:#018x}", rep.digest), "0x2ff6deee63d1c97d");
}
