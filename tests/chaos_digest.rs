//! The `cargo xtask chaos` gate in Tier-1.
//!
//! One seed of it: a lossy control channel (20 % drop, deliveries
//! delayed up to two slots), a controller crash with checkpoint
//! failover, and a mid-run outage of a fabric cable. The outage and the failover are what make the controller
//! re-pack (`Arbiter::repack`) and absorb a fault epoch into its delta
//! cache, which the golden chaos trace (no link fault) does not reach.
//! The digest is the one the gate printed at the parent of the change
//! that marks a delta-pass departure at its rank; the safety audit must
//! stay clean.
//!
//! Its baseline, through a preemption: on a perfect control channel
//! the chaos harness must reproduce the testbed, whose senders discard a
//! preempted task's flows as the chaos plane's revokes do.

use taps::trace_scenarios::testbed_workload;
use taps_sdn::{run_chaos, run_testbed, ChannelConfig, ChaosConfig, ControllerConfig, TaskVerdict};
use taps_topology::build::{partial_fat_tree_testbed, GBPS};
use taps_workload::{FaultPlan, SizeDist, WorkloadConfig};

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

#[test]
fn reliable_chaos_reproduces_the_testbed_through_a_preemption() {
    // Overload: large flows under tight deadlines arriving in a burst,
    // so the reject rule fires and, once, preempts.
    let topo = partial_fat_tree_testbed(GBPS);
    let wl = WorkloadConfig {
        num_tasks: 40,
        mean_flows_per_task: 2.0,
        sd_flows_per_task: 0.0,
        mean_flow_size: 1_000_000.0,
        sd_flow_size: 200_000.0,
        min_flow_size: 100_000.0,
        mean_deadline: 0.010,
        min_deadline: 0.002,
        arrival_rate: 3000.0,
        num_hosts: 8,
        seed: 9,
        size_dist: SizeDist::Normal,
    }
    .generate();
    let horizon = wl.tasks.last().expect("non-empty workload").deadline + 0.05;
    let cfg = ControllerConfig::default();
    let tb = run_testbed(&topo, &wl, cfg.clone(), horizon);
    let ch = run_chaos(&topo, &wl, &ChaosConfig::reliable(cfg, horizon));

    assert!(
        tb.verdicts
            .iter()
            .any(|(_, v)| matches!(v, TaskVerdict::AcceptedWithPreemption(_))),
        "the workload must preempt"
    );
    assert_eq!(ch.verdicts, tb.verdicts);
    assert_eq!(
        (ch.flows_on_time, ch.flows_rejected, ch.flows_missed),
        (tb.flows_on_time, tb.flows_rejected, tb.flows_missed),
        "on-time / rejected / missed flows"
    );
    assert_eq!(tb.occupancy_violations + tb.forwarding_violations, 0);
    assert_eq!(ch.violations(), 0);
}
