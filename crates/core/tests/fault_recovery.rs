//! Fault injection & controller recovery, end to end: TAPS driven by the
//! flowsim engine under deterministic link/switch fault plans.
//!
//! Every `Taps::commit` in these debug-build runs is checked against the
//! schedule invariants (`Arbiter::commit`), so each test doubles as an
//! assertion that every post-recovery schedule is validator-clean.

use proptest::prelude::*;
use taps_core::validate::{check_occupancy, check_schedule};
use taps_core::{AllocEngine, FlowDemand, Taps, TapsConfig};
use taps_flowsim::{FaultEvent, FaultKind, FlowStatus, SimConfig, SimReport, Simulation, Workload};
use taps_topology::build::{dumbbell, fat_tree, GBPS};
use taps_topology::paths::PathFinder;
use taps_topology::{LinkId, Topology};
use taps_workload::{FaultPlanConfig, WorkloadConfig};

fn taps(slot: f64) -> Taps {
    Taps::with_config(TapsConfig {
        slot,
        ..TapsConfig::default()
    })
}

/// The uplinks (ToR → aggregation) of the ToR switch serving `host`.
fn tor_uplinks(topo: &Topology, host: usize) -> Vec<LinkId> {
    let (tor, _) = topo.neighbors(topo.host(host))[0];
    topo.neighbors(tor)
        .iter()
        .filter(|(n, _)| topo.node(*n).level > topo.node(tor).level)
        .map(|(_, l)| *l)
        .collect()
}

fn run_faulted(topo: &Topology, wl: &Workload, slot: f64, faults: Vec<FaultEvent>) -> SimReport {
    let cfg = SimConfig {
        faults,
        ..SimConfig::default()
    };
    Simulation::new(topo, wl, cfg).run(&mut taps(slot))
}

#[test]
fn reroute_after_uplink_failure_keeps_flow_on_time() {
    // Inter-pod flow in a fat-tree; each ToR has two uplinks. Failing
    // either one mid-flight must leave the flow on time — whichever
    // uplink the committed route used, the recovery re-pack finds the
    // surviving path (for one of the two runs that is a genuine
    // re-route, not a no-op).
    let topo = fat_tree(4, GBPS);
    let wl = Workload::from_tasks(vec![(0.0, 6.0, vec![(0, 12, 2.0 * GBPS)])]);
    for up in tor_uplinks(&topo, 0) {
        let rep = run_faulted(
            &topo,
            &wl,
            1.0,
            vec![FaultEvent {
                time: 0.5,
                kind: FaultKind::LinkDown(up),
            }],
        );
        assert_eq!(rep.flows_on_time, 1, "uplink {up:?}");
        assert_eq!(rep.tasks_completed, 1);
        assert!(topo.all_up(), "engine must reset fault state");
    }
}

#[test]
fn fault_exactly_on_slice_boundary_repacks_cleanly() {
    // The fault instant coincides with a slot boundary (t = 1.0, slot =
    // 1.0): exactly one slot's bytes are delivered, and the recovery
    // re-pack starts at that same boundary — no slot is lost and none is
    // double-used (the commit validator would panic on overlap).
    let topo = fat_tree(4, GBPS);
    let wl = Workload::from_tasks(vec![(0.0, 8.0, vec![(0, 12, 3.0 * GBPS)])]);
    for up in tor_uplinks(&topo, 0) {
        let rep = run_faulted(
            &topo,
            &wl,
            1.0,
            vec![FaultEvent {
                time: 1.0,
                kind: FaultKind::LinkDown(up),
            }],
        );
        let finish = rep.flow_outcomes[0].finish.unwrap();
        assert!(
            (finish - 3.0).abs() < 1e-6,
            "gapless handover across the boundary fault: finish {finish}"
        );
        assert_eq!(rep.flows_on_time, 1);
    }
}

#[test]
fn fail_then_restore_same_link_folds_capacity_back_in() {
    // The same uplink fails and is repaired, then the *other* uplink
    // fails and is repaired. At every instant at least one uplink is up,
    // so the (long) flow survives; the LinkUp re-pack folds the restored
    // capacity into the schedule.
    let topo = fat_tree(4, GBPS);
    let wl = Workload::from_tasks(vec![(0.0, 10.0, vec![(0, 12, 4.0 * GBPS)])]);
    let ups = tor_uplinks(&topo, 0);
    assert_eq!(ups.len(), 2);
    let rep = run_faulted(
        &topo,
        &wl,
        1.0,
        vec![
            FaultEvent {
                time: 0.5,
                kind: FaultKind::LinkDown(ups[0]),
            },
            FaultEvent {
                time: 1.5,
                kind: FaultKind::LinkUp(ups[0]),
            },
            FaultEvent {
                time: 2.5,
                kind: FaultKind::LinkDown(ups[1]),
            },
            FaultEvent {
                time: 3.5,
                kind: FaultKind::LinkUp(ups[1]),
            },
        ],
    );
    assert_eq!(rep.flows_on_time, 1);
    assert!((rep.flow_outcomes[0].delivered - 4.0 * GBPS).abs() < 1.0);
}

#[test]
fn disconnection_discards_inflight_and_rejects_newcomers() {
    // A dumbbell has a single path. Killing the cross cable leaves the
    // in-flight task with no surviving route: the recovery degrades to
    // discarding it (structured `AllocError::Disconnected`, not a
    // panic). A task arriving while the cable is down is rejected.
    let topo = dumbbell(2, 2, GBPS);
    let pf = PathFinder::new(&topo);
    let cross = pf.paths(topo.host(0), topo.host(2), 1)[0].links[1];
    let wl = Workload::from_tasks(vec![
        (0.0, 5.0, vec![(0, 2, 2.0 * GBPS)]),
        (1.0, 6.0, vec![(1, 3, GBPS)]),
    ]);
    let rep = run_faulted(
        &topo,
        &wl,
        1.0,
        vec![FaultEvent {
            time: 0.5,
            kind: FaultKind::LinkDown(cross),
        }],
    );
    assert_eq!(rep.flow_outcomes[0].status, FlowStatus::Discarded);
    assert_eq!(rep.flow_outcomes[1].status, FlowStatus::Rejected);
    assert_eq!(rep.tasks_completed, 0);
    // The discarded task's partial delivery is accounted as waste.
    assert!(rep.bytes_wasted_task > 0.0);
}

#[test]
fn post_fault_allocation_avoids_dead_links_and_passes_validator() {
    // Direct Alg. 2/3 check: with an uplink down, a batch allocation
    // only uses surviving links and satisfies every schedule invariant.
    let topo = fat_tree(4, GBPS);
    let dead = tor_uplinks(&topo, 0)[0];
    topo.fail_link(dead);
    let mut eng = AllocEngine::new(0.001, 16);
    eng.ensure_topology(&topo);
    let demands: Vec<FlowDemand> = (0..6)
        .map(|i| FlowDemand {
            id: i,
            src: i % 4,
            dst: 12 + i % 4,
            remaining: (1 + i as u64) as f64 * GBPS * 0.001,
            deadline: 0.1,
        })
        .collect();
    let allocs = eng.allocate_batch(&topo, &demands, 0).unwrap();
    for al in &allocs {
        for l in &al.path.links {
            assert!(topo.is_link_up(*l), "allocated path crosses dead link");
        }
    }
    let mut report = check_schedule(&topo, 0.001, &demands, &allocs, "post-fault");
    report
        .violations
        .extend(check_occupancy(&topo, &eng, &allocs, "post-fault").violations);
    assert!(report.is_clean(), "{report}");
    topo.reset_faults();
}

/// Two identical seeded runs (same workload seed, same fault plan) must
/// produce bit-identical reports — the recovery path introduces no
/// hidden nondeterminism. Also exercised by CI's fault-matrix job, which
/// sets `FAULT_SEED` to several fixed values.
fn assert_deterministic_roundtrip(seed: u64) {
    let topo = fat_tree(4, GBPS);
    let wl = WorkloadConfig::paper_multi_rooted(16, seed)
        .scaled(0.004)
        .generate();
    let plan = FaultPlanConfig {
        seed: seed ^ 0x5eed,
        num_link_faults: 2,
        num_switch_faults: 1,
        num_controller_faults: 0,
        horizon: 0.3,
        mean_downtime: 0.05,
        restore: true,
        spare_host_links: true,
    }
    .generate(&topo);
    let mut a = run_faulted(&topo, &wl, 0.0005, plan.events.clone());
    let mut b = run_faulted(&topo, &wl, 0.0005, plan.events);
    a.wall = std::time::Duration::ZERO;
    b.wall = std::time::Duration::ZERO;
    assert_eq!(a, b, "seed {seed}: reports differ between identical runs");
    // Truncation never triggers at this scale, so every outcome is
    // determinate.
    assert!(!a.truncated);
    assert_eq!(a.flows_indeterminate, 0);
}

#[test]
fn fault_matrix_seed_is_deterministic() {
    let seed: u64 = std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    assert_deterministic_roundtrip(seed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn seeded_fault_plans_recover_deterministically(seed in 0u64..512) {
        assert_deterministic_roundtrip(seed);
    }
}
