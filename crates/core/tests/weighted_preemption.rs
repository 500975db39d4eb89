//! Mutation tests for the weighted reject rule (DESIGN.md §16): the same
//! contention scenario is replayed with mutated task weights and the
//! admission decision must flip exactly when the weights say so. A
//! scheduler that ignored weights — or applied them to only one side of
//! the comparison — passes the setup but fails the assertions.
//!
//! The second half is the commit-time validator check: weights scale the
//! *value* term of Alg. 3's comparison but never reach the allocator
//! ([`taps_core::FlowDemand`] has no weight field), so link-exclusivity
//! and slice-within-deadline invariants must hold on weighted workloads
//! exactly as on unweighted ones, and a run with every weight at 1.0
//! must be bit-identical to the unweighted constructor's run.

use taps_core::{RejectDecision, RejectPolicy, Taps, TapsConfig};
use taps_flowsim::{SimConfig, SimReport, Simulation, Workload};
use taps_topology::build::{dumbbell, single_rooted, GBPS};
use taps_workload::ScenarioConfig;

fn taps_unit_slot() -> Taps {
    Taps::with_config(TapsConfig {
        slot: 1.0,
        policy: RejectPolicy::Paper,
        ..TapsConfig::default()
    })
}

/// A contended dumbbell where the weighted rule has real room to act:
/// the victim's small flow is already complete when the newcomer
/// arrives, so its schedulable ratio under the tentative schedule is
/// 0.5 (one of two flows still makes it) against the newcomer's 1.0.
/// Unweighted, 0.5 < 1.0 sheds the victim; a victim weight above 2
/// flips the comparison. Only the weights vary between cases.
fn contended(victim_weight: f64, newcomer_weight: f64) -> (Vec<RejectDecision>, SimReport) {
    let topo = dumbbell(2, 2, GBPS);
    let wl = Workload::from_weighted_tasks(vec![
        // Victim: 0.5-unit flow (done by t=0.5) plus a 4-unit flow that
        // needs every remaining slot before the 5.5 deadline.
        (
            0.0,
            5.5,
            vec![(0, 2, 4.0 * GBPS), (1, 3, 0.5 * GBPS)],
            victim_weight,
        ),
        // Urgent 1-unit newcomer on the same bottleneck.
        (1.0, 3.0, vec![(1, 3, 1.0 * GBPS)], newcomer_weight),
    ]);
    let mut taps = taps_unit_slot();
    let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut taps);
    let decisions = taps.decisions().iter().map(|(_, d)| d.clone()).collect();
    (decisions, rep)
}

/// Unit weights reproduce the unweighted rule: the newcomer's higher
/// schedulable ratio wins and the victim is shed.
#[test]
fn unit_weights_preempt_the_lax_victim() {
    let (decisions, rep) = contended(1.0, 1.0);
    assert_eq!(decisions[1], RejectDecision::AcceptWithPreemption(0));
    assert!(rep.task_success[1]);
    assert!(!rep.task_success[0]);
}

/// Mutation: a heavy victim (high weight per byte) is protected — the
/// weighted comparison now favors keeping it, so the newcomer is
/// rejected instead and the victim finishes on time.
#[test]
fn heavy_victim_is_protected_from_preemption() {
    let (decisions, rep) = contended(10.0, 1.0);
    assert_eq!(decisions[1], RejectDecision::Reject);
    assert!(rep.task_success[0], "the high-value victim must complete");
    assert!(!rep.task_success[1]);
}

/// Mutation: boosting the newcomer instead keeps the preemption — the
/// weights act on both sides of the comparison, not just the victim's.
#[test]
fn heavy_newcomer_still_preempts() {
    let (decisions, rep) = contended(1.0, 10.0);
    assert_eq!(decisions[1], RejectDecision::AcceptWithPreemption(0));
    assert!(rep.task_success[1]);
}

/// Flipping the same weight pair flips the decision: the scheduler
/// prefers shedding the task with the lower weight per unit of
/// remaining value, whichever side it is on.
#[test]
fn swapping_weights_swaps_the_victim_choice() {
    let (heavy_victim, _) = contended(6.0, 1.0);
    let (light_victim, _) = contended(1.0, 6.0);
    assert_eq!(heavy_victim[1], RejectDecision::Reject);
    assert_eq!(
        light_victim[1],
        RejectDecision::AcceptWithPreemption(0),
        "same weights on opposite sides must flip the outcome"
    );
}

/// Weighted goodput follows the decision: protecting the heavy victim
/// retains more weighted bytes than shedding it would have.
#[test]
fn protecting_the_heavy_victim_maximizes_weighted_goodput() {
    let (_, protected) = contended(10.0, 1.0);
    let (_, shed) = contended(1.0, 1.0);
    assert!(
        protected.weighted_goodput() > shed.weighted_goodput(),
        "{} vs {}",
        protected.weighted_goodput(),
        shed.weighted_goodput()
    );
}

/// Commit-time validator check: a fully weighted scenario workload runs
/// under the armed capacity validator (`validate_capacity`) and the
/// commit-time schedule checks (active in debug/test builds). Any
/// weight-induced corruption of link exclusivity or
/// slice-within-deadline placement panics here.
#[test]
fn weighted_workload_passes_schedule_invariants() {
    let topo = single_rooted(2, 2, 4, GBPS);
    let wl = ScenarioConfig::weighted(16, 40, 9).generate().unwrap();
    assert!(wl.tasks.iter().any(|t| t.weight != 1.0));
    let mut taps = Taps::default();
    let cfg = SimConfig {
        validate_capacity: true,
        ..SimConfig::default()
    };
    let rep = Simulation::new(&topo, &wl, cfg).run(&mut taps);
    assert!(rep.tasks_completed > 0, "scenario must admit something");
}

/// A weighted run with every weight at 1.0 is bit-identical to the
/// unweighted constructor's run: same decisions, same schedule
/// fingerprint-relevant report fields.
#[test]
fn unit_weight_run_matches_unweighted_run() {
    let topo = single_rooted(2, 2, 4, GBPS);
    let wl = ScenarioConfig::incast(16, 30, 4).generate().unwrap();
    let plain: Vec<_> = wl
        .tasks
        .iter()
        .map(|t| {
            let flows: Vec<_> = t
                .flows
                .clone()
                .map(|fid| {
                    let f = &wl.flows[fid];
                    (f.src, f.dst, f.size)
                })
                .collect();
            (t.arrival, t.deadline, flows)
        })
        .collect();
    let weighted: Vec<_> = plain
        .iter()
        .cloned()
        .map(|(a, d, f)| (a, d, f, 1.0))
        .collect();

    let mut ta = Taps::default();
    let ra =
        Simulation::new(&topo, &Workload::from_tasks(plain), SimConfig::default()).run(&mut ta);
    let mut tb = Taps::default();
    let rb = Simulation::new(
        &topo,
        &Workload::from_weighted_tasks(weighted),
        SimConfig::default(),
    )
    .run(&mut tb);

    assert_eq!(ta.decisions(), tb.decisions());
    assert_eq!(ra.tasks_completed, rb.tasks_completed);
    assert_eq!(ra.flows_on_time, rb.flows_on_time);
    assert_eq!(
        ra.bytes_on_time_tasks.to_bits(),
        rb.bytes_on_time_tasks.to_bits()
    );
    assert_eq!(
        ra.bytes_wasted_flow.to_bits(),
        rb.bytes_wasted_flow.to_bits()
    );
    assert_eq!(ra.task_success, rb.task_success);
    // The weighted aggregates collapse onto the unweighted ones.
    assert_eq!(
        ra.weighted_goodput().to_bits(),
        ra.app_task_throughput().to_bits()
    );
    assert_eq!(
        rb.weighted_goodput().to_bits(),
        rb.app_task_throughput().to_bits()
    );
}
