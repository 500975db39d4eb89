//! A daemon that forgets: what the service loop and its controller keep
//! about finished work is bounded by the tasks in flight plus those
//! whose deadline + horizon has not passed (DESIGN.md §10, §15), so it
//! does not grow with the length of the run. No wall clock: `run_load`
//! drives simulated time, and the counts come from the stats snapshot's
//! `retained` object.

use taps::prelude::*;
use taps::sdn::ControllerConfig;
use taps_service::{run_load, LoadConfig, ServiceConfig, ServiceController};
use taps_workload::{ReplayConfig, ReplayPlan};

/// The stats snapshot's `retained` keys, in one order.
const KEYS: [&str; 7] = [
    "registry",
    "decided",
    "flow_expiries",
    "task_expiries",
    "outcomes",
    "outcome_expiries",
    "owners",
];

/// Whether a key counts flows (else tasks).
fn counts_flows(key: &str) -> bool {
    matches!(key, "registry" | "flow_expiries")
}

#[test]
fn retained_records_stay_within_in_flight_and_the_horizon() {
    const TASKS: usize = 20_000;
    const LEG: usize = 1_000;
    let topo = fat_tree(8, GBPS);
    // Small tasks at 300 tasks/s keep a debug-build run short; the
    // deadlines are the paper's.
    let wl = WorkloadConfig {
        num_tasks: TASKS,
        mean_flows_per_task: 2.0,
        sd_flows_per_task: 1.0,
        arrival_rate: 300.0,
        ..WorkloadConfig::paper_single_rooted(topo.num_hosts(), 7)
    }
    .generate();
    let plan = ReplayPlan::build(&wl, &ReplayConfig::default());
    let svc_cfg = ServiceConfig::default();
    let mut svc = ServiceController::new(&topo, ControllerConfig::default(), svc_cfg);
    let horizon = svc.controller().horizon();

    // Per length (10 000, 20 000 tasks): the largest count of each key
    // seen at a leg's end.
    let mut peaks = [[0u64; KEYS.len()]; 2];
    let mut submitted = 0usize;
    for (leg_no, leg) in plan.events.chunks(LEG).enumerate() {
        submitted += leg.len();
        let leg = ReplayPlan {
            events: leg.to_vec(),
        };
        let report = run_load(&mut svc, &svc_cfg, &wl, &leg, &LoadConfig::default());
        assert_eq!(report.violations, Vec::<String>::new());

        // The controller's clock trails the loop's, so it is the looser
        // reference for "deadline + horizon has not passed".
        let clock = svc.controller().checkpoint().now;
        let recent: Vec<usize> = plan.events[..submitted]
            .iter()
            .filter(|ev| ev.deadline + horizon >= clock)
            .map(|ev| ev.task)
            .collect();
        let recent_flows: usize = recent.iter().map(|&t| wl.tasks[t].flows.len()).sum();
        let in_flight_flows = svc.controller().in_flight();
        let stats = svc.stats_value();
        let retained = stats.get("retained").expect("stats report retained counts");
        for (k, key) in KEYS.iter().enumerate() {
            let n = retained.get(key).and_then(|v| v.as_u64()).expect(key);
            // A granted task still in flight is due after the clock, so
            // it is among the recent ones.
            let bound = if counts_flows(key) {
                in_flight_flows + recent_flows
            } else {
                recent.len()
            };
            assert!(
                n <= bound as u64,
                "after {submitted} tasks: {key} = {n} > {bound} \
                 (in flight {in_flight_flows} flows, {} tasks within the horizon)",
                recent.len()
            );
            for peak in &mut peaks[usize::from(leg_no >= TASKS / LEG / 2)..] {
                peak[k] = peak[k].max(n);
            }
        }
    }

    // Twice the tasks keep no more: the counts do not grow with the run.
    for (k, key) in KEYS.iter().enumerate() {
        let (half, whole) = (peaks[0][k], peaks[1][k]);
        assert!(half > 0, "{key} never held a record");
        assert!(
            whole <= half + half / 2,
            "{key}: peak {half} over 10 000 tasks, {whole} over 20 000"
        );
    }
}
