//! One controller probe must cost what its in-flight set costs, and the
//! controller must keep what its in-flight set and one horizon of
//! finished work need, however long the daemon has been up; making it
//! so must not move a single decision. No wall clock: the first test
//! pins a seeded service run — digest, controller counters, switch
//! commands — to the values the same file produced on the commit before
//! the in-flight index (there without the lines that commit cannot
//! compile) and watches the index follow
//! the live flows and the registry stay within in flight + horizon; the
//! second probes one in-flight set on top of 0 and of 20 000 retired
//! flows, compares every output, and sees the retired flows forgotten
//! once the run passes their deadline + horizon; the third counts what
//! one probe writes into F_tmp (its own flows, however many are in
//! flight or retired).

use std::collections::BTreeMap;

use taps::prelude::*;
use taps::scenario_matrix::Fnv;
use taps::sdn::{
    CheckpointFlow, ControlStats, Controller, ControllerCheckpoint, ControllerConfig, ProbeHeader,
    SwitchCmd, TaskVerdict,
};
use taps_service::load::submit_for_task;
use taps_service::{run_load, LoadConfig, ServiceConfig, ServiceController};
use taps_workload::{ReplayConfig, ReplayPlan};

/// The `uds_steady` / `sim_taps_k8` shape: Poisson arrivals at
/// 300 tasks/s of ~16-flow tasks on `fat_tree(8)`.
fn round(tasks: usize, seed: u64) -> (Workload, ReplayPlan) {
    let wl = WorkloadConfig {
        num_tasks: tasks,
        mean_flows_per_task: 16.0,
        sd_flows_per_task: 4.0,
        arrival_rate: 300.0,
        ..WorkloadConfig::paper_multi_rooted(128, seed)
    }
    .generate();
    let plan = ReplayPlan::build(&wl, &ReplayConfig::default());
    (wl, plan)
}

#[test]
fn a_seeded_service_run_is_pinned_and_the_index_follows_the_live_flows() {
    const TASKS: usize = 360;
    const LEGS: usize = 6;
    let topo = fat_tree(8, GBPS);
    let (wl, plan) = round(TASKS, 17);
    let svc_cfg = ServiceConfig::default();
    let mut svc = ServiceController::new(&topo, ControllerConfig::default(), svc_cfg);

    // The plan is replayed in legs so the controller can be looked at
    // along the way.
    let horizon = svc.controller().horizon();
    let mut digest = 0u64;
    let mut submitted = 0usize;
    for leg in plan.events.chunks(TASKS / LEGS) {
        submitted += leg.len();
        let leg = ReplayPlan {
            events: leg.to_vec(),
        };
        let report = run_load(&mut svc, &svc_cfg, &wl, &leg, &LoadConfig::default());
        assert_eq!(report.violations, Vec::<String>::new());
        digest = report.digest;
        let ckpt = svc.controller().checkpoint();
        let live = ckpt.flows.iter().filter(|f| !f.done).count();
        assert_eq!(svc.controller().in_flight(), live);
        // Every flow kept is in flight or belongs to a task whose
        // deadline + horizon the controller's clock has not passed (it
        // used to keep every flow ever granted: ≈4 000 by the last leg).
        let recent: usize = plan.events[..submitted]
            .iter()
            .filter(|ev| ev.deadline + horizon >= ckpt.now)
            .map(|ev| wl.tasks[ev.task].flows.len())
            .sum();
        assert!(
            ckpt.flows.len() <= live + recent,
            "{} flows kept, {live} in flight, {recent} within the horizon",
            ckpt.flows.len()
        );
    }

    let stats = svc.controller().stats().clone();
    assert_eq!(digest, PINNED_DIGEST, "decision digest {digest:#x}");
    assert_eq!(stats, pinned_stats());
    assert_eq!(stats.installs + stats.withdrawals, PINNED_SWITCH_COMMANDS);
}

// Taken on the parent commit (PR 16, before the in-flight index).
const PINNED_DIGEST: u64 = 0x5240_58a2_0d19_1aa2;
const PINNED_SWITCH_COMMANDS: usize = 237_799;

fn pinned_stats() -> ControlStats {
    ControlStats {
        probes: 360,
        grants: 3_970,
        terms: 2_731,
        installs: 119_221,
        withdrawals: 118_578,
        rejected_tasks: 112,
        preempted_tasks: 67,
        ..ControlStats::default()
    }
}

/// A standby restored from a checkpoint of `retired` finished flows
/// (16 per task, ids from 1 000 000 up) and nothing in flight.
fn controller_with_history(topo: &Topology, retired: usize) -> Controller<'_> {
    const BASE: usize = 1_000_000;
    let hosts = topo.num_hosts();
    let ckpt = ControllerCheckpoint {
        epoch: 0,
        gen: 0,
        now: 0.0,
        flows: (0..retired)
            .map(|i| CheckpointFlow {
                flow: BASE + i,
                task: BASE + i / 16,
                src: i % hosts,
                dst: (i + 1) % hosts,
                size: 1e5,
                delivered: 1e5,
                deadline: 0.01,
                done: true,
            })
            .collect(),
        decided: (0..retired.div_ceil(16))
            .map(|t| (BASE + t, TaskVerdict::Accepted, 0.01))
            .collect(),
    };
    Controller::restore(topo, ControllerConfig::default(), &ckpt)
}

#[test]
fn retired_flows_in_the_registry_change_no_verdict_grant_or_command() {
    const RETIRED: usize = 20_000;
    let topo = fat_tree(8, GBPS);
    let (wl, plan) = round(120, 23);
    let mut fresh = controller_with_history(&topo, 0);
    let mut aged = controller_with_history(&topo, RETIRED);
    assert_eq!(aged.checkpoint().flows.len(), RETIRED);
    assert_eq!(aged.in_flight(), 0);

    // The service's call sequence on a bare controller: TERM the flows
    // of granted tasks whose deadline has passed, then probe.
    let mut granted: BTreeMap<usize, (f64, Vec<usize>)> = BTreeMap::new();
    let mut verdicts = [0usize; 3];
    let mut cmds = CmdDigest::default();
    for ev in &plan.events {
        let due: Vec<usize> = granted
            .iter()
            .filter(|(_, (deadline, _))| *deadline <= ev.at)
            .map(|(&task, _)| task)
            .collect();
        for flow in due.iter().flat_map(|t| granted.remove(t)).flat_map(|g| g.1) {
            let withdrawn = fresh.handle_term(ev.at, flow);
            assert_eq!(withdrawn, aged.handle_term(ev.at, flow));
            cmds.eat(&withdrawn);
        }
        // (verdict, grants, switch commands)
        let probes = submit_for_task(&wl, ev.task, ev.deadline).probes();
        let a = fresh.handle_probe(ev.at, &probes);
        let b = aged.handle_probe(ev.at, &probes);
        assert_eq!(
            a, b,
            "task {} decided differently on top of history",
            ev.task
        );
        assert_eq!(fresh.in_flight(), aged.in_flight());
        cmds.eat(&a.2);
        match a.0 {
            TaskVerdict::Accepted => verdicts[0] += 1,
            TaskVerdict::AcceptedWithPreemption(victim) => {
                verdicts[1] += 1;
                granted.remove(&victim);
            }
            TaskVerdict::Rejected => verdicts[2] += 1,
        }
        if a.0 != TaskVerdict::Rejected {
            let flows = probes.iter().map(|p| p.flow).collect();
            granted.insert(ev.task, (ev.deadline, flows));
        }
    }
    assert!(
        verdicts.iter().all(|&n| n > 0),
        "the sequence should accept, preempt and reject: {verdicts:?}"
    );
    assert_eq!(fresh.stats(), aged.stats());
    // The retired flows and their tasks, still within their horizon
    // when the run starts, are forgotten once it passes their deadline
    // + horizon: the aged controller ends up keeping exactly what the
    // fresh one does.
    assert!(plan.events[0].at < 0.01 + aged.horizon());
    assert_eq!(aged.checkpoint(), fresh.checkpoint());
    assert_eq!(
        (cmds.count, cmds.hash.0),
        PINNED_COMMAND_STREAM,
        "switch-command stream {:#018x} ({} commands)",
        cmds.hash.0,
        cmds.count
    );
}

/// `fat_tree(16)` task `task` of 16 × 100 KB flows due at 50 ms, on
/// endpoints that follow `shape` only.
fn spread_task(topo: &Topology, task: usize, shape: usize) -> Vec<ProbeHeader> {
    let hosts = topo.num_hosts();
    (0..16)
        .map(|j| {
            let src = (shape * 61 + j * 17) % hosts;
            ProbeHeader {
                task,
                flow: task * 16 + j,
                src,
                dst: (src + 1 + (shape * 7 + j * 29) % (hosts - 1)) % hosts,
                size: 1e5,
                deadline: 0.05,
            }
        })
        .collect()
}

#[test]
fn a_probe_writes_its_own_flows_into_ftmp_however_long_the_history() {
    // With the probed task, ≈ the 200 flows `inproc_admit_k16` keeps in
    // flight.
    const IN_FLIGHT_TASKS: usize = 12;
    let topo = fat_tree(16, GBPS);
    for retired in [0, 20_000] {
        let mut ctrl = controller_with_history(&topo, retired);
        assert_eq!(ctrl.ftmp_writes(), 0, "retired flows are not in flight");
        for t in 0..IN_FLIGHT_TASKS {
            let (verdict, _, _) = ctrl.handle_probe(0.0, &spread_task(&topo, t, t));
            assert_eq!(verdict, TaskVerdict::Accepted, "uncontended");
        }
        assert_eq!(ctrl.in_flight(), IN_FLIGHT_TASKS * 16);
        for t in IN_FLIGHT_TASKS..IN_FLIGHT_TASKS + 3 {
            let probes = spread_task(&topo, t, IN_FLIGHT_TASKS);
            let before = ctrl.ftmp_writes();
            let (verdict, _, _) = ctrl.handle_probe(0.0, &probes);
            assert_eq!(verdict, TaskVerdict::Accepted);
            assert_eq!(
                ctrl.ftmp_writes() - before,
                probes.len(),
                "one probe of {} flows, {} in flight, {retired} retired",
                probes.len(),
                ctrl.in_flight()
            );
            for p in &probes {
                ctrl.handle_term(0.0, p.flow);
            }
        }
    }
}

/// FNV-1a over an ordered switch-command stream: per command its kind,
/// switch, flow and output link (a withdrawal has none).
#[derive(Default)]
struct CmdDigest {
    hash: Fnv,
    count: usize,
}

impl CmdDigest {
    fn eat(&mut self, cmds: &[SwitchCmd]) {
        for c in cmds {
            let words = match *c {
                SwitchCmd::Install {
                    node,
                    flow,
                    out_link,
                } => [0, node.idx() as u64, flow as u64, out_link.idx() as u64],
                SwitchCmd::Withdraw { node, flow } => [1, node.idx() as u64, flow as u64, u64::MAX],
            };
            for w in words {
                self.hash.mix(w);
            }
            self.count += 1;
        }
    }
}

// Taken on the parent of the commit that moved the committed schedule
// into the arbiter: the commands, and their order, may not move.
const PINNED_COMMAND_STREAM: (usize, u64) = (72_858, 0xc9a7_10a4_0263_2654);
