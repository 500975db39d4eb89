//! The researcher's entry point: `taps_flowsim::Simulation::run` with
//! `taps_core::Taps`, every scheduler callback timed.

use std::collections::BTreeSet;
use std::time::Instant;

use taps_core::{RejectDecision, Taps};
use taps_flowsim::{
    DeadlineAction, FaultEvent, FlowId, Scheduler, SimConfig, SimCtx, SimReport, Simulation,
    TaskId, Workload,
};
use taps_topology::build::{fat_tree, GBPS};

use super::{fnv1a, RoundResult, SETUPS_PER_ROUND};
use crate::procstat;
use crate::spec::WorkloadSpec;

/// `Taps` behind the `Scheduler` trait with wall-clock stamps around
/// every callback.
///
/// `Taps::on_task_arrival` only queues the task; the verdict falls in
/// the `assign_rates` call at the task's slot boundary. A decision's
/// latency is therefore the arrival callback plus the `assign_rates`
/// call whose `Taps::decisions()` log gained the task.
pub struct TimedScheduler {
    inner: Taps,
    origin: Instant,
    arrival_s: Vec<f64>,
    /// `(task, start, end)` per decision: `end - start` is the latency;
    /// `end` is when the deciding `assign_rates` call returned.
    pub decision_spans: Vec<(u64, f64, f64)>,
    /// Durations of `assign_rates` calls that decided nothing, seconds.
    pub rates_s: Vec<f64>,
    /// Total time inside scheduler callbacks, seconds.
    pub callbacks_s: f64,
    /// With tracing on: `(callback, start, end, task)` of every call,
    /// seconds since [`origin`](Self::origin); `task` is the task an
    /// arrival callback delivered or a rates callback decided, else 0.
    pub callback_log: Option<Vec<(&'static str, f64, f64, u64)>>,
}

impl TimedScheduler {
    /// Wraps a scheduler that will see `tasks` tasks; `traced` also
    /// keeps a span per callback.
    pub fn new(inner: Taps, tasks: usize, traced: bool) -> TimedScheduler {
        TimedScheduler {
            inner,
            origin: Instant::now(),
            arrival_s: vec![0.0; tasks],
            decision_spans: Vec::with_capacity(tasks),
            rates_s: Vec::new(),
            callbacks_s: 0.0,
            callback_log: traced.then(Vec::new),
        }
    }

    /// The wrapped scheduler.
    pub fn inner(&self) -> &Taps {
        &self.inner
    }

    /// The instant every stamp is relative to.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Tags the callback just logged with the task it concerned.
    fn tag_last(&mut self, task: u64) {
        if let Some(last) = self.callback_log.as_mut().and_then(|l| l.last_mut()) {
            last.3 = task;
        }
    }

    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Taps) -> R) -> (R, f64, f64) {
        let start = self.origin.elapsed().as_secs_f64();
        let out = f(&mut self.inner);
        let end = self.origin.elapsed().as_secs_f64();
        self.callbacks_s += end - start;
        if let Some(log) = &mut self.callback_log {
            log.push((name, start, end, 0));
        }
        (out, start, end)
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_task_arrival(&mut self, ctx: &mut SimCtx<'_>, task: TaskId) {
        let ((), start, end) = self.timed("taps.on_task_arrival", |s| s.on_task_arrival(ctx, task));
        self.arrival_s[task] = end - start;
        self.tag_last(task as u64);
    }

    fn on_flow_completed(&mut self, ctx: &mut SimCtx<'_>, flow: FlowId) {
        self.timed("taps.on_flow_completed", |s| s.on_flow_completed(ctx, flow));
    }

    fn on_flow_deadline(&mut self, ctx: &mut SimCtx<'_>, flow: FlowId) -> DeadlineAction {
        self.timed("taps.on_flow_deadline", |s| s.on_flow_deadline(ctx, flow))
            .0
    }

    fn on_fault(&mut self, ctx: &mut SimCtx<'_>, event: &FaultEvent) {
        self.timed("taps.on_fault", |s| s.on_fault(ctx, event));
    }

    fn assign_rates(&mut self, ctx: &mut SimCtx<'_>) {
        let before = self.inner.decisions().len();
        let ((), start, end) = self.timed("taps.assign_rates", |s| s.assign_rates(ctx));
        let decided: Vec<TaskId> = self.inner.decisions()[before..]
            .iter()
            .map(|(task, _)| *task)
            .collect();
        match decided.first() {
            None => self.rates_s.push(end - start),
            Some(&first) => self.tag_last(first as u64),
        }
        for task in decided {
            let lat = self.arrival_s[task] + (end - start);
            self.decision_spans.push((task as u64, end - lat, end));
        }
    }

    fn next_wake(&mut self, now: f64) -> Option<f64> {
        self.timed("taps.next_wake", |s| s.next_wake(now)).0
    }
}

/// Checks TAPS's admission contract on a finished simulation: every
/// task is decided exactly once, and a task completes on time exactly
/// when it was accepted and never preempted afterwards.
pub fn check_report(wl: &Workload, taps: &Taps, report: &SimReport) -> Vec<String> {
    let mut violations = Vec::new();
    let n = wl.num_tasks();
    if report.truncated {
        violations.push("simulation hit the event cap".into());
    }
    if report.tasks_indeterminate != 0 {
        violations.push(format!(
            "{} tasks ended indeterminate",
            report.tasks_indeterminate
        ));
    }
    let mut seen = BTreeSet::new();
    let mut holding = BTreeSet::new();
    for (task, d) in taps.decisions() {
        if !seen.insert(*task) {
            violations.push(format!("task {task} decided more than once"));
        }
        match d {
            RejectDecision::Accept => {
                holding.insert(*task);
            }
            RejectDecision::AcceptWithPreemption(victim) => {
                if !holding.remove(victim) {
                    violations.push(format!("victim {victim} of task {task} held no grant"));
                }
                holding.insert(*task);
            }
            RejectDecision::Reject => {}
        }
    }
    if seen.len() != n {
        violations.push(format!("{} of {n} tasks were decided", seen.len()));
    }
    for task in 0..n {
        let won = report.task_success.get(task).copied().unwrap_or(false);
        if won != holding.contains(&task) {
            violations.push(format!(
                "task {task}: admitted-and-kept = {}, completed on time = {won}",
                holding.contains(&task)
            ));
        }
    }
    violations
}

/// Bit-identity witness of a simulation: FNV-1a over `task_success`.
pub fn report_digest(report: &SimReport) -> u64 {
    fnv1a(report.task_success.iter().map(|&b| u64::from(b)))
}

/// What one timed simulation produced.
pub struct SimOutcome {
    /// The engine's report.
    pub report: SimReport,
    /// The timed scheduler, with its samples.
    pub sched: TimedScheduler,
    /// Wall time of `Simulation::run`, seconds.
    pub run_s: f64,
}

/// Runs `wl` on `topo` under a fresh timed `Taps`.
pub fn simulate(topo: &taps_topology::Topology, wl: &Workload, traced: bool) -> SimOutcome {
    let mut sched = TimedScheduler::new(Taps::new(), wl.num_tasks(), traced);
    let sim = Simulation::new(topo, wl, SimConfig::default());
    let start = Instant::now();
    let report = sim.run(&mut sched);
    SimOutcome {
        report,
        sched,
        run_s: start.elapsed().as_secs_f64(),
    }
}

/// One untraced round: set-up (topology, generator, scheduler,
/// simulation), then the timed run.
pub fn run_round(spec: &WorkloadSpec, seed: u64, round: usize) -> RoundResult {
    // The process under test is this one: count its peak from here, not
    // from whatever ran in it before.
    procstat::reset_own_peak_rss();
    // `simulate` builds its own scheduler and `Simulation`, so each
    // set-up sample times an equivalent construction.
    let mut setups_s = Vec::with_capacity(SETUPS_PER_ROUND);
    let mut built = None;
    for _ in 0..SETUPS_PER_ROUND {
        let setup = Instant::now();
        let topo = fat_tree(spec.k, GBPS);
        let input = crate::inputs::generate(spec, seed, round);
        let sched = TimedScheduler::new(Taps::new(), input.wl.num_tasks(), false);
        std::hint::black_box((
            &sched,
            Simulation::new(&topo, &input.wl, SimConfig::default()),
        ));
        setups_s.push(setup.elapsed().as_secs_f64());
        built = Some((topo, input));
    }
    let (topo, input) = built.expect("SETUPS_PER_ROUND is positive");

    let pid = std::process::id();
    let cpu0 = procstat::cpu_seconds(pid).unwrap_or(0.0);
    let out = simulate(&topo, &input.wl, false);
    let cpu_s = procstat::cpu_seconds(pid).unwrap_or(0.0) - cpu0;

    let violations = check_report(&input.wl, out.sched.inner(), &out.report);
    let n = input.wl.num_tasks() as u64;
    RoundResult {
        submitted: n,
        decisions: out.sched.decision_spans.len() as u64,
        succeeded: out.report.tasks_completed as u64,
        wall_s: out.run_s,
        cpu_s,
        peak_rss_mb: procstat::peak_rss_mb(pid).unwrap_or(0.0),
        setups_s,
        failed_ops: violations.len() as u64 + (n - out.sched.decision_spans.len() as u64),
        violations,
        digest: report_digest(&out.report),
        decision_spans: out.sched.decision_spans,
        ..RoundResult::default()
    }
}
