//! The deterministic service event loop around [`taps_sdn::Controller`]
//! (DESIGN.md §15).
//!
//! One `step(now)` call is one loop iteration: drain the transport,
//! apply backpressure and deadline-aware shedding to the bounded
//! pending queue, then admit work — one task per iteration in the
//! normal regime, up to `max_batch` once the overload watermark trips
//! (with hysteresis, so the mode does not flap), each decided by
//! [`Controller::handle_probe`]. Every reply is pushed as soon as its
//! decision is made, and [`Transport::push`] delivers, so a burst's
//! first decision does not wait for its last; there is no flush step.
//! Everything is a pure function of the submitted requests and the
//! `now` values passed in: no wall clock, no RNG, no threads —
//! identical inputs produce byte-identical decisions, trace events and
//! metrics.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use serde_json::{Serialize, Value};
use taps_obs::{reason, Metrics, TraceEvent, TraceSink, DEPTH_BOUNDS, LATENCY_US_BOUNDS};
use taps_sdn::{
    Controller, ControllerCheckpoint, ControllerConfig, ExpiryQueue, ProbeHeader, TaskVerdict,
};
use taps_topology::Topology;

use crate::messages::{verdict, ClientId, GrantSummary, Request, Response, Submit};
use crate::transport::Transport;

/// Robustness knobs of the service loop. Times are seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceConfig {
    /// Bound on the pending-submission queue. Arrivals beyond it are
    /// shed with [`reason::SHED_QUEUE_FULL`] and a retry-after hint.
    pub queue_cap: usize,
    /// Above this depth the deadline-aware shed pass runs: queued tasks
    /// that cannot meet their deadline given the projected queue delay
    /// are rejected immediately instead of wasting a decision slot.
    pub shed_watermark: usize,
    /// Depth at which the loop switches to burst admission: up to
    /// `max_batch` tasks decided per iteration instead of one.
    pub batch_enter: usize,
    /// Depth at which the loop switches back to per-task admission.
    /// Must be strictly below `batch_enter` (hysteresis).
    pub batch_exit: usize,
    /// Max tasks admitted per burst round.
    pub max_batch: usize,
    /// Deterministic estimate of one admission decision's service time;
    /// the unit of queue delay in the shed test and the retry-after
    /// hint. Must be positive.
    pub decision_cost: f64,
    /// Control-plane round trip added to the queue delay when testing
    /// deadline feasibility (mirror of
    /// [`ControllerConfig::control_rtt`]).
    pub control_rtt: f64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_cap: 4_096,
            shed_watermark: 64,
            batch_enter: 32,
            batch_exit: 8,
            max_batch: 64,
            decision_cost: 2e-5,
            control_rtt: 0.0,
        }
    }
}

/// Lifecycle of the service loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceState {
    /// Accepting submissions.
    Accepting,
    /// Drain requested: no new admissions are accepted, the backlog is
    /// being decided.
    Draining,
    /// Drain finished; a checkpoint was produced.
    Drained,
}

/// One shed, recorded for reproducibility audits: the soak gate checks
/// that every [`reason::SHED_INFEASIBLE`] entry really was infeasible
/// (`at + projected >= deadline`) and that two identical runs produce
/// identical shed lists.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShedRecord {
    /// Task id.
    pub task: u64,
    /// [`reason`] code (`SHED_QUEUE_FULL`, `SHED_INFEASIBLE` or
    /// `SHED_DRAINING`).
    pub reason: u64,
    /// Time of the shed decision.
    pub at: f64,
    /// Projected delay (queue position × decision cost + control RTT)
    /// that made the task infeasible; the retry-after hint for
    /// queue-full sheds.
    pub projected: f64,
    /// The task's absolute deadline.
    pub deadline: f64,
}

#[derive(Clone, Debug)]
struct Pending {
    client: ClientId,
    submit: Submit,
    min_deadline: f64,
    bytes: f64,
    enqueued_at: f64,
}

/// The service event loop. See the module docs for the step contract.
pub struct ServiceController<'t> {
    ctrl: Controller<'t>,
    cfg: ServiceConfig,
    /// Bounded by `cfg.queue_cap`: `on_submit` sheds beyond it.
    pending: VecDeque<Pending>,
    state: ServiceState,
    batch_mode: bool,
    /// task → submitting client, for decision and preemption delivery:
    /// the queued and the granted tasks. An entry leaves when its task
    /// turns terminal — decided or shed as rejected, retired, or
    /// preempted (after its `Preempted` notice).
    owners: BTreeMap<u64, ClientId>,
    /// Terminal outcome per task (verdict code), for duplicate replay,
    /// kept until the task's deadline + horizon: a retry after that is
    /// a fresh, already-late submission.
    outcomes: BTreeMap<u64, u64>,
    /// `outcomes` keys by deadline + horizon. A task with a kept
    /// outcome is answered from it, so each outcome is recorded once and
    /// each queued key expires its own entry.
    outcome_expiry: ExpiryQueue<u64>,
    /// Cumulative notifications dropped per slow client.
    dropped: BTreeMap<ClientId, u64>,
    /// Granted tasks not yet retired: task → (deadline, flow ids).
    /// The reject rule never grants slices past the deadline, so once
    /// `now` passes it every flow has used its slices; the loop then
    /// synthesizes the servers' TERMs. That bounds this map and the
    /// controller's in-flight index — what an admission iterates — by
    /// the in-flight set. The finished work the loop and its controller
    /// still remember (`outcomes`, the controller's registry and
    /// decision cache) is bounded by the tasks whose deadline + horizon
    /// has not passed, and is forgotten by expiry, touched by key only.
    active: BTreeMap<u64, (f64, Vec<usize>)>,
    decision_log: Vec<(u64, u64)>,
    shed_log: Vec<ShedRecord>,
    metrics: Metrics,
    trace: Option<Arc<dyn TraceSink>>,
    decided: u64,
    shed: u64,
    drain_decided: u64,
    drain_shed: u64,
    /// Loop time of the most recent `step`, exposed in the stats
    /// snapshot so remote clients can align absolute deadlines with
    /// the daemon's clock.
    last_now: f64,
}

impl<'t> ServiceController<'t> {
    /// Creates a fresh service over `topo`.
    pub fn new(topo: &'t Topology, ctrl_cfg: ControllerConfig, cfg: ServiceConfig) -> Self {
        Self::with_controller(Controller::new(topo, ctrl_cfg), cfg)
    }

    /// Rebuilds a service from a drained daemon's checkpoint: the inner
    /// controller re-runs admission over the registry and bumps its
    /// epoch, exactly like a standby takeover (DESIGN.md §10).
    pub fn restore(
        topo: &'t Topology,
        ctrl_cfg: ControllerConfig,
        cfg: ServiceConfig,
        ckpt: &ControllerCheckpoint,
    ) -> Self {
        Self::with_controller(Controller::restore(topo, ctrl_cfg, ckpt), cfg)
    }

    fn with_controller(ctrl: Controller<'t>, cfg: ServiceConfig) -> Self {
        assert!(cfg.queue_cap > 0, "queue_cap must be positive");
        assert!(cfg.decision_cost > 0.0, "decision_cost must be positive");
        assert!(
            cfg.batch_exit < cfg.batch_enter,
            "hysteresis requires batch_exit < batch_enter"
        );
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        ServiceController {
            ctrl,
            cfg,
            // lint: l10-ok(bound: cfg.queue_cap — on_submit sheds beyond it)
            pending: VecDeque::new(),
            state: ServiceState::Accepting,
            batch_mode: false,
            owners: BTreeMap::new(),
            outcomes: BTreeMap::new(),
            outcome_expiry: ExpiryQueue::default(),
            dropped: BTreeMap::new(),
            active: BTreeMap::new(),
            decision_log: Vec::new(),
            shed_log: Vec::new(),
            metrics: Metrics::new(),
            trace: None,
            decided: 0,
            shed: 0,
            drain_decided: 0,
            drain_shed: 0,
            last_now: 0.0,
        }
    }

    /// Routes service and controller trace events to `sink`.
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.ctrl.set_trace_sink(Arc::clone(&sink));
        self.trace = Some(sink);
    }

    /// Current queue depth.
    pub fn pending_depth(&self) -> usize {
        self.pending.len()
    }

    /// Total sheds (queue-full + infeasible + draining).
    pub fn shed_total(&self) -> u64 {
        self.shed
    }

    /// Total terminal decisions made by the inner controller.
    pub fn decided_total(&self) -> u64 {
        self.decided
    }

    /// Whether burst admission is active.
    pub fn is_batch_mode(&self) -> bool {
        self.batch_mode
    }

    /// Lifecycle state.
    pub fn state(&self) -> ServiceState {
        self.state
    }

    /// The shed audit log.
    pub fn shed_log(&self) -> &[ShedRecord] {
        &self.shed_log
    }

    /// The decision log as `(task, verdict code)` in decision order.
    pub fn decision_log(&self) -> &[(u64, u64)] {
        &self.decision_log
    }

    /// The wrapped controller (read-only).
    pub fn controller(&self) -> &Controller<'t> {
        &self.ctrl
    }

    /// Absorbs a server's post-failover resync report (passthrough).
    pub fn resync(&mut self, host: usize, probes: &[(ProbeHeader, f64)]) {
        self.ctrl.resync(host, probes);
    }

    /// FNV-1a digest over the decision and shed logs — the byte-identity
    /// witness the soak gate compares across runs.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |w: u64| {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for &(task, code) in &self.decision_log {
            mix(task);
            mix(code);
        }
        for s in &self.shed_log {
            mix(s.task);
            mix(s.reason);
            mix(s.at.to_bits());
        }
        h
    }

    fn emit(&self, now: f64, ev: TraceEvent) {
        if let Some(s) = &self.trace {
            s.emit(now, &ev);
        }
    }

    /// Queues `resp` toward `client`, dropping and marking on a full
    /// outbox — the loop never blocks on a slow consumer.
    fn notify<T: Transport>(&mut self, tr: &mut T, now: f64, client: ClientId, resp: Response) {
        if tr.push(client, resp).is_err() {
            let d = self.dropped.entry(client).or_insert(0);
            *d += 1;
            let total = *d;
            self.metrics.inc("client_marks");
            self.metrics.inc("notifications_dropped");
            self.emit(
                now,
                TraceEvent::ClientMarked {
                    client,
                    dropped: total,
                },
            );
        }
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "a shed reply carries the client, task, reason code and the numbers behind it"
    )]
    fn record_shed<T: Transport>(
        &mut self,
        tr: &mut T,
        now: f64,
        client: ClientId,
        task: u64,
        code: u64,
        projected: f64,
        deadline: f64,
        depth: u64,
    ) {
        self.shed += 1;
        if self.state != ServiceState::Accepting {
            self.drain_shed += 1;
        }
        self.shed_log.push(ShedRecord {
            task,
            reason: code,
            at: now,
            projected,
            deadline,
        });
        // A shed ends the submission. Only a queue-full shed is not
        // terminal for the task: the client is told to retry, so a
        // resubmission must go through admission, not the
        // duplicate-replay path.
        self.owners.remove(&task);
        if code != reason::SHED_QUEUE_FULL {
            self.record_outcome(task, verdict::REJECTED, deadline);
        }
        self.metrics.inc("pending_shed_total");
        self.metrics.inc(&format!("shed_reason_{code}"));
        self.emit(
            now,
            TraceEvent::SubmitShed {
                task,
                reason: code,
                depth,
            },
        );
        let retry_after = (code == reason::SHED_QUEUE_FULL).then_some(projected);
        self.notify(
            tr,
            now,
            client,
            Response::Decision {
                task,
                verdict: verdict::REJECTED,
                victim: None,
                reason: Some(code),
                retry_after,
                grants: Vec::new(),
            },
        );
    }

    /// Why submission `s` cannot be turned into probes, naming the
    /// offending field. Outside input is checked here, at the door: the
    /// controller and the topology assert these same conditions and a
    /// panic would take the daemon down with every client's grants.
    fn malformed(&self, s: &Submit) -> Option<String> {
        let task = s.task;
        if s.flows.is_empty() {
            return Some(format!("task {task} has no flows"));
        }
        if !s.deadline.is_finite() {
            return Some(format!(
                "task {task}: deadline {} is not finite",
                s.deadline
            ));
        }
        let hosts = self.ctrl.topology().num_hosts() as u64;
        for f in &s.flows {
            let flow = f.flow;
            for (field, host) in [("src", f.src), ("dst", f.dst)] {
                if host >= hosts {
                    return Some(format!(
                        "task {task} flow {flow}: {field} {host} is not one of the {hosts} hosts"
                    ));
                }
            }
            if f.src == f.dst {
                return Some(format!(
                    "task {task} flow {flow}: src and dst are both {}",
                    f.src
                ));
            }
            if !(f.size.is_finite() && f.size > 0.0) {
                return Some(format!(
                    "task {task} flow {flow}: size {} is not a positive number of bytes",
                    f.size
                ));
            }
        }
        None
    }

    /// A flow id of queued submission `s` that another task already
    /// holds — in the controller's registry, or in `claimed` (the flows
    /// of the tasks ahead of it in the same burst). Registering it would
    /// silently replace that task's record and orphan its grant.
    fn flow_conflict(&self, s: &Submit, claimed: &BTreeSet<u64>) -> Option<String> {
        let task = usize::try_from(s.task).ok();
        s.flows.iter().find_map(|f| {
            let held = usize::try_from(f.flow)
                .ok()
                .and_then(|flow| self.ctrl.task_of(flow))
                .filter(|&owner| Some(owner) != task);
            match held {
                Some(owner) => Some(format!(
                    "task {} flow {}: flow id already belongs to task {owner}",
                    s.task, f.flow
                )),
                None if claimed.contains(&f.flow) => Some(format!(
                    "task {} flow {}: flow id already claimed in this burst",
                    s.task, f.flow
                )),
                None => None,
            }
        })
    }

    fn on_submit<T: Transport>(&mut self, tr: &mut T, now: f64, client: ClientId, s: Submit) {
        if let Some(msg) = self.malformed(&s) {
            self.notify(tr, now, client, Response::Error { msg });
            return;
        }
        if let Some(&code) = self.outcomes.get(&s.task) {
            // Duplicate of a decided task: replay the terminal outcome
            // (idempotent, like the controller's decision cache).
            let grants = if code == verdict::REJECTED {
                Vec::new()
            } else {
                self.grant_summaries(&s)
            };
            self.metrics.inc("duplicate_submits");
            self.notify(
                tr,
                now,
                client,
                Response::Decision {
                    task: s.task,
                    verdict: code,
                    victim: None,
                    reason: None,
                    retry_after: None,
                    grants,
                },
            );
            return;
        }
        if self.owners.contains_key(&s.task) {
            // Still queued: the first submission's decision will arrive.
            self.metrics.inc("duplicate_submits");
            self.notify(
                tr,
                now,
                client,
                Response::Error {
                    msg: format!("task {} is already queued", s.task),
                },
            );
            return;
        }
        let depth = self.pending.len() as u64;
        if self.state != ServiceState::Accepting {
            let deadline = s.deadline;
            self.owners.insert(s.task, client);
            self.record_shed(
                tr,
                now,
                client,
                s.task,
                reason::SHED_DRAINING,
                0.0,
                deadline,
                depth,
            );
            return;
        }
        if self.pending.len() >= self.cfg.queue_cap {
            // Backpressure: terminal for this submission, but the hint
            // tells the client when the queue should have space again.
            let hint = (self.pending.len() + 1) as f64 * self.cfg.decision_cost;
            let deadline = s.deadline;
            self.owners.insert(s.task, client);
            self.record_shed(
                tr,
                now,
                client,
                s.task,
                reason::SHED_QUEUE_FULL,
                hint,
                deadline,
                depth,
            );
            return;
        }
        // All flows of a task share its deadline (§II-B).
        let min_deadline = s.deadline;
        let p = Pending {
            client,
            min_deadline,
            bytes: s.bytes(),
            enqueued_at: now,
            submit: s,
        };
        self.owners.insert(p.submit.task, client);
        let task = p.submit.task;
        // lint: l10-ok(bound: cfg.queue_cap — checked above)
        self.pending.push_back(p);
        let depth = self.pending.len() as u64;
        self.metrics.inc("submits_queued");
        self.metrics.observe("pending_depth", &DEPTH_BOUNDS, depth);
        self.emit(now, TraceEvent::SubmitQueued { task, depth });
    }

    /// Deadline-aware shed pass: above the watermark, drop queued tasks
    /// that cannot meet their deadline even if the queue drains at full
    /// speed. Cheapest-to-lose first: fewest bytes, then tightest
    /// deadline, then task id — a total, deterministic order.
    fn shed_infeasible<T: Transport>(&mut self, tr: &mut T, now: f64) {
        if self.pending.len() <= self.cfg.shed_watermark {
            return;
        }
        let (cost, rtt) = (self.cfg.decision_cost, self.cfg.control_rtt);
        // One pass takes the doomed out and keeps the rest in order.
        // Each is (bytes, deadline, task, client, projected delay).
        let mut doomed: Vec<(f64, f64, u64, ClientId, f64)> = Vec::new();
        let mut position = 0usize;
        self.pending.retain(|p| {
            position += 1;
            let projected = position as f64 * cost + rtt;
            let infeasible = now + projected >= p.min_deadline;
            if infeasible {
                doomed.push((p.bytes, p.min_deadline, p.submit.task, p.client, projected));
            }
            !infeasible
        });
        doomed.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then(a.1.total_cmp(&b.1))
                .then(a.2.cmp(&b.2))
        });
        // Each shed reports the depth left after it, as if the doomed
        // were removed one at a time in shed order.
        let mut depth = (self.pending.len() + doomed.len()) as u64;
        for (_, deadline, task, client, projected) in doomed {
            depth -= 1;
            self.record_shed(
                tr,
                now,
                client,
                task,
                reason::SHED_INFEASIBLE,
                projected,
                deadline,
                depth,
            );
        }
    }

    fn update_batch_mode(&mut self, now: f64) {
        let depth = self.pending.len();
        if !self.batch_mode && depth >= self.cfg.batch_enter {
            self.batch_mode = true;
            self.metrics.inc("batch_mode_enters");
            self.emit(
                now,
                TraceEvent::BatchMode {
                    on: true,
                    depth: depth as u64,
                },
            );
        } else if self.batch_mode && depth <= self.cfg.batch_exit {
            self.batch_mode = false;
            self.metrics.inc("batch_mode_exits");
            self.emit(
                now,
                TraceEvent::BatchMode {
                    on: false,
                    depth: depth as u64,
                },
            );
        }
    }

    fn grant_summaries(&self, s: &Submit) -> Vec<GrantSummary> {
        s.flows
            .iter()
            .filter_map(|f| {
                let flow = usize::try_from(f.flow).ok()?;
                let slots = self.ctrl.granted_slots(flow)?;
                Some(GrantSummary {
                    flow: f.flow,
                    slots,
                })
            })
            .collect()
    }

    fn finish_decision<T: Transport>(
        &mut self,
        tr: &mut T,
        now: f64,
        p: &Pending,
        v: &TaskVerdict,
    ) {
        let task = p.submit.task;
        let (code, victim) = match v {
            TaskVerdict::Accepted => (verdict::GRANTED, None),
            TaskVerdict::AcceptedWithPreemption(victim) => {
                (verdict::GRANTED_PREEMPTING, Some(*victim as u64))
            }
            TaskVerdict::Rejected => (verdict::REJECTED, None),
        };
        if code != verdict::REJECTED {
            let flows: Vec<usize> = p
                .submit
                .flows
                .iter()
                .filter_map(|f| usize::try_from(f.flow).ok())
                .collect();
            self.active.insert(task, (p.submit.deadline, flows));
        }
        if let Some(victim) = victim {
            self.active.remove(&victim);
        }
        self.decided += 1;
        if self.state != ServiceState::Accepting {
            self.drain_decided += 1;
        }
        self.decision_log.push((task, code));
        self.record_outcome(task, code, p.submit.deadline);
        if code == verdict::REJECTED {
            self.owners.remove(&task);
        }
        let latency_us = ((now - p.enqueued_at) * 1e6).round().max(0.0) as u64;
        self.metrics
            .observe("admission_latency_us", &LATENCY_US_BOUNDS, latency_us);
        match code {
            verdict::GRANTED => self.metrics.inc("tasks_granted"),
            verdict::GRANTED_PREEMPTING => self.metrics.inc("tasks_granted_preempting"),
            _ => self.metrics.inc("tasks_rejected"),
        }
        let grants = if code == verdict::REJECTED {
            Vec::new()
        } else {
            self.grant_summaries(&p.submit)
        };
        let reason_code = (code == verdict::REJECTED).then_some(reason::INFEASIBLE);
        self.notify(
            tr,
            now,
            p.client,
            Response::Decision {
                task,
                verdict: code,
                victim,
                reason: reason_code,
                retry_after: None,
                grants,
            },
        );
        // The controller names a victim only while its flows are in
        // flight and marks them done as it preempts, so no task is a
        // victim twice (DESIGN.md §15): the notice needs no dedup set.
        if let Some(victim) = victim {
            self.metrics.inc("tasks_preempted");
            if let Some(owner) = self.owners.remove(&victim) {
                self.notify(tr, now, owner, Response::Preempted { task: victim });
            }
        }
    }

    /// Records `task`'s terminal verdict `code` for duplicate replay
    /// until its `deadline` + the controller's horizon.
    fn record_outcome(&mut self, task: u64, code: u64, deadline: f64) {
        self.outcomes.insert(task, code);
        self.outcome_expiry
            .push(deadline + self.ctrl.horizon(), task);
    }

    /// Forgets every outcome whose deadline + horizon `now` has passed.
    fn forget_expired(&mut self, now: f64) {
        while let Some(task) = self.outcome_expiry.pop_expired(now) {
            self.outcomes.remove(&task);
        }
    }

    /// Admits up to one task (normal mode) or `max_batch` tasks (batch
    /// mode), each through [`Controller::handle_probe`] in queue order.
    /// Returns the number of decisions made.
    fn admit<T: Transport>(&mut self, tr: &mut T, now: f64) -> usize {
        // Dequeue one task or one burst, refusing on the way any task
        // whose flow ids collide with another task's: it gets an `Error`
        // instead of a decision and may resubmit under fresh ids.
        let n = if self.batch_mode {
            self.cfg.max_batch
        } else {
            1
        };
        let mut batch: Vec<Pending> = Vec::new();
        let mut claimed: BTreeSet<u64> = BTreeSet::new();
        while batch.len() < n {
            let Some(p) = self.pending.pop_front() else {
                break;
            };
            if let Some(msg) = self.flow_conflict(&p.submit, &claimed) {
                self.owners.remove(&p.submit.task);
                self.notify(tr, now, p.client, Response::Error { msg });
            } else {
                claimed.extend(p.submit.flows.iter().map(|f| f.flow));
                batch.push(p);
            }
        }
        for p in &batch {
            let (v, _grants, _cmds) = self.ctrl.handle_probe(now, &p.submit.probes());
            self.finish_decision(tr, now, p, &v);
        }
        batch.len()
    }

    /// Retires granted tasks whose deadline has passed: the reject rule
    /// never grants slices beyond the deadline, so their transmissions
    /// are over and the loop synthesizes the servers' TERM messages.
    fn retire_completed(&mut self, now: f64) {
        let done: Vec<u64> = self
            .active
            .iter()
            .filter(|(_, (deadline, _))| *deadline <= now)
            .map(|(&t, _)| t)
            .collect();
        for task in done {
            #[expect(clippy::expect_used, reason = "key came from iterating the same map")]
            let (_, flows) = self.active.remove(&task).expect("key from iteration above");
            for flow in flows {
                let _ = self.ctrl.handle_term(now, flow);
            }
            self.owners.remove(&task);
            self.metrics.inc("tasks_retired");
        }
    }

    /// One event-loop iteration at simulation time `now`: retire
    /// elapsed grants, poll the transport, shed, update the admission
    /// mode, admit. Returns the number of terminal decisions made.
    pub fn step<T: Transport>(&mut self, now: f64, tr: &mut T) -> usize {
        self.last_now = now;
        self.forget_expired(now);
        self.retire_completed(now);
        for (client, req) in tr.poll() {
            match req {
                Request::Submit(s) => self.on_submit(tr, now, client, s),
                Request::Stats => {
                    let snapshot = self.stats_value();
                    self.metrics.inc("stats_requests");
                    self.notify(tr, now, client, Response::Stats { metrics: snapshot });
                }
                Request::Drain => {
                    if self.state == ServiceState::Accepting {
                        self.begin_drain(now);
                        let pending = self.pending.len() as u64;
                        self.notify(tr, now, client, Response::DrainStarted { pending });
                    } else {
                        self.notify(
                            tr,
                            now,
                            client,
                            Response::Error {
                                msg: "already draining".into(),
                            },
                        );
                    }
                }
            }
        }
        self.decide(tr, now)
    }

    /// One decision round: shed, update the admission mode, admit.
    /// Returns the number of terminal decisions made.
    fn decide<T: Transport>(&mut self, tr: &mut T, now: f64) -> usize {
        self.shed_infeasible(tr, now);
        self.update_batch_mode(now);
        self.admit(tr, now)
    }

    /// Marks the service as draining: no new submissions are accepted
    /// (they get terminal [`reason::SHED_DRAINING`] rejects); the
    /// backlog keeps being decided by subsequent `step`/[`Self::drain`]
    /// calls.
    pub fn begin_drain(&mut self, now: f64) {
        if self.state != ServiceState::Accepting {
            return;
        }
        self.state = ServiceState::Draining;
        self.metrics.inc("drains");
        self.emit(
            now,
            TraceEvent::DrainBegin {
                pending: self.pending.len() as u64,
            },
        );
    }

    /// Graceful shutdown: stop accepting, decide every queued task with
    /// a terminal status, checkpoint the inner controller. Returns the
    /// checkpoint and the simulation time at which the drain completed
    /// (`now` advances by [`ServiceConfig::decision_cost`] per decision
    /// round, like the live loop).
    pub fn drain<T: Transport>(&mut self, mut now: f64, tr: &mut T) -> (ControllerCheckpoint, f64) {
        self.begin_drain(now);
        while !self.pending.is_empty() {
            self.retire_completed(now);
            let n = self.decide(tr, now);
            now += n.max(1) as f64 * self.cfg.decision_cost;
        }
        self.state = ServiceState::Drained;
        self.last_now = now;
        self.metrics.add("drain_decided", self.drain_decided);
        self.metrics.add("drain_shed", self.drain_shed);
        self.emit(
            now,
            TraceEvent::DrainEnd {
                decided: self.drain_decided,
                shed: self.drain_shed,
            },
        );
        (self.ctrl.checkpoint(), now)
    }

    /// Self-describing stats snapshot: the service metrics registry
    /// plus the inner controller's counters and live loop state.
    pub fn stats_value(&self) -> Value {
        let cs = self.ctrl.stats();
        let controller = Value::Object(vec![
            ("probes".into(), (cs.probes as u64).to_value()),
            ("grants".into(), (cs.grants as u64).to_value()),
            ("terms".into(), (cs.terms as u64).to_value()),
            (
                "rejected_tasks".into(),
                (cs.rejected_tasks as u64).to_value(),
            ),
            (
                "preempted_tasks".into(),
                (cs.preempted_tasks as u64).to_value(),
            ),
            (
                "duplicate_probes".into(),
                (cs.duplicate_probes as u64).to_value(),
            ),
            ("resyncs".into(), (cs.resyncs as u64).to_value()),
        ]);
        let kept = self.ctrl.retained();
        let retained = Value::Object(
            [
                ("registry", kept.registry),
                ("decided", kept.decided),
                ("flow_expiries", kept.flow_expiries),
                ("task_expiries", kept.task_expiries),
                ("outcomes", self.outcomes.len()),
                ("outcome_expiries", self.outcome_expiry.len()),
                ("owners", self.owners.len()),
            ]
            .into_iter()
            .map(|(k, n)| (k.into(), (n as u64).to_value()))
            .collect(),
        );
        let state = match self.state {
            ServiceState::Accepting => "accepting",
            ServiceState::Draining => "draining",
            ServiceState::Drained => "drained",
        };
        Value::Object(vec![
            ("service".into(), self.metrics.to_value()),
            ("controller".into(), controller),
            (
                "pending_depth".into(),
                (self.pending.len() as u64).to_value(),
            ),
            ("batch_mode".into(), self.batch_mode.to_value()),
            ("state".into(), Value::Str(state.into())),
            ("epoch".into(), self.ctrl.epoch().to_value()),
            ("now".into(), self.last_now.to_value()),
            ("retained".into(), retained),
        ])
    }

    /// Read-only view of the metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}
