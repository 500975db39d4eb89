//! The TAPS controller (§IV-C): on probe arrival it asks the shared
//! Alg. 1 arbiter ([`taps_core::Arbiter`]) for a decision and a
//! schedule, then installs/withdraws forwarding entries and hands out
//! time-slice grants. What lives here is the SDN side of the loop: the
//! flow registry, the decision cache, `(epoch, gen)` stamps, switch
//! tables and the commands that realize each commit's change set.

use crate::expiry::ExpiryQueue;
use crate::messages::{FlowGrant, LinkEvent, ProbeHeader, SwitchCmd};
use crate::obs::TraceHandle;
use crate::switch::{FlowEntry, FlowTable, TableError};
use std::collections::BTreeMap;
use taps_core::arbiter::{Arbiter, Dropped, InFlight, Standing};
use taps_core::{FlowAlloc, RejectDecision, RejectPolicy};
use taps_obs::{obs_event, obs_id};
use taps_topology::Topology;

/// Controller configuration.
#[derive(Clone, Debug)]
pub struct ControllerConfig {
    /// Slot duration of the allocation timeline, seconds.
    pub slot: f64,
    /// Candidate-path budget for Alg. 2.
    pub max_candidate_paths: usize,
    /// Reject-rule variant.
    pub policy: RejectPolicy,
    /// Per-switch TCAM capacity.
    pub table_capacity: usize,
    /// Per-switch entry budget for TAPS flows (the paper's "first 1k").
    pub table_budget: usize,
    /// Control-plane round trip (probe → decision → grant + entry
    /// install), seconds. Grants cannot start earlier than
    /// `now + control_rtt`; §IV keeps this off the data path, but it
    /// bounds how fresh a task's first slice can be.
    pub control_rtt: f64,
    /// Delay between a link state change and the controller learning of
    /// it (port-down detection + notification), seconds. A recovery
    /// schedule takes effect no earlier than
    /// `now + recovery_latency + control_rtt`.
    pub recovery_latency: f64,
    /// Grant fence, seconds: every commit's first slice is pushed this
    /// far past `now + control_rtt` so that leases issued under the
    /// previous generation provably lapse before the new slices activate
    /// (DESIGN.md §10). Zero (the default) reproduces the reliable,
    /// instantaneous control plane.
    pub grant_fence: f64,
    /// Run the commit-time schedule validator even in builds without
    /// debug assertions (the chaos harness turns this on so release-mode
    /// chaos runs still validate every commit).
    pub force_validate: bool,
}

/// Grant fences a lossy control plane's message may outlive its task's
/// deadline by: one delivery (`max_total_delay` < fence), the sender's
/// bounded retries and a failover's deferral. For the retry policy and
/// resync window [`crate::ChaosConfig::unreliable`] derives from the
/// same slot and delay bound as the fence, that is at most
/// `54·slot + 83·max_total_delay` < 28 fences (DESIGN.md §10);
/// [`crate::run_chaos`] checks [`crate::probe_lifetime`] against the
/// horizon for every config it runs.
const FENCES_PER_HORIZON: f64 = 28.0;

impl ControllerConfig {
    /// How long past its deadline the controller remembers a finished
    /// flow or a decided task, seconds: two slots (a TERM lands one slot
    /// after the last slice), one control round trip, one fault
    /// notification and [`FENCES_PER_HORIZON`] grant fences. Zero-fence
    /// (reliable) planes keep a record two slots past its deadline.
    /// Every copy of a probe a harness can deliver arrives within it,
    /// and a later resync report is refused by its deadline (DESIGN.md
    /// §10, "Forgetting finished work").
    pub fn horizon(&self) -> f64 {
        2.0 * self.slot
            + self.control_rtt
            + self.recovery_latency
            + FENCES_PER_HORIZON * self.grant_fence
    }
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            slot: 0.0001,
            max_candidate_paths: 16,
            policy: RejectPolicy::Paper,
            table_capacity: crate::switch::DEFAULT_TABLE_CAPACITY,
            table_budget: crate::switch::DEFAULT_TAPS_BUDGET,
            control_rtt: 0.0,
            recovery_latency: 0.0,
            grant_fence: 0.0,
            force_validate: false,
        }
    }
}

/// The controller's decision for one probed task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskVerdict {
    /// Accepted; grants and switch commands follow.
    Accepted,
    /// Accepted after discarding the given in-flight task.
    AcceptedWithPreemption(usize),
    /// Rejected; the senders must not transmit any of the task's flows.
    Rejected,
}

impl From<RejectDecision> for TaskVerdict {
    fn from(d: RejectDecision) -> Self {
        match d {
            RejectDecision::Accept => TaskVerdict::Accepted,
            RejectDecision::AcceptWithPreemption(victim) => {
                TaskVerdict::AcceptedWithPreemption(victim)
            }
            RejectDecision::Reject => TaskVerdict::Rejected,
        }
    }
}

/// Control-plane counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ControlStats {
    /// Probe messages received.
    pub probes: usize,
    /// Grant messages sent.
    pub grants: usize,
    /// TERM messages received.
    pub terms: usize,
    /// Entry installs sent to switches.
    pub installs: usize,
    /// Entry withdrawals sent to switches.
    pub withdrawals: usize,
    /// Tasks rejected.
    pub rejected_tasks: usize,
    /// Tasks preempted (discarded mid-flight).
    pub preempted_tasks: usize,
    /// Installs skipped because a switch's TAPS budget was full.
    pub budget_drops: usize,
    /// Link fault notifications (down or up) handled.
    pub link_faults: usize,
    /// In-flight tasks given up during recovery: disconnected by the
    /// fault, or no longer able to meet their deadline on the surviving
    /// paths (paper reject rule, degraded to per-task preemption).
    pub failed_tasks: usize,
    /// Probes answered from the decision cache (duplicate deliveries of
    /// an already-decided task; the cached verdict is replayed).
    pub duplicate_probes: usize,
    /// Server resync reports absorbed after a failover.
    pub resyncs: usize,
}

#[derive(Clone, Debug)]
struct FlowReg {
    task: usize,
    src: usize,
    dst: usize,
    size: f64,
    delivered: f64,
    deadline: f64,
    done: bool,
}

impl FlowReg {
    /// The record of a flow first heard of through its scheduling
    /// header, `delivered` bytes into its transfer.
    fn fresh(p: &ProbeHeader, delivered: f64) -> FlowReg {
        FlowReg {
            task: p.task,
            src: p.src,
            dst: p.dst,
            size: p.size,
            delivered,
            deadline: p.deadline,
            done: false,
        }
    }

    /// The F_tmp entry of this record as flow `id`: what the in-flight
    /// index holds for it, and the key it is found under.
    fn entry(&self, id: usize) -> InFlight {
        InFlight {
            id,
            task: self.task,
            src: self.src,
            dst: self.dst,
            remaining: self.size - self.delivered,
            deadline: self.deadline,
        }
    }
}

/// One registered flow inside a [`ControllerCheckpoint`].
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointFlow {
    /// Flow id.
    pub flow: usize,
    /// Owning task id.
    pub task: usize,
    /// Source host index.
    pub src: usize,
    /// Destination host index.
    pub dst: usize,
    /// Original flow size, bytes.
    pub size: f64,
    /// Bytes delivered as of the checkpoint (refined by resync reports
    /// after a restore).
    pub delivered: f64,
    /// Absolute deadline, seconds.
    pub deadline: f64,
    /// Whether the flow was finished/preempted at checkpoint time.
    pub done: bool,
}

/// Serialized controller state: everything a standby needs to take over
/// (admitted tasks, per-flow progress, the decision cache, the
/// `(epoch, gen)` high-water mark and the clock). It holds the flows in
/// flight and the finished work of the last horizon, not history.
/// Deliberately excludes the committed
/// schedule and switch-table images — the standby recomputes both from
/// the registry (re-running Alg. 1–3) and reconciles switches with a
/// full-state sweep, so a stale checkpoint can never resurrect slices
/// that conflict with reality.
#[derive(Clone, Debug, PartialEq)]
pub struct ControllerCheckpoint {
    /// Epoch of the checkpointing controller.
    pub epoch: u64,
    /// Commit generation at checkpoint time.
    pub gen: u64,
    /// The latest `now` the controller had forgotten records against:
    /// every flow and task it forgot had its deadline + horizon before
    /// this time.
    pub now: f64,
    /// The flow registry.
    pub flows: Vec<CheckpointFlow>,
    /// The per-task decision cache as `(task, verdict, deadline)`,
    /// sorted by task id.
    pub decided: Vec<(usize, TaskVerdict, f64)>,
}

/// How many records a controller keeps (DESIGN.md §10): the in-flight
/// flows plus the finished work of the last horizon.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetainedRecords {
    /// Flow registry entries, in flight and finished.
    pub registry: usize,
    /// Decision cache entries.
    pub decided: usize,
    /// Queued expiries of finished flows.
    pub flow_expiries: usize,
    /// Queued expiries of decided tasks.
    pub task_expiries: usize,
}

/// A decision-cache entry: the verdict a duplicate probe replays, and the
/// task's deadline, which dates its expiry.
#[derive(Clone, Debug)]
struct Decided {
    verdict: TaskVerdict,
    deadline: f64,
}

/// The TAPS SDN controller.
pub struct Controller<'t> {
    topo: &'t Topology,
    cfg: ControllerConfig,
    /// Alg. 1: the allocation engine, the reject rule, the committed
    /// schedule and F_tmp — the in-flight index (DESIGN.md §7), which this
    /// controller keeps equal to the registry filtered by `!done`: every
    /// registry mutation that inserts a flow, flips `done` or moves
    /// `delivered` updates it in the same breath.
    arbiter: Arbiter,
    /// Every flow in flight, and every finished one whose deadline +
    /// horizon the clock has not passed: what checkpoints carry and
    /// `resync` reconciles with. A `done` flow stays known for the
    /// horizon, so no resync report can resurrect a preempted one while
    /// a server may still list it; past it, `resync` refuses the flow by
    /// its deadline instead. Only `checkpoint` iterates it; every other
    /// path touches it by key (DESIGN.md §7, §10).
    registry: BTreeMap<usize, FlowReg>,
    /// Finished flows by deadline + horizon, the order `registry`
    /// forgets them in.
    done_flows: ExpiryQueue<usize>,
    tables: Vec<FlowTable>,
    stats: ControlStats,
    /// Controller incarnation; bumped by [`Controller::restore`] so every
    /// post-failover message outranks anything the dead primary sent.
    epoch: u64,
    /// Commit generation; bumped before every command-emitting operation
    /// so receivers can order deliveries with last-writer-wins.
    gen: u64,
    /// Per-task verdict cache: duplicate probe deliveries replay the
    /// original decision instead of re-registering the task (which would
    /// reset delivered-bytes progress and double-count stats). Forgotten
    /// at the task's deadline + horizon, in `decided_tasks` order.
    decided: BTreeMap<usize, Decided>,
    /// Decided tasks by deadline + horizon.
    decided_tasks: ExpiryQueue<usize>,
    /// The latest `now` a probe or TERM carried: what expiries are
    /// measured against.
    clock: f64,
    /// Trace sink for admission/commit/table events.
    trace: TraceHandle,
    /// The former id → allocation schedule and its kept / stale diff,
    /// replayed beside every commit and TERM when a test sets it.
    #[cfg(test)]
    oracle: Option<tests::CommitOracle>,
}

impl<'t> Controller<'t> {
    /// Creates a controller over a topology.
    pub fn new(topo: &'t Topology, cfg: ControllerConfig) -> Self {
        let tables = (0..topo.num_nodes())
            .map(|_| FlowTable::new(cfg.table_capacity, cfg.table_budget))
            .collect();
        let arbiter = Arbiter::new(cfg.slot, cfg.max_candidate_paths, cfg.policy);
        Controller {
            topo,
            cfg,
            arbiter,
            registry: BTreeMap::new(),
            done_flows: ExpiryQueue::default(),
            tables,
            stats: ControlStats::default(),
            epoch: 0,
            gen: 0,
            decided: BTreeMap::new(),
            decided_tasks: ExpiryQueue::default(),
            clock: f64::NEG_INFINITY,
            trace: TraceHandle::default(),
            #[cfg(test)]
            oracle: None,
        }
    }

    /// Routes this controller's decision/commit/table events to `sink`.
    pub fn set_trace_sink(&mut self, sink: std::sync::Arc<dyn taps_obs::TraceSink>) {
        self.arbiter.set_trace_sink(std::sync::Arc::clone(&sink));
        self.trace = TraceHandle(Some(sink));
    }

    /// Counters so far.
    pub fn stats(&self) -> &ControlStats {
        &self.stats
    }

    /// The flow table of a node (switch), for inspection.
    pub fn table(&self, node: taps_topology::NodeId) -> &FlowTable {
        &self.tables[node.idx()]
    }

    /// The committed grant of a flow, if any, stamped with the current
    /// `(epoch, gen)`.
    pub fn grant_of(&self, flow: usize) -> Option<FlowGrant> {
        self.arbiter.committed(flow).map(|al| self.grant(al))
    }

    /// `al` as a grant stamped with the current `(epoch, gen)`.
    fn grant(&self, al: &FlowAlloc) -> FlowGrant {
        FlowGrant {
            flow: al.id,
            slices: al.slices.clone(),
            path: al.path.clone(),
            epoch: self.epoch,
            gen: self.gen,
        }
    }

    /// Total slots of a flow's committed grant, if any — what a reply
    /// summarises, without cloning the grant as [`Self::grant_of`] does.
    pub fn granted_slots(&self, flow: usize) -> Option<u64> {
        self.arbiter
            .committed(flow)
            .map(|al| al.slices.total_slots())
    }

    /// Number of flows in flight (registered, not done): the length of
    /// F_tmp, which is what one probe's cost follows.
    pub fn in_flight(&self) -> usize {
        self.in_flight_flows().len()
    }

    /// The flows in flight, in F_tmp order.
    pub fn in_flight_flows(&self) -> &[InFlight] {
        self.arbiter.ftmp.entries()
    }

    /// F_tmp entries written since this controller was made
    /// ([`InFlightIndex::writes`](taps_core::arbiter::InFlightIndex::writes)):
    /// a probe that keeps the index incrementally writes its own flows
    /// and nothing else. No decision reads it.
    pub fn ftmp_writes(&self) -> usize {
        self.arbiter.ftmp.writes()
    }

    /// The network this controller schedules over.
    pub fn topology(&self) -> &'t Topology {
        self.topo
    }

    /// How many records this controller keeps.
    pub fn retained(&self) -> RetainedRecords {
        RetainedRecords {
            registry: self.registry.len(),
            decided: self.decided.len(),
            flow_expiries: self.done_flows.len(),
            task_expiries: self.decided_tasks.len(),
        }
    }

    /// The configuration this controller runs with; its
    /// [`ControllerConfig::horizon`] is how long past its deadline a
    /// finished record is kept.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// The cached verdict of `task` at `now`: what a duplicate probe
    /// replays. An entry whose deadline + horizon `now` has passed is
    /// hidden even while the clock, which only probes and TERMs move,
    /// trails `now`: it is the test [`Self::forget_expired`] applies, so
    /// the next probe of the task forgets it and decides afresh.
    pub fn verdict(&self, task: usize, now: f64) -> Option<&TaskVerdict> {
        self.decided
            .get(&task)
            .filter(|d| d.deadline + self.cfg.horizon() >= now)
            .map(|d| &d.verdict)
    }

    /// Caches a rejection of `task`, due at `deadline`, that the caller
    /// reached without a probe (a task it shed before admission): a
    /// duplicate replays it and the checkpoint carries it, like a
    /// rejection of this controller's own. Nothing is registered.
    pub fn cache_rejection(&mut self, task: usize, deadline: f64) {
        self.remember(task, TaskVerdict::Rejected, deadline);
    }

    /// The task that registered `flow`, in flight or finished; `None`
    /// for a flow never heard of, forgotten with its rejected task, or
    /// forgotten past its deadline + horizon.
    pub fn task_of(&self, flow: usize) -> Option<usize> {
        self.registry.get(&flow).map(|r| r.task)
    }

    /// Current controller incarnation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current commit generation.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Progress report from a sender (bytes delivered so far); used by
    /// re-allocations so in-flight flows are re-packed with their true
    /// remaining size. Monotonic: duplicated or reordered progress
    /// reports can only advance the delivered count, never regress it.
    pub fn note_progress(&mut self, flow: usize, delivered: f64) {
        if let Some(r) = self.registry.get_mut(&flow) {
            let delivered = r.delivered.max(delivered.min(r.size));
            Self::set_delivered(&mut self.arbiter, flow, r, delivered);
        }
    }

    /// Moves the delivered count of flow `id`, whose registry record is
    /// `r`, re-keying its index entry when the flow is in flight
    /// (remaining bytes are the SJF key).
    fn set_delivered(arbiter: &mut Arbiter, id: usize, r: &mut FlowReg, delivered: f64) {
        if r.done {
            r.delivered = delivered;
        } else if delivered.to_bits() != r.delivered.to_bits() {
            let old = r.entry(id);
            r.delivered = delivered;
            arbiter.ftmp.rekey(&old, r.entry(id));
        }
    }

    /// Records `reg` as flow `flow` (replacing any earlier record of
    /// that id) and indexes it when it is in flight, or queues its
    /// expiry when it is finished.
    fn register(&mut self, flow: usize, reg: FlowReg) {
        let live = (!reg.done).then(|| reg.entry(flow));
        if reg.done {
            self.done_flows
                .push(reg.deadline + self.cfg.horizon(), flow);
        }
        if let Some(old) = self.registry.insert(flow, reg) {
            if !old.done {
                self.arbiter.ftmp.remove(&old.entry(flow));
            }
        }
        if let Some(e) = live {
            self.arbiter.ftmp.insert(e);
        }
    }

    /// Marks the flows of a task the arbiter dropped from F_tmp done
    /// (preemption, or a task given up during recovery): they stay in
    /// the registry until their deadline + horizon.
    fn give_up(&mut self, dropped: &Dropped) {
        let horizon = self.cfg.horizon();
        for &flow in &dropped.flows {
            if let Some(r) = self.registry.get_mut(&flow) {
                Self::finish(&mut self.done_flows, horizon, flow, r);
            }
        }
    }

    /// Marks the in-flight flow `flow`, whose record is `r` and which has
    /// already left F_tmp, done, and queues its expiry.
    fn finish(done_flows: &mut ExpiryQueue<usize>, horizon: f64, flow: usize, r: &mut FlowReg) {
        r.done = true;
        done_flows.push(r.deadline + horizon, flow);
    }

    /// Caches `verdict` for `task`, due at `deadline`, and queues its
    /// expiry.
    fn remember(&mut self, task: usize, verdict: TaskVerdict, deadline: f64) {
        self.decided_tasks.push(deadline + self.cfg.horizon(), task);
        self.decided.insert(task, Decided { verdict, deadline });
    }

    /// Advances the clock to `now` and forgets every finished flow and
    /// decided task whose deadline + horizon it has passed. A flow id
    /// can be registered again while its old expiry is queued; such a
    /// key is kept, and queued again under its new expiry when it
    /// finishes. A probe of a cached task replays it, but
    /// [`Self::cache_rejection`] may replace an entry [`Self::verdict`]
    /// already hides before its key is popped, so a task key is checked
    /// against its entry's own expiry too.
    fn forget_expired(&mut self, now: f64) {
        self.clock = self.clock.max(now);
        let (clock, horizon) = (self.clock, self.cfg.horizon());
        while let Some(flow) = self.done_flows.pop_expired(clock) {
            if self
                .registry
                .get(&flow)
                .is_some_and(|r| r.done && r.deadline + horizon < clock)
            {
                self.registry.remove(&flow);
            }
        }
        while let Some(task) = self.decided_tasks.pop_expired(clock) {
            if self
                .decided
                .get(&task)
                .is_some_and(|d| d.deadline + horizon < clock)
            {
                self.decided.remove(&task);
            }
        }
    }

    /// The first slot a schedule decided at `now` may use. Nothing can be
    /// (re)scheduled before the control round trip completes: servers
    /// only learn their slices then. The grant fence additionally keeps
    /// new slices clear of any lease issued under an older stamp
    /// (DESIGN.md §10).
    fn first_slot(&self, now: f64) -> u64 {
        self.arbiter
            .clock()
            .slot_at(now + self.cfg.control_rtt + self.cfg.grant_fence)
    }

    /// Handles a task probe (Fig. 4 steps 2–5): runs Alg. 1 and returns
    /// the verdict, the grants for the task's flows (empty on rejection),
    /// and the switch commands realizing the new committed schedule.
    pub fn handle_probe(
        &mut self,
        now: f64,
        probes: &[ProbeHeader],
    ) -> (TaskVerdict, Vec<FlowGrant>, Vec<SwitchCmd>) {
        assert!(!probes.is_empty());
        let task = probes[0].task;
        assert!(probes.iter().all(|p| p.task == task), "one task per probe");
        self.stats.probes += 1;
        self.forget_expired(now);

        // Idempotent replay: a duplicated (or retried) probe of an
        // already-decided task returns the cached verdict and the current
        // grants. Re-registering would zero the flows' delivered bytes
        // and re-run admission against an occupancy that already
        // contains them.
        if let Some(d) = self.decided.get(&task) {
            self.stats.duplicate_probes += 1;
            let verdict = d.verdict.clone();
            let grants = self.grants_for(&verdict, probes);
            return (verdict, grants, Vec::new());
        }

        // Register the newcomer's flows.
        for p in probes {
            self.register(p.flow, FlowReg::fresh(p, 0.0));
        }

        let start_slot = self.first_slot(now);

        // Alg. 1. Rule 3 weighs a task by its in-flight flows alone, at
        // weight 1.0: probes carry no weight yet and the registry keeps
        // no per-task count of completed flows. Under-counting completed
        // flows only lowers the victim's value, and at unit weights a
        // victim (ratio < 1) always loses to the whole newcomer
        // (ratio 1) — one harmed bystander is preempted, as ever.
        let in_flight_only = |_| Standing {
            weight: 1.0,
            flows_total: 0,
            flows_made: 0,
        };
        let admission = self
            .arbiter
            .admit(self.topo, now, start_slot, task, in_flight_only);
        let verdict = TaskVerdict::from(admission.decision);
        // (A rejected newcomer is among the dropped too; it is forgotten
        // entirely below.)
        for d in admission.dropped.iter().filter(|d| d.task != task) {
            if verdict == TaskVerdict::AcceptedWithPreemption(d.task) {
                self.stats.preempted_tasks += 1;
            } else {
                // Disconnected by a fault.
                self.stats.failed_tasks += 1;
            }
            self.give_up(d);
        }
        if verdict == TaskVerdict::Rejected {
            self.stats.rejected_tasks += 1;
            for p in probes {
                self.registry.remove(&p.flow);
            }
            // A task forgotten past its deadline + horizon while one of
            // its flows was still in flight (no TERM came) is probed
            // afresh under the same id; the reject took that flow out of
            // F_tmp with the newcomer's, so it is given up.
            if let Some(own) = admission.dropped.iter().find(|d| d.task == task) {
                self.give_up(own);
            }
        }

        let cmds = self.commit(now, admission.allocs);
        let deadline = probes
            .iter()
            .map(|p| p.deadline)
            .fold(f64::NEG_INFINITY, f64::max);
        self.remember(task, verdict.clone(), deadline);
        let grants = self.grants_for(&verdict, probes);
        self.stats.grants += grants.len();
        (verdict, grants, cmds)
    }

    /// The current grants of a decided task's flows: none when it was
    /// rejected.
    fn grants_for(&self, verdict: &TaskVerdict, probes: &[ProbeHeader]) -> Vec<FlowGrant> {
        if *verdict == TaskVerdict::Rejected {
            return Vec::new();
        }
        probes
            .iter()
            .filter_map(|p| self.grant_of(p.flow))
            .collect()
    }

    /// Handles a burst of task probes arriving in the same control
    /// window: each inner slice is one task's probes, decided through
    /// [`Controller::handle_probe`] in input order. Returns the per-task
    /// `(verdict, grants)` plus every task's switch commands, in order.
    ///
    /// Burst admission is sequential admission; this entry point stays
    /// only because the benchmark's probe API pins its name.
    pub fn handle_probe_burst(
        &mut self,
        now: f64,
        tasks: &[Vec<ProbeHeader>],
    ) -> (Vec<(TaskVerdict, Vec<FlowGrant>)>, Vec<SwitchCmd>) {
        let mut results = Vec::with_capacity(tasks.len());
        let mut cmds = Vec::new();
        for group in tasks {
            let (v, g, c) = self.handle_probe(now, group);
            results.push((v, g));
            cmds.extend(c);
        }
        (results, cmds)
    }

    /// Handles a link fault notification: applies the state change to the
    /// topology, then re-runs the full allocation for every in-flight
    /// flow over the surviving paths. Tasks that are disconnected — or,
    /// under the paper policy, can no longer meet their deadline — are
    /// given up (per-task preemption) instead of failing the whole
    /// recovery. Returns the re-issued grants for every surviving flow
    /// and the switch commands realizing the new schedule.
    ///
    /// The recomputed schedule starts no earlier than
    /// `now + recovery_latency + control_rtt`: detection, notification,
    /// recomputation and re-granting all take control-plane time, during
    /// which flows crossing the dead link deliver nothing.
    pub fn handle_link_event(
        &mut self,
        now: f64,
        ev: LinkEvent,
    ) -> (Vec<FlowGrant>, Vec<SwitchCmd>) {
        self.stats.link_faults += 1;
        match ev {
            LinkEvent::LinkDown { link } => {
                obs_event!(
                    &self.trace,
                    now,
                    LinkFault {
                        link: obs_id(link.idx()),
                        up: false
                    }
                );
                self.topo.fail_link(link);
            }
            LinkEvent::LinkUp { link } => {
                obs_event!(
                    &self.trace,
                    now,
                    LinkFault {
                        link: obs_id(link.idx()),
                        up: true
                    }
                );
                self.topo.restore_link(link);
            }
        }
        self.repack(now, self.first_slot(now + self.cfg.recovery_latency))
    }

    /// Re-runs Alg. 1–3 for every in-flight flow from the current
    /// registry (no topology change implied), e.g. after a failed-over
    /// controller has absorbed the servers' resync reports. Returns the
    /// re-issued grants and the switch-command diff.
    pub fn reallocate_all(&mut self, now: f64) -> (Vec<FlowGrant>, Vec<SwitchCmd>) {
        self.repack(now, self.first_slot(now))
    }

    /// Fault recovery and failover share [`Arbiter::repack`]: every task
    /// it gave up (disconnected, or doomed under the paper policy) is
    /// marked done, the rest is committed and re-granted.
    fn repack(&mut self, now: f64, start_slot: u64) -> (Vec<FlowGrant>, Vec<SwitchCmd>) {
        let (allocs, dropped) = self.arbiter.repack(self.topo, start_slot);
        self.stats.failed_tasks += dropped.len();
        for d in &dropped {
            self.give_up(d);
        }
        let cmds = self.commit(now, allocs);
        let grants: Vec<FlowGrant> = self
            .arbiter
            .committed_by_id()
            .map(|al| self.grant(al))
            .collect();
        self.stats.grants += grants.len();
        (grants, cmds)
    }

    /// Handles a TERM: marks the flow done and withdraws its entries
    /// (§IV-C: "when the controller receives an ACK that the flow has
    /// been completed or missed deadline, it informs the corresponding
    /// switches to withdraw the route entries").
    pub fn handle_term(&mut self, now: f64, flow: usize) -> Vec<SwitchCmd> {
        self.stats.terms += 1;
        if let Some(r) = self.registry.get_mut(&flow) {
            if !r.done {
                self.arbiter.ftmp.remove(&r.entry(flow));
                Self::finish(&mut self.done_flows, self.cfg.horizon(), flow, r);
            }
            r.delivered = r.size;
        }
        // After the flow finished, so a TERM that lands past its deadline
        // + horizon leaves nothing behind.
        self.forget_expired(now);
        let mut cmds = Vec::new();
        if let Some(rank) = self.arbiter.forget_committed(flow) {
            // The withdrawals must outrank the install that created the
            // entries (equal stamps resolve install-wins).
            self.gen += 1;
            self.withdraw(now, None, rank, &mut cmds);
        }
        #[cfg(test)]
        if let Some(oracle) = &mut self.oracle {
            assert_eq!(cmds, oracle.term(self.topo, flow), "TERM of flow {flow}");
        }
        cmds
    }

    /// Serializes the controller's durable state for a standby
    /// (DESIGN.md §10): the flow registry, the per-task decision cache,
    /// the `(epoch, gen)` high-water mark and the clock — O(in flight +
    /// the last horizon's finished work). The committed schedule is
    /// intentionally not captured — see [`ControllerCheckpoint`].
    pub fn checkpoint(&self) -> ControllerCheckpoint {
        ControllerCheckpoint {
            epoch: self.epoch,
            gen: self.gen,
            now: self.clock,
            flows: self
                .registry
                .iter()
                .map(|(&flow, r)| CheckpointFlow {
                    flow,
                    task: r.task,
                    src: r.src,
                    dst: r.dst,
                    size: r.size,
                    delivered: r.delivered,
                    deadline: r.deadline,
                    done: r.done,
                })
                .collect(),
            decided: self
                .decided
                .iter()
                .map(|(&t, d)| (t, d.verdict.clone(), d.deadline))
                .collect(),
        }
    }

    /// Builds a standby controller from a checkpoint: the epoch is bumped
    /// past the dead primary's so every message the standby sends
    /// outranks anything still in flight from before the crash, and the
    /// schedule/tables start empty — the standby re-learns progress from
    /// server resyncs ([`Controller::resync`]), re-runs Alg. 1–3
    /// ([`Controller::reallocate_all`]), and replaces switch state with a
    /// full sweep ([`Controller::sweep`]). The clock resumes from the
    /// checkpoint's, and every finished record is queued to expire as it
    /// would have on the primary.
    pub fn restore(topo: &'t Topology, cfg: ControllerConfig, ckpt: &ControllerCheckpoint) -> Self {
        let mut c = Controller::new(topo, cfg);
        c.epoch = ckpt.epoch + 1;
        c.gen = ckpt.gen;
        c.clock = ckpt.now;
        for f in &ckpt.flows {
            c.register(
                f.flow,
                FlowReg {
                    task: f.task,
                    src: f.src,
                    dst: f.dst,
                    size: f.size,
                    delivered: f.delivered,
                    deadline: f.deadline,
                    done: f.done,
                },
            );
        }
        for (task, verdict, deadline) in &ckpt.decided {
            c.remember(*task, verdict.clone(), *deadline);
        }
        c
    }

    /// Absorbs one server's resync report (reply to
    /// [`crate::CtrlMsg::ResyncRequest`]): each entry pairs the flow's
    /// *original* scheduling header with its remaining bytes, refreshing
    /// the possibly stale checkpointed progress; any checkpointed live
    /// flow of this host *not* listed has finished on the server and is
    /// marked done. Flows the checkpoint never saw (admitted after the
    /// checkpoint, grant lost with the primary) are registered fresh
    /// from the report — with the original size, so later progress
    /// reports (measured against the original size) stay consistent. An
    /// unknown flow whose deadline + horizon is before the clock is not
    /// registered: the controller may have forgotten it finished, and it
    /// could not be scheduled in time anyway.
    pub fn resync(&mut self, host: usize, probes: &[(ProbeHeader, f64)]) {
        self.stats.resyncs += 1;
        let horizon = self.cfg.horizon();
        let mut listed: Vec<usize> = Vec::with_capacity(probes.len());
        for (p, remaining) in probes {
            listed.push(p.flow);
            if let Some(r) = self.registry.get_mut(&p.flow) {
                if !r.done {
                    let delivered = r.delivered.max((r.size - remaining).max(0.0));
                    Self::set_delivered(&mut self.arbiter, p.flow, r, delivered);
                }
            } else if p.deadline + horizon >= self.clock {
                self.register(p.flow, FlowReg::fresh(p, (p.size - remaining).max(0.0)));
                if !self.decided.contains_key(&p.task) {
                    self.remember(p.task, TaskVerdict::Accepted, p.deadline);
                }
            }
        }
        let finished = self
            .arbiter
            .ftmp
            .take_where(|e| e.src == host && !listed.contains(&e.id));
        for flow in finished {
            if let Some(r) = self.registry.get_mut(&flow) {
                Self::finish(&mut self.done_flows, horizon, flow, r);
                r.delivered = r.size;
            }
        }
    }

    /// The full per-switch entry sets for a reconciliation sweep
    /// ([`crate::SwitchMsg::Sweep`]): every switch node paired with the
    /// complete, sorted entry list it should hold. Sent after a failover
    /// so switches drop entries the new controller knows nothing about.
    pub fn sweep(&self) -> Vec<(taps_topology::NodeId, Vec<FlowEntry>)> {
        (0..self.topo.num_nodes())
            .map(|n| taps_topology::NodeId(n as u32))
            .filter(|&n| self.topo.node(n).kind.is_switch())
            .map(|n| (n, self.tables[n.idx()].entries_sorted()))
            .collect()
    }

    /// Commits a new schedule through the arbiter and realizes its
    /// change set: withdraws the routes of re-routed and departed flows
    /// (ascending id), then installs those of new and re-routed flows
    /// (priority order). A flow that keeps its path costs nothing here;
    /// its new slices reach the senders as grants.
    ///
    /// The arbiter first validates the committed schedule against the
    /// invariants (link-exclusivity, demand-conservation, deadline
    /// consistency, full slot release) in debug/test builds — or in any
    /// build when [`ControllerConfig::force_validate`] is set (the chaos
    /// harness runs release-mode with validation on); a violation panics
    /// with the structured report.
    fn commit(&mut self, now: f64, allocs: Vec<FlowAlloc>) -> Vec<SwitchCmd> {
        self.gen += 1;
        // `allocs` is what the arbiter's last pass returned.
        let changes = self
            .arbiter
            .commit(self.topo, allocs, self.cfg.force_validate);
        let mut cmds = Vec::new();
        for w in &changes.withdrawn {
            self.withdraw(now, Some(&changes.prev), w.rank, &mut cmds);
        }
        obs_event!(
            &self.trace,
            now,
            CommitBegin {
                gen: self.gen,
                flows: obs_id(self.arbiter.committed_pass().len())
            }
        );
        // Every committed flow's grant goes out in priority order (a no-op
        // without a trace sink), each right before its own installs; kept
        // flows install nothing.
        let mut fresh = changes.fresh.iter().peekable();
        for rank in 0..self.arbiter.committed_pass().len() {
            self.arbiter.trace_grant(
                now,
                &self.arbiter.committed_pass()[rank],
                self.epoch,
                self.gen,
            );
            if fresh.next_if_eq(&&rank).is_some() {
                self.install(now, rank, &mut cmds);
            }
        }
        debug_assert!(fresh.next().is_none(), "fresh ranks not ascending");
        obs_event!(&self.trace, now, CommitEnd { gen: self.gen });
        #[cfg(test)]
        if let Some(oracle) = &mut self.oracle {
            let pass = self.arbiter.committed_pass();
            assert_eq!(cmds, oracle.commit(self.topo, pass), "commit {}", self.gen);
        }
        cmds
    }

    /// Installs the route of the committed pass's flow at `rank` at every
    /// switch on its path. A switch whose TAPS budget is full is skipped
    /// and counted: the flow falls back to default routing there.
    fn install(&mut self, now: f64, rank: usize, cmds: &mut Vec<SwitchCmd>) {
        let al = &self.arbiter.committed_pass()[rank];
        for l in &al.path.links {
            let node = self.topo.link(*l).src;
            if !self.topo.node(node).kind.is_switch() {
                continue;
            }
            match self.tables[node.idx()].install(FlowEntry {
                flow: al.id,
                out_link: *l,
            }) {
                Ok(()) => {
                    self.stats.installs += 1;
                    obs_event!(
                        &self.trace,
                        now,
                        EntryInstalled {
                            node: obs_id(node.idx()),
                            flow: obs_id(al.id),
                            link: obs_id(l.idx())
                        }
                    );
                    cmds.push(SwitchCmd::Install {
                        node,
                        flow: al.id,
                        out_link: *l,
                    });
                }
                Err(TableError::BudgetExhausted) => self.stats.budget_drops += 1,
                #[expect(
                    clippy::unreachable,
                    reason = "invariant: a re-routed flow's old entries were withdrawn before any install"
                )]
                Err(TableError::Conflict) => unreachable!("entry was withdrawn above"),
            }
        }
    }

    /// Revokes the grant of the flow at `rank` in `pass` — a commit's
    /// previous pass, or the committed pass when `None` — and withdraws
    /// its route at every switch on its path.
    fn withdraw(
        &mut self,
        now: f64,
        pass: Option<&[FlowAlloc]>,
        rank: usize,
        cmds: &mut Vec<SwitchCmd>,
    ) {
        let al = &pass.unwrap_or(self.arbiter.committed_pass())[rank];
        obs_event!(
            &self.trace,
            now,
            GrantRevoked {
                flow: obs_id(al.id)
            }
        );
        for l in &al.path.links {
            let node = self.topo.link(*l).src;
            if self.topo.node(node).kind.is_switch() {
                self.tables[node.idx()].withdraw(al.id);
                self.stats.withdrawals += 1;
                obs_event!(
                    &self.trace,
                    now,
                    EntryWithdrawn {
                        node: obs_id(node.idx()),
                        flow: obs_id(al.id)
                    }
                );
                cmds.push(SwitchCmd::Withdraw { node, flow: al.id });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taps_topology::build::{dumbbell, fat_tree, partial_fat_tree_testbed, GBPS};

    fn probe(
        task: usize,
        flow: usize,
        src: usize,
        dst: usize,
        size: f64,
        deadline: f64,
    ) -> ProbeHeader {
        ProbeHeader {
            task,
            flow,
            src,
            dst,
            size,
            deadline,
        }
    }

    fn cfg_unit() -> ControllerConfig {
        ControllerConfig {
            slot: 1.0,
            max_candidate_paths: 8,
            ..ControllerConfig::default()
        }
    }

    #[test]
    fn accepting_a_task_installs_entries_and_grants() {
        let topo = dumbbell(2, 2, GBPS);
        let mut c = Controller::new(&topo, cfg_unit());
        let (verdict, grants, cmds) = c.handle_probe(0.0, &[probe(0, 0, 0, 2, GBPS, 4.0)]);
        assert_eq!(verdict, TaskVerdict::Accepted);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].slices.total_slots(), 1);
        // Entries at both switches (host nodes get none).
        let installs = cmds
            .iter()
            .filter(|c| matches!(c, SwitchCmd::Install { .. }))
            .count();
        assert_eq!(installs, 2);
        assert_eq!(c.stats().installs, 2);
    }

    #[test]
    fn rejection_sends_no_grants_and_keeps_tables_clean() {
        let topo = dumbbell(2, 2, GBPS);
        let mut c = Controller::new(&topo, cfg_unit());
        // Fill the bottleneck until t=4 (EDF keeps this flow first).
        c.handle_probe(0.0, &[probe(0, 0, 0, 2, 4.0 * GBPS, 4.0)]);
        // Newcomer (later deadline, lower priority) needs 2 units by t=5
        // but the link frees only at 4: its own flows miss -> rejected.
        let (verdict, grants, _cmds) = c.handle_probe(0.0, &[probe(1, 1, 1, 3, 2.0 * GBPS, 5.0)]);
        assert_eq!(verdict, TaskVerdict::Rejected);
        assert!(grants.is_empty());
        assert_eq!(c.stats().rejected_tasks, 1);
        // No stray entries for the rejected flow.
        for n in 0..topo.num_nodes() {
            assert_eq!(c.table(taps_topology::NodeId(n as u32)).forward(1), None);
        }
    }

    #[test]
    fn preemption_marks_victim_done_and_reuses_its_slots() {
        let topo = dumbbell(2, 2, GBPS);
        let mut c = Controller::new(&topo, cfg_unit());
        // Victim barely feasible: 4 units due 4.5.
        let (v0, _, _) = c.handle_probe(0.0, &[probe(0, 0, 0, 2, 4.0 * GBPS, 4.5)]);
        assert_eq!(v0, TaskVerdict::Accepted);
        c.note_progress(0, GBPS); // 1 unit delivered by t=1
        let (v1, grants, _) = c.handle_probe(1.0, &[probe(1, 1, 1, 3, GBPS, 3.0)]);
        assert_eq!(v1, TaskVerdict::AcceptedWithPreemption(0));
        assert_eq!(grants.len(), 1);
        assert_eq!(c.stats().preempted_tasks, 1);
    }

    #[test]
    fn term_withdraws_entries() {
        let topo = partial_fat_tree_testbed(GBPS);
        let mut c = Controller::new(&topo, cfg_unit());
        let (_, grants, _) = c.handle_probe(0.0, &[probe(0, 0, 0, 4, GBPS, 8.0)]);
        let path_len = grants[0].path.links.len();
        // Inter-pod path: 6 links, 5 of them leave a switch... host->edge
        // leaves the host, so 5 switch entries.
        assert_eq!(path_len, 6);
        let cmds = c.handle_term(8.0, 0);
        assert_eq!(cmds.len(), 5);
        assert_eq!(c.stats().withdrawals, 5);
        for n in 0..topo.num_nodes() {
            assert_eq!(c.table(taps_topology::NodeId(n as u32)).forward(0), None);
        }
    }

    #[test]
    fn control_rtt_delays_the_first_slice() {
        let topo = dumbbell(2, 2, GBPS);
        let mut fast = Controller::new(&topo, cfg_unit());
        let (_, grants, _) = fast.handle_probe(0.0, &[probe(0, 0, 0, 2, GBPS, 10.0)]);
        assert_eq!(grants[0].slices.min_start(), Some(0));

        let mut slow = Controller::new(
            &topo,
            ControllerConfig {
                control_rtt: 2.5, // 2.5 slots of signalling latency
                ..cfg_unit()
            },
        );
        let (_, grants, _) = slow.handle_probe(0.0, &[probe(0, 0, 0, 2, GBPS, 10.0)]);
        assert_eq!(
            grants[0].slices.min_start(),
            Some(3),
            "first slice waits for the RTT"
        );
    }

    /// A switch-to-switch cable on the granted path (failing an access
    /// link would disconnect a host instead of testing re-routing).
    fn cable_on_path(topo: &Topology, grant: &FlowGrant) -> taps_topology::LinkId {
        *grant
            .path
            .links
            .iter()
            .find(|l| {
                let lk = topo.link(**l);
                topo.node(lk.src).kind.is_switch() && topo.node(lk.dst).kind.is_switch()
            })
            .expect("inter-pod path crosses the fabric")
    }

    #[test]
    fn link_down_reroutes_inflight_flow() {
        let topo = fat_tree(4, GBPS);
        let mut c = Controller::new(&topo, cfg_unit());
        let (v, grants, _) = c.handle_probe(0.0, &[probe(0, 0, 0, 12, 4.0 * GBPS, 10.0)]);
        assert_eq!(v, TaskVerdict::Accepted);
        let dead = cable_on_path(&topo, &grants[0]);
        c.note_progress(0, GBPS); // one slot delivered by t=1
        let (grants, cmds) = c.handle_link_event(1.0, LinkEvent::LinkDown { link: dead });
        assert_eq!(c.stats().link_faults, 1);
        assert_eq!(c.stats().failed_tasks, 0);
        let g = grants.iter().find(|g| g.flow == 0).expect("flow regranted");
        assert!(
            !g.path.links.contains(&dead),
            "new route avoids the dead link"
        );
        assert!(!cmds.is_empty(), "switch tables reprogrammed");
        topo.reset_faults();
    }

    #[test]
    fn recovery_latency_delays_the_repacked_schedule() {
        let topo = fat_tree(4, GBPS);
        let mut c = Controller::new(
            &topo,
            ControllerConfig {
                recovery_latency: 2.0,
                ..cfg_unit()
            },
        );
        let (_, grants, _) = c.handle_probe(0.0, &[probe(0, 0, 0, 12, 4.0 * GBPS, 20.0)]);
        let dead = cable_on_path(&topo, &grants[0]);
        let (grants, _) = c.handle_link_event(1.0, LinkEvent::LinkDown { link: dead });
        let g = grants.iter().find(|g| g.flow == 0).expect("flow regranted");
        assert!(
            g.slices.min_start() >= Some(3),
            "repacked schedule waits out fault detection + recomputation: {:?}",
            g.slices.min_start()
        );
        topo.reset_faults();
    }

    #[test]
    fn disconnection_fails_task_and_rejects_probes_until_repair() {
        let topo = dumbbell(2, 2, GBPS);
        let mut c = Controller::new(&topo, cfg_unit());
        let (_, grants, _) = c.handle_probe(0.0, &[probe(0, 0, 0, 2, 2.0 * GBPS, 6.0)]);
        let cross = grants[0].path.links[1];
        let (grants, _) = c.handle_link_event(0.5, LinkEvent::LinkDown { link: cross });
        assert_eq!(c.stats().failed_tasks, 1);
        assert!(
            grants.iter().all(|g| g.flow != 0),
            "dead flow is not regranted"
        );
        // Its table entries are withdrawn with the rest of the stale set.
        for n in 0..topo.num_nodes() {
            assert_eq!(c.table(taps_topology::NodeId(n as u32)).forward(0), None);
        }
        // A probe while the fabric is cut is rejected outright.
        let (v, g2, _) = c.handle_probe(1.0, &[probe(1, 1, 1, 3, GBPS, 9.0)]);
        assert_eq!(v, TaskVerdict::Rejected);
        assert!(g2.is_empty());
        // After repair new tasks are admitted again.
        let _ = c.handle_link_event(2.0, LinkEvent::LinkUp { link: cross });
        let (v, _, _) = c.handle_probe(2.0, &[probe(2, 2, 1, 3, GBPS, 9.0)]);
        assert_eq!(v, TaskVerdict::Accepted);
        assert_eq!(c.stats().link_faults, 2);
        topo.reset_faults();
    }

    #[test]
    fn budget_exhaustion_is_counted_not_fatal() {
        let topo = dumbbell(2, 2, GBPS);
        let mut c = Controller::new(
            &topo,
            ControllerConfig {
                slot: 1.0,
                table_budget: 1,
                table_capacity: 2,
                ..ControllerConfig::default()
            },
        );
        c.handle_probe(0.0, &[probe(0, 0, 0, 2, GBPS, 10.0)]);
        // A second flow through the same switches cannot install.
        let (v, grants, _) = c.handle_probe(0.0, &[probe(1, 1, 1, 3, GBPS, 10.0)]);
        assert_eq!(v, TaskVerdict::Accepted);
        assert_eq!(grants.len(), 1, "grant still issued (default routing)");
        assert!(c.stats().budget_drops > 0);
    }

    /// A probe burst is a `handle_probe` loop: on a fresh controller it
    /// returns the same verdicts, grants, switch commands and stats, for
    /// an all-accept burst and for one with a reject.
    #[test]
    fn probe_burst_equals_a_handle_probe_loop() {
        use TaskVerdict::{Accepted, Rejected};
        let cases = [
            (
                dumbbell(4, 4, GBPS),
                vec![
                    vec![probe(0, 0, 0, 4, GBPS, 8.0), probe(0, 1, 1, 5, GBPS, 8.0)],
                    vec![probe(1, 2, 2, 6, GBPS, 8.0)],
                    vec![probe(2, 3, 3, 7, GBPS, 8.0)],
                ],
                vec![Accepted, Accepted, Accepted],
            ),
            (
                dumbbell(2, 2, GBPS),
                vec![
                    vec![probe(0, 0, 0, 2, 4.0 * GBPS, 4.0)],
                    // Lower priority; the bottleneck only frees at t=4.
                    vec![probe(1, 1, 1, 3, 2.0 * GBPS, 5.0)],
                ],
                vec![Accepted, Rejected],
            ),
        ];
        for (topo, burst, verdicts) in &cases {
            let mut seq = Controller::new(topo, cfg_unit());
            let mut seq_results = Vec::new();
            let mut seq_cmds = Vec::new();
            for g in burst {
                let (v, gr, c) = seq.handle_probe(0.0, g);
                seq_results.push((v, gr));
                seq_cmds.extend(c);
            }
            let mut bat = Controller::new(topo, cfg_unit());
            let (bat_results, bat_cmds) = bat.handle_probe_burst(0.0, burst);
            let got: Vec<TaskVerdict> = bat_results.iter().map(|(v, _)| v.clone()).collect();
            assert_eq!(&got, verdicts);
            assert_eq!(seq_results, bat_results);
            assert_eq!(seq_cmds, bat_cmds);
            assert_eq!(seq.stats(), bat.stats());
        }
    }

    /// The registry side of the index invariant (the index's own half —
    /// that it keeps any sequence of updates sorted — is tested beside it
    /// in `taps_core::arbiter`): the arbiter's F_tmp holds exactly the
    /// registry's `!done` records, in F_tmp order, and the task
    /// membership it carries equals a brute-force registry scan.
    fn assert_index_follows_the_registry(c: &Controller<'_>, after: &str) {
        let mut want: Vec<InFlight> = c
            .registry
            .iter()
            .filter(|(_, r)| !r.done)
            .map(|(&id, r)| r.entry(id))
            .collect();
        want.sort_by(InFlight::order);
        assert_eq!(
            c.arbiter.ftmp.entries(),
            want,
            "in-flight index diverged from the registry after {after}"
        );
        let mut indexed: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for e in c.arbiter.ftmp.entries() {
            indexed.entry(e.task).or_default().push(e.id);
        }
        indexed.values_mut().for_each(|flows| flows.sort_unstable());
        let mut scanned: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (&flow, r) in c.registry.iter().filter(|(_, r)| !r.done) {
            scanned.entry(r.task).or_default().push(flow);
        }
        assert_eq!(indexed, scanned, "task membership diverged after {after}");
    }

    /// What `Controller::commit` replaced, kept as its oracle: the
    /// committed schedule as an id → allocation map and its own switch
    /// tables. A commit collects the flows that keep their path, sorts
    /// them by id, withdraws every other mapped flow in ascending id, then
    /// installs in priority order every flow the map does not hold.
    pub(super) struct CommitOracle {
        schedule: BTreeMap<usize, FlowAlloc>,
        tables: Vec<FlowTable>,
        /// Commits replayed.
        commits: usize,
        /// Flows withdrawn and re-installed on another path by one commit.
        rerouted: usize,
    }

    impl CommitOracle {
        fn new(topo: &Topology, cfg: &ControllerConfig) -> Self {
            CommitOracle {
                schedule: BTreeMap::new(),
                tables: (0..topo.num_nodes())
                    .map(|_| FlowTable::new(cfg.table_capacity, cfg.table_budget))
                    .collect(),
                commits: 0,
                rerouted: 0,
            }
        }

        fn withdraw(&mut self, topo: &Topology, al: &FlowAlloc, cmds: &mut Vec<SwitchCmd>) {
            for l in &al.path.links {
                let node = topo.link(*l).src;
                if topo.node(node).kind.is_switch() {
                    self.tables[node.idx()].withdraw(al.id);
                    cmds.push(SwitchCmd::Withdraw { node, flow: al.id });
                }
            }
        }

        pub(super) fn commit(&mut self, topo: &Topology, allocs: &[FlowAlloc]) -> Vec<SwitchCmd> {
            self.commits += 1;
            let schedule = &self.schedule;
            let mut kept: Vec<usize> = allocs
                .iter()
                .filter(|al| schedule.get(&al.id).is_some_and(|old| old.path == al.path))
                .map(|al| al.id)
                .collect();
            kept.sort_unstable();
            let stale: Vec<usize> = schedule
                .keys()
                .filter(|id| kept.binary_search(id).is_err())
                .copied()
                .collect();
            let mut cmds = Vec::new();
            for id in stale {
                let al = self.schedule.remove(&id).unwrap();
                self.rerouted += usize::from(allocs.iter().any(|a| a.id == id));
                self.withdraw(topo, &al, &mut cmds);
            }
            for al in allocs {
                if let Some(old) = self.schedule.get_mut(&al.id) {
                    old.clone_from(al);
                    continue;
                }
                for l in &al.path.links {
                    let node = topo.link(*l).src;
                    if !topo.node(node).kind.is_switch() {
                        continue;
                    }
                    let entry = FlowEntry {
                        flow: al.id,
                        out_link: *l,
                    };
                    if self.tables[node.idx()].install(entry).is_ok() {
                        cmds.push(SwitchCmd::Install {
                            node,
                            flow: al.id,
                            out_link: *l,
                        });
                    }
                }
                self.schedule.insert(al.id, al.clone());
            }
            cmds
        }

        pub(super) fn term(&mut self, topo: &Topology, flow: usize) -> Vec<SwitchCmd> {
            let mut cmds = Vec::new();
            if let Some(al) = self.schedule.remove(&flow) {
                self.withdraw(topo, &al, &mut cmds);
            }
            cmds
        }
    }

    /// Which outcomes a random history reached (the coverage witness of
    /// [`random_history`]).
    #[derive(Debug, Default)]
    struct Reached {
        accepted: usize,
        rejected: usize,
        preempted: usize,
        clean_bursts: usize,
        mixed_bursts: usize,
        terms_of_live_flows: usize,
        rekeyed: usize,
        given_up: usize,
        failovers: usize,
        resync_finished: usize,
        reused_flow_ids: usize,
        commits_checked: usize,
        rerouted_flows: usize,
        forgotten_flows: usize,
        forgotten_tasks: usize,
    }

    /// Drives one controller through a seeded random history of every
    /// operation that can change the in-flight set, checking the index
    /// against its definition after each and every commit's and TERM's
    /// switch commands against [`CommitOracle`]; what it reached is added
    /// to `reached`.
    fn random_history(seed: u64, ops: usize, reached: &mut Reached) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(seed);
        // A single-cable dumbbell disconnects under a fault; the
        // fat-tree re-routes.
        let topo = if seed.is_multiple_of(2) {
            dumbbell(3, 3, GBPS)
        } else {
            fat_tree(4, GBPS)
        };
        let hosts = topo.num_hosts();
        let cables: Vec<taps_topology::LinkId> = topo
            .links()
            .filter(|(_, l)| topo.node(l.src).kind.is_switch() && topo.node(l.dst).kind.is_switch())
            .map(|(id, _)| id)
            .collect();
        let mut down: Vec<taps_topology::LinkId> = Vec::new();
        let mut c = Controller::new(&topo, cfg_unit());
        c.oracle = Some(CommitOracle::new(&topo, &cfg_unit()));
        let tally = |c: &Controller<'_>, reached: &mut Reached| {
            if let Some(o) = &c.oracle {
                reached.commits_checked += o.commits;
                reached.rerouted_flows += o.rerouted;
            }
        };
        let (mut next_task, mut next_flow) = (0usize, 0usize);
        let mut now = 0.0f64;

        // A fresh task of 1–3 flows; sizes and deadlines come from small
        // sets so EDF and SJF ties (decided by flow id) are common.
        let new_task = |rng: &mut StdRng,
                        now: f64,
                        next_task: &mut usize,
                        next_flow: &mut usize,
                        reached: &mut Reached| {
            let task = *next_task;
            *next_task += 1;
            let deadline = now.floor() + f64::from(rng.gen_range(2u32..9));
            (0..rng.gen_range(1usize..4))
                .map(|_| {
                    let src = rng.gen_range(0..hosts);
                    let dst = (src + rng.gen_range(1..hosts)) % hosts;
                    // Outside input may reuse a flow id; the newer record
                    // replaces the older one.
                    let flow = if *next_flow > 0 && rng.gen_bool(0.05) {
                        reached.reused_flow_ids += 1;
                        rng.gen_range(0..*next_flow)
                    } else {
                        *next_flow += 1;
                        *next_flow - 1
                    };
                    let size = f64::from(rng.gen_range(1u32..4)) * GBPS;
                    probe(task, flow, src, dst, size, deadline)
                })
                .collect::<Vec<ProbeHeader>>()
        };

        for _ in 0..ops {
            now += rng.gen_range(0.0..0.7);
            let what = match rng.gen_range(0u32..100) {
                0..=39 => {
                    let probes = if next_task > 0 && rng.gen_bool(0.1) {
                        // A duplicate delivery of a decided task.
                        let task = rng.gen_range(0..next_task);
                        vec![probe(
                            task,
                            rng.gen_range(0..next_flow),
                            0,
                            1,
                            GBPS,
                            now + 4.0,
                        )]
                    } else {
                        new_task(&mut rng, now, &mut next_task, &mut next_flow, reached)
                    };
                    match c.handle_probe(now, &probes).0 {
                        TaskVerdict::Accepted => reached.accepted += 1,
                        TaskVerdict::AcceptedWithPreemption(_) => reached.preempted += 1,
                        TaskVerdict::Rejected => reached.rejected += 1,
                    }
                    "handle_probe"
                }
                40..=49 => {
                    let burst: Vec<Vec<ProbeHeader>> = (0..rng.gen_range(2usize..5))
                        .map(|_| new_task(&mut rng, now, &mut next_task, &mut next_flow, reached))
                        .collect();
                    let (results, _) = c.handle_probe_burst(now, &burst);
                    if results.iter().all(|(v, _)| *v == TaskVerdict::Accepted) {
                        reached.clean_bursts += 1;
                    } else {
                        reached.mixed_bursts += 1;
                    }
                    "handle_probe_burst"
                }
                50..=64 if next_flow > 0 => {
                    // Known, finished and never-seen flows alike.
                    let flow = rng.gen_range(0..next_flow + 2);
                    if c.registry.get(&flow).is_some_and(|r| !r.done) {
                        reached.terms_of_live_flows += 1;
                    }
                    let before = c.retained();
                    c.handle_term(now, flow);
                    let after = c.retained();
                    reached.forgotten_flows += before.registry.saturating_sub(after.registry);
                    reached.forgotten_tasks += before.decided.saturating_sub(after.decided);
                    "handle_term"
                }
                65..=79 if next_flow > 0 => {
                    let flow = rng.gen_range(0..next_flow + 2);
                    let before = c.arbiter.ftmp.entries().to_vec();
                    // Stale (lower) and overshooting reports included.
                    c.note_progress(flow, rng.gen_range(0.0..4.0) * GBPS);
                    if c.arbiter.ftmp.entries() != before {
                        reached.rekeyed += 1;
                    }
                    "note_progress"
                }
                80..=89 => {
                    let failed = c.stats().failed_tasks;
                    if !down.is_empty() && rng.gen_bool(0.6) {
                        let link = down.swap_remove(rng.gen_range(0..down.len()));
                        c.handle_link_event(now, LinkEvent::LinkUp { link });
                    } else {
                        let link = cables[rng.gen_range(0..cables.len())];
                        if !down.contains(&link) {
                            down.push(link);
                        }
                        c.handle_link_event(now, LinkEvent::LinkDown { link });
                    }
                    reached.given_up += c.stats().failed_tasks - failed;
                    "handle_link_event"
                }
                90..=94 => {
                    // Failover: checkpoint → restore → resync → repack.
                    let ckpt = c.checkpoint();
                    tally(&c, reached);
                    c = Controller::restore(&topo, cfg_unit(), &ckpt);
                    c.oracle = Some(CommitOracle::new(&topo, &cfg_unit()));
                    assert_index_follows_the_registry(&c, "restore");
                    for host in 0..hosts {
                        // The server lists most of its live flows (a
                        // missing one finished there) with fresher
                        // progress, plus now and then one the checkpoint
                        // never saw.
                        let mut report: Vec<(ProbeHeader, f64)> = Vec::new();
                        for f in ckpt.flows.iter().filter(|f| f.src == host && !f.done) {
                            if rng.gen_bool(0.8) {
                                let left = (f.size - f.delivered) * rng.gen_range(0.0..1.2);
                                let p = probe(f.task, f.flow, f.src, f.dst, f.size, f.deadline);
                                report.push((p, left));
                            } else {
                                reached.resync_finished += 1;
                            }
                        }
                        if rng.gen_bool(0.1) {
                            let dst = (host + 1) % hosts;
                            let p = probe(next_task, next_flow, host, dst, 2.0 * GBPS, now + 6.0);
                            next_task += 1;
                            next_flow += 1;
                            report.push((p, GBPS));
                        }
                        c.resync(host, &report);
                        assert_index_follows_the_registry(&c, "resync");
                        // The sweep the index took over from the registry
                        // walk: an unlisted live flow of this host is done.
                        assert!(c.registry.iter().all(|(flow, r)| r.done
                            || r.src != host
                            || report.iter().any(|(p, _)| p.flow == *flow)));
                    }
                    c.reallocate_all(now);
                    reached.failovers += 1;
                    "reallocate_all"
                }
                _ => {
                    c.reallocate_all(now);
                    "reallocate_all"
                }
            };
            assert_index_follows_the_registry(&c, what);
        }
        tally(&c, reached);
    }

    /// The histories above are only a witness if they reach every way a
    /// flow enters, leaves or re-keys.
    #[test]
    fn random_histories_reach_every_update_point() {
        let mut total = Reached::default();
        for seed in 0..12 {
            random_history(seed, 80, &mut total);
        }
        for (what, n) in [
            ("accepted", total.accepted),
            ("rejected", total.rejected),
            ("preempted", total.preempted),
            ("all-accept bursts", total.clean_bursts),
            ("bursts with a reject or preemption", total.mixed_bursts),
            ("TERMs of live flows", total.terms_of_live_flows),
            ("re-keying progress reports", total.rekeyed),
            ("tasks given up in recovery", total.given_up),
            ("failovers", total.failovers),
            ("flows finished per resync", total.resync_finished),
            ("reused flow ids", total.reused_flow_ids),
            ("commits checked against the oracle", total.commits_checked),
            ("re-routed flows", total.rerouted_flows),
            ("finished flows forgotten", total.forgotten_flows),
            ("decided tasks forgotten", total.forgotten_tasks),
        ] {
            assert!(n > 0, "no history reached: {what}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// After every operation of a random history the arbiter's F_tmp
        /// equals the registry filtered by `!done` and sorted.
        #[test]
        fn every_controller_operation_keeps_the_index_in_step_with_the_registry(seed in proptest::any::<u64>()) {
            random_history(seed, 60, &mut Reached::default());
        }
    }
}
