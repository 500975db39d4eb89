//! Alg. 1 — the TAPS controller loop: batching, tentative re-allocation,
//! the reject rule, preemption, and slice-driven transmission.
//!
//! Admission is processed at the **next slot boundary** after a task
//! arrives. This implements Alg. 1's "wait time T" batching window
//! (T ≤ one slot: tasks arriving within the same slot are decided
//! together, in arrival order) and guarantees that re-allocation never
//! costs an in-flight flow its partial-slot progress: flows keep
//! transmitting under the old schedule until the boundary, and the
//! re-pack starts exactly there.

use crate::alloc::{AllocEngine, AllocError, FlowAlloc, FlowDemand};
use crate::delta::DeltaCache;
use crate::obs::obs_event;
#[cfg(feature = "obs")]
use crate::obs::obs_id;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use taps_flowsim::{DeadlineAction, FaultEvent, FlowId, FlowStatus, Scheduler, SimCtx, TaskId};
use taps_timeline::slots;

/// How the reject rule resolves the "one victim task" case (see
/// DESIGN.md — the paper's wording for the completion-ratio comparison is
/// ambiguous; `Paper` implements the reading that preserves the paper's
/// Fig. 2 walk-through and makes preemption reachable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectPolicy {
    /// The paper's rule: compare the *schedulable completion ratios* under
    /// the tentative allocation (fraction of each task's flows that would
    /// still meet their deadline, counting already-completed flows). The
    /// newcomer is whole (ratio 1) in this branch, so a victim with any
    /// missing flow is preempted.
    Paper,
    /// Never discard an in-flight task; reject the newcomer instead.
    /// Ablation: TAPS without preemption degenerates towards Varys-style
    /// admission.
    NeverPreempt,
    /// Skip the reject rule entirely: admit every task and let flows miss
    /// deadlines naturally. Ablation: shows how much of TAPS's win is the
    /// rejection policy (bandwidth-waste control).
    AlwaysAdmit,
}

/// Outcome of the reject rule for one arrival (exposed for tests and the
/// SDN control plane).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectDecision {
    /// Task admitted; no in-flight task was harmed.
    Accept,
    /// Task admitted after discarding the given victim task.
    AcceptWithPreemption(TaskId),
    /// Task rejected (in-flight schedule re-packed without it).
    Reject,
}

/// TAPS configuration.
#[derive(Clone, Debug)]
pub struct TapsConfig {
    /// Slot duration of the allocation timeline, seconds.
    pub slot: f64,
    /// Candidate-path budget for Alg. 2.
    pub max_candidate_paths: usize,
    /// Reject-rule variant.
    pub policy: RejectPolicy,
    /// Upper bound on the pending-arrival queue. An arrival past the cap
    /// is shed immediately (recorded as a `Reject` decision with the
    /// `SHED_QUEUE_FULL` reason and counted in
    /// [`Taps::pending_shed_total`]) instead of growing the queue without
    /// limit under sustained overload. The default is generous — far
    /// above any paper-scale burst — so only pathological arrival storms
    /// ever hit it.
    pub pending_cap: usize,
}

impl Default for TapsConfig {
    fn default() -> Self {
        TapsConfig {
            slot: 0.0001, // 0.1 ms
            max_candidate_paths: 16,
            policy: RejectPolicy::Paper,
            pending_cap: 65_536,
        }
    }
}

/// The TAPS scheduler (paper Alg. 1 + §IV-C controller behavior).
pub struct Taps {
    cfg: TapsConfig,
    /// Persistent Alg. 2/3 engine: occupancy buffers, path cache and
    /// scratch sets survive across admissions instead of being rebuilt
    /// per arrival.
    engine: AllocEngine,
    /// Cross-admission delta-reallocation cache: flows undisturbed since
    /// the previous tentative allocation are translated instead of
    /// re-searched (bit-identical results — see `delta` module docs).
    delta: DeltaCache,
    /// Reusable demand buffer for the tentative allocation.
    demands: Vec<FlowDemand>,
    /// Committed schedule per flow. Ordered map: `rebuild_timeline`
    /// iterates it, and decision-path iteration order must be
    /// deterministic (lint rule L1).
    schedules: BTreeMap<FlowId, FlowAlloc>,
    /// Flattened slice boundaries of the committed schedule:
    /// `(slot, flow, on)`, sorted; `ptr` advances with time.
    timeline: Vec<(u64, FlowId, bool)>,
    ptr: usize,
    /// Flows currently inside one of their slices.
    on: Vec<FlowId>,
    /// Tasks awaiting admission at the next slot boundary (arrival
    /// order). Bounded by [`TapsConfig::pending_cap`]: overflow arrivals
    /// are shed at the door, never enqueued.
    pending: VecDeque<TaskId>,
    /// Arrivals shed because the pending queue was at capacity.
    pending_shed: u64,
    /// Decisions log (task id → decision), for tests and reporting.
    decisions: Vec<(TaskId, RejectDecision)>,
    /// Structured trace sink for decision and commit events; `None`
    /// keeps the hooks dormant.
    #[cfg(feature = "obs")]
    trace: Option<std::sync::Arc<dyn taps_obs::TraceSink>>,
    /// Monotonic generation stamped on `CommitBegin`/`CommitEnd` events.
    #[cfg(feature = "obs")]
    commit_gen: u64,
}

impl Taps {
    /// TAPS with default configuration.
    pub fn new() -> Self {
        Self::with_config(TapsConfig::default())
    }

    /// TAPS with an explicit configuration.
    pub fn with_config(cfg: TapsConfig) -> Self {
        assert!(cfg.slot > 0.0);
        let engine = AllocEngine::new(cfg.slot, cfg.max_candidate_paths);
        Taps {
            cfg,
            engine,
            delta: DeltaCache::new(),
            demands: Vec::new(),
            schedules: BTreeMap::new(),
            timeline: Vec::new(),
            ptr: 0,
            on: Vec::new(),
            pending: VecDeque::new(),
            pending_shed: 0,
            decisions: Vec::new(),
            #[cfg(feature = "obs")]
            trace: None,
            #[cfg(feature = "obs")]
            commit_gen: 0,
        }
    }

    /// Installs a structured trace sink: admission decisions, allocation
    /// work counters, and full commit bursts are emitted to it from now
    /// on. Only available with the `obs` feature (default).
    #[cfg(feature = "obs")]
    pub fn set_trace_sink(&mut self, sink: std::sync::Arc<dyn taps_obs::TraceSink>) {
        self.trace = Some(sink);
    }

    /// The admission decisions taken so far, in arrival order.
    pub fn decisions(&self) -> &[(TaskId, RejectDecision)] {
        &self.decisions
    }

    /// Arrivals shed because the bounded pending queue was full
    /// ([`TapsConfig::pending_cap`]).
    pub fn pending_shed_total(&self) -> u64 {
        self.pending_shed
    }

    /// Tasks currently waiting for their admission boundary.
    pub fn pending_depth(&self) -> usize {
        self.pending.len()
    }

    /// The committed slice schedule of a flow, if any.
    pub fn schedule_of(&self, flow: FlowId) -> Option<&FlowAlloc> {
        self.schedules.get(&flow)
    }

    #[inline]
    fn current_slot(&self, now: f64) -> u64 {
        slots::from_f64_floor((now / self.cfg.slot) + 1e-9)
    }

    #[inline]
    fn boundary_slot(&self, time: f64) -> u64 {
        slots::from_f64_ceil((time / self.cfg.slot) - 1e-9)
    }

    /// EDF-then-SJF priority order over the given flows. Uses
    /// `total_cmp`, so a NaN deadline or size cannot panic the sort (NaN
    /// orders after every real number — i.e. lowest priority).
    fn sort_by_priority(ctx: &SimCtx<'_>, flows: &mut [FlowId]) {
        flows.sort_by(|&a, &b| {
            let fa = ctx.flow(a);
            let fb = ctx.flow(b);
            fa.spec
                .deadline
                .total_cmp(&fb.spec.deadline)
                .then_with(|| fa.remaining().total_cmp(&fb.remaining()))
                .then_with(|| a.cmp(&b))
        });
    }

    /// Runs the tentative allocation of Alg. 2 over `flows` (already
    /// priority-sorted) on the persistent engine.
    fn allocate(
        &mut self,
        ctx: &SimCtx<'_>,
        flows: &[FlowId],
        start_slot: u64,
    ) -> Result<Vec<FlowAlloc>, AllocError> {
        self.demands.clear();
        self.demands.extend(flows.iter().map(|&fid| {
            let f = ctx.flow(fid);
            FlowDemand {
                id: fid,
                src: f.spec.src,
                dst: f.spec.dst,
                remaining: f.remaining(),
                deadline: f.spec.deadline,
            }
        }));
        // Delta re-allocation: binds the topology and resets occupancy
        // itself; flows undisturbed since the previous pass are
        // translated, everything else re-searched — bit-identical to a
        // full `allocate_batch` (cross-checked in debug builds).
        self.engine
            .allocate_batch_delta(ctx.topo(), &self.demands, start_slot, &mut self.delta)
    }

    /// Tentative allocation with per-task degradation: when a flow's
    /// endpoints have no surviving path ([`AllocError::Disconnected`],
    /// possible under link/switch faults), its whole task is dropped —
    /// the newcomer by rejection, an in-flight task by discard — and the
    /// allocation re-runs over the remainder instead of failing globally.
    /// This applies regardless of the reject policy: a task without a
    /// path physically cannot transmit, so dropping it is a statement of
    /// fact, not a preemption choice. Returns the surviving allocation
    /// plus whether `newcomer` was rejected for disconnection. `ftmp` is
    /// pruned in place.
    fn allocate_degrading(
        &mut self,
        ctx: &mut SimCtx<'_>,
        ftmp: &mut Vec<FlowId>,
        start_slot: u64,
        newcomer: Option<TaskId>,
    ) -> (Vec<FlowAlloc>, bool) {
        let mut newcomer_rejected = false;
        loop {
            match self.allocate(ctx, ftmp, start_slot) {
                Ok(allocs) => return (allocs, newcomer_rejected),
                Err(AllocError::Disconnected { flow }) => {
                    let task = ctx.flow(flow).spec.task;
                    if newcomer == Some(task) {
                        ctx.reject_task(task);
                        newcomer_rejected = true;
                    } else {
                        ctx.discard_task(task);
                    }
                    // Every flow of the dropped task just went non-live,
                    // so the loop strictly shrinks and terminates.
                    ftmp.retain(|&fid| ctx.flow(fid).status.is_live());
                }
            }
        }
    }

    /// Commits allocations: stores schedules, installs routes, rebuilds
    /// the boundary timeline.
    ///
    /// With the `validate` feature (default) in a debug/test build, every
    /// commit — i.e. every admission, reject, and preemption outcome — is
    /// checked against the schedule invariants first, and a violation
    /// panics with the structured report.
    fn commit(&mut self, ctx: &mut SimCtx<'_>, allocs: Vec<FlowAlloc>) {
        #[cfg(feature = "validate")]
        if cfg!(debug_assertions) {
            // `allocs` always comes from the immediately preceding
            // `allocate()` call, so `self.demands` matches it by id.
            let mut report = crate::validate::check_schedule(
                ctx.topo(),
                self.cfg.slot,
                &self.demands,
                &allocs,
                "commit: schedule",
            );
            report.violations.extend(
                crate::validate::check_occupancy(
                    ctx.topo(),
                    &self.engine,
                    &allocs,
                    "commit: occupancy",
                )
                .violations,
            );
            assert!(report.is_clean(), "{report}");
        }
        #[cfg(feature = "obs")]
        self.emit_commit_trace(ctx, &allocs);
        self.schedules.clear();
        for al in allocs {
            ctx.set_route(al.id, al.path.clone());
            self.schedules.insert(al.id, al);
        }
        self.rebuild_timeline(ctx.now());
    }

    /// Emits the trace burst for one commit: `GrantRevoked` for every
    /// flow whose previous schedule does not survive into `allocs`
    /// (preemption victims, doomed/disconnected discards), then a full
    /// grant snapshot — `GrantIssued` plus its `GrantHop`/`GrantSlice`
    /// details per flow — bracketed by `CommitBegin`/`CommitEnd`.
    #[cfg(feature = "obs")]
    fn emit_commit_trace(&mut self, ctx: &SimCtx<'_>, allocs: &[FlowAlloc]) {
        if self.trace.is_none() {
            return;
        }
        let now = ctx.now();
        let gen = self.commit_gen;
        self.commit_gen += 1;
        // Sorted id list + binary search instead of a per-commit tree
        // allocation: this runs on every admission (hot path).
        let mut kept: Vec<FlowId> = allocs.iter().map(|al| al.id).collect();
        kept.sort_unstable();
        for &fid in self.schedules.keys() {
            if kept.binary_search(&fid).is_err() {
                obs_event!(self.trace, now, GrantRevoked { flow: obs_id(fid) });
            }
        }
        obs_event!(
            self.trace,
            now,
            CommitBegin {
                gen,
                flows: obs_id(allocs.len())
            }
        );
        for al in allocs {
            obs_event!(
                self.trace,
                now,
                GrantIssued {
                    flow: obs_id(al.id),
                    epoch: 0,
                    gen,
                    hops: obs_id(al.path.links.len()),
                    slices: obs_id(al.slices.intervals().count()),
                    on_time: al.on_time
                }
            );
            for (i, l) in al.path.links.iter().enumerate() {
                obs_event!(
                    self.trace,
                    now,
                    GrantHop {
                        flow: obs_id(al.id),
                        idx: obs_id(i),
                        link: obs_id(l.idx())
                    }
                );
            }
            for (i, iv) in al.slices.intervals().enumerate() {
                obs_event!(
                    self.trace,
                    now,
                    GrantSlice {
                        flow: obs_id(al.id),
                        idx: obs_id(i),
                        start: slots::to_f64(iv.start) * self.cfg.slot,
                        end: slots::to_f64(iv.end) * self.cfg.slot
                    }
                );
            }
        }
        obs_event!(self.trace, now, CommitEnd { gen });
    }

    fn rebuild_timeline(&mut self, now: f64) {
        self.timeline.clear();
        for (&fid, al) in &self.schedules {
            for iv in al.slices.intervals() {
                self.timeline.push((iv.start, fid, true));
                self.timeline.push((iv.end, fid, false));
            }
        }
        // Sort by slot; "off" (false) before "on" so back-to-back slices
        // of different flows hand over cleanly at the boundary.
        self.timeline.sort_unstable_by_key(|&(s, f, on)| (s, on, f));
        self.ptr = 0;
        self.on.clear();
        // Fast-forward to the current time.
        let cur = self.current_slot(now);
        self.advance_to_slot(cur);
    }

    /// Applies all boundary events with slot index `<= cur`.
    fn advance_to_slot(&mut self, cur: u64) {
        while self.ptr < self.timeline.len() && self.timeline[self.ptr].0 <= cur {
            let (_, fid, turn_on) = self.timeline[self.ptr];
            self.ptr += 1;
            if turn_on {
                if !self.on.contains(&fid) {
                    self.on.push(fid);
                }
            } else if let Some(pos) = self.on.iter().position(|&f| f == fid) {
                self.on.swap_remove(pos);
            }
        }
    }

    /// The reject rule of Alg. 1 applied to the tentative allocation.
    fn decide(&self, ctx: &SimCtx<'_>, allocs: &[FlowAlloc], new_task: TaskId) -> RejectDecision {
        if self.cfg.policy == RejectPolicy::AlwaysAdmit {
            return RejectDecision::Accept;
        }
        // One pass over the tentative allocation: flow → on-time map (so
        // the ratio computations below are O(1) per flow instead of a
        // linear scan over `allocs`), plus the set of tasks with a
        // deadline-missing flow.
        let mut on_time: BTreeMap<FlowId, bool> = BTreeMap::new();
        let mut missing_tasks: BTreeSet<TaskId> = BTreeSet::new();
        for al in allocs {
            on_time.insert(al.id, al.on_time);
            if !al.on_time {
                missing_tasks.insert(ctx.flow(al.id).spec.task);
            }
        }
        match missing_tasks.len() {
            0 => RejectDecision::Accept,
            1 => {
                // lint: panic-ok(guarded by the len() == 1 match arm)
                let victim = *missing_tasks.first().expect("len == 1");
                if victim == new_task {
                    // Rule 2: the newcomer itself cannot finish whole.
                    return RejectDecision::Reject;
                }
                if self.cfg.policy == RejectPolicy::NeverPreempt {
                    return RejectDecision::Reject;
                }
                // Rule 3: compare completion ratios under the tentative
                // schedule (fraction of each task's flows that make their
                // deadline; completed flows count as made), scaled by the
                // tasks' weights (DCoflow-style σ-order value). The ratio
                // is already demand-normalized (per-flow fraction), so
                // `weight × ratio` orders tasks by schedulable value per
                // unit of demand — low weight-per-byte victims yield
                // first. With both weights at 1.0 this is exactly the
                // paper's unweighted comparison, ties still Reject.
                let victim_value =
                    ctx.task(victim).spec.weight * self.schedulable_ratio(ctx, &on_time, victim);
                let new_value = ctx.task(new_task).spec.weight
                    * self.schedulable_ratio(ctx, &on_time, new_task);
                if victim_value.total_cmp(&new_value).is_ge() {
                    RejectDecision::Reject
                } else {
                    RejectDecision::AcceptWithPreemption(victim)
                }
            }
            _ => RejectDecision::Reject, // Rule 1: more than one task harmed
        }
    }

    fn schedulable_ratio(
        &self,
        ctx: &SimCtx<'_>,
        on_time: &BTreeMap<FlowId, bool>,
        task: TaskId,
    ) -> f64 {
        let (mut total, mut ok) = (0usize, 0usize);
        for fid in ctx.task_flows(task) {
            total += 1;
            match ctx.flow(fid).status {
                FlowStatus::Completed => ok += 1,
                FlowStatus::Admitted if on_time.get(&fid).copied().unwrap_or(false) => ok += 1,
                _ => {}
            }
        }
        if total == 0 {
            1.0
        } else {
            ok as f64 / total as f64 // lint: cast-ok(per-task flow counts are tiny, far below 2^53)
        }
    }

    /// Admits every pending task whose boundary has been reached, in
    /// arrival order (the body of Alg. 1).
    fn process_pending(&mut self, ctx: &mut SimCtx<'_>) {
        while let Some(&task) = self.pending.front() {
            let boundary = self.boundary_slot(ctx.task(task).spec.arrival);
            if slots::to_f64(boundary) * self.cfg.slot > ctx.now() + 1e-9 {
                break;
            }
            self.pending.pop_front();
            let start_slot = boundary.max(self.current_slot(ctx.now()));
            self.admit(ctx, task, start_slot);
        }
    }

    fn admit(&mut self, ctx: &mut SimCtx<'_>, task: TaskId, start_slot: u64) {
        // F_tmp = F_trans ∪ flows(new task). Flows of still-pending later
        // tasks are excluded: they have no schedule yet.
        let mut ftmp: Vec<FlowId> = ctx
            .live_flow_ids()
            .filter(|&fid| {
                let t = ctx.flow(fid).spec.task;
                t == task || !self.pending.contains(&t)
            })
            .collect();
        Self::sort_by_priority(ctx, &mut ftmp);

        // Zero the engine's work counters so the post-allocation delta
        // covers exactly this admission's tentative allocation. Gated on
        // an attached sink: without one the counters are never read, so
        // the hot path skips both bookkeeping calls entirely.
        #[cfg(feature = "obs")]
        if self.trace.is_some() {
            let _ = self.engine.take_counters();
        }
        let (tentative, newcomer_rejected) =
            self.allocate_degrading(ctx, &mut ftmp, start_slot, Some(task));
        #[cfg(feature = "obs")]
        if self.trace.is_some() {
            let c = self.engine.take_counters();
            obs_event!(
                self.trace,
                ctx.now(),
                AllocAttempt {
                    task: obs_id(task),
                    paths_tried: c.paths_tried,
                    slots_scanned: c.slots_scanned
                }
            );
        }
        if newcomer_rejected {
            // The reject rule treats a disconnected newcomer as an
            // immediate rejection; the survivors' re-pack is committed.
            obs_event!(
                self.trace,
                ctx.now(),
                Reject {
                    task: obs_id(task),
                    reason: taps_obs::reason::DISCONNECTED
                }
            );
            self.commit(ctx, tentative);
            self.decisions.push((task, RejectDecision::Reject));
            return;
        }
        let decision = self.decide(ctx, &tentative, task);
        match &decision {
            RejectDecision::Accept => {
                obs_event!(self.trace, ctx.now(), Admit { task: obs_id(task) });
                self.commit(ctx, tentative);
            }
            RejectDecision::AcceptWithPreemption(victim) => {
                obs_event!(
                    self.trace,
                    ctx.now(),
                    Preempt {
                        task: obs_id(task),
                        victim: obs_id(*victim)
                    }
                );
                ctx.discard_task(*victim);
                ftmp.retain(|&fid| ctx.flow(fid).status.is_live());
                let (re, _) = self.allocate_degrading(ctx, &mut ftmp, start_slot, None);
                debug_assert!(
                    re.iter().all(|al| al.on_time),
                    "discarding the victim must clear all deadline misses"
                );
                obs_event!(self.trace, ctx.now(), Admit { task: obs_id(task) });
                self.commit(ctx, re);
            }
            RejectDecision::Reject => {
                #[cfg(feature = "obs")]
                {
                    let reason = if self.cfg.policy == RejectPolicy::NeverPreempt {
                        taps_obs::reason::WOULD_PREEMPT
                    } else {
                        taps_obs::reason::INFEASIBLE
                    };
                    obs_event!(
                        self.trace,
                        ctx.now(),
                        Reject {
                            task: obs_id(task),
                            reason
                        }
                    );
                }
                ctx.reject_task(task);
                ftmp.retain(|&fid| ctx.flow(fid).status.is_live());
                let (re, _) = self.allocate_degrading(ctx, &mut ftmp, start_slot, None);
                self.commit(ctx, re);
            }
        }
        self.decisions.push((task, decision));
    }

    /// Controller recovery after a topology fault (link or switch state
    /// change): re-runs the Alg. 1–3 re-allocation for every in-flight
    /// flow over the *surviving* candidate paths, starting at the next
    /// slot boundary. The dead link's slices are released back to the
    /// timeline implicitly — the engine re-packs every slice from scratch
    /// on each allocation, and the fresh occupancy only ever references
    /// surviving paths. Degradation is per-task rather than global:
    /// disconnected tasks are discarded outright, and under the `Paper`
    /// policy tasks whose flows no longer fit before their deadline are
    /// discarded too (the reject rule applied to the recovery re-pack),
    /// freeing their slots for tasks that can still finish. Under
    /// `NeverPreempt`/`AlwaysAdmit` late flows keep their (late) slices
    /// and miss naturally. Also correct — and useful — after a *repair*:
    /// restored capacity is folded into the very next re-pack.
    pub fn handle_link_failure(&mut self, ctx: &mut SimCtx<'_>) {
        // Absorb the fault epoch into the delta cache before re-packing:
        // the recovery pass then re-searches only the flows whose
        // candidate lists the fault actually touched (their old slots
        // enter the dirty set) and translates the rest, instead of
        // paying a full-pass fallback for every fault.
        self.engine.absorb_fault_epoch(ctx.topo(), &mut self.delta);
        let start_slot = self.boundary_slot(ctx.now());
        let mut ftmp: Vec<FlowId> = ctx
            .live_flow_ids()
            .filter(|&fid| !self.pending.contains(&ctx.flow(fid).spec.task))
            .collect();
        Self::sort_by_priority(ctx, &mut ftmp);
        loop {
            let (allocs, _) = self.allocate_degrading(ctx, &mut ftmp, start_slot, None);
            if self.cfg.policy == RejectPolicy::Paper {
                let doomed: BTreeSet<TaskId> = allocs
                    .iter()
                    .filter(|al| !al.on_time)
                    .map(|al| ctx.flow(al.id).spec.task)
                    .collect();
                if !doomed.is_empty() {
                    for t in &doomed {
                        ctx.discard_task(*t);
                    }
                    ftmp.retain(|&fid| ctx.flow(fid).status.is_live());
                    continue;
                }
            }
            self.commit(ctx, allocs);
            return;
        }
    }
}

impl Default for Taps {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for Taps {
    fn name(&self) -> &'static str {
        "TAPS"
    }

    fn on_task_arrival(&mut self, ctx: &mut SimCtx<'_>, task: TaskId) {
        // Bounded queue: an arrival past the cap is shed at the door with
        // a terminal Reject instead of growing the queue without limit
        // under sustained overload (the flows are discarded so the
        // simulator does not wait on them).
        if self.pending.len() >= self.cfg.pending_cap {
            self.pending_shed += 1;
            obs_event!(
                self.trace,
                ctx.now(),
                SubmitShed {
                    task: obs_id(task),
                    reason: taps_obs::reason::SHED_QUEUE_FULL,
                    depth: obs_id(self.pending.len())
                }
            );
            ctx.reject_task(task);
            self.decisions.push((task, RejectDecision::Reject));
            return;
        }
        // Deferred to the next slot boundary (Alg. 1's batching window);
        // the engine's post-event `assign_rates` call processes aligned
        // arrivals immediately.
        self.pending.push_back(task);
    }

    fn on_flow_deadline(&mut self, _ctx: &mut SimCtx<'_>, _flow: FlowId) -> DeadlineAction {
        // Admitted TAPS flows are scheduled to finish on time; a deadline
        // expiry means quantization slack or preemption — stop.
        DeadlineAction::Stop
    }

    fn on_fault(&mut self, ctx: &mut SimCtx<'_>, event: &FaultEvent) {
        // Controller crash/recovery changes no topology state — the
        // in-simulator scheduler *is* the controller, and the SDN chaos
        // harness models the outage itself — so no re-pack is needed.
        if matches!(
            event.kind,
            taps_flowsim::FaultKind::ControllerDown | taps_flowsim::FaultKind::ControllerUp
        ) {
            return;
        }
        // Failures and repairs alike trigger a full recovery re-pack: a
        // failure must move flows off the dead link, and a repair may
        // resurface shorter paths or freed capacity.
        self.handle_link_failure(ctx);
    }

    fn assign_rates(&mut self, ctx: &mut SimCtx<'_>) {
        self.process_pending(ctx);
        let cur = self.current_slot(ctx.now());
        self.advance_to_slot(cur);
        let mut i = 0;
        while i < self.on.len() {
            let fid = self.on[i];
            let f = ctx.flow(fid);
            if f.status.is_live() {
                let rate = f
                    .route
                    .as_ref()
                    // lint: panic-ok(invariant: commit() installs a route before any slice turns on)
                    .expect("committed flows are routed")
                    .bottleneck(ctx.topo());
                ctx.set_rate(fid, rate);
                i += 1;
            } else {
                // Completed/discarded flows drop out of the active set.
                self.on.swap_remove(i);
            }
        }
    }

    fn next_wake(&mut self, now: f64) -> Option<f64> {
        let cur = self.current_slot(now);
        let mut wake: Option<f64> = None;
        // Pending admission boundary.
        if let Some(&_task) = self.pending.front() {
            let b = cur + 1; // admissions happen on slot boundaries
            wake = Some(slots::to_f64(b) * self.cfg.slot);
        }
        // Next schedule boundary strictly after `now`.
        let mut p = self.ptr;
        while p < self.timeline.len() {
            let slot = self.timeline[p].0;
            if slot > cur {
                let t = slots::to_f64(slot) * self.cfg.slot;
                wake = Some(wake.map_or(t, |w| w.min(t)));
                break;
            }
            p += 1;
        }
        wake
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taps_flowsim::{FlowStatus, SimConfig, Simulation, Workload};
    use taps_topology::build::{dumbbell, fig3_star, GBPS};

    fn taps_unit_slot() -> Taps {
        // 1-second slots to match the motivation examples' time units.
        Taps::with_config(TapsConfig {
            slot: 1.0,
            max_candidate_paths: 8,
            policy: RejectPolicy::Paper,
            ..TapsConfig::default()
        })
    }

    /// Paper Fig. 2(d): TAPS completes both tasks by letting the urgent
    /// later task preempt the schedule (not the tasks).
    #[test]
    fn taps_fig2_completes_both_tasks() {
        let topo = dumbbell(4, 4, GBPS);
        let u = GBPS;
        let wl = Workload::from_tasks(vec![
            (0.0, 4.0, vec![(0, 4, u), (1, 5, u)]),
            (0.0, 2.0, vec![(2, 6, u), (3, 7, u)]),
        ]);
        let mut taps = taps_unit_slot();
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut taps);
        assert_eq!(rep.tasks_completed, 2, "TAPS must complete both tasks");
        assert_eq!(rep.flows_on_time, 4);
        assert_eq!(taps.decisions()[0].1, RejectDecision::Accept);
        assert_eq!(taps.decisions()[1].1, RejectDecision::Accept);
    }

    /// Paper Fig. 1(e): the task-aware schedule completes task 2 entirely
    /// (f21 and f22).
    #[test]
    fn taps_fig1_completes_one_task() {
        let topo = dumbbell(4, 4, GBPS);
        let u = GBPS;
        let wl = Workload::from_tasks(vec![
            (0.0, 4.0, vec![(0, 4, 2.0 * u), (1, 5, 4.0 * u)]),
            (0.0, 4.0, vec![(2, 6, 1.0 * u), (3, 7, 3.0 * u)]),
        ]);
        let mut taps = taps_unit_slot();
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut taps);
        // Total demand is 10 units over a 4-unit horizon: at most one
        // task fits. Task-aware scheduling saves t2 (sizes 1+3 = 4).
        assert_eq!(rep.tasks_completed, 1);
        assert!(rep.task_success[1], "the 4-unit task t2 must be saved");
        // t1 was rejected outright: none of its bytes were transmitted.
        assert_eq!(rep.flow_outcomes[0].delivered, 0.0);
        assert_eq!(rep.flow_outcomes[1].delivered, 0.0);
    }

    /// Paper Fig. 3: global multi-path scheduling completes all 4 flows.
    #[test]
    fn taps_fig3_completes_all_flows() {
        let topo = fig3_star(GBPS);
        let u = GBPS;
        let wl = Workload::from_tasks(vec![
            (0.0, 1.0, vec![(0, 1, u)]),
            (0.0, 2.0, vec![(0, 3, u)]),
            (0.0, 2.0, vec![(2, 1, u)]),
            (0.0, 3.0, vec![(2, 3, 2.0 * u)]),
        ]);
        let mut taps = taps_unit_slot();
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut taps);
        assert_eq!(rep.flows_on_time, 4, "global scheduling completes all");
        assert_eq!(rep.tasks_completed, 4);
    }

    /// An infeasible newcomer is rejected and wastes nothing, leaving the
    /// in-flight task untouched.
    #[test]
    fn taps_rejects_infeasible_newcomer() {
        let topo = dumbbell(2, 2, GBPS);
        let wl = Workload::from_tasks(vec![
            (0.0, 2.0, vec![(0, 2, 2.0 * GBPS)]),
            // Arrives while the link is busy until t=2; needs 2 units by
            // t=2.5 — impossible.
            (0.5, 2.5, vec![(1, 3, 2.0 * GBPS)]),
        ]);
        let mut taps = taps_unit_slot();
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut taps);
        assert_eq!(rep.tasks_completed, 1);
        assert!(rep.task_success[0]);
        assert_eq!(rep.flow_outcomes[1].status, FlowStatus::Rejected);
        assert_eq!(rep.flow_outcomes[1].delivered, 0.0);
        assert_eq!(taps.decisions()[1].1, RejectDecision::Reject);
    }

    /// A newcomer may preempt (discard) an in-flight task when the
    /// tentative EDF/SJF schedule pushes only that task past its deadline
    /// and the newcomer's schedulable ratio is higher.
    #[test]
    fn taps_preempts_lax_victim_for_urgent_newcomer() {
        let topo = dumbbell(2, 2, GBPS);
        let wl = Workload::from_tasks(vec![
            // Victim: 4 units due at 4.5 — only barely feasible (slack
            // 0.5 < 1 slot), so losing a single slot to the newcomer
            // breaks it.
            (0.0, 4.5, vec![(0, 2, 4.0 * GBPS)]),
            // Urgent newcomer on the same bottleneck: 1 unit due at 3.
            (1.0, 3.0, vec![(1, 3, 1.0 * GBPS)]),
        ]);
        let mut taps = taps_unit_slot();
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut taps);
        assert_eq!(
            taps.decisions()[1].1,
            RejectDecision::AcceptWithPreemption(0)
        );
        assert!(rep.task_success[1]);
        assert!(!rep.task_success[0]);
        assert_eq!(rep.flow_outcomes[0].status, FlowStatus::Discarded);
        // The victim transmitted for 1 s before being discarded: wasted.
        assert!((rep.bytes_wasted_flow - GBPS).abs() < 1e3);
    }

    /// With `NeverPreempt`, the same scenario rejects the newcomer.
    #[test]
    fn never_preempt_policy_rejects_newcomer_instead() {
        let topo = dumbbell(2, 2, GBPS);
        let wl = Workload::from_tasks(vec![
            (0.0, 4.5, vec![(0, 2, 4.0 * GBPS)]),
            (1.0, 3.0, vec![(1, 3, 1.0 * GBPS)]),
        ]);
        let mut taps = Taps::with_config(TapsConfig {
            slot: 1.0,
            policy: RejectPolicy::NeverPreempt,
            ..TapsConfig::default()
        });
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut taps);
        assert_eq!(taps.decisions()[1].1, RejectDecision::Reject);
        assert!(rep.task_success[0]);
        assert_eq!(rep.flow_outcomes[1].status, FlowStatus::Rejected);
    }

    /// With `AlwaysAdmit`, doomed flows run and waste bandwidth.
    #[test]
    fn always_admit_policy_wastes_bandwidth() {
        let topo = dumbbell(2, 2, GBPS);
        let wl = Workload::from_tasks(vec![
            (0.0, 2.0, vec![(0, 2, 2.0 * GBPS)]),
            (0.5, 2.5, vec![(1, 3, 2.0 * GBPS)]),
        ]);
        let mut taps = Taps::with_config(TapsConfig {
            slot: 1.0,
            policy: RejectPolicy::AlwaysAdmit,
            ..TapsConfig::default()
        });
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut taps);
        // The second task was admitted, transmitted something, and missed.
        assert!(rep.bytes_wasted_flow > 0.0);
        assert_eq!(rep.tasks_completed, 1);
    }

    /// Re-allocation on arrival preserves in-flight progress: an admitted
    /// task is re-packed, not restarted.
    #[test]
    fn reallocation_keeps_delivered_bytes() {
        let topo = dumbbell(2, 2, GBPS);
        let wl = Workload::from_tasks(vec![
            (0.0, 6.0, vec![(0, 2, 2.0 * GBPS)]),
            (1.0, 6.0, vec![(1, 3, 1.0 * GBPS)]),
        ]);
        let mut taps = taps_unit_slot();
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut taps);
        assert_eq!(rep.tasks_completed, 2);
        // Flow 0 ran [0,1) before the arrival; after re-packing it needs
        // only 1 more unit: total delivered equals its size exactly.
        assert!((rep.flow_outcomes[0].delivered - 2.0 * GBPS).abs() < 1e3);
    }

    /// Mid-slot arrivals wait for the boundary; in-flight flows keep
    /// their partial-slot progress.
    #[test]
    fn mid_slot_arrival_does_not_strand_progress() {
        let topo = dumbbell(2, 2, GBPS);
        let wl = Workload::from_tasks(vec![
            // Exactly fills [0, 2): any lost partial slot would miss.
            (0.0, 2.0, vec![(0, 2, 2.0 * GBPS)]),
            (0.5, 10.0, vec![(1, 3, 1.0 * GBPS)]),
        ]);
        let mut taps = taps_unit_slot();
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut taps);
        assert!(rep.task_success[0], "in-flight task must not lose progress");
        assert!(rep.task_success[1]);
        // The newcomer was admitted at the t=1 boundary and ran after.
        assert!(rep.flow_outcomes[1].finish.unwrap() >= 2.0 - 1e-9);
    }

    /// A full pending queue sheds overflow arrivals as Rejects and counts
    /// them, instead of growing without bound.
    #[test]
    fn pending_cap_sheds_overflow_arrivals() {
        let topo = dumbbell(4, 4, GBPS);
        let u = GBPS;
        // Four tasks arrive in the same instant; they batch into one event
        // round, so with a cap of 1 only the first can queue.
        let wl = Workload::from_tasks(vec![
            (0.0, 4.0, vec![(0, 4, u)]),
            (0.0, 4.0, vec![(1, 5, u)]),
            (0.0, 4.0, vec![(2, 6, u)]),
            (0.0, 4.0, vec![(3, 7, u)]),
        ]);
        let mut taps = Taps::with_config(TapsConfig {
            slot: 1.0,
            pending_cap: 1,
            ..TapsConfig::default()
        });
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut taps);
        assert_eq!(
            taps.pending_shed_total(),
            3,
            "three arrivals overflow the cap"
        );
        let rejects = taps
            .decisions()
            .iter()
            .filter(|(_, d)| *d == RejectDecision::Reject)
            .count();
        assert!(rejects >= 3, "shed tasks are recorded as Rejects");
        assert_eq!(rep.tasks_completed, 1, "only the queued task is admitted");
        // A generous cap admits everything in the identical workload.
        let mut roomy = Taps::with_config(TapsConfig {
            slot: 1.0,
            ..TapsConfig::default()
        });
        let rep2 = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut roomy);
        assert_eq!(roomy.pending_shed_total(), 0);
        assert!(rep2.tasks_completed >= 1);
    }

    /// Fine slots at data-center scale: a realistic mini-workload runs
    /// with the default 0.1 ms slot.
    #[test]
    fn default_config_runs_realistic_sizes() {
        let topo = dumbbell(4, 4, GBPS);
        // 200 kB flows, 40 ms deadlines — the paper's defaults.
        let wl = Workload::from_tasks(vec![
            (0.0, 0.040, vec![(0, 4, 200_000.0), (1, 5, 200_000.0)]),
            (0.004, 0.044, vec![(2, 6, 200_000.0), (3, 7, 200_000.0)]),
        ]);
        let mut taps = Taps::new();
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut taps);
        // 4 x 200 kB over a 1 Gbps bottleneck is 6.4 ms of traffic with a
        // 40 ms budget: everything completes.
        assert_eq!(rep.tasks_completed, 2);
        assert_eq!(rep.flows_on_time, 4);
    }
}
