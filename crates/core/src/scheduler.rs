//! The flowsim adapter of Alg. 1: [`Taps`] translates between the
//! simulator's `SimCtx` and the [`Arbiter`](crate::arbiter::Arbiter),
//! which owns the tentative pass, the reject rule and the re-pack. What
//! lives here is what only a simulated controller needs: the batching
//! window, the bounded pending queue, and slice-driven transmission.
//!
//! Admission is processed at the **next slot boundary** after a task
//! arrives. This implements Alg. 1's "wait time T" batching window
//! (T ≤ one slot: tasks arriving within the same slot are decided
//! together, in arrival order) and guarantees that re-allocation never
//! costs an in-flight flow its partial-slot progress: flows keep
//! transmitting under the old schedule until the boundary, and the
//! re-pack starts exactly there.

use crate::alloc::FlowAlloc;
use crate::arbiter::{
    Arbiter, ChangeSet, Dropped, InFlight, RejectDecision, RejectPolicy, Standing,
};
use std::collections::VecDeque;
use taps_flowsim::{DeadlineAction, FaultEvent, FlowId, FlowStatus, Scheduler, SimCtx, TaskId};
use taps_obs::{obs_event, obs_id};

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

/// The TAPS scheduler (the paper's §IV-C controller, simulated).
pub struct Taps {
    cfg: TapsConfig,
    /// Alg. 1 and the committed schedule. Its F_tmp is rebuilt from the
    /// simulator's live flows at every admission: flowsim flows progress
    /// continuously, so every transmitting flow would re-key between two
    /// arrivals anyway.
    arbiter: Arbiter,
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
    /// Structured trace sink for shed and commit events; `None` keeps the
    /// hooks dormant.
    trace: Option<std::sync::Arc<dyn taps_obs::TraceSink>>,
    /// Monotonic generation stamped on `CommitBegin`/`CommitEnd` events.
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
        let arbiter = Arbiter::new(cfg.slot, cfg.max_candidate_paths, cfg.policy);
        Taps {
            cfg,
            arbiter,
            timeline: Vec::new(),
            ptr: 0,
            on: Vec::new(),
            pending: VecDeque::new(),
            pending_shed: 0,
            decisions: Vec::new(),
            trace: None,
            commit_gen: 0,
        }
    }

    /// Installs a structured trace sink: admission decisions, allocation
    /// work counters, and full commit bursts are emitted to it from now
    /// on.
    pub fn set_trace_sink(&mut self, sink: std::sync::Arc<dyn taps_obs::TraceSink>) {
        self.arbiter.set_trace_sink(std::sync::Arc::clone(&sink));
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
        self.arbiter.committed(flow)
    }

    #[inline]
    fn current_slot(&self, now: f64) -> u64 {
        self.arbiter.clock().slot_of(now)
    }

    /// F_tmp = F_trans ∪ flows(new task): every live flow except those of
    /// still-pending later tasks, which have no schedule yet (the task
    /// being admitted has already left the queue).
    fn load_ftmp(&mut self, ctx: &SimCtx<'_>) {
        let pending = &self.pending;
        self.arbiter.ftmp.load(ctx.live_flow_ids().filter_map(|id| {
            let f = ctx.flow(id);
            (!pending.contains(&f.spec.task)).then(|| InFlight {
                id,
                task: f.spec.task,
                src: f.spec.src,
                dst: f.spec.dst,
                remaining: f.remaining(),
                deadline: f.spec.deadline,
            })
        }));
    }

    /// Applies the arbiter's drops to the simulation: the newcomer is
    /// rejected (it never transmitted), any other task discarded.
    fn apply_drops(ctx: &mut SimCtx<'_>, dropped: &[Dropped], newcomer: Option<TaskId>) {
        for d in dropped {
            if newcomer == Some(d.task) {
                ctx.reject_task(d.task);
            } else {
                ctx.discard_task(d.task);
            }
        }
    }

    /// Commits allocations through the arbiter, which validates them
    /// first — every admission, reject and preemption outcome — then
    /// routes the new and re-routed flows and rebuilds the boundary
    /// timeline. `allocs` is what the arbiter's last pass returned. A
    /// kept flow's route is already the one it was routed on: routes are
    /// only cleared when a flow retires, and a retired flow is never in
    /// a pass again.
    fn commit(&mut self, ctx: &mut SimCtx<'_>, allocs: Vec<FlowAlloc>) {
        let changes = self.arbiter.commit(ctx.topo(), allocs, false);
        self.emit_commit_trace(ctx.now(), &changes);
        let pass = self.arbiter.committed_pass();
        for &rank in &changes.fresh {
            ctx.set_route(pass[rank].id, pass[rank].path.clone());
        }
        self.rebuild_timeline(ctx.now());
    }

    /// Emits the trace burst for one commit: `GrantRevoked` for every
    /// flow whose previous schedule does not survive into the new pass
    /// (preemption victims, doomed/disconnected discards, finished
    /// flows), then a full grant snapshot — `GrantIssued` plus its
    /// `GrantHop`/`GrantSlice` details per flow — bracketed by
    /// `CommitBegin`/`CommitEnd`.
    fn emit_commit_trace(&mut self, now: f64, changes: &ChangeSet) {
        if self.trace.is_none() {
            return;
        }
        let gen = self.commit_gen;
        self.commit_gen += 1;
        for w in changes.withdrawn.iter().filter(|w| w.departed) {
            let fid = changes.prev[w.rank].id;
            obs_event!(self.trace, now, GrantRevoked { flow: obs_id(fid) });
        }
        let pass = self.arbiter.committed_pass();
        obs_event!(
            self.trace,
            now,
            CommitBegin {
                gen,
                flows: obs_id(pass.len())
            }
        );
        for al in pass {
            self.arbiter.trace_grant(now, al, 0, gen);
        }
        obs_event!(self.trace, now, CommitEnd { gen });
    }

    fn rebuild_timeline(&mut self, now: f64) {
        self.timeline.clear();
        for al in self.arbiter.committed_pass() {
            for iv in al.slices.intervals() {
                self.timeline.push((iv.start, al.id, true));
                self.timeline.push((iv.end, al.id, false));
            }
        }
        // Sort by slot; "off" (false) before "on" so back-to-back slices
        // of different flows hand over cleanly at the boundary. The key
        // is the whole entry, so the order the pass lists flows in does
        // not matter.
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

    /// Admits every pending task whose boundary has been reached, in
    /// arrival order.
    fn process_pending(&mut self, ctx: &mut SimCtx<'_>) {
        while let Some(&task) = self.pending.front() {
            let clock = self.arbiter.clock();
            let boundary = clock.slot_at(ctx.task(task).spec.arrival);
            if !clock.reached(boundary, ctx.now()) {
                break;
            }
            self.pending.pop_front();
            let start_slot = boundary.max(self.current_slot(ctx.now()));
            self.admit(ctx, task, start_slot);
        }
    }

    /// One arrival through Alg. 1. Rule 3 weighs a task by its workload
    /// weight and, beyond the flows in F_tmp, by its finished flows — of
    /// which the completed ones count as made.
    fn admit(&mut self, ctx: &mut SimCtx<'_>, task: TaskId, start_slot: u64) {
        self.load_ftmp(ctx);
        let view = &*ctx;
        let settled = |t: TaskId| {
            let status = |f: FlowId| view.flow(f).status;
            Standing {
                weight: view.task(t).spec.weight,
                flows_total: view.task_flows(t).filter(|&f| !status(f).is_live()).count(),
                flows_made: view
                    .task_flows(t)
                    .filter(|&f| status(f) == FlowStatus::Completed)
                    .count(),
            }
        };
        let admission = self
            .arbiter
            .admit(ctx.topo(), ctx.now(), start_slot, task, settled);
        debug_assert!(
            !matches!(admission.decision, RejectDecision::AcceptWithPreemption(_))
                || admission.allocs.iter().all(|al| al.on_time),
            "discarding the victim must clear all deadline misses"
        );
        Self::apply_drops(ctx, &admission.dropped, Some(task));
        self.commit(ctx, admission.allocs);
        self.decisions.push((task, admission.decision));
    }

    /// Controller recovery after a topology fault or repair: re-packs
    /// every in-flight flow over the *surviving* candidate paths from the
    /// next slot boundary ([`Arbiter::repack`]). A dead link's slices are
    /// released implicitly — every pass re-packs from scratch over paths
    /// that survive — and restored capacity is folded in the same way.
    pub fn handle_link_failure(&mut self, ctx: &mut SimCtx<'_>) {
        self.load_ftmp(ctx);
        let start_slot = self.arbiter.clock().slot_at(ctx.now());
        let (allocs, dropped) = self.arbiter.repack(ctx.topo(), start_slot);
        Self::apply_drops(ctx, &dropped, None);
        self.commit(ctx, allocs);
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
                #[expect(
                    clippy::expect_used,
                    reason = "invariant: commit() installs a route before any slice turns on"
                )]
                let rate = f
                    .route
                    .as_ref()
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
        let clock = self.arbiter.clock();
        let cur = clock.slot_of(now);
        let mut wake: Option<f64> = None;
        // Pending admission boundary.
        if let Some(&_task) = self.pending.front() {
            let b = cur + 1; // admissions happen on slot boundaries
            wake = Some(clock.start(b));
        }
        // Next schedule boundary strictly after `now`.
        let mut p = self.ptr;
        while p < self.timeline.len() {
            let slot = self.timeline[p].0;
            if slot > cur {
                let t = clock.start(slot);
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
