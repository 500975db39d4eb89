//! Alg. 1 — the one arbiter both controllers run (DESIGN.md §3).
//!
//! The paper has a single controller loop: `F_tmp = F_trans ∪ new flows`
//! in EDF → SJF order, one tentative Alg. 2/3 pass over it, the reject
//! rule (Rules 1–3), and a re-pack without whichever task lost. This
//! module is that loop and everything it owns: F_tmp, the allocation
//! engine with its delta cache and demand buffer, per-task degradation
//! on disconnection, the pure rule [`decide`], the recovery re-pack, the
//! commit — validator, committed pass and its diff against the one
//! before — and the decision / grant trace events. The flowsim scheduler
//! ([`crate::Taps`]) and the SDN controller are adapters: neither has a
//! rule, a degradation loop, a validator call or a schedule of its own.

use crate::alloc::{AllocEngine, AllocError, FlowAlloc, FlowDemand};
use crate::delta::DeltaCache;
use std::cmp::Ordering;
use taps_obs::{obs_event, obs_id};
use taps_topology::Topology;

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

/// Outcome of the reject rule for one arrival.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectDecision {
    /// Task admitted; no in-flight task was harmed.
    Accept,
    /// Task admitted after discarding the given victim task.
    AcceptWithPreemption(usize),
    /// Task rejected (in-flight schedule re-packed without it).
    Reject,
}

/// What Rule 3 weighs for one task: its weight and how many of its flows
/// make their deadline under the tentative schedule (completed flows
/// count as made).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Standing {
    /// The task's weight (DCoflow-style σ-order value; 1.0 = the paper's
    /// unweighted rule).
    pub weight: f64,
    /// All flows of the task.
    pub flows_total: usize,
    /// Flows already completed or landing on time in the tentative pass.
    pub flows_made: usize,
}

impl Standing {
    /// `weight × schedulable ratio`. The ratio is already
    /// demand-normalized (a per-flow fraction), so this orders tasks by
    /// schedulable value per unit of demand — low weight-per-byte victims
    /// yield first.
    #[expect(
        clippy::as_conversions,
        reason = "per-task flow counts are tiny, far below 2^53"
    )]
    fn value(&self) -> f64 {
        if self.flows_total == 0 {
            return self.weight;
        }
        self.weight * (self.flows_made as f64 / self.flows_total as f64)
    }
}

/// The reject rule of Alg. 1, pure: `late` lists the distinct tasks
/// owning a flow the tentative pass lands past its deadline.
///
/// * nobody late — accept;
/// * Rule 1, more than one task harmed — reject;
/// * Rule 2, the newcomer itself cannot finish whole — reject;
/// * Rule 3, one in-flight victim — compare `weight × schedulable ratio`
///   of victim and newcomer: the victim is preempted only when its value
///   is strictly lower (ties reject). With both weights at 1.0 this is
///   the paper's unweighted comparison, and it always preempts: the
///   victim has a late flow (ratio < 1) and the newcomer none (ratio 1).
///
/// `NeverPreempt` turns Rule 3 into a rejection; `AlwaysAdmit` skips the
/// rule. `standing` is only consulted in the Rule 3 branch.
pub fn decide(
    late: &[usize],
    newcomer: usize,
    policy: RejectPolicy,
    standing: impl Fn(usize) -> Standing,
) -> RejectDecision {
    if policy == RejectPolicy::AlwaysAdmit {
        return RejectDecision::Accept;
    }
    match *late {
        [] => RejectDecision::Accept,
        [victim] if victim != newcomer && policy == RejectPolicy::Paper => {
            let (victim_value, new_value) = (standing(victim).value(), standing(newcomer).value());
            if victim_value.total_cmp(&new_value).is_ge() {
                RejectDecision::Reject
            } else {
                RejectDecision::AcceptWithPreemption(victim)
            }
        }
        _ => RejectDecision::Reject,
    }
}

/// One in-flight flow, as Alg. 1 orders it and Alg. 2/3 consume it.
#[derive(Clone, Debug, PartialEq)]
pub struct InFlight {
    /// Flow id (the allocation's [`FlowAlloc::id`]).
    pub id: usize,
    /// Owning task.
    pub task: usize,
    /// Source host index.
    pub src: usize,
    /// Destination host index.
    pub dst: usize,
    /// Bytes still to deliver, unclamped: the SJF key (the demand handed
    /// to Alg. 2/3 is this clamped to at least one byte).
    pub remaining: f64,
    /// Absolute deadline, seconds.
    pub deadline: f64,
}

impl InFlight {
    /// F_tmp's order: EDF, then SJF, then flow id (`total_cmp`: a NaN
    /// deadline or size can neither panic nor unsort the index — it
    /// orders after every real number, i.e. lowest priority).
    pub fn order(&self, other: &InFlight) -> Ordering {
        self.deadline
            .total_cmp(&other.deadline)
            .then_with(|| self.remaining.total_cmp(&other.remaining))
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// F_tmp (DESIGN.md §7): the in-flight flows, kept sorted by
/// [`InFlight::order`]. It is the only structure a tentative pass
/// iterates, so one admission costs what its in-flight set costs however
/// much history the caller remembers. A caller that keeps its own flow
/// records (the SDN controller's registry) updates the index in the same
/// breath as every record that enters, leaves or re-keys; a caller with
/// no records of its own (flowsim) [`load`](Self::load)s it afresh.
#[derive(Debug, Default)]
pub struct InFlightIndex {
    order: Vec<InFlight>,
    writes: usize,
}

impl InFlightIndex {
    /// The entries, in F_tmp order.
    pub fn entries(&self) -> &[InFlight] {
        &self.order
    }

    /// Entries written since the index was made: one per flow
    /// [`load`](Self::load)ed, [`insert`](Self::insert)ed or
    /// [`rekey`](Self::rekey)ed. No decision reads it; it lets a test see
    /// what one call costs the index without a clock.
    pub fn writes(&self) -> usize {
        self.writes
    }

    /// Replaces the whole index with `flows`, sorted.
    pub fn load(&mut self, flows: impl IntoIterator<Item = InFlight>) {
        self.order.clear();
        self.order.extend(flows);
        self.order.sort_unstable_by(InFlight::order);
        self.writes += self.order.len();
    }

    /// Adds one flow at its place in the order.
    pub fn insert(&mut self, e: InFlight) {
        let at = self
            .order
            .partition_point(|x| x.order(&e) == Ordering::Less);
        self.order.insert(at, e);
        self.writes += 1;
    }

    /// Removes the entry equal to `key` (the flow's current id, remaining
    /// bytes and deadline).
    pub fn remove(&mut self, key: &InFlight) {
        match self.order.binary_search_by(|x| x.order(key)) {
            Ok(at) => {
                self.order.remove(at);
            }
            #[expect(
                clippy::unreachable,
                reason = "invariant: an in-flight flow is indexed under the key its caller's record yields"
            )]
            Err(_) => unreachable!("in-flight index lost flow {}", key.id),
        }
    }

    /// Moves the entry equal to `old` to where `new` — the same flow with
    /// a new remaining size — sorts.
    pub fn rekey(&mut self, old: &InFlight, new: InFlight) {
        self.remove(old);
        self.insert(new);
    }

    /// Removes every entry matching `gone`; returns the removed flow
    /// ids in index order.
    pub fn take_where(&mut self, gone: impl Fn(&InFlight) -> bool) -> Vec<usize> {
        let mut taken = Vec::new();
        self.order.retain(|e| {
            let gone = gone(e);
            if gone {
                taken.push(e.id);
            }
            !gone
        });
        taken
    }
}

/// A task the arbiter removed from F_tmp while deciding: disconnected by
/// a fault, preempted as the rule's victim, doomed in a recovery re-pack,
/// or the rejected newcomer itself. The caller applies it to its own
/// records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dropped {
    /// The task.
    pub task: usize,
    /// Its flows that were in flight, in F_tmp order.
    pub flows: Vec<usize>,
}

/// A committed flow whose route goes away: its rank in
/// [`ChangeSet::prev`], and whether the flow left the schedule or stays
/// in it on another path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Withdrawal {
    /// Rank of the flow's allocation in [`ChangeSet::prev`].
    pub rank: usize,
    /// The flow is not in the new pass (finished, dropped, or the
    /// newcomer of a rejected task); otherwise it was re-routed.
    pub departed: bool,
}

/// What [`Arbiter::commit`] changed: one id-ordered merge of the
/// previous committed pass with the new one. A flow in both on the same
/// path is *kept* and appears in neither list.
#[derive(Debug)]
pub struct ChangeSet {
    /// The previously committed pass, in its F_tmp order.
    pub prev: Vec<FlowAlloc>,
    /// Re-routed and departed flows, ascending id: the routes to
    /// withdraw.
    pub withdrawn: Vec<Withdrawal>,
    /// Ranks into the new pass ([`Arbiter::committed_pass`]) of the new
    /// and re-routed flows, ascending — priority order: the routes to
    /// install.
    pub fresh: Vec<usize>,
}

/// The result of [`Arbiter::admit`].
#[derive(Debug)]
pub struct Admission {
    /// The rule's decision for the newcomer.
    pub decision: RejectDecision,
    /// The schedule to commit: the last pass over what is left of F_tmp,
    /// in its order.
    pub allocs: Vec<FlowAlloc>,
    /// Every task that left F_tmp on the way.
    pub dropped: Vec<Dropped>,
}

/// The Alg. 1 state machine. See the module docs.
pub struct Arbiter {
    /// F_tmp. The caller keeps it current between calls.
    pub ftmp: InFlightIndex,
    policy: RejectPolicy,
    /// Persistent Alg. 2/3 engine and its cross-admission delta cache:
    /// buffers, candidate paths and undisturbed flows' slices survive
    /// from pass to pass instead of being rebuilt per arrival.
    engine: AllocEngine,
    delta: DeltaCache,
    /// The demands of the most recent pass, in F_tmp order: what
    /// [`Self::commit`] validates that pass's allocation against.
    demands: Vec<FlowDemand>,
    /// The committed pass, in F_tmp order as of its commit.
    committed: Vec<FlowAlloc>,
    /// `(flow id, rank in committed)` of every committed flow not
    /// forgotten since, sorted by id.
    committed_index: Vec<(usize, usize)>,
    trace: Option<std::sync::Arc<dyn taps_obs::TraceSink>>,
}

impl Arbiter {
    /// An arbiter with an empty F_tmp, bound to no topology yet.
    pub fn new(slot: f64, max_candidate_paths: usize, policy: RejectPolicy) -> Self {
        Arbiter {
            ftmp: InFlightIndex::default(),
            policy,
            engine: AllocEngine::new(slot, max_candidate_paths),
            delta: DeltaCache::new(),
            demands: Vec::new(),
            committed: Vec::new(),
            committed_index: Vec::new(),
            trace: None,
        }
    }

    /// Routes `AllocAttempt` / `Admit` / `Preempt` / `Reject` and grant
    /// events to `sink`.
    pub fn set_trace_sink(&mut self, sink: std::sync::Arc<dyn taps_obs::TraceSink>) {
        self.trace = Some(sink);
    }

    /// The engine's clock: every conversion between seconds and slots.
    pub fn clock(&self) -> taps_timeline::Clock {
        self.engine.clock()
    }

    /// One tentative Alg. 2/3 run over F_tmp, in its order, from a clean
    /// occupancy state; the allocations come back in that same order.
    /// No degradation: a disconnected flow fails the pass.
    fn tentative(
        &mut self,
        topo: &Topology,
        start_slot: u64,
    ) -> Result<Vec<FlowAlloc>, AllocError> {
        self.demands.clear();
        self.demands
            .extend(self.ftmp.order.iter().map(|e| FlowDemand {
                id: e.id,
                src: e.src,
                dst: e.dst,
                remaining: e.remaining.max(1.0),
                deadline: e.deadline,
            }));
        // Binds the topology and resets occupancy itself; bit-identical
        // to a full `allocate_batch` (cross-checked in debug builds).
        self.engine
            .allocate_batch_delta(topo, &self.demands, start_slot, &mut self.delta)
    }

    /// Removes `task` from F_tmp.
    fn take_task(&mut self, task: usize) -> Dropped {
        Dropped {
            task,
            flows: self.ftmp.take_where(|e| e.task == task),
        }
    }

    /// Tentative pass with per-task degradation: when a flow's endpoints
    /// have no surviving path (possible under link/switch faults), its
    /// whole task is dropped and the pass re-runs over the remainder
    /// instead of failing globally — whatever the reject policy: a task
    /// without a path cannot transmit, so dropping it is a statement of
    /// fact, not a preemption choice. Returns the first complete
    /// allocation and whether `newcomer` was among the dropped.
    fn allocate_degrading(
        &mut self,
        topo: &Topology,
        start_slot: u64,
        newcomer: Option<usize>,
        dropped: &mut Vec<Dropped>,
    ) -> (Vec<FlowAlloc>, bool) {
        let mut newcomer_cut = false;
        // lint: l5-ok(each iteration gives up one disconnected task, so at most one pass per task in F_tmp)
        loop {
            match self.tentative(topo, start_slot) {
                Ok(allocs) => return (allocs, newcomer_cut),
                Err(AllocError::Disconnected { flow }) => {
                    let owner = self.ftmp.order.iter().find(|e| e.id == flow);
                    #[expect(
                        clippy::expect_used,
                        reason = "invariant: the pass only sees demands built from F_tmp"
                    )]
                    let task = owner.expect("disconnected flow is in F_tmp").task;
                    newcomer_cut |= newcomer == Some(task);
                    dropped.push(self.take_task(task));
                }
            }
        }
    }

    /// The distinct tasks owning a flow that `allocs` — one pass over
    /// F_tmp, hence in its order — lands late, in first-miss order.
    fn late_tasks(&self, allocs: &[FlowAlloc]) -> Vec<usize> {
        debug_assert_eq!(allocs.len(), self.ftmp.order.len());
        let mut late: Vec<usize> = Vec::new();
        for (al, e) in allocs.iter().zip(&self.ftmp.order) {
            debug_assert_eq!(al.id, e.id);
            if !al.on_time && !late.contains(&e.task) {
                late.push(e.task);
            }
        }
        late
    }

    /// The body of Alg. 1 for one arrival whose flows the caller has
    /// already put into F_tmp: tentative pass → reject rule → drop the
    /// victim or the newcomer → second pass. A newcomer a fault
    /// disconnected is rejected outright, whatever the policy, and the
    /// survivors' pass is the schedule. `settled` is a task's weight and
    /// its flows *outside* F_tmp (all, and the completed ones); the
    /// tentative pass adds the in-flight flows and those it lands on time
    /// to make the [`Standing`] Rule 3 weighs.
    ///
    /// Trace order: `AllocAttempt` for the first degrading pass, then
    /// `Admit`, `Preempt` + `Admit`, or `Reject` with its reason; the
    /// second pass is silent.
    // lint: l7-ok(allocation-layer primitive below the validation boundary: both callers commit the returned batch through Arbiter::commit, which validates it, before exposing it)
    pub fn admit(
        &mut self,
        topo: &Topology,
        now: f64,
        start_slot: u64,
        newcomer: usize,
        settled: impl Fn(usize) -> Standing,
    ) -> Admission {
        let mut dropped = Vec::new();
        // Zero the engine's work counters so the post-pass reading covers
        // exactly this admission's tentative allocation. Gated on an
        // attached sink: without one the counters are never read, so the
        // hot path skips both bookkeeping calls.
        if self.trace.is_some() {
            let _ = self.engine.take_counters();
        }
        let (tentative, newcomer_cut) =
            self.allocate_degrading(topo, start_slot, Some(newcomer), &mut dropped);
        if self.trace.is_some() {
            let c = self.engine.take_counters();
            obs_event!(
                self.trace,
                now,
                AllocAttempt {
                    task: obs_id(newcomer),
                    paths_tried: c.paths_tried,
                    slots_scanned: c.slots_scanned
                }
            );
        }
        let decision = if newcomer_cut {
            RejectDecision::Reject
        } else {
            let late = self.late_tasks(&tentative);
            decide(&late, newcomer, self.policy, |task| {
                let mut s = settled(task);
                for (al, e) in tentative.iter().zip(&self.ftmp.order) {
                    if e.task == task {
                        s.flows_total += 1;
                        s.flows_made += usize::from(al.on_time);
                    }
                }
                s
            })
        };
        // Who leaves F_tmp before the second pass (a disconnected
        // newcomer already has).
        let loser = match decision {
            RejectDecision::Accept => None,
            RejectDecision::AcceptWithPreemption(victim) => {
                obs_event!(
                    self.trace,
                    now,
                    Preempt {
                        task: obs_id(newcomer),
                        victim: obs_id(victim)
                    }
                );
                Some(victim)
            }
            RejectDecision::Reject => {
                let reason = if newcomer_cut {
                    taps_obs::reason::DISCONNECTED
                } else if self.policy == RejectPolicy::NeverPreempt {
                    taps_obs::reason::WOULD_PREEMPT
                } else {
                    taps_obs::reason::INFEASIBLE
                };
                obs_event!(
                    self.trace,
                    now,
                    Reject {
                        task: obs_id(newcomer),
                        reason
                    }
                );
                (!newcomer_cut).then_some(newcomer)
            }
        };
        if decision != RejectDecision::Reject {
            obs_event!(
                self.trace,
                now,
                Admit {
                    task: obs_id(newcomer)
                }
            );
        }
        let allocs = match loser {
            None => tentative,
            Some(task) => {
                dropped.push(self.take_task(task));
                self.allocate_degrading(topo, start_slot, None, &mut dropped)
                    .0
            }
        };
        Admission {
            decision,
            allocs,
            dropped,
        }
    }

    /// Recovery re-pack after a topology fault or repair (or a failover):
    /// re-runs Alg. 2/3 for every in-flight flow over the *surviving*
    /// candidate paths, degrading per task rather than globally.
    /// Disconnected tasks are dropped outright, and under the `Paper`
    /// policy so are tasks whose flows no longer fit before their
    /// deadline (the reject rule applied to the re-pack), freeing their
    /// slots for tasks that can still finish; under `NeverPreempt` /
    /// `AlwaysAdmit` late flows keep their slices and miss naturally.
    // lint: l7-ok(allocation-layer primitive below the validation boundary: both callers commit the returned batch through Arbiter::commit, which validates it, before exposing it)
    pub fn repack(&mut self, topo: &Topology, start_slot: u64) -> (Vec<FlowAlloc>, Vec<Dropped>) {
        // Absorb a fault epoch into the delta cache first (a no-op when
        // it did not move): the re-pack then re-searches only the flows
        // whose candidate lists the fault touched, instead of paying a
        // full-pass fallback.
        self.engine.absorb_fault_epoch(topo, &mut self.delta);
        let mut dropped = Vec::new();
        // lint: l5-ok(each iteration drops at least one doomed task; terminates once the remainder fits)
        loop {
            let (allocs, _) = self.allocate_degrading(topo, start_slot, None, &mut dropped);
            if self.policy == RejectPolicy::Paper {
                let doomed = self.late_tasks(&allocs);
                if !doomed.is_empty() {
                    for task in doomed {
                        dropped.push(self.take_task(task));
                    }
                    continue;
                }
            }
            return (allocs, dropped);
        }
    }

    /// Commits `allocs` — the allocation the most recent pass returned —
    /// as the committed pass and returns what changed against the one
    /// before.
    ///
    /// First the commit-time validator checks the whole schedule against
    /// its invariants (link-exclusivity, demand-conservation, deadline
    /// consistency, full slot release) and panics with the structured
    /// report on a violation; it runs in debug/test builds, or in any
    /// build when `force` is set. Then one merge of the old and new
    /// `(id, rank)` indexes, in id order, sorts every flow into kept (same
    /// path), re-routed, departed or new; kept flows cost one path
    /// comparison. The new index is the delta cache's, which sorted it
    /// for the pass it just installed.
    pub fn commit(&mut self, topo: &Topology, allocs: Vec<FlowAlloc>, force: bool) -> ChangeSet {
        if force || cfg!(debug_assertions) {
            let mut report = crate::validate::check_schedule(
                topo,
                self.engine.slot_duration(),
                &self.demands,
                &allocs,
                "commit: schedule",
            );
            report.violations.extend(
                crate::validate::check_occupancy(topo, &self.engine, &allocs, "commit: occupancy")
                    .violations,
            );
            assert!(report.is_clean(), "{report}");
        }
        let index = self.delta.index();
        debug_assert!(
            index.len() == allocs.len()
                && index.windows(2).all(|w| w[0].0 < w[1].0)
                && index.iter().all(|&(id, rank)| allocs[rank].id == id),
            "the delta cache indexes the pass being committed"
        );
        let (old, prev) = (&self.committed_index, &self.committed);
        let mut withdrawn = Vec::new();
        let mut fresh = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < old.len() || j < index.len() {
            let order = match (old.get(i), index.get(j)) {
                (Some(o), Some(n)) => o.0.cmp(&n.0),
                (Some(_), None) => Ordering::Less,
                _ => Ordering::Greater,
            };
            match order {
                // Only in the old pass: departed.
                Ordering::Less => {
                    withdrawn.push(Withdrawal {
                        rank: old[i].1,
                        departed: true,
                    });
                    i += 1;
                }
                // Only in the new pass: new.
                Ordering::Greater => {
                    fresh.push(index[j].1);
                    j += 1;
                }
                // In both: kept, unless its path moved.
                Ordering::Equal => {
                    let (orank, nrank) = (old[i].1, index[j].1);
                    if prev[orank].path != allocs[nrank].path {
                        withdrawn.push(Withdrawal {
                            rank: orank,
                            departed: false,
                        });
                        fresh.push(nrank);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        fresh.sort_unstable();
        self.committed_index.clear();
        self.committed_index.extend_from_slice(index);
        ChangeSet {
            prev: std::mem::replace(&mut self.committed, allocs),
            withdrawn,
            fresh,
        }
    }

    /// The committed pass, in F_tmp order, as it was committed: a flow
    /// [forgotten](Self::forget_committed) since is still in it.
    pub fn committed_pass(&self) -> &[FlowAlloc] {
        &self.committed
    }

    /// Where `flow` sits in the committed index, unless it was
    /// forgotten.
    fn committed_at(&self, flow: usize) -> Option<usize> {
        self.committed_index
            .binary_search_by_key(&flow, |&(id, _)| id)
            .ok()
    }

    /// The committed allocation of `flow`, unless it was forgotten.
    pub fn committed(&self, flow: usize) -> Option<&FlowAlloc> {
        let at = self.committed_at(flow)?;
        Some(&self.committed[self.committed_index[at].1])
    }

    /// Every committed flow not forgotten, in ascending id.
    pub fn committed_by_id(&self) -> impl Iterator<Item = &FlowAlloc> + '_ {
        self.committed_index
            .iter()
            .map(|&(_, rank)| &self.committed[rank])
    }

    /// Drops `flow` from the committed index (it finished) and returns
    /// its allocation's rank in [`Self::committed_pass`]; the next commit
    /// then neither keeps nor withdraws it.
    pub fn forget_committed(&mut self, flow: usize) -> Option<usize> {
        let at = self.committed_at(flow)?;
        Some(self.committed_index.remove(at).1)
    }

    /// Emits the `GrantIssued` + `GrantHop` + `GrantSlice` burst of one
    /// committed allocation, stamped `(epoch, gen)`.
    pub fn trace_grant(&self, now: f64, al: &FlowAlloc, epoch: u64, gen: u64) {
        if self.trace.is_none() {
            return;
        }
        let clock = self.engine.clock();
        obs_event!(
            self.trace,
            now,
            GrantIssued {
                flow: obs_id(al.id),
                epoch,
                gen,
                hops: obs_id(al.path.links.len()),
                slices: obs_id(al.slices.intervals().count()),
                on_time: al.on_time
            }
        );
        for (idx, l) in al.path.links.iter().enumerate() {
            obs_event!(
                self.trace,
                now,
                GrantHop {
                    flow: obs_id(al.id),
                    idx: obs_id(idx),
                    link: obs_id(l.idx())
                }
            );
        }
        for (idx, iv) in al.slices.intervals().enumerate() {
            obs_event!(
                self.trace,
                now,
                GrantSlice {
                    flow: obs_id(al.id),
                    idx: obs_id(idx),
                    start: clock.start(iv.start),
                    end: clock.start(iv.end)
                }
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// A flow record as an index caller keeps it: the entry plus whether
    /// the flow is finished.
    type Registry = BTreeMap<usize, (InFlight, bool)>;

    /// What the in-flight index replaced, kept as its oracle: the
    /// registry filtered by `!done`, sorted EDF → SJF → id with
    /// `total_cmp` — a walk and a lookup-sort per pass.
    fn ftmp_by_definition(registry: &Registry) -> Vec<InFlight> {
        let mut v: Vec<InFlight> = registry
            .values()
            .filter(|(_, done)| !done)
            .map(|(e, _)| e.clone())
            .collect();
        v.sort_by(|a, b| {
            a.deadline
                .total_cmp(&b.deadline)
                .then_with(|| a.remaining.total_cmp(&b.remaining))
                .then_with(|| a.id.cmp(&b.id))
        });
        v
    }

    fn assert_index_is_the_definition(index: &InFlightIndex, registry: &Registry, after: &str) {
        assert_eq!(
            index.entries(),
            ftmp_by_definition(registry),
            "in-flight index diverged from the registry after {after}"
        );
    }

    /// One index update, drawn blind; `apply` maps it onto whatever the
    /// registry holds at that point.
    #[derive(Clone, Debug)]
    enum Op {
        Insert { task: usize, size: u8, deadline: u8 },
        Remove(usize),
        Rekey(usize, u8),
        TakeTask(usize),
        TakeSrc(usize),
        Reload,
    }

    /// Sizes and deadlines come from small sets so EDF and SJF ties
    /// (decided by flow id) are common.
    fn op() -> impl Strategy<Value = Op> {
        (0u8..12, any::<usize>(), 1u8..4, 2u8..6).prop_map(|(kind, n, size, deadline)| match kind {
            0..=3 => Op::Insert {
                task: n % 6,
                size,
                deadline,
            },
            4..=5 => Op::Remove(n),
            6..=8 => Op::Rekey(n, size - 1),
            9 => Op::TakeTask(n % 6),
            10 => Op::TakeSrc(n % 4),
            _ => Op::Reload,
        })
    }

    /// The `n`-th live flow of the registry, wrapping.
    fn pick_live(registry: &Registry, n: usize) -> Option<usize> {
        let live: Vec<usize> = registry
            .iter()
            .filter(|(_, (_, done))| !done)
            .map(|(&id, _)| id)
            .collect();
        (!live.is_empty()).then(|| live[n % live.len()])
    }

    fn apply(index: &mut InFlightIndex, registry: &mut Registry, op: &Op) -> &'static str {
        match *op {
            Op::Insert {
                task,
                size,
                deadline,
            } => {
                let id = registry.len();
                let e = InFlight {
                    id,
                    task,
                    src: id % 4,
                    dst: (id + 1) % 4,
                    remaining: f64::from(size),
                    deadline: f64::from(deadline),
                };
                registry.insert(id, (e.clone(), false));
                index.insert(e);
                "insert"
            }
            Op::Remove(n) => {
                if let Some(id) = pick_live(registry, n) {
                    let (e, done) = registry.get_mut(&id).unwrap();
                    index.remove(e);
                    *done = true;
                }
                "remove"
            }
            Op::Rekey(n, left) => {
                if let Some(id) = pick_live(registry, n) {
                    let (e, _) = registry.get_mut(&id).unwrap();
                    let old = e.clone();
                    e.remaining = f64::from(left);
                    index.rekey(&old, e.clone());
                }
                "rekey"
            }
            Op::TakeTask(task) => {
                for id in index.take_where(|e| e.task == task) {
                    registry.get_mut(&id).unwrap().1 = true;
                }
                assert!(registry.values().all(|(e, done)| *done || e.task != task));
                "take_where(task)"
            }
            Op::TakeSrc(src) => {
                for id in index.take_where(|e| e.src == src) {
                    registry.get_mut(&id).unwrap().1 = true;
                }
                "take_where(src)"
            }
            Op::Reload => {
                // Handed over in id order, as flowsim's live list is.
                let live = registry.values().filter(|(_, done)| !done);
                index.load(live.map(|(e, _)| e.clone()));
                "load"
            }
        }
    }

    proptest! {
        /// After every update of a random history the in-flight index
        /// equals the caller's records filtered and sorted the old way.
        /// (The SDN controller's tests check the other half: that each of
        /// its operations issues the right updates.)
        #[test]
        fn inflight_index_is_the_registry_filtered_and_sorted(ops in prop::collection::vec(op(), 1..80)) {
            let mut index = InFlightIndex::default();
            let mut registry = Registry::new();
            for op in &ops {
                let after = apply(&mut index, &mut registry, op);
                assert_index_is_the_definition(&index, &registry, after);
            }
        }

        /// The lemma that lets the SDN controller share this rule without
        /// moving a verdict: with every weight at 1.0 and exactly one
        /// late task that is not the newcomer, Rule 3 always preempts.
        /// `made[t]` is each task's tentative on-time map.
        #[test]
        fn unit_weights_always_preempt_the_single_late_bystander(
            sizes in prop::collection::vec(1usize..6, 2..8),
            completed in prop::collection::vec(0usize..4, 8..9),
            picks in (any::<usize>(), any::<usize>()),
            misses in prop::collection::vec(any::<bool>(), 6..7),
        ) {
            let victim = picks.0 % sizes.len();
            let newcomer = picks.1 % sizes.len();
            prop_assume!(victim != newcomer);
            // Everyone lands on time, except some — at least one — of the
            // victim's flows.
            let mut made: Vec<Vec<bool>> = sizes.iter().map(|&n| vec![true; n]).collect();
            for (flow, miss) in made[victim].iter_mut().zip(&misses) {
                *flow = !miss;
            }
            made[victim][0] = false;
            let late: Vec<usize> = (0..made.len()).filter(|&t| made[t].contains(&false)).collect();
            prop_assert_eq!(&late, &vec![victim]);
            // Completed flows (which only a caller with flow statuses
            // knows about) raise both sides, never to a tie.
            let standing = |t: usize| Standing {
                weight: 1.0,
                flows_total: made[t].len() + completed[t],
                flows_made: made[t].iter().filter(|&&ok| ok).count() + completed[t],
            };
            prop_assert_eq!(
                decide(&late, newcomer, RejectPolicy::Paper, standing),
                RejectDecision::AcceptWithPreemption(victim)
            );
            prop_assert_eq!(
                decide(&late, newcomer, RejectPolicy::NeverPreempt, standing),
                RejectDecision::Reject
            );
            prop_assert_eq!(
                decide(&late, newcomer, RejectPolicy::AlwaysAdmit, standing),
                RejectDecision::Accept
            );
        }
    }

    /// One step of a commit history, drawn blind; [`run_commits`] maps it
    /// onto whatever is in flight at that point.
    #[derive(Clone, Debug)]
    enum CommitOp {
        /// A task of `flows` flows arrives; a pass is committed.
        Arrive { flows: u8, size: u8, deadline: u8 },
        /// The `n`-th in-flight flow finishes: it leaves F_tmp and the
        /// committed index, and no pass runs (a TERM).
        Term(usize),
        /// The `n`-th in-flight flow reports progress; a pass is
        /// committed.
        Progress(usize, u8),
        /// The task of the `n`-th in-flight flow leaves F_tmp but not
        /// the committed index (preempted, say); a pass is committed.
        DropTask(usize),
        /// A pass over an unchanged F_tmp, `0..3` slots later.
        Pass(u8),
    }

    fn commit_op() -> impl Strategy<Value = CommitOp> {
        (0u8..11, any::<usize>(), 1u8..4, 2u8..8).prop_map(|(kind, n, a, b)| match kind {
            0..=3 => CommitOp::Arrive {
                flows: a,
                size: a,
                deadline: b,
            },
            4..=5 => CommitOp::Term(n),
            6..=7 => CommitOp::Progress(n, a),
            8 => CommitOp::DropTask(n),
            _ => CommitOp::Pass(a - 1),
        })
    }

    /// How often each class of [`Arbiter::commit`]'s diff came up.
    #[derive(Debug, Default)]
    struct DiffsSeen {
        kept: usize,
        rerouted: usize,
        departed: usize,
        new: usize,
    }

    /// Drives an arbiter on `fat_tree(4)` through `ops`, committing every
    /// pass, and checks each change set against a brute-force diff of a
    /// model schedule (flow id → committed path, less TERMed flows).
    fn run_commits(ops: &[CommitOp], seen: &mut DiffsSeen) {
        use taps_topology::build::{fat_tree, GBPS};
        use taps_topology::Path;

        let topo = fat_tree(4, GBPS);
        let hosts = topo.num_hosts();
        let mut arb = Arbiter::new(1.0, 8, RejectPolicy::Paper);
        let mut model: BTreeMap<usize, Path> = BTreeMap::new();
        let (mut slot, mut next_id, mut next_task) = (0u64, 0usize, 0usize);
        for op in ops {
            let pick = |arb: &Arbiter, n: usize| {
                let live = arb.ftmp.entries();
                (!live.is_empty()).then(|| live[n % live.len()].clone())
            };
            match *op {
                CommitOp::Arrive {
                    flows,
                    size,
                    deadline,
                } => {
                    for _ in 0..flows {
                        let src = (next_id * 7) % hosts;
                        arb.ftmp.insert(InFlight {
                            id: next_id,
                            task: next_task,
                            src,
                            dst: (src + 1 + next_id % (hosts - 1)) % hosts,
                            remaining: f64::from(size) * GBPS,
                            deadline: (slot + u64::from(deadline)) as f64,
                        });
                        next_id += 1;
                    }
                    next_task += 1;
                }
                CommitOp::Term(n) => {
                    if let Some(e) = pick(&arb, n) {
                        arb.ftmp.remove(&e);
                        let rank = arb.forget_committed(e.id);
                        let path = rank.map(|r| &arb.committed_pass()[r].path);
                        assert_eq!(path, model.get(&e.id));
                        model.remove(&e.id);
                        assert!(arb.committed(e.id).is_none());
                    }
                    continue;
                }
                CommitOp::Progress(n, left) => {
                    if let Some(e) = pick(&arb, n) {
                        let moved = InFlight {
                            remaining: f64::from(left) * GBPS / 2.0,
                            ..e.clone()
                        };
                        arb.ftmp.rekey(&e, moved);
                    }
                }
                CommitOp::DropTask(n) => {
                    if let Some(e) = pick(&arb, n) {
                        arb.take_task(e.task);
                    }
                }
                CommitOp::Pass(later) => slot += u64::from(later),
            }
            let allocs = arb
                .tentative(&topo, slot)
                .expect("no faults, no disconnection");
            let pass: BTreeMap<usize, Path> =
                allocs.iter().map(|al| (al.id, al.path.clone())).collect();
            let changes = arb.commit(&topo, allocs, true);

            // The brute-force diff of the model against the new pass.
            let (mut kept, mut rerouted, mut departed, mut new) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for (&id, path) in &model {
                match pass.get(&id) {
                    Some(p) if p == path => kept.push(id),
                    Some(_) => rerouted.push(id),
                    None => departed.push(id),
                }
            }
            new.extend(pass.keys().filter(|id| !model.contains_key(id)));

            let committed = arb.committed_pass();
            let withdrawn: Vec<usize> = changes
                .withdrawn
                .iter()
                .map(|w| changes.prev[w.rank].id)
                .collect();
            assert!(
                withdrawn.windows(2).all(|w| w[0] < w[1]),
                "withdrawals not in ascending id: {withdrawn:?}"
            );
            assert!(
                changes.fresh.windows(2).all(|w| w[0] < w[1]),
                "installs not in priority order: {:?}",
                changes.fresh
            );
            let of = |departed: bool| -> Vec<usize> {
                let mut ids: Vec<usize> = changes
                    .withdrawn
                    .iter()
                    .filter(|w| w.departed == departed)
                    .map(|w| changes.prev[w.rank].id)
                    .collect();
                ids.sort_unstable();
                ids
            };
            assert_eq!(of(true), departed, "departed");
            assert_eq!(of(false), rerouted, "re-routed");
            let mut fresh: Vec<usize> = changes.fresh.iter().map(|&r| committed[r].id).collect();
            fresh.sort_unstable();
            let mut want: Vec<usize> = rerouted.iter().chain(&new).copied().collect();
            want.sort_unstable();
            assert_eq!(fresh, want, "installs are the re-routed and new flows");
            let mut unchanged: Vec<usize> = committed
                .iter()
                .map(|al| al.id)
                .filter(|id| fresh.binary_search(id).is_err())
                .collect();
            unchanged.sort_unstable();
            assert_eq!(unchanged, kept, "kept");

            // The index covers exactly the committed flows, in id order.
            let indexed: Vec<usize> = arb.committed_by_id().map(|al| al.id).collect();
            assert_eq!(indexed, pass.keys().copied().collect::<Vec<_>>());
            for al in committed {
                assert_eq!(arb.committed(al.id).map(|c| c.id), Some(al.id));
            }
            seen.kept += kept.len();
            seen.rerouted += rerouted.len();
            seen.departed += departed.len();
            seen.new += new.len();
            model = pass;
        }
    }

    /// The histories are only a witness if every class of the diff
    /// comes up.
    #[test]
    fn random_commit_histories_reach_every_diff_class() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut seen = DiffsSeen::default();
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let ops: Vec<CommitOp> = (0..60)
                .map(|_| {
                    let (a, b) = (rng.gen_range(1u8..4), rng.gen_range(2u8..8));
                    let n = rng.gen_range(0..usize::MAX);
                    match rng.gen_range(0u8..11) {
                        0..=3 => CommitOp::Arrive {
                            flows: a,
                            size: a,
                            deadline: b,
                        },
                        4..=5 => CommitOp::Term(n),
                        6..=7 => CommitOp::Progress(n, a),
                        8 => CommitOp::DropTask(n),
                        _ => CommitOp::Pass(a - 1),
                    }
                })
                .collect();
            run_commits(&ops, &mut seen);
        }
        assert!(
            seen.kept > 0 && seen.rerouted > 0 && seen.departed > 0 && seen.new > 0,
            "{seen:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every change set equals the brute-force diff of the previous
        /// committed schedule (less TERMed flows) against the new pass.
        #[test]
        fn a_commit_diffs_like_the_brute_force_oracle(ops in prop::collection::vec(commit_op(), 1..40)) {
            run_commits(&ops, &mut DiffsSeen::default());
        }
    }

    /// The contended dumbbell of `tests/weighted_preemption.rs`, as the
    /// rule sees it: the victim (task 0) has one flow complete and one
    /// late, ratio 0.5; the newcomer (task 1) is whole.
    fn contended(victim_weight: f64, newcomer_weight: f64) -> RejectDecision {
        decide(&[0], 1, RejectPolicy::Paper, |t| match t {
            0 => Standing {
                weight: victim_weight,
                flows_total: 2,
                flows_made: 1,
            },
            _ => Standing {
                weight: newcomer_weight,
                flows_total: 1,
                flows_made: 1,
            },
        })
    }

    #[test]
    fn weights_flip_rule_three_exactly_when_they_say_so() {
        let preempt = RejectDecision::AcceptWithPreemption(0);
        assert_eq!(contended(1.0, 1.0), preempt);
        // A heavy victim is protected …
        assert_eq!(contended(10.0, 1.0), RejectDecision::Reject);
        // … a heavy newcomer still preempts: the weights act on both
        // sides of the comparison …
        assert_eq!(contended(1.0, 10.0), preempt);
        // … and swapping one pair of weights swaps the outcome.
        assert_eq!(contended(6.0, 1.0), RejectDecision::Reject);
        assert_eq!(contended(1.0, 6.0), preempt);
        // Ties keep the incumbent.
        assert_eq!(contended(2.0, 1.0), RejectDecision::Reject);
    }

    #[test]
    fn rules_one_and_two_reject_whatever_the_weights() {
        let never = |_: usize| -> Standing { unreachable!("only Rule 3 weighs tasks") };
        assert_eq!(
            decide(&[], 1, RejectPolicy::Paper, never),
            RejectDecision::Accept
        );
        // Rule 1: more than one task harmed.
        assert_eq!(
            decide(&[0, 2], 1, RejectPolicy::Paper, never),
            RejectDecision::Reject
        );
        // Rule 2: the newcomer itself is late.
        assert_eq!(
            decide(&[1], 1, RejectPolicy::Paper, never),
            RejectDecision::Reject
        );
    }
}
