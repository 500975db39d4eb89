//! The slotted allocator: Alg. 2 (`PathCalculation`) and Alg. 3
//! (`TimeAllocation`) of the paper.
//!
//! Time is divided into fixed slots; every link `x` carries an occupied
//! set `O_x` ([`taps_timeline::IntervalSet`] over slot indices). For each
//! flow, in priority order:
//!
//! 1. enumerate candidate paths `P` between its endpoints (Alg. 2 line 3);
//! 2. for each path, `T_ocp = ⋃ O_x` over its links, and the flow's slices
//!    are the first `E` idle slots of the complement (Alg. 3);
//! 3. keep the path with the earliest completion slot, and commit its
//!    slices to every link on that path (Alg. 2 lines 8–15).
//!
//! Because Alg. 1 re-runs this for *every* live flow on *every* task
//! arrival, the inner loop is the simulator's hot path. [`AllocEngine`]
//! is the reusable core: it keeps per-link occupancy buffers, a
//! [`PathCache`], and a scratch [`IntervalSet`] alive across admissions
//! (see DESIGN.md § Performance) and evaluates candidate paths with an
//! early-exit bound. There is one candidate search (`search_and_commit`)
//! and one full-pass loop (`full_pass`); the paper-naive Alg. 2/3 they
//! are tested against is the stateless [`crate::oracle::naive_batch`].
//! [`SlotAllocator`] is the thin topology-borrowing façade the rest of
//! the crate (and the benches) use.

use std::fmt;
use taps_timeline::{Clock, IntervalSet};
use taps_topology::cache::{Candidates, PathCache};
use taps_topology::{LinkId, Path, Topology};

/// Why an allocation could not be produced.
///
/// With fault injection (link/switch failures) a flow's endpoints can
/// lose every candidate path mid-run; that is a schedulable condition the
/// reject rule must see — degrading to a per-task rejection — not a
/// panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// No candidate path survives between the flow's endpoints.
    Disconnected {
        /// The flow (by [`FlowDemand::id`]) whose endpoints are cut off.
        flow: usize,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::Disconnected { flow } => {
                write!(f, "flow {flow} endpoints disconnected: no surviving path")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// A flow's demand as seen by the allocator.
#[derive(Clone, Debug)]
pub struct FlowDemand {
    /// Caller-defined identifier carried through to the result.
    pub id: usize,
    /// Source host index.
    pub src: usize,
    /// Destination host index.
    pub dst: usize,
    /// Bytes still to transfer.
    pub remaining: f64,
    /// Absolute deadline, seconds.
    pub deadline: f64,
}

/// The allocation produced for one flow.
#[derive(Clone, Debug)]
pub struct FlowAlloc {
    /// Caller-defined identifier from [`FlowDemand::id`].
    pub id: usize,
    /// Chosen route.
    pub path: Path,
    /// Allocated transmission slices (absolute slot indices).
    pub slices: IntervalSet,
    /// One past the last allocated slot — the completion slot.
    pub completion_slot: u64,
    /// The flow's absolute deadline (copied from the demand), seconds.
    pub deadline: f64,
    /// Whether `completion_slot` is at or before the flow's deadline.
    pub on_time: bool,
}

/// One flow's slot demand `E` per candidate path. `E` depends on the
/// path only through its bottleneck capacity, which on the paper's
/// uniform-capacity fabrics is the same for every candidate, so the
/// division is redone only when the bottleneck differs from the previous
/// candidate's.
pub(crate) struct SlotDemand {
    clock: Clock,
    bytes: f64,
    /// Bottleneck and `E` of the last path asked about.
    last: Option<(f64, u64)>,
}

impl SlotDemand {
    /// The demand of a flow with `bytes` left to send on `clock`'s slots.
    pub(crate) fn new(clock: Clock, bytes: f64) -> Self {
        SlotDemand {
            clock,
            bytes,
            last: None,
        }
    }

    /// `E` on a path of the given bottleneck capacity:
    /// [`Clock::slots_for`].
    #[inline]
    pub(crate) fn at(&mut self, bottleneck: f64) -> u64 {
        match self.last {
            Some((b, e)) if b.to_bits() == bottleneck.to_bits() => e,
            _ => {
                let e = self.clock.slots_for(self.bytes, bottleneck);
                self.last = Some((bottleneck, e));
                e
            }
        }
    }
}

/// Calls `f` with the occupancy sets of a path's links — preceded by
/// the pre-merged `shared` set when one is given — without heap
/// allocation: the reference list lives on the stack (paths on the
/// paper's topology families are at most 6 hops; a `Vec` fallback covers
/// anything longer than 8).
#[inline]
fn with_path_sets<R>(
    shared: Option<&IntervalSet>,
    occupancy: &[IntervalSet],
    links: &[LinkId],
    f: impl FnOnce(&[&IntervalSet]) -> R,
) -> R {
    const MAX_HOPS: usize = 8;
    let head = usize::from(shared.is_some());
    let n = head + links.len();
    if n <= MAX_HOPS {
        let empty = IntervalSet::new();
        let mut refs: [&IntervalSet; MAX_HOPS] = [shared.unwrap_or(&empty); MAX_HOPS];
        for (r, l) in refs[head..].iter_mut().zip(links) {
            *r = &occupancy[l.idx()];
        }
        f(&refs[..n])
    } else {
        let refs: Vec<&IntervalSet> = shared
            .into_iter()
            .chain(links.iter().map(|l| &occupancy[l.idx()]))
            .collect();
        f(&refs)
    }
}

/// Folds the occupancy sets of a path's links into `out`. Used to
/// materialize the *winner's* slices; candidate ranking goes through
/// [`first_fit_links`], which never builds the union at all.
#[inline]
pub(crate) fn union_path(occupancy: &[IntervalSet], links: &[LinkId], out: &mut IntervalSet) {
    with_path_sets(None, occupancy, links, |refs| {
        IntervalSet::union_many(refs, out);
    });
}

#[cfg(test)]
thread_local! {
    /// K-way sweeps run by [`first_fit_links`] on this thread.
    static SWEEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Bounded first-fit completion over the union of a path's occupancy
/// sets (and of `shared`, a set pre-merged from links every candidate
/// crosses), swept directly across the per-link interval lists
/// ([`IntervalSet::first_fit_bound_many`]). This is the innermost loop
/// of Alg. 2: ranking a candidate needs only its completion slot, and
/// the sweep abandons the candidate at the incumbent bound instead of
/// paying a full union over the occupancy horizon.
///
/// Against an incumbent the sweep is not even started when the busy
/// prefix rules the candidate out: the union is busy wherever one of its
/// sets is, so its first idle slot at or after `from` is at least every
/// set's, and `slots` slots from there complete no earlier than
/// `max first idle + slots`. One set that puts this past `bound` is
/// enough, and such a candidate is exactly one the sweep would have
/// answered `None` for.
#[inline]
pub(crate) fn first_fit_links(
    shared: Option<&IntervalSet>,
    occupancy: &[IntervalSet],
    links: &[LinkId],
    from: u64,
    slots: u64,
    bound: u64,
) -> Option<u64> {
    let ruled_out = |s: &IntervalSet| s.first_idle_at_or_after(from).saturating_add(slots) > bound;
    if bound != u64::MAX
        && (shared.is_some_and(ruled_out) || links.iter().any(|l| ruled_out(&occupancy[l.idx()])))
    {
        return None;
    }
    #[cfg(test)]
    SWEEPS.with(|n| n.set(n.get() + 1));
    with_path_sets(shared, occupancy, links, |refs| {
        IntervalSet::first_fit_bound_many(refs, from, slots, bound)
    })
}

/// Persistent Alg. 2/3 state, reused across admissions.
///
/// Owns no topology borrow, so a scheduler can hold one for its whole
/// lifetime and pass the topology per call; [`ensure_topology`]
/// re-sizes the occupancy table and drops the path cache if the
/// topology ever changes.
///
/// [`ensure_topology`]: Self::ensure_topology
pub struct AllocEngine {
    /// Slot length and the seconds↔slot rules.
    pub(crate) clock: Clock,
    /// `O_x` per directed link, in slot indices.
    pub(crate) occupancy: Vec<IntervalSet>,
    /// Candidate paths per host pair as views over per-ToR-pair middles,
    /// capped at the Alg. 2 budget (paper: "all the possible paths";
    /// evenly sampled at fat-tree scale — see DESIGN.md).
    cache: PathCache,
    /// Scratch `T_ocp` reused across candidates and admissions.
    pub(crate) scratch: IntervalSet,
    /// Identity of the topology the occupancy/cache were built for.
    topo_name: String,
    /// Work counters accumulated since the last [`take_counters`] call.
    ///
    /// [`take_counters`]: Self::take_counters
    pub(crate) counters: AllocCounters,
    /// Links whose occupancy was written to since the last [`reset`]:
    /// `reset` clears exactly these instead of sweeping every link in
    /// the topology (a k=24 fat-tree has ~24k directed links; a batch
    /// touches a few hundred). May contain duplicates — clearing twice
    /// is harmless.
    ///
    /// [`reset`]: Self::reset
    touched: Vec<usize>,
}

/// Deterministic per-allocation work counters.
///
/// `slots_scanned` is defined as the winner's completion depth
/// (`completion_slot - start_slot + 1`) rather than the raw number of
/// slots the search visited: the raw count depends on pruning order
/// (seeded vs unseeded search, delta translation vs full pass), while
/// the winner depth is identical across all of them and across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounters {
    /// Candidate paths ranked across all allocations.
    pub paths_tried: u64,
    /// Sum of winner completion depths across all allocations.
    pub slots_scanned: u64,
}

/// `n` as a work-counter increment: lossless on every target whose
/// `usize` fits in 64 bits, saturating on any wider one.
pub(crate) fn count(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

impl AllocEngine {
    /// Creates an engine with no topology bound yet.
    pub fn new(slot: f64, max_paths: usize) -> Self {
        assert!(slot > 0.0, "slot duration must be positive");
        assert!(max_paths > 0, "candidate-path budget must be at least 1");
        AllocEngine {
            clock: Clock::new(slot),
            occupancy: Vec::new(),
            cache: PathCache::new(max_paths),
            scratch: IntervalSet::new(),
            topo_name: String::new(),
            counters: AllocCounters::default(),
            touched: Vec::new(),
        }
    }

    /// Returns the work counters accumulated since the previous call and
    /// resets them to zero.
    pub fn take_counters(&mut self) -> AllocCounters {
        std::mem::take(&mut self.counters)
    }

    /// Slot duration, seconds.
    #[inline]
    pub fn slot_duration(&self) -> f64 {
        self.clock.slot()
    }

    /// The engine's clock: every conversion between seconds and slots.
    #[inline]
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// The path cache (for inspection in tests).
    #[inline]
    pub fn path_cache(&self) -> &PathCache {
        &self.cache
    }

    /// Pre-enumerates candidate paths for every ToR pair of `topo`
    /// ([`PathCache::warm`]): topology bring-up work an SDN controller
    /// does before traffic arrives, so no admission pays a first-time
    /// lookup. Purely a cache warm-up — allocation results are
    /// bit-identical with or without it.
    pub fn warm_paths(&mut self, topo: &Topology) {
        self.ensure_topology(topo);
        self.cache.warm(topo);
    }

    /// Candidate paths for a host-index pair straight from the engine's
    /// path cache (which self-refreshes on fault-epoch changes). The
    /// delta engine's fault absorption compares a cached entry's list
    /// against this — exactly what a post-fault full pass would fetch.
    pub(crate) fn candidates(&mut self, topo: &Topology, src: usize, dst: usize) -> Candidates {
        self.cache.candidates(topo, topo.host(src), topo.host(dst))
    }

    /// Merges the occupancy of `c`'s access links into `scratch`, the
    /// shared set [`rank`](Self::rank) sweeps each middle against.
    pub(crate) fn merge_access(&mut self, c: &Candidates) {
        union_path(&self.occupancy, c.access(), &mut self.scratch);
    }

    /// Candidate `i` of `c` through [`first_fit_links`]: its middle's
    /// occupancy plus, when it has access links, their merged set, which
    /// [`merge_access`](Self::merge_access) must have left in `scratch`.
    /// Union is associative, so this is the sweep over the whole path.
    #[inline]
    pub(crate) fn rank(
        &self,
        c: &Candidates,
        i: usize,
        from: u64,
        slots: u64,
        bound: u64,
    ) -> Option<u64> {
        let shared = (!c.access().is_empty()).then_some(&self.scratch);
        first_fit_links(shared, &self.occupancy, c.middle(i), from, slots, bound)
    }

    /// Binds the engine to `topo`: sizes the occupancy table and, if this
    /// is a different topology than last time, drops the path cache.
    pub fn ensure_topology(&mut self, topo: &Topology) {
        if self.occupancy.len() == topo.num_links() && self.topo_name == topo.name {
            return;
        }
        self.occupancy = vec![IntervalSet::new(); topo.num_links()];
        self.touched.clear();
        self.cache.clear();
        self.topo_name.clone_from(&topo.name);
    }

    /// Clears all occupancy (the paper's re-allocation on each arrival
    /// recomputes the whole horizon from scratch). Buffers are kept.
    /// Only links written since the previous reset are swept — every
    /// occupancy mutation goes through [`commit_slices`], which records
    /// the link in `touched`, so untouched links are provably empty.
    ///
    /// [`commit_slices`]: Self::commit_slices
    pub fn reset(&mut self) {
        for i in self.touched.drain(..) {
            self.occupancy[i].clear();
        }
    }

    /// Inserts a committed flow's slices into every link of its path and
    /// records the links for the next [`reset`](Self::reset) sweep. The
    /// single write path into `occupancy`.
    pub(crate) fn commit_slices(&mut self, links: &[LinkId], slices: &IntervalSet) {
        for l in links {
            self.occupancy[l.idx()].insert_set(slices);
            self.touched.push(l.idx());
        }
    }

    /// Occupied set of one link (for inspection/tests).
    pub fn occupancy(&self, link: taps_topology::LinkId) -> &IntervalSet {
        &self.occupancy[link.idx()]
    }

    /// Alg. 2 — `PathCalculation` for one flow: ranks every candidate
    /// path by its first-fit completion slot (Alg. 3), keeps the
    /// earliest-completing one (ties to the lowest candidate index),
    /// materializes the winner's slices and commits them to its links.
    /// Fails with [`AllocError::Disconnected`] when no candidate path
    /// survives between the flow's endpoints (possible under link/switch
    /// faults). Also returns the candidate list and the winning index so
    /// the delta re-allocation engine can cache them.
    ///
    /// `candidates` is the pair's candidate list when the caller already
    /// holds it (the delta engine's cached entry: same topology, fault
    /// epoch and budget — all gate-checked — so the path-cache lookup is
    /// skipped); `None` fetches it from the path cache.
    ///
    /// `seed` is a candidate index expected to rank well (the delta
    /// engine passes the previous pass's winner). It is evaluated first
    /// to establish a tight incumbent, so the remaining candidates prune
    /// at a near-final bound instead of tightening it incrementally. The
    /// chosen winner and allocation are bit-identical with or without a
    /// seed — evaluation order only changes the work done, because the
    /// adaptive bound preserves the exact `(completion, index)` first-wins
    /// order.
    pub(crate) fn search_and_commit(
        &mut self,
        topo: &Topology,
        demand: &FlowDemand,
        start_slot: u64,
        candidates: Option<Candidates>,
        seed: Option<usize>,
    ) -> Result<(Candidates, usize, FlowAlloc), AllocError> {
        let candidates =
            candidates.unwrap_or_else(|| self.candidates(topo, demand.src, demand.dst));
        if candidates.is_empty() {
            return Err(AllocError::Disconnected { flow: demand.id });
        }
        let mut demand_on = SlotDemand::new(self.clock, demand.remaining);

        // Every candidate for a host pair traverses the same two access
        // links, which also carry the densest occupancy (all of the
        // pair's flows cross them). Merge those once per search so each
        // per-candidate sweep walks the access intervals a single time
        // instead of once per candidate.
        self.merge_access(&candidates);
        let mut rank = |i: usize, bound: u64| {
            let e = demand_on.at(candidates.bottleneck(i));
            self.rank(&candidates, i, start_slot, e, bound)
        };
        // Rank candidates by completion slot; ties go to the lowest
        // candidate index (first-wins).
        let mut best: Option<(u64, usize)> = None;
        if let Some(si) = seed.filter(|&si| si < candidates.len()) {
            best = rank(si, u64::MAX).map(|c| (c, si));
        }
        for i in 0..candidates.len() {
            if Some(i) == seed {
                continue;
            }
            // The bound preserves the exact (completion, index)
            // first-wins order: a candidate below the incumbent's index
            // may tie it, one above must strictly beat it. Unseeded, the
            // incumbent's index is always below `i`, which reduces to the
            // plain strictly-better rule.
            let bound = match best {
                None => u64::MAX,
                Some((c, bi)) => {
                    if i < bi {
                        c
                    } else {
                        c.saturating_sub(1)
                    }
                }
            };
            if let Some(c) = rank(i, bound) {
                best = Some((c, i));
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "invariant: every candidate finds a fit in the infinite idle tail"
        )]
        let (completion_slot, idx) =
            best.expect("at least one candidate completes (idle tail is infinite)");

        // Materialize the path and slices for the winner only.
        self.counters.paths_tried += count(candidates.len());
        self.counters.slots_scanned += completion_slot.saturating_sub(start_slot) + 1;
        let path = candidates.path(idx);
        let slices = self.first_free_on(
            &path.links,
            start_slot,
            demand_on.at(candidates.bottleneck(idx)),
        );
        debug_assert_eq!(slices.max_end(), Some(completion_slot));
        self.commit_slices(&path.links, &slices);
        let al = self.finish(demand, path, slices, completion_slot);
        Ok((candidates, idx, al))
    }

    /// Materializes a winner's slices: the first `slots` idle slots at
    /// or after `from` on the union of its links' occupancy (Alg. 3).
    #[expect(
        clippy::expect_used,
        reason = "invariant: the idle tail is infinite, so E >= 1 slots are always allocatable"
    )]
    pub(crate) fn first_free_on(&mut self, links: &[LinkId], from: u64, slots: u64) -> IntervalSet {
        union_path(&self.occupancy, links, &mut self.scratch);
        self.scratch
            .allocate_first_free(from, slots)
            .expect("E >= 1 slots always allocatable")
    }

    pub(crate) fn finish(
        &self,
        demand: &FlowDemand,
        path: Path,
        slices: IntervalSet,
        completion_slot: u64,
    ) -> FlowAlloc {
        FlowAlloc {
            id: demand.id,
            path,
            slices,
            completion_slot,
            deadline: demand.deadline,
            on_time: self.clock.reached(completion_slot, demand.deadline),
        }
    }

    /// The one full-pass loop (the body of Alg. 2's outer loop): flows
    /// are placed one after another in priority order, each seeing the
    /// occupancy committed by its predecessors. `record` sees every
    /// placement with its candidate list and winning index — the delta
    /// engine's fallback builds its cache from it. The first
    /// disconnected flow aborts the pass.
    pub(crate) fn full_pass(
        &mut self,
        topo: &Topology,
        demands: &[FlowDemand],
        start_slot: u64,
        mut record: impl FnMut(&FlowDemand, Candidates, usize, &FlowAlloc),
    ) -> Result<Vec<FlowAlloc>, AllocError> {
        let mut out = Vec::with_capacity(demands.len());
        for d in demands {
            let (candidates, winner, al) =
                self.search_and_commit(topo, d, start_slot, None, None)?;
            record(d, candidates, winner, &al);
            out.push(al);
        }
        Ok(out)
    }

    /// Allocates a whole priority-ordered batch on top of the current
    /// occupancy. The first disconnected flow aborts the batch (callers
    /// degrade by dropping that flow's task and retrying — occupancy is
    /// rebuilt from scratch per attempt, so the partial commit is
    /// harmless as long as the caller resets or re-runs).
    // lint: l7-ok(allocation-layer primitive below the validation boundary: every public caller validates the staged batch at Scheduler::commit or Controller::commit before exposing it)
    pub fn allocate_batch(
        &mut self,
        topo: &Topology,
        demands: &[FlowDemand],
        start_slot: u64,
    ) -> Result<Vec<FlowAlloc>, AllocError> {
        self.full_pass(topo, demands, start_slot, |_, _, _, _| {})
    }

    /// Removes a committed allocation (used when a completed flow's tail
    /// slack is released).
    // lint: l7-ok(pure removal: releasing slices only frees occupancy and cannot double-book, callers re-validate on their next commit)
    pub fn release(&mut self, alloc: &FlowAlloc) {
        for l in &alloc.path.links {
            self.occupancy[l.idx()].remove_set(&alloc.slices);
        }
    }
}

/// Per-link slotted occupancy and the Alg. 2/3 allocation procedure,
/// bound to one topology. A thin façade over [`AllocEngine`] that keeps
/// the original borrow-the-topology API.
pub struct SlotAllocator<'t> {
    topo: &'t Topology,
    engine: AllocEngine,
}

impl<'t> SlotAllocator<'t> {
    /// Creates an allocator with empty occupancy.
    pub fn new(topo: &'t Topology, slot: f64, max_paths: usize) -> Self {
        let mut engine = AllocEngine::new(slot, max_paths);
        engine.ensure_topology(topo);
        SlotAllocator { topo, engine }
    }

    /// The underlying engine (work counters, fault absorption).
    pub fn engine_mut(&mut self) -> &mut AllocEngine {
        &mut self.engine
    }

    /// Pre-enumerates candidate paths for every ToR pair
    /// ([`AllocEngine::warm_paths`]): bring-up work, results are
    /// bit-identical with or without it.
    pub fn warm_paths(&mut self) {
        self.engine.warm_paths(self.topo);
    }

    /// First slot that starts at or after `time`.
    pub fn slot_at(&self, time: f64) -> u64 {
        self.engine.clock().slot_at(time)
    }

    /// Clears all occupancy (the paper's re-allocation on each arrival
    /// recomputes the whole horizon from scratch).
    pub fn reset(&mut self) {
        self.engine.reset();
    }

    /// Occupied set of one link (for inspection/tests).
    pub fn occupancy(&self, link: taps_topology::LinkId) -> &IntervalSet {
        self.engine.occupancy(link)
    }

    /// Number of slots a transfer of `bytes` needs on a path with the
    /// given bottleneck capacity.
    pub fn slots_needed(&self, bytes: f64, bottleneck: f64) -> u64 {
        self.engine.clock().slots_for(bytes, bottleneck)
    }

    /// Allocates a whole priority-ordered batch (the body of Alg. 2's
    /// outer loop): flows are placed one after another, each seeing the
    /// occupancy committed by its predecessors. The first disconnected
    /// flow aborts the batch.
    // lint: l7-ok(allocation-layer primitive below the validation boundary: every public caller validates the staged batch at Scheduler::commit or Controller::commit before exposing it)
    pub fn allocate_batch(
        &mut self,
        demands: &[FlowDemand],
        start_slot: u64,
    ) -> Result<Vec<FlowAlloc>, AllocError> {
        self.engine.allocate_batch(self.topo, demands, start_slot)
    }

    /// Removes a committed allocation (used when a completed flow's tail
    /// slack is released).
    // lint: l7-ok(pure removal: releasing slices only frees occupancy and cannot double-book, callers re-validate on their next commit)
    pub fn release(&mut self, alloc: &FlowAlloc) {
        self.engine.release(alloc);
    }

    /// [`AllocEngine::allocate_batch_delta`] through the façade:
    /// [`allocate_batch`](Self::allocate_batch) with cross-pass reuse.
    // lint: l7-ok(allocation-layer primitive below the validation boundary: every public caller validates the staged batch at Scheduler::commit or Controller::commit before exposing it)
    pub fn allocate_batch_delta(
        &mut self,
        demands: &[FlowDemand],
        start_slot: u64,
        cache: &mut crate::delta::DeltaCache,
    ) -> Result<Vec<FlowAlloc>, AllocError> {
        self.engine
            .allocate_batch_delta(self.topo, demands, start_slot, cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::naive_batch;
    use taps_topology::build::{dumbbell, fat_tree, fig3_star, GBPS};

    fn demand(id: usize, src: usize, dst: usize, remaining: f64, deadline: f64) -> FlowDemand {
        FlowDemand {
            id,
            src,
            dst,
            remaining,
            deadline,
        }
    }

    /// Alg. 2 for a single flow on top of the current occupancy.
    fn place(a: &mut SlotAllocator<'_>, d: &FlowDemand, start_slot: u64) -> FlowAlloc {
        a.allocate_batch(std::slice::from_ref(d), start_slot)
            .unwrap()
            .remove(0)
    }

    #[test]
    fn slot_math() {
        let topo = dumbbell(1, 1, GBPS);
        let a = SlotAllocator::new(&topo, 0.001, 4);
        assert_eq!(a.slot_at(0.0), 0);
        assert_eq!(a.slot_at(0.0005), 1);
        assert_eq!(a.slot_at(0.001), 1);
        assert_eq!(a.slot_at(0.0011), 2);
        // 1 ms at 1 Gbps carries 125 kB per slot.
        assert_eq!(a.slots_needed(125_000.0, GBPS), 1);
        assert_eq!(a.slots_needed(125_001.0, GBPS), 2);
        assert_eq!(a.slots_needed(1.0, GBPS), 1);
    }

    #[test]
    fn single_flow_gets_contiguous_prefix() {
        let topo = dumbbell(1, 1, GBPS);
        let mut a = SlotAllocator::new(&topo, 0.001, 4);
        let al = place(&mut a, &demand(0, 0, 1, 4.0 * 125_000.0, 1.0), 0);
        assert_eq!(al.completion_slot, 4);
        assert_eq!(al.slices.total_slots(), 4);
        assert!(al.on_time);
    }

    #[test]
    fn second_flow_queues_behind_on_shared_links() {
        let topo = dumbbell(1, 1, GBPS);
        let mut a = SlotAllocator::new(&topo, 0.001, 4);
        let d0 = demand(0, 0, 1, 3.0 * 125_000.0, 1.0);
        let d1 = demand(1, 0, 1, 2.0 * 125_000.0, 1.0);
        let a0 = place(&mut a, &d0, 0);
        let a1 = place(&mut a, &d1, 0);
        assert_eq!(a0.completion_slot, 3);
        assert_eq!(a1.completion_slot, 5);
        assert!(!a0.slices.intersects(&a1.slices));
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let topo = dumbbell(2, 2, GBPS);
        let mut a = SlotAllocator::new(&topo, 0.001, 4);
        // h0 -> h2 and h1 -> h0 share no directed link... but do share
        // the bottleneck? h0->h2 uses sl->sr; h1->h0 stays left: disjoint.
        let a0 = place(&mut a, &demand(0, 0, 2, 125_000.0, 1.0), 0);
        let a1 = place(&mut a, &demand(1, 1, 0, 125_000.0, 1.0), 0);
        assert_eq!(a0.completion_slot, 1);
        assert_eq!(a1.completion_slot, 1);
    }

    #[test]
    fn multipath_spreads_flows_across_cores() {
        // k=4 fat-tree: two inter-pod flows from different hosts can use
        // different cores and finish concurrently.
        let topo = fat_tree(4, GBPS);
        let mut a = SlotAllocator::new(&topo, 0.001, 16);
        let a0 = place(&mut a, &demand(0, 0, 4, 125_000.0, 1.0), 0);
        let a1 = place(&mut a, &demand(1, 1, 5, 125_000.0, 1.0), 0);
        assert_eq!(a0.completion_slot, 1);
        assert_eq!(
            a1.completion_slot, 1,
            "Alg. 2 must route around the occupied core path"
        );
    }

    #[test]
    fn single_path_budget_forces_queueing() {
        // Same two flows but Alg. 2 limited to one candidate path each:
        // both pick the same first path wherever they collide.
        let topo = fat_tree(4, GBPS);
        let mut a = SlotAllocator::new(&topo, 0.001, 1);
        // Same src edge switch, same dst edge switch -> same single path.
        let a0 = place(&mut a, &demand(0, 0, 4, 125_000.0, 1.0), 0);
        let a1 = place(&mut a, &demand(1, 0, 4, 125_000.0, 1.0), 0);
        assert_eq!(a0.completion_slot, 1);
        assert_eq!(a1.completion_slot, 2, "queued behind flow 0");
    }

    #[test]
    fn fig3_global_schedule_fits_all_four_flows() {
        // Paper Fig. 3: star of four edge switches around S5; flows
        // f1 (h1->h2, size 1, d 1), f2 (h1->h4, 1, 2), f3 (h3->h2, 1, 2),
        // f4 (h3->h4, 2, 3). Global slotted allocation completes all four
        // (PDQ with a full flow list at S3 loses f4 — shown in the
        // motivation integration test).
        let topo = fig3_star(GBPS);
        let u = GBPS; // 1 "size unit" = 1 second at line rate
        let slot = 1.0; // 1-second slots to match the example's time units
        let mut a = SlotAllocator::new(&topo, slot, 4);
        // EDF/SJF priority order: f1 (d1), f2 (d2, s1), f3 (d2, s1), f4.
        let allocs = a
            .allocate_batch(
                &[
                    demand(1, 0, 1, u, 1.0),
                    demand(2, 0, 3, u, 2.0),
                    demand(3, 2, 1, u, 2.0),
                    demand(4, 2, 3, 2.0 * u, 3.0),
                ],
                0,
            )
            .unwrap();
        for al in &allocs {
            assert!(al.on_time, "flow {} misses: {:?}", al.id, al.slices);
        }
        // f4 is split around f2/f3's use of the star center? In the
        // directed model f4 (s3->s5->s4) only contends with f2 on s5->s4
        // and with f3 on s3->s5; the optimum of Fig. 3(b) gives f4 slots
        // {0} and {2}.
        let f4 = &allocs[3];
        assert_eq!(f4.completion_slot, 3);
        assert_eq!(f4.slices.total_slots(), 2);
    }

    #[test]
    fn reset_clears_occupancy() {
        let topo = dumbbell(1, 1, GBPS);
        let mut a = SlotAllocator::new(&topo, 0.001, 4);
        place(&mut a, &demand(0, 0, 1, 125_000.0, 1.0), 0);
        a.reset();
        let al = place(&mut a, &demand(1, 0, 1, 125_000.0, 1.0), 0);
        assert_eq!(al.completion_slot, 1);
    }

    #[test]
    fn release_frees_slices() {
        let topo = dumbbell(1, 1, GBPS);
        let mut a = SlotAllocator::new(&topo, 0.001, 4);
        let a0 = place(&mut a, &demand(0, 0, 1, 125_000.0, 1.0), 0);
        a.release(&a0);
        let a1 = place(&mut a, &demand(1, 0, 1, 125_000.0, 1.0), 0);
        assert_eq!(a1.completion_slot, 1);
    }

    #[test]
    fn start_slot_is_respected() {
        let topo = dumbbell(1, 1, GBPS);
        let mut a = SlotAllocator::new(&topo, 0.001, 4);
        let al = place(&mut a, &demand(0, 0, 1, 125_000.0, 1.0), 7);
        assert_eq!(al.slices.min_start(), Some(7));
        assert_eq!(al.completion_slot, 8);
    }

    /// The engine (cached paths, scratch buffers, bound pruning, shared
    /// access-link merge) must reproduce the paper-naive reference on
    /// every path, slice set, completion slot and verdict.
    #[test]
    fn engine_and_naive_reference_agree_bit_for_bit() {
        let topo = fat_tree(4, GBPS);
        let demands: Vec<FlowDemand> = (0..24)
            .map(|i| {
                demand(
                    i,
                    i % 16,
                    (i * 7 + 3) % 16,
                    ((i % 5) + 1) as f64 * 90_000.0,
                    0.002 + i as f64 * 1e-4,
                )
            })
            .filter(|d| d.src != d.dst)
            .collect();

        let naive = naive_batch(&topo, 0.0001, 16, &demands, 3).unwrap();
        let engine = SlotAllocator::new(&topo, 0.0001, 16)
            .allocate_batch(&demands, 3)
            .unwrap();
        assert_same_schedule(&naive, &engine);
        for (n, e) in naive.iter().zip(&engine) {
            assert_eq!(n.on_time, e.on_time);
        }
    }

    fn assert_same_schedule(naive: &[FlowAlloc], engine: &[FlowAlloc]) {
        assert_eq!(naive.len(), engine.len());
        for (n, e) in naive.iter().zip(engine) {
            assert_eq!(n.path, e.path, "flow {}", n.id);
            assert_eq!(n.slices, e.slices, "flow {}", n.id);
            assert_eq!(n.completion_slot, e.completion_slot, "flow {}", n.id);
        }
    }

    fn sweeps() -> u64 {
        SWEEPS.with(|n| n.get())
    }

    /// Candidate 0 is idle and every other candidate has a middle link
    /// busy past candidate 0's completion: the busy-prefix bound must
    /// drop all three without sweeping them, and the schedule must still
    /// be the naive reference's.
    #[test]
    fn busy_prefix_bound_skips_candidates_that_cannot_win() {
        let topo = fat_tree(4, GBPS);
        let long = 40.0 * 125_000.0;
        // k = 4: hosts 0-1 and 2-3 are pod 0's two racks, 4.., 8.., 12..
        // the other pods. Three long flows shape the occupancy (each
        // lands on the first candidate still idle for it):
        let shaping = [
            // rack 0 -> rack 1 climbs rack 0's first uplink ...
            demand(0, 1, 3, long, 1.0),
            // ... pod 1 -> pod 3 takes the first core into pod 3 ...
            demand(1, 4, 12, long, 1.0),
            // ... so pod 0 rack 1 -> pod 3 climbs to the second core.
            demand(2, 2, 14, long, 1.0),
        ];
        let target = demand(3, 0, 8, 125_000.0, 1.0);
        let mut a = SlotAllocator::new(&topo, 0.001, 16);
        let mut got = a.allocate_batch(&shaping, 5).unwrap();

        // The shape the test needs, checked rather than assumed.
        let cands = a
            .engine_mut()
            .candidates(&topo, target.src, target.dst)
            .to_paths();
        assert_eq!(cands.len(), 4);
        let busy = |p: &Path| p.links.iter().any(|l| !a.occupancy(*l).is_empty());
        assert!(!busy(&cands[0]), "candidate 0 must be idle");
        for p in &cands[1..] {
            let mid = &p.links[1..p.links.len() - 1];
            assert!(
                mid.iter().any(|l| a.occupancy(*l).contains(5)),
                "every other candidate needs a busy middle link: {p:?}"
            );
        }

        let before = sweeps();
        got.extend(a.allocate_batch(std::slice::from_ref(&target), 5).unwrap());
        assert_eq!(sweeps() - before, 1, "only candidate 0 is swept");
        assert_eq!(got[3].path, cands[0]);
        assert_eq!(got[3].completion_slot, 6);
        let all: Vec<FlowDemand> = shaping.iter().chain([&target]).cloned().collect();
        assert_same_schedule(&naive_batch(&topo, 0.001, 16, &all, 5).unwrap(), &got);
    }

    /// A seeded search meets a lower-index candidate whose busy prefix
    /// puts it exactly *at* the incumbent: it may still tie and, being
    /// first, win — so the bound for it is `c`, not `c - 1`, and it must
    /// be swept.
    #[test]
    fn busy_prefix_bound_keeps_a_lower_index_candidate_that_can_tie() {
        let topo = fat_tree(4, GBPS);
        // Candidates 0 and 1 of the rack pair share the uplink this flow
        // keeps busy for two slots; 2 and 3 stay idle.
        let first = demand(0, 0, 8, 2.0 * 125_000.0, 1.0);
        let second = demand(1, 1, 9, 3.0 * 125_000.0, 1.0);
        let mut a = SlotAllocator::new(&topo, 0.001, 16);
        let mut got = a.allocate_batch(std::slice::from_ref(&first), 5).unwrap();

        let before = sweeps();
        let (cands, winner, al) = a
            .engine_mut()
            .search_and_commit(&topo, &second, 5, None, Some(3))
            .unwrap();
        assert_eq!(cands.len(), 4);
        // Seed 3 completes at 8; candidates 0 and 1 cannot start before
        // slot 7 (skipped); candidate 2 can reach 8 and takes the tie.
        assert_eq!((winner, al.completion_slot), (2, 8));
        assert_eq!(sweeps() - before, 2, "the seed and candidate 2 are swept");
        got.push(al);
        let all = [first, second];
        assert_same_schedule(&naive_batch(&topo, 0.001, 16, &all, 5).unwrap(), &got);
    }

    /// The engine can be re-bound to a different topology; occupancy and
    /// the path cache are rebuilt.
    #[test]
    fn ensure_topology_rebinds() {
        let t1 = dumbbell(2, 2, GBPS);
        let t2 = fat_tree(4, GBPS);
        let mut e = AllocEngine::new(0.001, 8);
        e.ensure_topology(&t1);
        e.allocate_batch(&t1, &[demand(0, 0, 2, 125_000.0, 1.0)], 0)
            .unwrap();
        e.ensure_topology(&t2);
        let al = e
            .allocate_batch(&t2, &[demand(1, 0, 8, 125_000.0, 1.0)], 0)
            .unwrap();
        assert_eq!(al[0].completion_slot, 1, "old occupancy must not leak");
    }

    /// Re-admitting the same endpoints hits the path cache instead of
    /// re-enumerating.
    #[test]
    fn path_cache_is_reused_across_allocations() {
        let topo = fat_tree(4, GBPS);
        let mut a = SlotAllocator::new(&topo, 0.001, 16);
        for i in 0..10 {
            a.reset();
            place(&mut a, &demand(i, 0, 8, 125_000.0, 1.0), 0);
        }
        assert_eq!(a.engine_mut().path_cache().enumerations(), 1);
    }

    /// Link failures make candidate sets empty: the engine must report
    /// `Disconnected` instead of panicking, and recover after the cable
    /// is restored (epoch-based cache invalidation).
    #[test]
    fn disconnected_endpoints_yield_structured_error() {
        let topo = dumbbell(1, 1, GBPS);
        let mut a = SlotAllocator::new(&topo, 0.001, 4);
        place(&mut a, &demand(0, 0, 1, 125_000.0, 1.0), 0);
        // The dumbbell cross cable is hop 1 of the only path.
        let cross = place(&mut a, &demand(1, 0, 1, 1.0, 1.0), 0).path.links[1];
        topo.fail_link(cross);
        a.reset();
        let err = a
            .allocate_batch(&[demand(3, 0, 1, 1.0, 1.0)], 0)
            .unwrap_err();
        assert_eq!(err, AllocError::Disconnected { flow: 3 });
        topo.restore_link(cross);
        let al = place(&mut a, &demand(4, 0, 1, 125_000.0, 1.0), 0);
        assert_eq!(al.completion_slot, 1);
    }
}
