//! Delta (incremental) re-allocation for Alg. 1–3.
//!
//! TAPS re-runs the whole slotted allocation on every task arrival
//! (Alg. 1), yet consecutive passes are nearly identical: most flows keep
//! their remaining bytes, their priority rank and their candidate paths,
//! so they land on the same path with the same slices merely *translated*
//! by the difference in start slot. This module exploits that. A
//! [`DeltaCache`] remembers, per flow, the candidate list, the winning
//! candidate index and the committed slices of the previous pass. The
//! next pass walks the demand list in priority order and maintains two
//! stamped per-link *dirty sets*:
//!
//! * **free-dirt** — links that *lost* occupancy relative to the
//!   translated previous pass (departed flows, flows that moved away,
//!   flows whose demand changed);
//! * **add-dirt** — links that *gained* occupancy (new arrivals, flows
//!   that moved in).
//!
//! Both are kept relative to the flow being placed: a flow only sees
//! its predecessors' occupancy, so a departed flow's links are marked
//! when the pass reaches the departed flow's old rank, not before the
//! first flow (a flow ranked ahead of it never had it as a predecessor).
//!
//! A flow whose previous winning path touches no dirty link of either
//! kind sees, on those links, exactly the translated occupancy of the
//! previous pass, so its first-fit result is the previous result shifted
//! — no scan needed. Candidates that only *gained* occupancy cannot
//! complete earlier than before and provably cannot steal the argmin
//! (monotonicity of first-fit under occupancy growth plus the
//! first-wins tie order), so only candidates touching *freed* links are
//! probed against the translated incumbent — none while nothing is
//! freed. Everything else falls back to the full per-flow search. The
//! result is bit-identical to the full pass — same paths, slices,
//! completion slots and work counters — which a debug-build cross-check
//! re-verifies on every batch.
//!
//! The fallback ladder, coarse to fine:
//!
//! 1. **Batch fallback** — cache invalid, topology/fault-epoch changed,
//!    start slot moved backwards, or the priority order of surviving
//!    flows changed: run the full pass (and rebuild the cache from it).
//! 2. **Pass degradation** — if more than `SEARCH_FALLBACK_FRACTION`
//!    (0.75) of the batch has already needed a full search, stop
//!    consulting the cache for the remainder: the dirty-set closure has
//!    swallowed the batch and the bookkeeping would only add overhead to
//!    what is now a full pass.
//! 3. **Per-flow fallback** — a dirty winner path or a changed demand
//!    sends just that flow through the ordinary search.

use crate::alloc::{count, AllocEngine, AllocError, FlowAlloc, FlowDemand, SlotDemand};
use taps_timeline::IntervalSet;
use taps_topology::cache::Candidates;
use taps_topology::{LinkId, Topology};

/// Fraction of a batch (of at least 8 flows) allowed through the full
/// search before the pass stops consulting the cache (fallback ladder
/// step 2).
const SEARCH_FALLBACK_FRACTION: f64 = 0.75;

/// What the previous pass decided for one flow.
struct DeltaEntry {
    /// [`FlowDemand::id`].
    id: usize,
    /// Source host index the entry was computed for.
    src: usize,
    /// Destination host index the entry was computed for.
    dst: usize,
    /// Remaining bytes the entry was computed for (compared bit-exactly).
    remaining: f64,
    /// Candidate list used (a view sharing the engine's path cache).
    candidates: Candidates,
    /// Index of the winning candidate in `candidates`.
    winner: usize,
    /// Committed slices, absolute slot indices of the previous pass.
    slices: IntervalSet,
    /// Completion slot of the previous pass.
    completion: u64,
}

/// Writes rank `rank` of the pass being built into `next` — over the
/// entry from the pass before last, whose slices buffer the caller then
/// refills in place, or as a new entry one past the end — and returns
/// the entry's slices to fill.
fn put_entry<'a>(
    next: &'a mut Vec<DeltaEntry>,
    rank: usize,
    d: &FlowDemand,
    candidates: Candidates,
    winner: usize,
    completion: u64,
) -> &'a mut IntervalSet {
    debug_assert!(rank <= next.len(), "ranks are written in order");
    let entry = DeltaEntry {
        id: d.id,
        src: d.src,
        dst: d.dst,
        remaining: d.remaining,
        candidates,
        winner,
        slices: IntervalSet::new(),
        completion,
    };
    if rank < next.len() {
        let old = &mut next[rank];
        let slices = std::mem::take(&mut old.slices);
        *old = DeltaEntry { slices, ..entry };
        &mut old.slices
    } else {
        next.push(entry);
        &mut next[rank].slices
    }
}

/// Stamped per-link dirty map: `begin` invalidates every mark in O(1) by
/// bumping the stamp; a mark or a lookup is a single indexed access.
/// Sized to the topology's directed-link count.
#[derive(Default)]
struct LinkDirt {
    stamp: u64,
    marks: Vec<u64>,
    /// Distinct links marked under the current stamp.
    len: usize,
}

impl LinkDirt {
    fn begin(&mut self, num_links: usize) {
        if self.marks.len() != num_links {
            self.marks = vec![0; num_links];
            self.stamp = 0;
        }
        self.stamp += 1;
        self.len = 0;
    }

    #[inline]
    fn mark(&mut self, links: &[LinkId]) {
        for l in links {
            let m = &mut self.marks[l.idx()];
            if *m != self.stamp {
                *m = self.stamp;
                self.len += 1;
            }
        }
    }

    /// Marks candidate `i` of `c`: its access links and its middle.
    #[inline]
    fn mark_candidate(&mut self, c: &Candidates, i: usize) {
        self.mark(c.access());
        self.mark(c.middle(i));
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether any of `links` is marked.
    #[inline]
    fn touches(&self, links: &[LinkId]) -> bool {
        !self.is_empty() && links.iter().any(|l| self.marks[l.idx()] == self.stamp)
    }
}

/// Work statistics accumulated by [`AllocEngine::allocate_batch_delta`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Batches served by the delta pass (cache was usable).
    pub delta_batches: u64,
    /// Batches that fell back to a full pass (invalid cache, topology or
    /// epoch change, start-slot regression, priority-order change).
    pub full_fallbacks: u64,
    /// Flows whose previous allocation was reused by pure translation.
    pub reused_flows: u64,
    /// Flows that moved to a probed candidate (freed capacity elsewhere).
    pub moved_flows: u64,
    /// Flows that kept their path but re-timed their slices (freed
    /// capacity on the winning path let them finish earlier).
    pub retimed_flows: u64,
    /// Flows that went through the ordinary full search.
    pub searched_flows: u64,
    /// Candidate paths probed against the translated incumbent.
    pub probed_candidates: u64,
    /// Delta passes that degraded mid-batch because the searched
    /// fraction crossed the fallback threshold.
    pub threshold_degrades: u64,
    /// Fault-epoch changes absorbed in place
    /// ([`AllocEngine::absorb_fault_epoch`]) instead of forcing a full
    /// fallback on the next batch.
    pub absorbed_epochs: u64,
    /// Cached entries dropped by absorption because the fault changed
    /// their candidate list (their old winner links become free-dirt).
    pub absorbed_dropped: u64,
}

/// Cross-pass memory for [`AllocEngine::allocate_batch_delta`]. One per
/// allocation context (scheduler, controller, bench replay); feed it
/// every batch or none — a stale cache is detected and rebuilt, never
/// silently trusted.
#[derive(Default)]
pub struct DeltaCache {
    /// False until the first successful pass installs entries.
    valid: bool,
    /// `start_slot` of the pass the entries describe.
    prev_start: u64,
    /// Fault-state epoch the entries were computed at.
    epoch: u64,
    /// Topology the entries were computed for.
    topo_name: String,
    /// Previous pass's decisions, in priority order: an entry's index is
    /// its rank.
    entries: Vec<DeltaEntry>,
    /// `(flow id, rank)` of every entry a demand may match, sorted by id.
    /// Entries fault absorption dropped are absent, so no demand matches
    /// them and the next pass treats them as departed.
    index: Vec<(usize, usize)>,
    /// The entries the running pass writes; `install` swaps them with
    /// `entries`. A pass that errors leaves `entries` (and `index`)
    /// describing the last successful pass; one that succeeds reuses the
    /// buffers of the pass before it.
    next: Vec<DeltaEntry>,
    /// Per demand of the running batch, the rank of its cached entry.
    ranks: Vec<Option<usize>>,
    add_dirt: LinkDirt,
    free_dirt: LinkDirt,
    stats: DeltaStats,
}

impl DeltaCache {
    /// An empty cache; the first batch through it runs the full pass.
    pub fn new() -> Self {
        Self::default()
    }

    /// Statistics accumulated so far.
    #[inline]
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Drops the cached pass; the next batch runs the full pass.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// `(flow id, rank)` of the last successful pass, sorted by id — the
    /// index [`crate::arbiter::Arbiter::commit`] keeps of the pass it
    /// commits (until a fault is absorbed, which drops entries).
    pub(crate) fn index(&self) -> &[(usize, usize)] {
        &self.index
    }

    /// Makes the `len` entries the pass wrote into `next` the cached
    /// pass.
    fn install(&mut self, topo: &Topology, len: usize, start_slot: u64) {
        self.next.truncate(len);
        std::mem::swap(&mut self.entries, &mut self.next);
        self.index.clear();
        self.index.extend(
            self.entries
                .iter()
                .enumerate()
                .map(|(rank, e)| (e.id, rank)),
        );
        self.index.sort_unstable();
        self.prev_start = start_slot;
        self.epoch = topo.epoch();
        self.topo_name.clone_from(&topo.name);
        self.valid = true;
    }

    /// Resolves every demand's cached rank into `ranks`, one binary
    /// search each, and reports whether the matched ranks strictly
    /// increase — every flow id shared by the cache and the demand list
    /// appears in the same relative order in both. The translation
    /// argument needs this: a reused flow's predecessors must be exactly
    /// the (translated) predecessors of the previous pass, less the
    /// departed ones.
    fn resolve_ranks(&mut self, demands: &[FlowDemand]) -> bool {
        self.ranks.clear();
        let mut last: Option<usize> = None;
        for d in demands {
            let rank = self
                .index
                .binary_search_by_key(&d.id, |&(id, _)| id)
                .ok()
                .map(|i| self.index[i].1);
            if let Some(r) = rank {
                if last.is_some_and(|prev| prev >= r) {
                    return false;
                }
                last = Some(r);
            }
            self.ranks.push(rank);
        }
        true
    }
}

impl AllocEngine {
    /// [`allocate_batch`] with cross-pass reuse through `cache`:
    /// bit-identical allocations and work counters, but flows undisturbed
    /// since the previous pass are translated instead of re-searched.
    /// Resets occupancy itself — callers must *not* call
    /// [`reset`](Self::reset) first (doing so is harmless, merely
    /// wasted work).
    ///
    /// [`allocate_batch`]: Self::allocate_batch
    // lint: l7-ok(allocation-layer primitive below the validation boundary: every public caller validates the staged batch at Scheduler::commit or Controller::commit before exposing it)
    pub fn allocate_batch_delta(
        &mut self,
        topo: &Topology,
        demands: &[FlowDemand],
        start_slot: u64,
        cache: &mut DeltaCache,
    ) -> Result<Vec<FlowAlloc>, AllocError> {
        self.ensure_topology(topo);
        let usable = cache.valid
            && cache.topo_name == topo.name
            && cache.epoch == topo.epoch()
            && start_slot >= cache.prev_start
            && cache.resolve_ranks(demands);
        if !usable {
            cache.stats.full_fallbacks += 1;
            return self.full_rebuild(topo, demands, start_slot, cache);
        }
        let delta = start_slot - cache.prev_start;
        self.reset();
        let counters_before = self.counters;

        let DeltaCache {
            ref entries,
            ref ranks,
            ref mut next,
            ref mut add_dirt,
            ref mut free_dirt,
            ref mut stats,
            ..
        } = *cache;
        add_dirt.begin(topo.num_links());
        free_dirt.begin(topo.num_links());

        let total = demands.len();
        let mut searched = 0usize;
        let mut reuse_enabled = true;
        // The lowest rank the pass has not yet reached.
        let mut cursor = 0usize;
        let mut out: Vec<FlowAlloc> = Vec::with_capacity(total);
        for (i, (d, &rank)) in demands.iter().zip(ranks).enumerate() {
            if let Some(r) = rank {
                // Departures, at their rank: matched ranks strictly
                // increase, so the ranks the cursor skips are entries no
                // demand matched — flows that left the batch or that fault
                // absorption dropped. Their contribution is gone from
                // this flow's predecessors, and only from those of flows
                // ranked after them.
                if reuse_enabled {
                    for gone in &entries[cursor..r] {
                        free_dirt.mark_candidate(&gone.candidates, gone.winner);
                    }
                }
                cursor = r + 1;
            }
            let entry = rank.map(|r| &entries[r]);
            // Translatable: same endpoints and bit-equal remaining bytes,
            // so the slot demand E of every candidate is unchanged.
            let translatable = entry.filter(|e| {
                e.src == d.src && e.dst == d.dst && e.remaining.to_bits() == d.remaining.to_bits()
            });
            let mut handled = false;
            if reuse_enabled {
                if let Some(e) = translatable {
                    let c = &e.candidates;
                    let (access, winner_middle) = (c.access(), c.middle(e.winner));
                    // The access links are every candidate's: test them
                    // once, and only the middles per candidate.
                    let access_freed = free_dirt.touches(access);
                    let winner_dirty = access_freed
                        || free_dirt.touches(winner_middle)
                        || add_dirt.touches(access)
                        || add_dirt.touches(winner_middle);
                    let translated = e.completion + delta;
                    let mut demand_on = SlotDemand::new(self.slot, d.remaining);
                    // Sweeps rank middles against the access links' merged
                    // occupancy, built by the first sweep that needs it.
                    let mut merged = false;
                    let mut rank = |engine: &mut AllocEngine, ci: usize, bound: u64| {
                        if !merged {
                            engine.merge_access(c);
                            merged = true;
                        }
                        let slots = demand_on.at(c.bottleneck(ci));
                        engine.rank(c, ci, start_slot, slots, bound)
                    };
                    // Seed the incumbent with the winner's exact current
                    // completion: the translation when its links are clean,
                    // one bounded sweep when they are dirty. The incumbent
                    // argument needs only `completion <= translated` — then
                    // untouched candidates still lose to it (their
                    // translated completions lost to the *old* one), and
                    // add-only candidates lose by monotonicity plus the
                    // first-wins tie order (see module docs). A winner
                    // pushed *past* its translated completion voids the
                    // argument, so that flow takes the full search.
                    let seed = if winner_dirty {
                        rank(self, e.winner, translated).map(|t| (t, e.winner))
                    } else {
                        Some((translated, e.winner))
                    };
                    if let Some(mut best) = seed {
                        let mut moved = false;
                        // Only a candidate that crosses a freed link can
                        // beat the incumbent, so while nothing is freed
                        // there is nothing to probe.
                        let probes = if free_dirt.is_empty() { 0 } else { c.len() };
                        for ci in 0..probes {
                            if ci == e.winner || !(access_freed || free_dirt.touches(c.middle(ci)))
                            {
                                continue;
                            }
                            stats.probed_candidates += 1;
                            // First-wins tie order: a lower-index probe may
                            // tie the incumbent, a higher-index one must
                            // strictly beat it.
                            let bound = if ci < best.1 {
                                best.0
                            } else {
                                best.0.saturating_sub(1)
                            };
                            if let Some(t) = rank(self, ci, bound) {
                                best = (t, ci);
                                moved = true;
                            }
                        }
                        let (completion, widx) = best;
                        let path = c.path(widx);
                        let cached = put_entry(next, i, d, c.clone(), widx, completion);
                        let slices = if moved || winner_dirty {
                            let s = self.first_free_on(
                                &path.links,
                                start_slot,
                                demand_on.at(c.bottleneck(widx)),
                            );
                            debug_assert_eq!(s.max_end(), Some(completion));
                            if moved {
                                // The flow moved: its old links lose the
                                // translated contribution, the new ones gain.
                                free_dirt.mark_candidate(c, e.winner);
                                add_dirt.mark(&path.links);
                                stats.moved_flows += 1;
                            } else if s.eq_shifted(&e.slices, delta) {
                                // The winner kept the argmin but its links
                                // changed, so the slices had to be re-derived
                                // exactly: an unchanged completion alone cannot
                                // prove translation when frees and adds both
                                // landed below it (a swapped idle slot keeps the
                                // completion while shifting a slice).
                                stats.reused_flows += 1;
                            } else {
                                // Re-timed in place: the old translated
                                // contribution is vacated and the new slices
                                // land elsewhere, so the links are dirty
                                // both ways.
                                free_dirt.mark(&path.links);
                                add_dirt.mark(&path.links);
                                stats.retimed_flows += 1;
                            }
                            cached.clone_from(&s);
                            s
                        } else {
                            // A fully clean winner that kept the argmin: the
                            // idle set below its completion translates, so
                            // the slices are exactly the translation.
                            stats.reused_flows += 1;
                            cached.clone_from(&e.slices);
                            cached.shift_in_place(delta);
                            cached.clone()
                        };
                        self.commit_slices(&path.links, &slices);
                        // Counters exactly as the full pass books them
                        // (trace byte-identity): all candidates ranked,
                        // winner depth scanned.
                        self.counters.paths_tried += count(c.len());
                        self.counters.slots_scanned += completion.saturating_sub(start_slot) + 1;
                        out.push(self.finish(d, path, slices, completion));
                        handled = true;
                    }
                }
            }
            if !handled {
                searched += 1;
                stats.searched_flows += 1;
                // A flow that kept its endpoints re-searches over the
                // candidate list its entry already holds (the path cache
                // would return the identical list), seeded with the
                // previous winner: it usually still ranks near-best, so
                // the other candidates prune at a tight bound.
                let known = entry.filter(|e| e.src == d.src && e.dst == d.dst);
                let (candidates, widx, al) = self.search_and_commit(
                    topo,
                    d,
                    start_slot,
                    known.map(|e| e.candidates.clone()),
                    known.map(|e| e.winner),
                )?;
                if reuse_enabled {
                    let links = al.path.links.as_slice();
                    match entry {
                        // A re-searched flow that landed exactly on its
                        // translated previous allocation disturbed nothing
                        // — marking it dirty would needlessly cascade. Its
                        // path is unchanged exactly when it searched its own
                        // list (a list holds distinct paths) and kept the
                        // winner; other endpoints give other access links.
                        Some(e)
                            if known.is_some()
                                && widx == e.winner
                                && al.slices.eq_shifted(&e.slices, delta) => {}
                        Some(e) => {
                            free_dirt.mark_candidate(&e.candidates, e.winner);
                            add_dirt.mark(links);
                        }
                        None => add_dirt.mark(links),
                    }
                    #[expect(
                        clippy::as_conversions,
                        reason = "batch sizes are far below 2^52; exact as f64"
                    )]
                    if total >= 8 && (searched as f64) > SEARCH_FALLBACK_FRACTION * (total as f64) {
                        // The dirty closure swallowed the batch: stop
                        // consulting the cache, the remainder is a plain
                        // full pass (results are identical either way).
                        reuse_enabled = false;
                        stats.threshold_degrades += 1;
                    }
                }
                put_entry(next, i, d, candidates, widx, al.completion_slot).clone_from(&al.slices);
                out.push(al);
            }
        }
        stats.delta_batches += 1;

        // Debug cross-check: the delta pass must be indistinguishable
        // from the full pass — allocations *and* work counters (the
        // counters feed trace events, which must stay byte-identical).
        if cfg!(debug_assertions) {
            let after_delta = self.counters;
            self.reset();
            #[expect(
                clippy::expect_used,
                reason = "debug cross-check: the delta pass succeeded, so the full pass over the same demands cannot fail"
            )]
            let full = self
                .allocate_batch(topo, demands, start_slot)
                .expect("full cross-check pass failed where delta succeeded");
            assert_eq!(full.len(), out.len());
            for (f, d) in full.iter().zip(&out) {
                assert_eq!(
                    f.path, d.path,
                    "delta/full path divergence on flow {}",
                    f.id
                );
                assert_eq!(
                    f.slices, d.slices,
                    "delta/full slices divergence on flow {}",
                    f.id
                );
                assert_eq!(f.completion_slot, d.completion_slot, "flow {}", f.id);
                assert_eq!(f.on_time, d.on_time, "flow {}", f.id);
            }
            assert_eq!(
                self.counters.paths_tried - after_delta.paths_tried,
                after_delta.paths_tried - counters_before.paths_tried,
                "delta/full divergence in paths_tried"
            );
            assert_eq!(
                self.counters.slots_scanned - after_delta.slots_scanned,
                after_delta.slots_scanned - counters_before.slots_scanned,
                "delta/full divergence in slots_scanned"
            );
            self.counters = after_delta;
        }

        cache.install(topo, total, start_slot);
        Ok(out)
    }

    /// Absorbs a fault-epoch change into `cache` so the next
    /// [`allocate_batch_delta`](Self::allocate_batch_delta) stays on the
    /// delta path instead of paying a full-pass fallback: recovery from a
    /// single link fault at 8k hosts should disturb only the flows whose
    /// candidate paths the fault touched, not every flow in flight.
    ///
    /// For every cached entry the engine re-fetches the pair's candidate
    /// list at the *current* epoch (the path cache self-refreshes) and
    /// compares it with the entry's list:
    ///
    /// * **identical** — a post-fault full pass would fetch the same
    ///   list, rank it over the same occupancy and book the same
    ///   counters, so the entry stays valid verbatim;
    /// * **changed** (a candidate died, or a restored link resurfaced
    ///   one) — the entry is dropped from the index. The flow re-enters
    ///   through the ordinary search branch exactly as a brand-new
    ///   arrival would, and since no demand matches the dropped entry any
    ///   more, the next pass marks its old winner links free-dirt when it
    ///   reaches the entry's rank, as for any departure, so flows
    ///   translated over the vacated capacity stay sound. A pass that
    ///   errors leaves the index as it found it, so its retry marks them
    ///   again.
    ///
    /// Finally the cache is re-stamped to the current epoch. Returns
    /// `false` when there was nothing to absorb into (invalid cache or
    /// different topology) — the next batch then falls back as before.
    /// Bit-identity with the full pass is unchanged (the debug-build
    /// cross-check still re-verifies every subsequent batch).
    pub fn absorb_fault_epoch(&mut self, topo: &Topology, cache: &mut DeltaCache) -> bool {
        self.ensure_topology(topo);
        if !cache.valid || cache.topo_name != topo.name {
            return false;
        }
        let epoch = topo.epoch();
        if cache.epoch == epoch {
            return true;
        }
        let before = cache.index.len();
        let entries = &cache.entries;
        cache.index.retain(|&(_, rank)| {
            let e = &entries[rank];
            self.candidates(topo, e.src, e.dst) == e.candidates
        });
        cache.epoch = epoch;
        cache.stats.absorbed_epochs += 1;
        cache.stats.absorbed_dropped += count(before - cache.index.len());
        true
    }

    /// Fallback ladder step 1: the ordinary full pass, recording each
    /// flow's candidates and winner so the *next* batch can go delta.
    fn full_rebuild(
        &mut self,
        topo: &Topology,
        demands: &[FlowDemand],
        start_slot: u64,
        cache: &mut DeltaCache,
    ) -> Result<Vec<FlowAlloc>, AllocError> {
        self.reset();
        // On error the cache keeps its previous entries: they still
        // describe the last *successful* pass, and every call
        // re-validates before trusting them.
        let next = &mut cache.next;
        let mut rank = 0;
        let out = self.full_pass(topo, demands, start_slot, |d, candidates, winner, al| {
            put_entry(next, rank, d, candidates, winner, al.completion_slot).clone_from(&al.slices);
            rank += 1;
        })?;
        cache.install(topo, out.len(), start_slot);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::SlotAllocator;
    use taps_topology::build::{dumbbell, fat_tree, GBPS};

    fn demand(id: usize, src: usize, dst: usize, remaining: f64, deadline: f64) -> FlowDemand {
        FlowDemand {
            id,
            src,
            dst,
            remaining,
            deadline,
        }
    }

    /// Deterministic pseudo-random demand mix over a fat-tree.
    fn mix(n: usize, hosts: usize, salt: usize) -> Vec<FlowDemand> {
        (0..n)
            .map(|i| {
                let src = (i * 13 + salt * 7) % hosts;
                let dst = (i * 29 + salt * 11 + 5) % hosts;
                demand(
                    i,
                    src,
                    if src == dst { (dst + 1) % hosts } else { dst },
                    ((i % 7) + 1) as f64 * 80_000.0,
                    0.004 + i as f64 * 1e-4,
                )
            })
            .collect()
    }

    /// Full-pass reference: fresh engine state per batch.
    fn full_reference(topo: &Topology, batches: &[(Vec<FlowDemand>, u64)]) -> Vec<Vec<FlowAlloc>> {
        let mut a = SlotAllocator::new(topo, 0.0001, 16);
        batches
            .iter()
            .map(|(demands, start)| {
                a.reset();
                a.allocate_batch(demands, *start).unwrap()
            })
            .collect()
    }

    fn assert_allocs_eq(full: &[FlowAlloc], delta: &[FlowAlloc]) {
        assert_eq!(full.len(), delta.len());
        for (f, d) in full.iter().zip(delta) {
            assert_eq!(f.id, d.id);
            assert_eq!(f.path, d.path, "flow {}", f.id);
            assert_eq!(f.slices, d.slices, "flow {}", f.id);
            assert_eq!(f.completion_slot, d.completion_slot, "flow {}", f.id);
            assert_eq!(f.on_time, d.on_time, "flow {}", f.id);
        }
    }

    /// Arrivals: each batch extends the previous with new flows and a
    /// later start slot. Most incumbents must be reused by translation.
    #[test]
    fn arrivals_translate_and_match_full() {
        let topo = fat_tree(4, GBPS);
        let base = mix(18, 16, 1);
        let batches: Vec<(Vec<FlowDemand>, u64)> = (0..6)
            .map(|step| (base[..6 + step * 2].to_vec(), (step as u64) * 3))
            .collect();
        let reference = full_reference(&topo, &batches);

        let mut a = SlotAllocator::new(&topo, 0.0001, 16);
        let mut cache = DeltaCache::new();
        for ((demands, start), want) in batches.iter().zip(&reference) {
            let got = a.allocate_batch_delta(demands, *start, &mut cache).unwrap();
            assert_allocs_eq(want, &got);
        }
        let s = cache.stats();
        assert_eq!(s.full_fallbacks, 1, "only the first batch is cold");
        assert_eq!(s.delta_batches, 5);
        assert!(s.reused_flows > 0, "no translation happened: {s:?}");
    }

    /// Departures: flows leave the batch; survivors on disturbed links
    /// must be re-searched, the rest translated — identical to full.
    #[test]
    fn departures_free_capacity_and_match_full() {
        let topo = fat_tree(4, GBPS);
        let base = mix(20, 16, 2);
        let batches: Vec<(Vec<FlowDemand>, u64)> = (0..5)
            .map(|step| {
                let keep: Vec<FlowDemand> = base
                    .iter()
                    .filter(|d| d.id % (step + 2) != 0 || step == 0)
                    .cloned()
                    .collect();
                (keep, (step as u64) * 2)
            })
            .collect();
        let reference = full_reference(&topo, &batches);

        let mut a = SlotAllocator::new(&topo, 0.0001, 16);
        let mut cache = DeltaCache::new();
        for ((demands, start), want) in batches.iter().zip(&reference) {
            let got = a.allocate_batch_delta(demands, *start, &mut cache).unwrap();
            assert_allocs_eq(want, &got);
        }
    }

    /// Departures are dirt at their own rank. The flow at rank `r` leaves
    /// and every flow after it changes size, so those take the search,
    /// which probes nothing: any probe the pass books comes from a flow
    /// ahead of `r`, and none may — they never had the departed flow as a
    /// predecessor, so all of them translate. Marking the departed links
    /// before the first flow would have them probe wherever one of their
    /// other candidates crosses those links (the witnesses below).
    #[test]
    fn departure_dirt_waits_for_its_rank() {
        let topo = fat_tree(4, GBPS);
        let base = mix(31, 16, 11);
        let mut witnesses = Vec::new();
        for r in 0..base.len() {
            let mut a = SlotAllocator::new(&topo, 0.0001, 16);
            let mut cache = DeltaCache::new();
            a.allocate_batch_delta(&base, 4, &mut cache).unwrap();
            let departed = &cache.entries[r];
            let gone: Vec<LinkId> = departed.candidates.links(departed.winner).collect();
            if cache.entries[..r].iter().any(|e| {
                (0..e.candidates.len())
                    .any(|ci| ci != e.winner && e.candidates.links(ci).any(|l| gone.contains(&l)))
            }) {
                witnesses.push(r);
            }
            let rest: Vec<FlowDemand> = base
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != r)
                .map(|(i, d)| FlowDemand {
                    remaining: d.remaining + if i > r { 1_000.0 } else { 0.0 },
                    ..d.clone()
                })
                .collect();
            let mut reference = SlotAllocator::new(&topo, 0.0001, 16);
            let want = reference.allocate_batch(&rest, 4).unwrap();
            let got = a.allocate_batch_delta(&rest, 4, &mut cache).unwrap();
            assert_allocs_eq(&want, &got);
            let s = cache.stats();
            assert_eq!(
                s.full_fallbacks, 1,
                "rank {r}: the second pass is a delta pass"
            );
            assert_eq!(
                s.reused_flows, r as u64,
                "rank {r}: every flow ahead translates"
            );
            assert_eq!(
                s.probed_candidates, 0,
                "rank {r}: a flow ahead of it probed"
            );
        }
        let last = base.len() - 1;
        assert!(
            witnesses.contains(&last) && witnesses.iter().any(|&r| r < last),
            "too few ranks where eager marking would probe: {witnesses:?}"
        );
    }

    /// Arrivals behind the cached flows at a later start free nothing:
    /// every incumbent translates, the newcomers are searched, free-dirt
    /// stays empty and no candidate is probed.
    #[test]
    fn a_pass_that_frees_nothing_probes_nothing() {
        let topo = fat_tree(4, GBPS);
        let all = mix(20, 16, 12);
        let mut a = SlotAllocator::new(&topo, 0.0001, 16);
        let mut cache = DeltaCache::new();
        a.allocate_batch_delta(&all[..14], 0, &mut cache).unwrap();

        let mut reference = SlotAllocator::new(&topo, 0.0001, 16);
        let want = reference.allocate_batch(&all, 3).unwrap();
        let got = a.allocate_batch_delta(&all, 3, &mut cache).unwrap();
        assert_allocs_eq(&want, &got);
        assert!(cache.free_dirt.is_empty(), "nothing was freed");
        assert!(!cache.add_dirt.is_empty(), "the newcomers added occupancy");
        let s = cache.stats();
        assert_eq!(
            (s.reused_flows, s.searched_flows, s.probed_candidates),
            (14, 6, 0),
            "{s:?}"
        );
    }

    /// Transmission progress: remaining bytes shrink between passes, so
    /// changed flows take the full search, unchanged ones translate.
    #[test]
    fn shrinking_remaining_matches_full() {
        let topo = fat_tree(4, GBPS);
        let base = mix(16, 16, 3);
        let batches: Vec<(Vec<FlowDemand>, u64)> = (0..5)
            .map(|step| {
                let ds: Vec<FlowDemand> = base
                    .iter()
                    .map(|d| {
                        let mut d = d.clone();
                        if d.id % 3 == 0 {
                            d.remaining = (d.remaining - 20_000.0 * step as f64).max(1.0);
                        }
                        d
                    })
                    .collect();
                (ds, (step as u64) * 4)
            })
            .collect();
        let reference = full_reference(&topo, &batches);

        let mut a = SlotAllocator::new(&topo, 0.0001, 16);
        let mut cache = DeltaCache::new();
        for ((demands, start), want) in batches.iter().zip(&reference) {
            let got = a.allocate_batch_delta(demands, *start, &mut cache).unwrap();
            assert_allocs_eq(want, &got);
        }
        assert!(cache.stats().searched_flows > 0);
        assert!(cache.stats().reused_flows > 0);
    }

    /// A fault-epoch change (link down, link restored) invalidates the
    /// cached pass: the next batch is a full rebuild, then delta resumes.
    #[test]
    fn fault_epoch_forces_full_rebuild() {
        let topo = fat_tree(4, GBPS);
        let demands = mix(12, 16, 4);
        let mut a = SlotAllocator::new(&topo, 0.0001, 16);
        let mut cache = DeltaCache::new();
        a.allocate_batch_delta(&demands, 0, &mut cache).unwrap();
        // Hop 1 (ToR → aggregation) — the fat-tree routes around it, so
        // the flow stays connected and the epoch bump is what matters.
        let dead = a.allocate_batch_delta(&demands, 2, &mut cache).unwrap()[0]
            .path
            .links[1];
        assert_eq!(cache.stats().full_fallbacks, 1);

        topo.fail_link(dead);
        let mut reference = SlotAllocator::new(&topo, 0.0001, 16);
        let want = reference.allocate_batch(&demands, 4).unwrap();
        let got = a.allocate_batch_delta(&demands, 4, &mut cache).unwrap();
        assert_allocs_eq(&want, &got);
        assert_eq!(cache.stats().full_fallbacks, 2, "fault must force rebuild");

        topo.restore_link(dead);
        reference.reset();
        let want = reference.allocate_batch(&demands, 6).unwrap();
        let got = a.allocate_batch_delta(&demands, 6, &mut cache).unwrap();
        assert_allocs_eq(&want, &got);
        assert_eq!(cache.stats().full_fallbacks, 3, "restore bumps the epoch");
    }

    /// Start-slot regression and priority-order changes are rejected by
    /// the batch gate (delta would be unsound); results still match full.
    #[test]
    fn start_regression_and_reorder_fall_back() {
        let topo = fat_tree(4, GBPS);
        let demands = mix(10, 16, 5);
        let mut a = SlotAllocator::new(&topo, 0.0001, 16);
        let mut cache = DeltaCache::new();
        a.allocate_batch_delta(&demands, 10, &mut cache).unwrap();

        let mut reference = SlotAllocator::new(&topo, 0.0001, 16);
        let want = reference.allocate_batch(&demands, 4).unwrap();
        let got = a.allocate_batch_delta(&demands, 4, &mut cache).unwrap();
        assert_allocs_eq(&want, &got);
        assert_eq!(cache.stats().full_fallbacks, 2, "start moved backwards");

        let mut reordered = demands.clone();
        reordered.reverse();
        reference.reset();
        let want = reference.allocate_batch(&reordered, 6).unwrap();
        let got = a.allocate_batch_delta(&reordered, 6, &mut cache).unwrap();
        assert_allocs_eq(&want, &got);
        assert_eq!(cache.stats().full_fallbacks, 3, "priority order changed");
    }

    /// A batch that crosses the searched-fraction threshold (every
    /// surviving flow's `remaining` changed, so every flow needs the
    /// full search) degrades the pass; allocations still match the full
    /// pass.
    #[test]
    fn threshold_crossing_degrades_but_matches() {
        let topo = fat_tree(4, GBPS);
        let base = mix(16, 16, 6);
        let mut a = SlotAllocator::new(&topo, 0.0001, 16);
        let mut cache = DeltaCache::new();
        a.allocate_batch_delta(&base, 0, &mut cache).unwrap();

        let shrunk: Vec<FlowDemand> = base
            .iter()
            .map(|d| FlowDemand {
                remaining: d.remaining - 10_000.0,
                ..d.clone()
            })
            .collect();
        let mut reference = SlotAllocator::new(&topo, 0.0001, 16);
        let want = reference.allocate_batch(&shrunk, 3).unwrap();
        let got = a.allocate_batch_delta(&shrunk, 3, &mut cache).unwrap();
        assert_allocs_eq(&want, &got);
        let s = cache.stats();
        assert_eq!(s.full_fallbacks, 1, "the second batch stayed a delta pass");
        assert_eq!(s.threshold_degrades, 1);
    }

    /// The disconnected error propagates and the stale-but-valid cache
    /// stays safe: the next successful pass re-validates or rebuilds.
    #[test]
    fn error_leaves_cache_safe() {
        let topo = dumbbell(1, 1, GBPS);
        let demands = vec![demand(0, 0, 1, 125_000.0, 1.0)];
        let mut a = SlotAllocator::new(&topo, 0.001, 4);
        let mut cache = DeltaCache::new();
        let first = a.allocate_batch_delta(&demands, 0, &mut cache).unwrap();
        let cross = first[0].path.links[1];

        topo.fail_link(cross);
        let err = a.allocate_batch_delta(&demands, 1, &mut cache).unwrap_err();
        assert_eq!(err, AllocError::Disconnected { flow: 0 });

        topo.restore_link(cross);
        let mut reference = SlotAllocator::new(&topo, 0.001, 4);
        let want = reference.allocate_batch(&demands, 2).unwrap();
        let got = a.allocate_batch_delta(&demands, 2, &mut cache).unwrap();
        assert_allocs_eq(&want, &got);
    }

    /// A link fault absorbed in place keeps the next batch on the delta
    /// path (no full fallback) with results bit-identical to a fresh
    /// full pass — the debug cross-check re-verifies every batch too.
    #[test]
    fn absorbed_fault_stays_on_the_delta_path() {
        let topo = fat_tree(4, GBPS);
        let demands = mix(12, 16, 8);
        let mut a = SlotAllocator::new(&topo, 0.0001, 16);
        let mut cache = DeltaCache::new();
        let first = a.allocate_batch_delta(&demands, 0, &mut cache).unwrap();
        // Hop 1 (ToR → aggregation): the fat-tree routes around it.
        let dead = first[0].path.links[1];
        assert_eq!(cache.stats().full_fallbacks, 1, "cold start only");

        topo.fail_link(dead);
        assert!(a.engine_mut().absorb_fault_epoch(&topo, &mut cache));
        let mut reference = SlotAllocator::new(&topo, 0.0001, 16);
        let want = reference.allocate_batch(&demands, 2).unwrap();
        let got = a.allocate_batch_delta(&demands, 2, &mut cache).unwrap();
        assert_allocs_eq(&want, &got);
        let s = cache.stats();
        assert_eq!(s.full_fallbacks, 1, "fault was absorbed, not a fallback");
        assert_eq!(s.absorbed_epochs, 1);
        assert!(s.absorbed_dropped >= 1, "the dead hop's flows re-enter");

        topo.restore_link(dead);
        assert!(a.engine_mut().absorb_fault_epoch(&topo, &mut cache));
        reference.reset();
        let want = reference.allocate_batch(&demands, 4).unwrap();
        let got = a.allocate_batch_delta(&demands, 4, &mut cache).unwrap();
        assert_allocs_eq(&want, &got);
        assert_eq!(cache.stats().full_fallbacks, 1, "restore absorbed too");
        assert_eq!(cache.stats().absorbed_epochs, 2);
    }

    /// Absorption is a no-op (but reports success) when the epoch never
    /// moved, and declines on an invalid cache.
    #[test]
    fn absorb_edge_cases() {
        let topo = fat_tree(4, GBPS);
        let demands = mix(6, 16, 9);
        let mut a = SlotAllocator::new(&topo, 0.0001, 16);
        let mut cache = DeltaCache::new();
        assert!(
            !a.engine_mut().absorb_fault_epoch(&topo, &mut cache),
            "nothing to absorb into before the first pass"
        );
        a.allocate_batch_delta(&demands, 0, &mut cache).unwrap();
        assert!(a.engine_mut().absorb_fault_epoch(&topo, &mut cache));
        assert_eq!(cache.stats().absorbed_epochs, 0, "same epoch: no work");

        cache.invalidate();
        assert!(!a.engine_mut().absorb_fault_epoch(&topo, &mut cache));
    }

    /// A disconnecting fault: the error propagates out of the absorbed
    /// pass, and the queued free-dirt survives the failed batch so the
    /// degraded retry (without the dead flow) is still exact.
    #[test]
    fn absorb_survives_a_failed_batch() {
        let topo = fat_tree(4, GBPS);
        let demands = mix(8, 16, 10);
        let mut a = SlotAllocator::new(&topo, 0.0001, 16);
        let mut cache = DeltaCache::new();
        let first = a.allocate_batch_delta(&demands, 0, &mut cache).unwrap();
        // Kill flow 0's access link: no surviving path for its pair.
        let sick = first[0].id;
        let access = first[0].path.links[0];
        topo.fail_link(access);
        assert!(a.engine_mut().absorb_fault_epoch(&topo, &mut cache));
        let err = a.allocate_batch_delta(&demands, 2, &mut cache).unwrap_err();
        assert_eq!(err, AllocError::Disconnected { flow: sick });

        // Degraded retry without the disconnected flow: bit-identical to
        // a fresh full pass over the survivors.
        let survivors: Vec<FlowDemand> = demands.iter().filter(|d| d.id != sick).cloned().collect();
        let mut reference = SlotAllocator::new(&topo, 0.0001, 16);
        let want = reference.allocate_batch(&survivors, 2).unwrap();
        let got = a.allocate_batch_delta(&survivors, 2, &mut cache).unwrap();
        assert_allocs_eq(&want, &got);
        assert_eq!(cache.stats().full_fallbacks, 1, "no fallback after fault");
        topo.reset_faults();
    }

    /// Work counters are identical between delta and full passes (they
    /// feed trace events, which must remain byte-identical).
    #[test]
    fn counters_match_full_pass() {
        let topo = fat_tree(4, GBPS);
        let base = mix(14, 16, 7);
        let batches: Vec<(Vec<FlowDemand>, u64)> = (0..4)
            .map(|step| (base[..8 + step * 2].to_vec(), (step as u64) * 3))
            .collect();

        let mut reference = SlotAllocator::new(&topo, 0.0001, 16);
        let mut a = SlotAllocator::new(&topo, 0.0001, 16);
        let mut cache = DeltaCache::new();
        for (demands, start) in &batches {
            reference.reset();
            reference.allocate_batch(demands, *start).unwrap();
            a.allocate_batch_delta(demands, *start, &mut cache).unwrap();
            assert_eq!(
                reference.engine_mut().take_counters(),
                a.engine_mut().take_counters(),
                "work counters diverged"
            );
        }
    }
}
