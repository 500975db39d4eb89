//! Slotted-timeline interval algebra for TAPS.
//!
//! TAPS (ICPP 2015, Alg. 3) allocates each flow a set of *transmission time
//! slices* on every link along its path, under the invariant that at most one
//! flow occupies a link during any slot. This crate provides the data
//! structure behind that bookkeeping: [`IntervalSet`], a sorted set of
//! disjoint half-open slot intervals `[start, end)` over `u64` slot indices,
//! with the operations the scheduler needs:
//!
//! * union of the occupancy sets of all links on a path (`union`),
//! * first-fit allocation of the earliest `E` idle slots after a release
//!   time (`allocate_first_free`), which is exactly the paper's
//!   *"allocate transfer time slices to the first `E` idle time slices"*,
//! * commitment and release of allocations (`insert_set`, `remove_set`).
//!
//! All operations keep the internal representation normalized (sorted,
//! disjoint, non-adjacent), which the property tests in this crate verify.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Rules L2, L3, L4, L6 and marker hygiene, library code only (DESIGN.md §13).
#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::dbg_macro, clippy::allow_attributes))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(unfulfilled_lint_expectations))]

use std::fmt;

mod clock;
pub use clock::Clock;

/// A half-open interval of slot indices `[start, end)`.
///
/// Invariant: `start < end`. Empty intervals are never stored.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// First slot covered by the interval.
    pub start: u64,
    /// One past the last slot covered by the interval.
    pub end: u64,
}

impl Interval {
    /// Creates a new interval; panics if `start >= end`.
    #[inline]
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start < end, "empty or inverted interval [{start}, {end})");
        Interval { start, end }
    }

    /// Number of slots covered.
    #[inline]
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Intervals are never empty, but clippy wants the pair.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `slot` lies inside the interval.
    #[inline]
    pub fn contains(&self, slot: u64) -> bool {
        self.start <= slot && slot < self.end
    }

    /// Whether two intervals share at least one slot.
    #[inline]
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Whether two intervals overlap or touch (can be merged into one).
    #[inline]
    pub fn touches(&self, other: &Interval) -> bool {
        self.start <= other.end && other.start <= self.end
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// Widest k-way sweep whose cursors live in the small stack arrays: a
/// path's links (at most 6 hops on the paper's topology families) plus a
/// pre-merged shared set. Clearing the arrays is a per-candidate cost of
/// Alg. 2, so they are sized to what paths need.
const SMALL_WAYS: usize = 8;
/// Widest k-way merge or sweep done with stack cursors at all; wider
/// inputs fold pairwise.
const MAX_WAYS: usize = 64;

/// A normalized set of slot indices, stored as sorted, disjoint,
/// non-adjacent [`Interval`]s.
///
/// This is the `O_x` (occupied-time set of link `x`) of the paper, and also
/// the `A_j^i` (allocated time slices of flow `j` of task `i`).
#[derive(Default, PartialEq, Eq)]
pub struct IntervalSet {
    ivs: Vec<Interval>,
}

impl Clone for IntervalSet {
    fn clone(&self) -> Self {
        IntervalSet {
            ivs: self.ivs.clone(),
        }
    }

    /// Copies into the buffer `self` already owns.
    fn clone_from(&mut self, source: &Self) {
        self.ivs.clone_from(&source.ivs);
    }
}

impl fmt::Debug for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.ivs.iter()).finish()
    }
}

impl IntervalSet {
    /// The empty set.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from arbitrary (possibly overlapping, unsorted)
    /// intervals.
    pub fn from_intervals<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        let mut s = Self::new();
        for iv in iter {
            s.insert(iv);
        }
        s
    }

    /// A set containing the single interval `[start, end)`; empty if
    /// `start >= end`.
    pub fn from_range(start: u64, end: u64) -> Self {
        let mut s = Self::new();
        if start < end {
            s.ivs.push(Interval::new(start, end));
        }
        s
    }

    /// Whether the set contains no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }

    /// Empties the set, keeping the allocated buffer for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.ivs.clear();
    }

    /// Total number of slots in the set.
    pub fn total_slots(&self) -> u64 {
        self.ivs.iter().map(Interval::len).sum()
    }

    /// Number of maximal intervals in the normalized representation.
    #[inline]
    pub fn interval_count(&self) -> usize {
        self.ivs.len()
    }

    /// Iterator over the maximal intervals in ascending order.
    #[inline]
    pub fn intervals(&self) -> impl Iterator<Item = Interval> + '_ {
        self.ivs.iter().copied()
    }

    /// Whether `slot` is in the set.
    pub fn contains(&self, slot: u64) -> bool {
        self.ivs
            .binary_search_by(|iv| {
                if iv.end <= slot {
                    std::cmp::Ordering::Less
                } else if iv.start > slot {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Smallest slot at or after `from` that is not in the set.
    ///
    /// A first-fit allocation of `slots` slots from `from` cannot start
    /// earlier, on this set or on any union it is part of, so this slot
    /// plus `slots` is a lower bound on its completion: Alg. 2 uses it
    /// to drop a candidate path before sweeping it.
    #[inline]
    pub fn first_idle_at_or_after(&self, from: u64) -> u64 {
        match self.ivs.get(self.ivs.partition_point(|iv| iv.end <= from)) {
            Some(iv) if iv.start <= from => iv.end,
            _ => from,
        }
    }

    /// Largest slot in the set plus one, or `None` if empty.
    pub fn max_end(&self) -> Option<u64> {
        self.ivs.last().map(|iv| iv.end)
    }

    /// Smallest slot in the set, or `None` if empty.
    pub fn min_start(&self) -> Option<u64> {
        self.ivs.first().map(|iv| iv.start)
    }

    /// Inserts an interval, merging as needed. `O(log n + k)` where `k` is
    /// the number of merged neighbours.
    pub fn insert(&mut self, iv: Interval) {
        // Find the insertion window: all stored intervals that touch `iv`.
        let lo = self.ivs.partition_point(|s| s.end < iv.start);
        let hi = self.ivs.partition_point(|s| s.start <= iv.end);
        if lo == hi {
            self.ivs.insert(lo, iv);
            return;
        }
        let start = self.ivs[lo].start.min(iv.start);
        let end = self.ivs[hi - 1].end.max(iv.end);
        self.ivs.drain(lo..hi);
        self.ivs.insert(lo, Interval::new(start, end));
    }

    /// Inserts the range `[start, end)`; no-op if empty.
    pub fn insert_range(&mut self, start: u64, end: u64) {
        if start < end {
            self.insert(Interval::new(start, end));
        }
    }

    /// Removes an interval from the set, splitting as needed.
    pub fn remove(&mut self, iv: Interval) {
        let lo = self.ivs.partition_point(|s| s.end <= iv.start);
        let hi = self.ivs.partition_point(|s| s.start < iv.end);
        if lo == hi {
            return; // no overlap
        }
        let first = self.ivs[lo];
        let last = self.ivs[hi - 1];
        let mut replacement: Vec<Interval> = Vec::with_capacity(2);
        if first.start < iv.start {
            replacement.push(Interval::new(first.start, iv.start));
        }
        if last.end > iv.end {
            replacement.push(Interval::new(iv.end, last.end));
        }
        self.ivs.splice(lo..hi, replacement);
    }

    /// Removes the range `[start, end)`; no-op if empty.
    pub fn remove_range(&mut self, start: u64, end: u64) {
        if start < end {
            self.remove(Interval::new(start, end));
        }
    }

    /// Inserts every interval of `other` into `self`.
    pub fn insert_set(&mut self, other: &IntervalSet) {
        if self.is_empty() {
            // A link's set is cleared on every re-allocation and refilled
            // here: keep its buffer.
            self.clone_from(other);
            return;
        }
        for iv in &other.ivs {
            self.insert(*iv);
        }
    }

    /// Removes every interval of `other` from `self`.
    pub fn remove_set(&mut self, other: &IntervalSet) {
        for iv in &other.ivs {
            self.remove(*iv);
        }
    }

    /// Returns the union of two sets. Linear-time merge.
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let mut out: Vec<Interval> = Vec::with_capacity(self.ivs.len() + other.ivs.len());
        let (mut i, mut j) = (0usize, 0usize);
        let mut cur: Option<Interval> = None;
        while i < self.ivs.len() || j < other.ivs.len() {
            let next = if j >= other.ivs.len()
                || (i < self.ivs.len() && self.ivs[i].start <= other.ivs[j].start)
            {
                let iv = self.ivs[i];
                i += 1;
                iv
            } else {
                let iv = other.ivs[j];
                j += 1;
                iv
            };
            match cur {
                None => cur = Some(next),
                Some(c) if c.touches(&next) => {
                    cur = Some(Interval::new(c.start, c.end.max(next.end)));
                }
                Some(c) => {
                    out.push(c);
                    cur = Some(next);
                }
            }
        }
        if let Some(c) = cur {
            out.push(c);
        }
        IntervalSet { ivs: out }
    }

    /// K-way union of `sets` written into `out`, reusing `out`'s buffer.
    ///
    /// This is the hot step of Alg. 3 — `T_ocp = ⋃ O_x` over a candidate
    /// path's links — restated so that the caller can thread one scratch
    /// [`IntervalSet`] through every candidate instead of allocating a
    /// fresh union chain per path. For the small `k` of a path (≤ 6 hops
    /// on the paper's topologies) the merge does a linear scan over the
    /// `k` cursors per emitted interval, which beats a heap.
    pub fn union_many(sets: &[&IntervalSet], out: &mut IntervalSet) {
        out.ivs.clear();
        match sets.len() {
            0 => return,
            1 => {
                out.ivs.extend_from_slice(&sets[0].ivs);
                return;
            }
            _ => {}
        }
        // Cursor per input set; paths never have anywhere near this many
        // links, but fall back to a pairwise fold if a caller does.
        if sets.len() > MAX_WAYS {
            let mut acc = IntervalSet::new();
            for s in sets {
                acc = acc.union(s);
            }
            *out = acc;
            return;
        }
        let mut pos = [0usize; MAX_WAYS];
        let mut cur: Option<Interval> = None;
        loop {
            // Pick the input whose next interval starts earliest.
            let mut min_i = usize::MAX;
            let mut min_start = u64::MAX;
            for (i, s) in sets.iter().enumerate() {
                if pos[i] < s.ivs.len() {
                    let st = s.ivs[pos[i]].start;
                    if st < min_start {
                        min_start = st;
                        min_i = i;
                    }
                }
            }
            if min_i == usize::MAX {
                break;
            }
            let next = sets[min_i].ivs[pos[min_i]];
            pos[min_i] += 1;
            match cur {
                None => cur = Some(next),
                Some(c) if c.touches(&next) => {
                    cur = Some(Interval::new(c.start, c.end.max(next.end)));
                }
                Some(c) => {
                    out.ivs.push(c);
                    cur = Some(next);
                }
            }
        }
        if let Some(c) = cur {
            out.ivs.push(c);
        }
    }

    /// Completion slot of a first-fit allocation of `slots` idle slots at
    /// or after `from`, **without materializing the slices**, pruned
    /// against `bound`: returns `Some(completion)` iff the allocation
    /// would complete at or before `bound`, `None` otherwise (or when
    /// `slots == 0`).
    ///
    /// Alg. 2 only needs the completion slot to rank candidate paths; the
    /// slices themselves are materialized (via
    /// [`allocate_first_free`](Self::allocate_first_free)) for the winning
    /// path alone. Passing the incumbent best completion as `bound` lets
    /// the scan abandon a losing candidate as soon as `cursor + remaining
    /// need` overshoots it, long before walking the whole occupancy tail.
    pub fn first_fit_bound(&self, from: u64, slots: u64, bound: u64) -> Option<u64> {
        if slots == 0 {
            return None;
        }
        let mut need = slots;
        let mut cursor = from;
        let mut idx = self.ivs.partition_point(|iv| iv.end <= from);
        loop {
            // Even a fully idle tail from here finishes at cursor + need.
            if cursor.saturating_add(need) > bound {
                return None;
            }
            let gap_end = if idx < self.ivs.len() {
                self.ivs[idx].start
            } else {
                u64::MAX
            };
            if gap_end > cursor {
                let take = need.min(gap_end - cursor);
                need -= take;
                if need == 0 {
                    return Some(cursor + take);
                }
            }
            #[expect(
                clippy::unreachable,
                reason = "the gap past the last interval is unbounded, so `need` always drains there"
            )]
            if idx >= self.ivs.len() {
                unreachable!("idle tail is infinite, allocation cannot fail");
            }
            cursor = cursor.max(self.ivs[idx].end);
            idx += 1;
        }
    }

    /// [`first_fit_bound`](Self::first_fit_bound) over the union of
    /// `sets`, computed by a k-way sweep **without materializing the
    /// union**. Equivalent to `union_many(sets, &mut tmp)` followed by
    /// `tmp.first_fit_bound(from, slots, bound)`, but the sweep stops as
    /// soon as the fit is found or the bound is overshot — the dominant
    /// saving of Alg. 2's candidate ranking, where losing candidates are
    /// abandoned after a handful of intervals instead of paying a full
    /// union over the whole occupancy horizon.
    pub fn first_fit_bound_many(
        sets: &[&IntervalSet],
        from: u64,
        slots: u64,
        bound: u64,
    ) -> Option<u64> {
        if slots == 0 {
            return None;
        }
        match sets.len() {
            0 => {
                let c = from.saturating_add(slots);
                (c <= bound).then_some(c)
            }
            1..=SMALL_WAYS => Self::sweep::<SMALL_WAYS>(sets, from, slots, bound),
            k if k > MAX_WAYS => {
                let mut tmp = IntervalSet::new();
                Self::union_many(sets, &mut tmp);
                tmp.first_fit_bound(from, slots, bound)
            }
            _ => Self::sweep::<MAX_WAYS>(sets, from, slots, bound),
        }
    }

    /// The k-way sweep of [`first_fit_bound_many`](Self::first_fit_bound_many)
    /// with its cursors in `W`-entry stack arrays (`1 <= sets.len() <= W`,
    /// `slots > 0`).
    fn sweep<const W: usize>(
        sets: &[&IntervalSet],
        from: u64,
        slots: u64,
        bound: u64,
    ) -> Option<u64> {
        // Cursor per input set, skipping intervals that end at or before
        // `from` (they cannot cover any slot the scan visits). `starts`
        // caches each cursor's next interval start (`u64::MAX` when the
        // input is exhausted) so the per-step argmin runs over a dense
        // local array instead of chasing the interval vectors.
        let k = sets.len();
        let mut pos = [0usize; W];
        let mut starts = [u64::MAX; W];
        for i in 0..k {
            let p = sets[i].ivs.partition_point(|iv| iv.end <= from);
            pos[i] = p;
            if let Some(iv) = sets[i].ivs.get(p) {
                starts[i] = iv.start;
            }
        }
        let mut need = slots;
        let mut cursor = from;
        loop {
            // Even a fully idle tail from here finishes at cursor + need.
            if cursor.saturating_add(need) > bound {
                return None;
            }
            // Earliest-starting unconsumed interval across all inputs.
            let mut min_i = 0usize;
            let mut min_start = starts[0];
            for (i, &st) in starts[1..k].iter().enumerate() {
                if st < min_start {
                    min_start = st;
                    min_i = i + 1;
                }
            }
            // The union is idle on [cursor, min_start) — or the infinite
            // tail when every input is exhausted.
            if min_start > cursor {
                let take = need.min(min_start - cursor);
                need -= take;
                if need == 0 {
                    return Some(cursor + take);
                }
            }
            #[expect(
                clippy::unreachable,
                reason = "the gap past the last interval is unbounded, so `need` always drains there"
            )]
            if min_start == u64::MAX {
                unreachable!("idle tail is infinite, allocation cannot fail");
            }
            let p = pos[min_i];
            cursor = cursor.max(sets[min_i].ivs[p].end);
            pos[min_i] = p + 1;
            starts[min_i] = match sets[min_i].ivs.get(p + 1) {
                Some(iv) => iv.start,
                None => u64::MAX,
            };
        }
    }

    /// Returns the intersection of two sets. Linear-time merge.
    pub fn intersection(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.ivs.len() && j < other.ivs.len() {
            let a = self.ivs[i];
            let b = other.ivs[j];
            let start = a.start.max(b.start);
            let end = a.end.min(b.end);
            if start < end {
                out.push(Interval::new(start, end));
            }
            if a.end <= b.end {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalSet { ivs: out }
    }

    /// Whether two sets share any slot.
    pub fn intersects(&self, other: &IntervalSet) -> bool {
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.ivs.len() && j < other.ivs.len() {
            let a = self.ivs[i];
            let b = other.ivs[j];
            if a.overlaps(&b) {
                return true;
            }
            if a.end <= b.end {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }

    /// The paper's Alg. 3 inner step: allocate the earliest `slots` idle
    /// slots at or after `from`, where *idle* means "not in `self`"
    /// (`self` being the union `T_ocp` of the occupancy sets of all links on
    /// the candidate path).
    ///
    /// Returns the allocated set (exactly `slots` slots, earliest-first), or
    /// `None` when `slots == 0`.
    ///
    /// The allocation is taken greedily from the complement of `self`, so
    /// the returned set's `max_end()` is the flow's completion slot on this
    /// path — the quantity Alg. 2 minimizes over candidate paths.
    pub fn allocate_first_free(&self, from: u64, slots: u64) -> Option<IntervalSet> {
        if slots == 0 {
            return None;
        }
        let mut need = slots;
        let mut out = Vec::new();
        let mut cursor = from;
        let mut idx = self.ivs.partition_point(|iv| iv.end <= from);
        loop {
            let gap_end = if idx < self.ivs.len() {
                self.ivs[idx].start
            } else {
                u64::MAX
            };
            if gap_end > cursor {
                let take = need.min(gap_end - cursor);
                out.push(Interval::new(cursor, cursor + take));
                need -= take;
                if need == 0 {
                    return Some(IntervalSet { ivs: out });
                }
            }
            #[expect(
                clippy::unreachable,
                reason = "the gap past the last interval is unbounded, so `need` always drains there"
            )]
            if idx >= self.ivs.len() {
                // Unbounded idle tail; we must have finished above.
                unreachable!("idle tail is infinite, allocation cannot fail");
            }
            cursor = cursor.max(self.ivs[idx].end);
            idx += 1;
        }
    }

    /// The set translated `delta` slots later: every interval's start and
    /// end shifted by `+delta`. Normalization is preserved (translation
    /// keeps order and gaps). Used by the delta re-allocation engine to
    /// reuse a previous batch's slices at a later batch start without
    /// re-running the first-fit scan.
    pub fn shifted(&self, delta: u64) -> IntervalSet {
        debug_assert!(
            self.ivs
                .last()
                .is_none_or(|iv| iv.end.checked_add(delta).is_some()),
            "shift overflows u64"
        );
        IntervalSet {
            ivs: self
                .ivs
                .iter()
                .map(|iv| Interval::new(iv.start + delta, iv.end + delta))
                .collect(),
        }
    }

    /// Translates the set `delta` slots later in place, keeping its
    /// buffer: [`shifted`](Self::shifted) without the new allocation.
    pub fn shift_in_place(&mut self, delta: u64) {
        debug_assert!(
            self.ivs
                .last()
                .is_none_or(|iv| iv.end.checked_add(delta).is_some()),
            "shift overflows u64"
        );
        for iv in &mut self.ivs {
            iv.start += delta;
            iv.end += delta;
        }
    }

    /// Whether `self` equals `other` translated `delta` slots later,
    /// without allocating the shifted copy. Equivalent to
    /// `*self == other.shifted(delta)`.
    pub fn eq_shifted(&self, other: &IntervalSet, delta: u64) -> bool {
        self.ivs.len() == other.ivs.len()
            && self
                .ivs
                .iter()
                .zip(&other.ivs)
                .all(|(a, b)| a.start == b.start + delta && a.end == b.end + delta)
    }

    /// Checks the internal normalization invariant. Used by tests.
    pub fn is_normalized(&self) -> bool {
        self.ivs.windows(2).all(|w| w[0].end < w[1].start)
            && self.ivs.iter().all(|iv| iv.start < iv.end)
    }
}

impl FromIterator<Interval> for IntervalSet {
    fn from_iter<T: IntoIterator<Item = Interval>>(iter: T) -> Self {
        Self::from_intervals(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ranges: &[(u64, u64)]) -> IntervalSet {
        let mut s = IntervalSet::new();
        for &(a, b) in ranges {
            s.insert_range(a, b);
        }
        s
    }

    #[test]
    fn insert_disjoint_keeps_order() {
        let s = set(&[(5, 7), (1, 2), (10, 12)]);
        assert_eq!(
            s.intervals().collect::<Vec<_>>(),
            vec![
                Interval::new(1, 2),
                Interval::new(5, 7),
                Interval::new(10, 12)
            ]
        );
        assert!(s.is_normalized());
    }

    #[test]
    fn insert_merges_overlapping() {
        let s = set(&[(1, 4), (3, 6), (6, 8)]);
        assert_eq!(s.intervals().collect::<Vec<_>>(), vec![Interval::new(1, 8)]);
    }

    #[test]
    fn insert_merges_adjacent() {
        let s = set(&[(1, 3), (3, 5)]);
        assert_eq!(s.interval_count(), 1);
        assert_eq!(s.total_slots(), 4);
    }

    #[test]
    fn insert_bridges_many() {
        let s = set(&[(0, 1), (2, 3), (4, 5), (6, 7), (1, 6)]);
        assert_eq!(s.intervals().collect::<Vec<_>>(), vec![Interval::new(0, 7)]);
    }

    #[test]
    fn remove_splits() {
        let mut s = set(&[(0, 10)]);
        s.remove_range(3, 6);
        assert_eq!(
            s.intervals().collect::<Vec<_>>(),
            vec![Interval::new(0, 3), Interval::new(6, 10)]
        );
    }

    #[test]
    fn remove_spanning_many() {
        let mut s = set(&[(0, 2), (4, 6), (8, 10)]);
        s.remove_range(1, 9);
        assert_eq!(
            s.intervals().collect::<Vec<_>>(),
            vec![Interval::new(0, 1), Interval::new(9, 10)]
        );
    }

    #[test]
    fn remove_no_overlap_is_noop() {
        let mut s = set(&[(5, 7)]);
        s.remove_range(0, 5);
        s.remove_range(7, 12);
        assert_eq!(s, set(&[(5, 7)]));
    }

    #[test]
    fn contains_works() {
        let s = set(&[(2, 4), (8, 9)]);
        assert!(!s.contains(1));
        assert!(s.contains(2));
        assert!(s.contains(3));
        assert!(!s.contains(4));
        assert!(s.contains(8));
        assert!(!s.contains(9));
    }

    #[test]
    fn union_basic() {
        let a = set(&[(0, 2), (6, 8)]);
        let b = set(&[(2, 4), (7, 10)]);
        let u = a.union(&b);
        assert_eq!(
            u.intervals().collect::<Vec<_>>(),
            vec![Interval::new(0, 4), Interval::new(6, 10)]
        );
    }

    #[test]
    fn union_with_empty() {
        let a = set(&[(1, 3)]);
        assert_eq!(a.union(&IntervalSet::new()), a);
        assert_eq!(IntervalSet::new().union(&a), a);
    }

    #[test]
    fn intersection_basic() {
        let a = set(&[(0, 5), (10, 15)]);
        let b = set(&[(3, 12)]);
        let i = a.intersection(&b);
        assert_eq!(
            i.intervals().collect::<Vec<_>>(),
            vec![Interval::new(3, 5), Interval::new(10, 12)]
        );
        assert!(a.intersects(&b));
        assert!(!set(&[(0, 1)]).intersects(&set(&[(1, 2)])));
    }

    #[test]
    fn allocate_in_empty_set_is_contiguous() {
        let s = IntervalSet::new();
        let a = s.allocate_first_free(10, 5).unwrap();
        assert_eq!(
            a.intervals().collect::<Vec<_>>(),
            vec![Interval::new(10, 15)]
        );
    }

    #[test]
    fn allocate_skips_busy() {
        // Busy: [2,4) and [6,7). Ask for 4 slots from 0:
        // idle slots: 0,1,4,5 -> [0,2) + [4,6)
        let s = set(&[(2, 4), (6, 7)]);
        let a = s.allocate_first_free(0, 4).unwrap();
        assert_eq!(
            a.intervals().collect::<Vec<_>>(),
            vec![Interval::new(0, 2), Interval::new(4, 6)]
        );
        assert_eq!(a.max_end(), Some(6));
        assert!(!a.intersects(&s));
    }

    #[test]
    fn allocate_from_inside_busy_interval() {
        let s = set(&[(0, 10)]);
        let a = s.allocate_first_free(4, 3).unwrap();
        assert_eq!(
            a.intervals().collect::<Vec<_>>(),
            vec![Interval::new(10, 13)]
        );
    }

    #[test]
    fn allocate_zero_slots_is_none() {
        assert!(IntervalSet::new().allocate_first_free(0, 0).is_none());
    }

    #[test]
    fn min_max_endpoints() {
        let s = set(&[(3, 5), (9, 11)]);
        assert_eq!(s.min_start(), Some(3));
        assert_eq!(s.max_end(), Some(11));
        assert_eq!(IntervalSet::new().max_end(), None);
    }

    #[test]
    fn insert_and_remove_sets() {
        let mut s = set(&[(0, 4)]);
        s.insert_set(&set(&[(6, 8), (3, 5)]));
        assert_eq!(s, set(&[(0, 5), (6, 8)]));
        s.remove_set(&set(&[(1, 2), (6, 7)]));
        assert_eq!(s, set(&[(0, 1), (2, 5), (7, 8)]));
    }

    #[test]
    fn insert_set_into_an_empty_set_keeps_its_buffer() {
        let mut s = set(&[(0, 2), (4, 6), (8, 10), (12, 14)]);
        s.clear();
        let (ptr, cap) = (s.ivs.as_ptr(), s.ivs.capacity());
        s.insert_set(&set(&[(1, 3), (5, 7)]));
        assert_eq!(s, set(&[(1, 3), (5, 7)]));
        assert_eq!(s.ivs.capacity(), cap);
        assert_eq!(s.ivs.as_ptr(), ptr);
    }

    #[test]
    fn from_range_empty() {
        assert!(IntervalSet::from_range(5, 5).is_empty());
        assert!(IntervalSet::from_range(6, 5).is_empty());
    }

    #[test]
    fn clear_empties_but_keeps_capacity() {
        let mut s = set(&[(0, 2), (4, 6)]);
        s.clear();
        assert!(s.is_empty());
        s.insert_range(1, 3);
        assert_eq!(s, set(&[(1, 3)]));
    }

    #[test]
    fn union_many_matches_folded_union() {
        let a = set(&[(0, 2), (6, 8)]);
        let b = set(&[(2, 4), (7, 10)]);
        let c = set(&[(12, 14)]);
        let folded = a.union(&b).union(&c);
        let mut out = IntervalSet::new();
        IntervalSet::union_many(&[&a, &b, &c], &mut out);
        assert_eq!(out, folded);
        assert!(out.is_normalized());
    }

    #[test]
    fn union_many_edge_arities() {
        let a = set(&[(3, 5)]);
        let mut out = set(&[(0, 100)]); // stale contents must be discarded
        IntervalSet::union_many(&[], &mut out);
        assert!(out.is_empty());
        IntervalSet::union_many(&[&a], &mut out);
        assert_eq!(out, a);
        let e = IntervalSet::new();
        IntervalSet::union_many(&[&e, &a, &e], &mut out);
        assert_eq!(out, a);
    }

    #[test]
    fn union_many_beyond_fixed_ways_falls_back() {
        let sets: Vec<IntervalSet> = (0..100u64).map(|i| set(&[(2 * i, 2 * i + 1)])).collect();
        let refs: Vec<&IntervalSet> = sets.iter().collect();
        let mut out = IntervalSet::new();
        IntervalSet::union_many(&refs, &mut out);
        assert_eq!(out.total_slots(), 100);
        assert_eq!(out.interval_count(), 100);
        assert!(out.is_normalized());
    }

    #[test]
    fn first_fit_bound_matches_allocate_first_free() {
        let s = set(&[(2, 4), (6, 7)]);
        let full = s.allocate_first_free(0, 4).unwrap();
        assert_eq!(s.first_fit_bound(0, 4, u64::MAX), full.max_end());
        // Tight bound: exactly the completion passes, one less fails.
        assert_eq!(s.first_fit_bound(0, 4, 6), Some(6));
        assert_eq!(s.first_fit_bound(0, 4, 5), None);
    }

    #[test]
    fn first_fit_bound_zero_slots_is_none() {
        assert!(IntervalSet::new().first_fit_bound(0, 0, u64::MAX).is_none());
    }

    #[test]
    fn first_fit_bound_prunes_before_walking_tail() {
        // Occupancy busy until slot 1000; asking for 5 slots bounded at
        // 100 must fail (and must not panic or walk forever).
        let s = set(&[(0, 1000)]);
        assert_eq!(s.first_fit_bound(0, 5, 100), None);
        assert_eq!(s.first_fit_bound(0, 5, 1005), Some(1005));
    }

    #[test]
    fn first_fit_bound_many_matches_union_then_scan() {
        let a = set(&[(0, 2), (6, 8), (20, 30)]);
        let b = set(&[(2, 4), (7, 10)]);
        let c = set(&[(12, 14)]);
        let mut union = IntervalSet::new();
        IntervalSet::union_many(&[&a, &b, &c], &mut union);
        for from in [0, 3, 9, 25] {
            for slots in [1, 4, 9] {
                for bound in [0, 10, 17, 40, u64::MAX] {
                    assert_eq!(
                        IntervalSet::first_fit_bound_many(&[&a, &b, &c], from, slots, bound),
                        union.first_fit_bound(from, slots, bound),
                        "from={from} slots={slots} bound={bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn first_fit_bound_many_edge_arities() {
        let a = set(&[(3, 5)]);
        let e = IntervalSet::new();
        assert_eq!(
            IntervalSet::first_fit_bound_many(&[], 2, 3, u64::MAX),
            Some(5)
        );
        assert_eq!(
            IntervalSet::first_fit_bound_many(&[&a], 3, 2, u64::MAX),
            Some(7)
        );
        assert_eq!(
            IntervalSet::first_fit_bound_many(&[&e, &a, &e], 0, 3, 5),
            Some(3)
        );
        assert_eq!(
            IntervalSet::first_fit_bound_many(&[&e, &a, &e], 0, 4, 5),
            None
        );
        assert!(IntervalSet::first_fit_bound_many(&[&a], 0, 0, u64::MAX).is_none());
    }

    #[test]
    fn first_fit_bound_many_beyond_fixed_ways_falls_back() {
        let sets: Vec<IntervalSet> = (0..100u64).map(|i| set(&[(2 * i, 2 * i + 1)])).collect();
        let refs: Vec<&IntervalSet> = sets.iter().collect();
        let mut union = IntervalSet::new();
        IntervalSet::union_many(&refs, &mut union);
        assert_eq!(
            IntervalSet::first_fit_bound_many(&refs, 0, 7, u64::MAX),
            union.first_fit_bound(0, 7, u64::MAX)
        );
        assert_eq!(IntervalSet::first_fit_bound_many(&refs, 0, 7, 10), None);
    }

    #[test]
    fn first_fit_bound_saturates_near_u64_max() {
        let s = set(&[(0, u64::MAX - 2)]);
        // cursor + need would overflow; saturation must reject cleanly.
        assert_eq!(s.first_fit_bound(0, 10, u64::MAX - 1), None);
    }

    #[test]
    fn shifted_translates_every_interval() {
        let s = set(&[(2, 5), (9, 12)]);
        let t = s.shifted(7);
        assert_eq!(t, set(&[(9, 12), (16, 19)]));
        assert!(t.is_normalized());
        assert_eq!(s.shifted(0), s);
        assert_eq!(IntervalSet::new().shifted(3), IntervalSet::new());
    }

    #[test]
    fn eq_shifted_matches_materialized_shift() {
        let s = set(&[(2, 5), (9, 12)]);
        assert!(s.shifted(7).eq_shifted(&s, 7));
        assert!(s.eq_shifted(&s, 0));
        assert!(!s.shifted(7).eq_shifted(&s, 6));
        assert!(!s.eq_shifted(&set(&[(2, 5)]), 0));
        // Same start, different interval lengths: not a translation.
        assert!(!set(&[(3, 6), (10, 14)]).eq_shifted(&s, 1));
        assert!(IntervalSet::new().eq_shifted(&IntervalSet::new(), 42));
    }
}
