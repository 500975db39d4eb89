//! Property-based tests for the interval algebra.
//!
//! These check the invariants the TAPS allocator relies on: normalization
//! after every mutation, slot-level agreement with a naive bitset model,
//! and the earliest-first / exact-count / disjointness contract of
//! `allocate_first_free`.

use proptest::prelude::*;
use taps_timeline::IntervalSet;

const UNIVERSE: u64 = 256;

/// Naive model: a boolean per slot.
fn to_bits(s: &IntervalSet) -> Vec<bool> {
    let mut bits = vec![false; UNIVERSE as usize];
    for iv in s.intervals() {
        for slot in iv.start..iv.end.min(UNIVERSE) {
            bits[slot as usize] = true;
        }
    }
    bits
}

fn arb_ranges() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..UNIVERSE, 1u64..32), 0..24).prop_map(|v| {
        v.into_iter()
            .map(|(s, l)| (s, (s + l).min(UNIVERSE)))
            .collect()
    })
}

fn build(ranges: &[(u64, u64)]) -> IntervalSet {
    let mut s = IntervalSet::new();
    for &(a, b) in ranges {
        s.insert_range(a, b);
    }
    s
}

proptest! {
    #[test]
    fn insert_matches_bitset_model(ranges in arb_ranges()) {
        let s = build(&ranges);
        prop_assert!(s.is_normalized());
        let mut model = vec![false; UNIVERSE as usize];
        for (a, b) in ranges {
            for slot in a..b {
                model[slot as usize] = true;
            }
        }
        prop_assert_eq!(to_bits(&s), model);
    }

    #[test]
    fn remove_matches_bitset_model(ranges in arb_ranges(), dels in arb_ranges()) {
        let mut s = build(&ranges);
        let mut model = to_bits(&s);
        for (a, b) in dels {
            s.remove_range(a, b);
            for slot in a..b {
                model[slot as usize] = false;
            }
            prop_assert!(s.is_normalized());
        }
        prop_assert_eq!(to_bits(&s), model);
    }

    #[test]
    fn union_matches_bitset_model(r1 in arb_ranges(), r2 in arb_ranges()) {
        let a = build(&r1);
        let b = build(&r2);
        let u = a.union(&b);
        prop_assert!(u.is_normalized());
        let want: Vec<bool> = to_bits(&a)
            .into_iter()
            .zip(to_bits(&b))
            .map(|(x, y)| x | y)
            .collect();
        prop_assert_eq!(to_bits(&u), want);
        // Union is commutative.
        prop_assert_eq!(u, b.union(&a));
    }

    #[test]
    fn intersection_matches_bitset_model(r1 in arb_ranges(), r2 in arb_ranges()) {
        let a = build(&r1);
        let b = build(&r2);
        let i = a.intersection(&b);
        prop_assert!(i.is_normalized());
        let want: Vec<bool> = to_bits(&a)
            .into_iter()
            .zip(to_bits(&b))
            .map(|(x, y)| x & y)
            .collect();
        prop_assert_eq!(to_bits(&i), want);
        prop_assert_eq!(i.is_empty(), !a.intersects(&b));
    }

    #[test]
    fn allocation_contract(ranges in arb_ranges(), from in 0u64..UNIVERSE, slots in 1u64..64) {
        let busy = build(&ranges);
        let alloc = busy.allocate_first_free(from, slots).unwrap();
        prop_assert!(alloc.is_normalized());
        // Exactly the requested number of slots.
        prop_assert_eq!(alloc.total_slots(), slots);
        // Entirely after the release time.
        prop_assert!(alloc.min_start().unwrap() >= from);
        // Disjoint from the busy set.
        prop_assert!(!alloc.intersects(&busy));
        // Earliest-first: every idle slot in [from, last allocated) is taken.
        let last = alloc.max_end().unwrap();
        for slot in from..last {
            prop_assert!(busy.contains(slot) || alloc.contains(slot),
                "slot {slot} idle but skipped (allocation not earliest-first)");
        }
    }

    #[test]
    fn allocation_monotone_in_busyness(ranges in arb_ranges(), extra in arb_ranges(), slots in 1u64..32) {
        // Adding busy slots can only delay completion.
        let a = build(&ranges);
        let mut b = a.clone();
        for &(x, y) in &extra {
            b.insert_range(x, y);
        }
        let ca = a.allocate_first_free(0, slots).unwrap().max_end().unwrap();
        let cb = b.allocate_first_free(0, slots).unwrap().max_end().unwrap();
        prop_assert!(cb >= ca);
    }

    #[test]
    fn insert_then_remove_roundtrip(ranges in arb_ranges(), extra in arb_ranges()) {
        // Removing a set that is disjoint from the original restores it.
        let base = build(&ranges);
        let mut add = build(&extra);
        add.remove_set(&base); // make `add` disjoint from base
        let mut s = base.clone();
        s.insert_set(&add);
        s.remove_set(&add);
        prop_assert_eq!(s, base);
    }

    #[test]
    fn union_many_matches_pairwise_fold(sets in prop::collection::vec(arb_ranges(), 0..8)) {
        let built: Vec<IntervalSet> = sets.iter().map(|r| build(r)).collect();
        let refs: Vec<&IntervalSet> = built.iter().collect();
        // Start from non-empty garbage to check `out` is fully replaced.
        let mut got = IntervalSet::from_range(3, 99);
        IntervalSet::union_many(&refs, &mut got);
        prop_assert!(got.is_normalized());
        let want = built
            .iter()
            .fold(IntervalSet::new(), |acc, s| acc.union(s));
        prop_assert_eq!(got, want);
    }

    #[test]
    fn first_fit_bound_agrees_with_allocate_first_free(
        ranges in arb_ranges(),
        from in 0u64..UNIVERSE,
        slots in 1u64..64,
        bound in 0u64..2 * UNIVERSE,
    ) {
        let busy = build(&ranges);
        let completion = busy.allocate_first_free(from, slots).unwrap().max_end().unwrap();
        // Some(completion) exactly when the unbounded answer fits the bound.
        let want = (completion <= bound).then_some(completion);
        prop_assert_eq!(busy.first_fit_bound(from, slots, bound), want);
    }

    #[test]
    fn first_idle_matches_bitset_model(ranges in arb_ranges(), from in 0u64..UNIVERSE + 8) {
        let busy = build(&ranges);
        let bits = to_bits(&busy);
        // Everything at or past UNIVERSE is idle.
        let want = (from..)
            .find(|&s| bits.get(s as usize).is_none_or(|b| !b))
            .unwrap();
        prop_assert_eq!(busy.first_idle_at_or_after(from), want);
    }

    #[test]
    fn first_fit_bound_many_agrees_with_union_then_scan(
        // 0–9 inputs: both sides of the small cursor array's 8 ways.
        sets in prop::collection::vec(arb_ranges(), 0..10),
        from in 0u64..UNIVERSE,
        slots in 1u64..64,
        bound in 0u64..2 * UNIVERSE,
    ) {
        let built: Vec<IntervalSet> = sets.iter().map(|r| build(r)).collect();
        let refs: Vec<&IntervalSet> = built.iter().collect();
        let mut union = IntervalSet::new();
        IntervalSet::union_many(&refs, &mut union);
        let want = union.first_fit_bound(from, slots, bound);
        prop_assert_eq!(IntervalSet::first_fit_bound_many(&refs, from, slots, bound), want);
        // The busy-prefix bound Alg. 2 prunes with: no input's first idle
        // slot can be later than the union's, so a candidate it rules
        // out is one the sweep refuses.
        let floor = built.iter().map(|s| s.first_idle_at_or_after(from)).max().unwrap_or(from);
        if floor + slots > bound {
            prop_assert_eq!(want, None);
        }
    }

    #[test]
    fn shift_in_place_equals_shifted(ranges in arb_ranges(), delta in 0u64..1 << 40) {
        let s = build(&ranges);
        let mut t = s.clone();
        t.shift_in_place(delta);
        prop_assert!(t.is_normalized());
        prop_assert!(t.eq_shifted(&s, delta));
        prop_assert_eq!(t, s.shifted(delta));
    }

    #[test]
    fn total_slots_additive_for_disjoint(r1 in arb_ranges(), r2 in arb_ranges()) {
        let a = build(&r1);
        let mut b = build(&r2);
        b.remove_set(&a);
        let u = a.union(&b);
        prop_assert_eq!(u.total_slots(), a.total_slots() + b.total_slots());
    }
}
