//! Property tests of the TAPS slotted allocator (Alg. 2/3): whatever the
//! demand mix, committed slices must be disjoint per link, earliest-first
//! per flow, monotone under added contention, and bit-identical to the
//! paper-naive reference (`taps_core::oracle::naive_batch`).

use proptest::prelude::*;
use taps_core::oracle::naive_batch;
use taps_core::{AllocError, FlowDemand, SlotAllocator};
use taps_timeline::IntervalSet;
use taps_topology::build::{dumbbell, fat_tree, single_rooted, GBPS};
use taps_topology::Topology;

fn arb_demands(hosts: usize) -> impl Strategy<Value = Vec<FlowDemand>> {
    prop::collection::vec((0..hosts, 1..hosts, 1u64..40, 1u64..200), 1..24).prop_map(move |raw| {
        raw.into_iter()
            .enumerate()
            .map(|(id, (src, doff, size_slots, deadline_slots))| {
                let dst = (src + doff) % hosts;
                FlowDemand {
                    id,
                    src,
                    dst,
                    // Sizes in whole "slot-bytes" (slot = 1 ms at 1 Gbps).
                    remaining: size_slots as f64 * GBPS * 0.001,
                    deadline: deadline_slots as f64 * 0.001,
                }
            })
            .collect()
    })
}

/// Per-link disjointness: the union of all committed slices on a link
/// must have a total size equal to the sum of the parts.
fn assert_disjoint_per_link(topo: &Topology, allocs: &[taps_core::FlowAlloc]) {
    let mut per_link: Vec<IntervalSet> = vec![IntervalSet::new(); topo.num_links()];
    let mut per_link_sum = vec![0u64; topo.num_links()];
    for al in allocs {
        for l in &al.path.links {
            assert!(
                !per_link[l.idx()].intersects(&al.slices),
                "flow {} overlaps on link {:?}",
                al.id,
                l
            );
            per_link[l.idx()].insert_set(&al.slices);
            per_link_sum[l.idx()] += al.slices.total_slots();
        }
    }
    for (i, set) in per_link.iter().enumerate() {
        assert_eq!(
            set.total_slots(),
            per_link_sum[i],
            "link {i} slot accounting"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batch_allocations_are_disjoint_per_link(demands in arb_demands(16)) {
        let topo = single_rooted(2, 2, 4, GBPS);
        let mut a = SlotAllocator::new(&topo, 0.001, 4);
        let allocs = a.allocate_batch(&demands, 0).unwrap();
        prop_assert_eq!(allocs.len(), demands.len());
        assert_disjoint_per_link(&topo, &allocs);
        for (al, d) in allocs.iter().zip(&demands) {
            // Exactly E slots allocated.
            let e = a.slots_needed(d.remaining, al.path.bottleneck(&topo));
            prop_assert_eq!(al.slices.total_slots(), e);
            prop_assert_eq!(al.completion_slot, al.slices.max_end().unwrap());
            // on_time flag agrees with the deadline arithmetic.
            let on_time = al.completion_slot as f64 * 0.001 <= d.deadline + 1e-9;
            prop_assert_eq!(al.on_time, on_time);
        }
    }

    #[test]
    fn multipath_batch_is_disjoint_too(demands in arb_demands(16)) {
        let topo = fat_tree(4, GBPS);
        let mut a = SlotAllocator::new(&topo, 0.001, 16);
        let allocs = a.allocate_batch(&demands, 0).unwrap();
        assert_disjoint_per_link(&topo, &allocs);
    }

    #[test]
    fn earlier_priority_never_hurts_from_added_contention(
        demands in arb_demands(16),
        extra in arb_demands(16),
    ) {
        // Appending demands *after* the original batch must not change
        // the original flows' allocations at all (Alg. 2 is sequential).
        let topo = single_rooted(2, 2, 4, GBPS);
        let mut a1 = SlotAllocator::new(&topo, 0.001, 4);
        let base = a1.allocate_batch(&demands, 0).unwrap();
        let mut a2 = SlotAllocator::new(&topo, 0.001, 4);
        let mut all = demands.clone();
        let offset = demands.len();
        all.extend(extra.into_iter().map(|mut d| {
            d.id += offset;
            d
        }));
        let combined = a2.allocate_batch(&all, 0).unwrap();
        for (b, c) in base.iter().zip(combined.iter()) {
            prop_assert_eq!(b.id, c.id);
            prop_assert_eq!(&b.slices, &c.slices);
            prop_assert_eq!(&b.path, &c.path);
        }
    }

    #[test]
    fn start_slot_lower_bounds_all_slices(demands in arb_demands(16), start in 0u64..500) {
        let topo = single_rooted(2, 2, 4, GBPS);
        let mut a = SlotAllocator::new(&topo, 0.001, 4);
        let allocs = a.allocate_batch(&demands, start).unwrap();
        for al in &allocs {
            prop_assert!(al.slices.min_start().unwrap() >= start);
        }
    }

    #[test]
    fn engine_and_naive_reference_agree_bit_for_bit(
        demands in arb_demands(16),
        start in 0u64..200,
    ) {
        // The engine (cached paths, scratch buffers, bound pruning) must
        // reproduce the paper-naive schedule exactly, including ties
        // resolving to the lowest candidate index.
        let topo = fat_tree(4, GBPS);
        let naive = naive_batch(&topo, 0.001, 16, &demands, start).unwrap();
        let engine = SlotAllocator::new(&topo, 0.001, 16)
            .allocate_batch(&demands, start)
            .unwrap();
        prop_assert_eq!(naive.len(), engine.len());
        for (n, e) in naive.iter().zip(&engine) {
            prop_assert_eq!(n.id, e.id);
            prop_assert_eq!(&n.path, &e.path);
            prop_assert_eq!(&n.slices, &e.slices);
            prop_assert_eq!(n.completion_slot, e.completion_slot);
            prop_assert_eq!(n.on_time, e.on_time);
        }
    }

    #[test]
    fn single_link_batch_is_work_conserving(sizes in prop::collection::vec(1u64..20, 1..12)) {
        // All flows share one bottleneck (same src/dst pair): the batch
        // must pack them back to back with no idle slots.
        let topo = single_rooted(1, 1, 2, GBPS);
        let mut a = SlotAllocator::new(&topo, 0.001, 2);
        let demands: Vec<FlowDemand> = sizes
            .iter()
            .enumerate()
            .map(|(id, s)| FlowDemand {
                id,
                src: 0,
                dst: 1,
                remaining: *s as f64 * GBPS * 0.001,
                deadline: 10.0,
            })
            .collect();
        let allocs = a.allocate_batch(&demands, 0).unwrap();
        let total: u64 = sizes.iter().sum();
        let makespan = allocs.iter().map(|al| al.completion_slot).max().unwrap();
        prop_assert_eq!(makespan, total, "no idle slots on a single bottleneck");
    }
}

/// A failed link that cuts a host pair off: the reference and the engine
/// report the same error — the earliest disconnected flow in priority
/// order, not the lowest id.
#[test]
fn disconnection_error_matches_the_reference() {
    let topo = dumbbell(2, 2, GBPS);
    let flow = |id, src, dst| FlowDemand {
        id,
        src,
        dst,
        remaining: GBPS * 0.001,
        deadline: 1.0,
    };
    let cross = naive_batch(&topo, 0.001, 4, &[flow(0, 0, 2)], 0).unwrap()[0]
        .path
        .links[1];
    topo.fail_link(cross);
    // 0 -> 1 stays on the left side; 1 -> 3 and 0 -> 2 need the cable.
    let demands = [flow(9, 0, 1), flow(7, 1, 3), flow(5, 0, 2)];
    let want = Err(AllocError::Disconnected { flow: 7 });
    assert_eq!(naive_batch(&topo, 0.001, 4, &demands, 0).map(|_| ()), want);
    let mut a = SlotAllocator::new(&topo, 0.001, 4);
    assert_eq!(a.allocate_batch(&demands, 0).map(|_| ()), want);
}
