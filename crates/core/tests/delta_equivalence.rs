//! Property tests: the delta re-allocation engine (DESIGN.md §12) is
//! bit-identical to the paper's full re-allocation pass.
//!
//! The delta engine is an *optimization*, not a policy change: for any
//! admission sequence — sliding windows of arriving/retiring flows,
//! shrinking remaining bytes, topology faults between batches — running
//! [`SlotAllocator::allocate_batch_delta`] with a persistent
//! [`DeltaCache`] must produce exactly the schedule that a fresh
//! `reset()` + [`SlotAllocator::allocate_batch`] produces, down to the
//! chosen path, the slice set, the completion slot and the modeled
//! work counters. These tests drive both engines side by side over
//! randomized histories and assert equality after every batch.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taps_core::{DeltaCache, DeltaStats, FlowAlloc, FlowDemand, SlotAllocator};
use taps_topology::build::{fat_tree, GBPS};
use taps_topology::{LinkId, Topology};

/// One admission round: the active window re-allocated from `start_slot`.
#[derive(Debug, Clone)]
struct Step {
    start_slot: u64,
    demands: Vec<FlowDemand>,
}

/// Derives a sliding-window admission history from a seed: each round
/// retires a few head flows (completions), sometimes drops the flow at
/// the last rank and one at a random rank (preemptions, rejected
/// newcomers — the delta pass marks a departure's links at its rank, so
/// every rank must be covered), occasionally shrinks the remaining bytes
/// of survivors (transmission progress), admits fresh arrivals at the
/// tail, and advances the start slot monotonically — the same shape the
/// scheduler feeds the allocator on every arrival.
fn sliding_window(seed: u64, hosts: usize, rounds: usize) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut window: Vec<FlowDemand> = Vec::new();
    let mut next_id = 0usize;
    let mut start = 0u64;
    let mut out = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let retire = rng.gen_range(0..=window.len().min(3));
        window.drain(..retire);
        if rng.gen_bool(0.3) {
            window.pop();
        }
        if !window.is_empty() && rng.gen_bool(0.5) {
            window.remove(rng.gen_range(0..window.len()));
        }
        if rng.gen_bool(0.3) {
            for d in &mut window {
                d.remaining = (d.remaining - 30_000.0).max(1.0);
            }
        }
        for _ in 0..rng.gen_range(1..5) {
            let src = rng.gen_range(0..hosts);
            let mut dst = rng.gen_range(0..hosts - 1);
            if dst >= src {
                dst += 1;
            }
            window.push(FlowDemand {
                id: next_id,
                src,
                dst,
                remaining: rng.gen_range(1u64..40) as f64 * GBPS * 0.001,
                deadline: (start + rng.gen_range(5u64..200)) as f64 * 0.001,
            });
            next_id += 1;
        }
        out.push(Step {
            start_slot: start,
            demands: window.clone(),
        });
        start += rng.gen_range(0u64..4);
    }
    out
}

/// Field-by-field equality of two batch results (paths, slices,
/// completion, deadline verdict) — the bit-identity contract.
fn assert_batches_identical(tag: &str, delta: &[FlowAlloc], full: &[FlowAlloc]) {
    assert_eq!(delta.len(), full.len(), "{tag}: batch length");
    for (d, f) in delta.iter().zip(full) {
        assert_eq!(d.id, f.id, "{tag}: flow id");
        assert_eq!(d.path, f.path, "{tag}: path of flow {}", d.id);
        assert_eq!(d.slices, f.slices, "{tag}: slices of flow {}", d.id);
        assert_eq!(
            d.completion_slot, f.completion_slot,
            "{tag}: completion of flow {}",
            d.id
        );
        assert_eq!(d.on_time, f.on_time, "{tag}: on_time of flow {}", d.id);
    }
}

/// Runs one history through both engines on `topo`, applying
/// `fault_plan(round, &topo)` between batches, and asserts bit-identity
/// plus counter identity after every round. Returns the delta stats so
/// callers can check the intended code paths were actually exercised.
fn run_side_by_side(
    topo: &Topology,
    steps: &[Step],
    mut fault_plan: impl FnMut(usize, &Topology),
) -> DeltaStats {
    let mut delta_alloc = SlotAllocator::new(topo, 0.001, 16);
    let mut full_alloc = SlotAllocator::new(topo, 0.001, 16);
    delta_alloc.warm_paths();
    let mut cache = DeltaCache::new();
    for (round, step) in steps.iter().enumerate() {
        fault_plan(round, topo);
        let tag = format!("round {round}");
        let d = delta_alloc
            .allocate_batch_delta(&step.demands, step.start_slot, &mut cache)
            .unwrap_or_else(|e| panic!("{tag}: delta pass failed: {e:?}"));
        full_alloc.reset();
        let f = full_alloc
            .allocate_batch(&step.demands, step.start_slot)
            .unwrap_or_else(|e| panic!("{tag}: full pass failed: {e:?}"));
        assert_batches_identical(&tag, &d, &f);
        // The modeled work counters (paths ranked, completion depth) are
        // part of the observable contract: golden traces and chaos
        // digests fold them in, so delta must report the same numbers.
        assert_eq!(
            delta_alloc.engine_mut().take_counters(),
            full_alloc.engine_mut().take_counters(),
            "{tag}: counters"
        );
    }
    topo.reset_faults();
    cache.stats()
}

/// Every ToR uplink of the given host's rack (fat-tree racks have two,
/// so failing one never disconnects the topology).
fn tor_uplinks(topo: &Topology, host: usize) -> Vec<LinkId> {
    let (tor, _) = topo.neighbors(topo.host(host))[0];
    topo.neighbors(tor)
        .iter()
        .filter(|(n, _)| topo.node(*n).level > topo.node(tor).level)
        .map(|(_, l)| *l)
        .collect()
}

proptest! {
    // Each case replays a full multi-round history; fewer, fatter cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any sliding-window admission history, the delta engine's
    /// schedule is bit-identical to the full re-allocation pass after
    /// every round.
    #[test]
    fn delta_is_bit_identical_to_full(seed in any::<u64>()) {
        let topo = fat_tree(4, GBPS);
        let steps = sliding_window(seed, 16, 12);
        run_side_by_side(&topo, &steps, |_, _| {});
    }

    /// Arrivals mid-fault (PR 3): a rack uplink dies partway through the
    /// history and is repaired a few rounds later. Each topology-epoch
    /// bump forces the delta gate into full fallback, and the batches
    /// allocated *on the degraded topology* must still match the full
    /// pass exactly.
    #[test]
    fn delta_matches_full_across_mid_history_faults(
        seed in any::<u64>(),
        host in 0usize..16,
        uplink in 0usize..2,
    ) {
        let topo = fat_tree(4, GBPS);
        let dead = tor_uplinks(&topo, host)[uplink];
        let steps = sliding_window(seed, 16, 12);
        let stats = run_side_by_side(&topo, &steps, |round, topo| {
            if round == 4 {
                topo.fail_link(dead);
            } else if round == 8 {
                topo.restore_link(dead);
            }
        });
        // Both epoch bumps must have been noticed (fault + repair).
        prop_assert!(stats.full_fallbacks >= 2, "stats: {stats:?}");
    }
}

/// The property tests above would pass vacuously if the gate always fell
/// back to a full pass. This deterministic sweep confirms the histories
/// actually drive every branch of the fallback ladder: translation
/// reuse, winner moves, seeded searches and full fallbacks all fire.
#[test]
fn sliding_windows_exercise_every_delta_path() {
    let topo = fat_tree(4, GBPS);
    let mut total = DeltaStats::default();
    for seed in 0..24u64 {
        let steps = sliding_window(seed, 16, 12);
        let s = run_side_by_side(&topo, &steps, |_, _| {});
        total.delta_batches += s.delta_batches;
        total.full_fallbacks += s.full_fallbacks;
        total.reused_flows += s.reused_flows;
        total.moved_flows += s.moved_flows;
        total.searched_flows += s.searched_flows;
        total.probed_candidates += s.probed_candidates;
    }
    assert!(total.delta_batches > 0, "no delta batch ran: {total:?}");
    assert!(
        total.reused_flows > 0,
        "translation reuse never fired: {total:?}"
    );
    assert!(total.moved_flows > 0, "winner moves never fired: {total:?}");
    assert!(
        total.searched_flows > 0,
        "seeded search never fired: {total:?}"
    );
    assert!(
        total.probed_candidates > 0,
        "dirty-candidate probing never fired: {total:?}"
    );
}
