//! Tier-1 guard on the single Alg. 2/3 engine: over one seeded history of
//! arrivals, departures, transmission progress and an absorbed link
//! fault, the engine's delta pass, its full pass and the paper-naive
//! reference (`taps_core::oracle::naive_batch`) must produce the same
//! schedule for every batch — once with a budget that holds every
//! inter-pod path of the fabric, once with a budget that even sampling has
//! to cut them down to.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taps_core::oracle::naive_batch;
use taps_core::{DeltaCache, FlowAlloc, FlowDemand, SlotAllocator};
use taps_topology::build::{fat_tree, GBPS};

const SLOT: f64 = 1e-4;

fn assert_same(batch: usize, pass: &str, want: &[FlowAlloc], got: &[FlowAlloc]) {
    assert_eq!(want.len(), got.len(), "batch {batch}: {pass} length");
    for (w, g) in want.iter().zip(got) {
        assert!(
            (w.id, &w.path, &w.slices, w.completion_slot, w.on_time)
                == (g.id, &g.path, &g.slices, g.completion_slot, g.on_time),
            "batch {batch}: {pass} diverged from the naive reference at flow {}",
            w.id
        );
    }
}

/// `fat_tree(8)` has (k/2)² = 16 paths between pods: a budget of 16 never
/// samples.
#[test]
fn engine_matches_the_naive_reference_on_every_batch() {
    replay_history(16);
}

/// A budget of 4 keeps every fourth inter-pod path (intra-pod pairs have
/// exactly four): the engine's candidates are the path cache's sampled
/// middles, the reference's come from `PathFinder::paths`.
#[test]
fn engine_matches_the_naive_reference_under_even_sampling() {
    replay_history(4);
}

fn replay_history(max_paths: usize) {
    let topo = fat_tree(8, GBPS);
    let hosts = topo.num_hosts();
    let mut rng = StdRng::seed_from_u64(13);
    let mut full = SlotAllocator::new(&topo, SLOT, max_paths);
    let mut delta = SlotAllocator::new(&topo, SLOT, max_paths);
    let mut cache = DeltaCache::new();
    // In-flight flows in priority order (arrival order, so survivors keep
    // their relative rank and the delta gate stays open).
    let mut live: Vec<FlowDemand> = Vec::new();
    let mut want: Vec<FlowAlloc> = Vec::new();
    let mut start = 0u64;
    let mut next_id = 0usize;
    for batch in 0..12 {
        live.retain(|_| rng.gen_range(0..5) != 0);
        for d in live.iter_mut().filter(|d| d.id % 3 == 0) {
            d.remaining = (d.remaining - 40_000.0).max(1_000.0);
        }
        for _ in 0..10 {
            let src = rng.gen_range(0..hosts);
            live.push(FlowDemand {
                id: next_id,
                src,
                dst: (src + rng.gen_range(1..hosts)) % hosts,
                remaining: rng.gen_range(50_000..500_000) as f64,
                deadline: (start + rng.gen_range(40u64..400)) as f64 * SLOT,
            });
            next_id += 1;
        }
        if batch == 6 {
            // ToR -> aggregation hop of a multi-hop flow: the fat-tree
            // routes around it, so every pair stays connected.
            let dead = want.iter().find(|a| a.path.links.len() >= 4).unwrap();
            topo.fail_link(dead.path.links[1]);
            assert!(delta.engine_mut().absorb_fault_epoch(&topo, &mut cache));
        }
        want = naive_batch(&topo, SLOT, max_paths, &live, start).unwrap();
        full.reset();
        let got = full.allocate_batch(&live, start).unwrap();
        assert_same(batch, "allocate_batch", &want, &got);
        let got = delta
            .allocate_batch_delta(&live, start, &mut cache)
            .unwrap();
        assert_same(batch, "allocate_batch_delta", &want, &got);
        start += rng.gen_range(2u64..10);
    }
    let s = cache.stats();
    assert_eq!(s.full_fallbacks, 1, "only the cold first batch: {s:?}");
    assert_eq!(s.absorbed_epochs, 1, "{s:?}");
    assert!(s.reused_flows > 0 && s.searched_flows > 0, "{s:?}");
}
