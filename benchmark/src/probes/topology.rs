//! Layer `topology` — ladder rung R6: bring-up cost and warm path lookups.

use std::time::Instant;

use taps_topology::build::{fat_tree, GBPS};
use taps_topology::cache::PathCache;

use super::Metrics;
use crate::inputs::RoundInput;

/// Builds `fat_tree(k)`, warms a `PathCache` with the controller's
/// candidate budget, and looks up every endpoint pair of the round's
/// flows twice — the second, warm, pass is the one timed.
pub fn probe(k: usize, max_paths: usize, input: &RoundInput) -> Metrics {
    let t = Instant::now();
    let topo = fat_tree(k, GBPS);
    let build_s = t.elapsed().as_secs_f64();

    let mut cache = PathCache::new(max_paths);
    let t = Instant::now();
    cache.warm(&topo);
    let warm_s = t.elapsed().as_secs_f64();

    let pairs: Vec<_> = input
        .wl
        .flows
        .iter()
        .map(|f| (topo.host(f.src), topo.host(f.dst)))
        .collect();
    let mut candidates = 0usize;
    for &(s, d) in &pairs {
        candidates += cache.paths(&topo, s, d).len();
    }
    let t = Instant::now();
    for &(s, d) in &pairs {
        std::hint::black_box(cache.paths(&topo, s, d));
    }
    let lookup_ns = t.elapsed().as_nanos() as f64 / pairs.len().max(1) as f64;

    vec![
        ("topology.build_s", build_s),
        ("topology.warm_s", warm_s),
        ("topology.lookup_ns", lookup_ns),
        ("topology.enumerations", cache.enumerations() as f64),
        (
            "topology.paths_per_pair",
            candidates as f64 / pairs.len().max(1) as f64,
        ),
    ]
}
