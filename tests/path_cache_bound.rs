//! The path cache is the controller's candidate memory, and it must grow
//! with the fabric, not with the traffic it has seen: a daemon that runs
//! forever eventually looks up every host pair. This looks up all of
//! them on `fat_tree(8)` with the controller's candidate budget and
//! checks that the cache holds one candidate set per ordered pair of
//! distinct ToRs at most, and nothing per host pair.

use taps::sdn::ControllerConfig;
use taps::topology::build::{fat_tree, GBPS};
use taps::topology::cache::PathCache;

#[test]
fn every_host_pair_costs_the_path_cache_no_more_than_its_tor_pair() {
    let topo = fat_tree(8, GBPS);
    let mut cache = PathCache::new(ControllerConfig::default().max_candidate_paths);
    let hosts = topo.num_hosts();
    let mut pairs = 0;
    for a in 0..hosts {
        for b in (0..hosts).filter(|&b| b != a) {
            let view = cache.candidates(&topo, topo.host(a), topo.host(b));
            assert!(!view.is_empty(), "host {a} -> {b} has no candidate");
            pairs += 1;
        }
    }
    // 128 hosts under 32 ToRs of 4: 16 256 ordered host pairs, 992 ordered
    // pairs of distinct ToRs (a pair under one ToR has the empty middle).
    assert_eq!(pairs, 16_256);
    assert!(
        cache.entries() <= 992,
        "{} candidate sets for 992 ToR pairs: a per-host-pair layer is back",
        cache.entries()
    );
}
