//! Candidate-path cache for Alg. 2.
//!
//! TAPS re-runs its whole allocation on every task arrival (Alg. 1), so
//! the same (src, dst) pairs are path-enumerated over and over even though
//! the topology never changes mid-run. [`PathCache`] memoizes the capped
//! candidate list per endpoint pair.
//!
//! On the paper's tree/fat-tree families the cache additionally exploits
//! an equivalence: in [`RoutingMode::UpDown`], when both endpoints are
//! leaf hosts (exactly one uplink each), every valley-free path is
//! `src → ToR(src)` ++ *middle* ++ `ToR(dst) → dst`, and the set of
//! middles — including the simplicity filter and the stable
//! shortest-first ordering — depends only on the ToR pair. The cache
//! therefore enumerates once per **ToR pair** and reconstitutes the
//! per-host-pair lists by substituting the two end links, collapsing the
//! `O(hosts²)` pair space onto the `O(racks²)` rack space (a 32-pod
//! fat-tree has 8 192 hosts but only 256 racks).

use crate::paths::{sample_evenly, PathFinder};
use crate::{LinkId, NodeId, Path, RoutingMode, Topology};
use std::collections::HashMap;
use std::sync::Arc;

/// Memoizes [`PathFinder::paths`] results for a fixed candidate budget.
///
/// The cache holds [`Arc`]s so a hit is a reference-count bump, not a
/// deep copy of the path list. Every lookup compares the topology's
/// fault-state [`epoch`](Topology::epoch) against the epoch the cache was
/// filled at and self-clears on mismatch, so entries never outlive a
/// link/switch failure or repair. Callers that can see more than one
/// topology must still [`clear`](Self::clear) when switching topologies
/// (the allocator engine guards this).
pub struct PathCache {
    /// Candidate budget, as in [`PathFinder::paths`]'s `max_paths`.
    max_paths: usize,
    /// Finished per-pair candidate lists (capped).
    by_pair: HashMap<(NodeId, NodeId), Arc<Vec<Path>>>,
    /// Shared *uncapped* middles per (ToR(src), ToR(dst)) pair.
    middles: HashMap<(NodeId, NodeId), Arc<Vec<Vec<LinkId>>>>,
    /// How many times the underlying enumeration actually ran.
    enumerations: u64,
    /// Fault-state epoch the cached entries were computed at.
    epoch: u64,
}

impl PathCache {
    /// Creates an empty cache with the given candidate budget.
    /// Panics if `max_paths == 0`.
    pub fn new(max_paths: usize) -> Self {
        assert!(max_paths > 0);
        PathCache {
            max_paths,
            by_pair: HashMap::new(),
            middles: HashMap::new(),
            enumerations: 0,
            epoch: 0,
        }
    }

    /// The candidate budget the cache was built for.
    #[inline]
    pub fn max_paths(&self) -> usize {
        self.max_paths
    }

    /// Number of full [`PathFinder::paths`] enumerations performed so far
    /// (cache *misses* at the enumeration level). Tests use this to prove
    /// that ToR-pair sharing avoids per-host-pair enumeration.
    #[inline]
    pub fn enumerations(&self) -> u64 {
        self.enumerations
    }

    /// Drops every cached entry (topology changed).
    pub fn clear(&mut self) {
        self.by_pair.clear();
        self.middles.clear();
    }

    /// Candidate paths from `src` to `dst`, identical to
    /// `PathFinder::new(topo).paths(src, dst, self.max_paths)`.
    pub fn paths(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> Arc<Vec<Path>> {
        if self.epoch != topo.epoch() {
            // A link or switch changed state since the cache was filled:
            // every memoized candidate list is suspect.
            self.clear();
            self.epoch = topo.epoch();
        }
        if let Some(p) = self.by_pair.get(&(src, dst)) {
            return Arc::clone(p);
        }
        let paths = match leaf_uplinks(topo, src, dst) {
            Some((src_up, dst_up)) => self.paths_via_tor_pair(topo, src, dst, src_up, dst_up),
            None => {
                self.enumerations += 1;
                PathFinder::new(topo).paths(src, dst, self.max_paths)
            }
        };
        let arc = Arc::new(paths);
        self.by_pair.insert((src, dst), Arc::clone(&arc));
        arc
    }

    /// Pre-enumerates the shared middles for every ordered ToR pair, so
    /// no admission-time lookup pays the uncapped enumeration. Intended
    /// for topology bring-up — an SDN controller installs its path
    /// tables before traffic arrives — and pure memoization: a warm
    /// cache returns lists bit-identical to a cold one. Topologies (or
    /// routing modes) without ToR-pair sharing warm nothing.
    pub fn warm(&mut self, topo: &Topology) {
        if topo.routing != RoutingMode::UpDown {
            return;
        }
        if self.epoch != topo.epoch() {
            self.clear();
            self.epoch = topo.epoch();
        }
        // One representative host per ToR: sharing makes every host
        // under the same ToR interchangeable for enumeration.
        let mut seen: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
        let mut reps: Vec<NodeId> = Vec::new();
        for h in 0..topo.num_hosts() {
            let host = topo.host(h);
            if let Some(up) = leaf_uplink(topo, host) {
                if seen.insert(topo.link(up).dst) {
                    reps.push(host);
                }
            }
        }
        for &hs in &reps {
            for &hd in &reps {
                if hs != hd {
                    let _ = self.paths(topo, hs, hd);
                }
            }
        }
    }

    /// The ToR-pair sharing branch: fetch (or enumerate once) the shared
    /// middles, then rebuild this pair's list by substituting end links
    /// and capping exactly as `PathFinder::paths` would.
    fn paths_via_tor_pair(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        src_up: LinkId,
        dst_up: LinkId,
    ) -> Vec<Path> {
        let tor_src = topo.link(src_up).dst;
        let tor_dst = topo.link(dst_up).dst;
        let dst_down = topo.link(dst_up).reverse;
        let middles = match self.middles.get(&(tor_src, tor_dst)) {
            Some(m) => Arc::clone(m),
            None => {
                self.enumerations += 1;
                // Uncapped enumeration for *this* pair; every valley-free
                // path between distinct leaf hosts starts with the src
                // uplink and ends with the dst downlink, so stripping
                // both yields the host-independent middles in the same
                // (stable, shortest-first) order.
                let full = PathFinder::new(topo).paths(src, dst, usize::MAX);
                let mids: Vec<Vec<LinkId>> = full
                    .iter()
                    .map(|p| {
                        debug_assert!(p.links.len() >= 2);
                        debug_assert_eq!(p.links.first(), Some(&src_up));
                        debug_assert_eq!(p.links.last(), Some(&dst_down));
                        p.links[1..p.links.len() - 1].to_vec()
                    })
                    .collect();
                let mids = Arc::new(mids);
                self.middles.insert((tor_src, tor_dst), Arc::clone(&mids));
                mids
            }
        };
        // Same even sampling as the direct enumeration: the sampled
        // indices depend only on the list length and the budget, so
        // sampling the middles first and rebuilding only the survivors
        // yields exactly `sample_evenly(rebuild(middles))` without
        // allocating the paths that the cap would discard.
        Self::assemble(src_up, dst_down, &middles, self.max_paths)
    }

    /// Substitutes the end links into the shared middles and caps,
    /// exactly as the direct enumeration would.
    fn assemble(
        src_up: LinkId,
        dst_down: LinkId,
        middles: &[Vec<LinkId>],
        max_paths: usize,
    ) -> Vec<Path> {
        let kept: Vec<&Vec<LinkId>> = sample_evenly(middles.iter().collect(), max_paths);
        kept.into_iter()
            .map(|m| {
                let mut links = Vec::with_capacity(m.len() + 2);
                links.push(src_up);
                links.extend_from_slice(m);
                links.push(dst_down);
                Path { links }
            })
            .collect()
    }
}

/// When ToR-pair sharing applies — valley-free routing with both
/// endpoints leaf hosts (a single uplink each, toward a higher level) —
/// returns their uplinks.
fn leaf_uplinks(topo: &Topology, src: NodeId, dst: NodeId) -> Option<(LinkId, LinkId)> {
    if topo.routing != RoutingMode::UpDown || src == dst {
        return None;
    }
    Some((leaf_uplink(topo, src)?, leaf_uplink(topo, dst)?))
}

/// The single live uplink of a leaf host, when it has exactly one.
fn leaf_uplink(topo: &Topology, n: NodeId) -> Option<LinkId> {
    match topo.neighbors(n) {
        // The uplink must be live for the sharing argument to hold
        // (a dead uplink means *no* valley-free paths; fall through to
        // the direct enumeration, which returns none).
        &[(next, link)] if topo.node(next).level > topo.node(n).level && topo.is_link_up(link) => {
            Some(link)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{dumbbell, fat_tree, fig3_star, single_rooted, GBPS};

    fn direct(topo: &Topology, a: usize, b: usize, max: usize) -> Vec<Path> {
        PathFinder::new(topo).paths(topo.host(a), topo.host(b), max)
    }

    #[test]
    fn cache_matches_direct_enumeration() {
        for (topo, max) in [
            (fat_tree(4, GBPS), 16),
            (fat_tree(4, GBPS), 2),
            (single_rooted(2, 2, 2, GBPS), 8),
            (dumbbell(2, 2, GBPS), 4),
            (fig3_star(GBPS), 4),
        ] {
            let mut cache = PathCache::new(max);
            let n = topo.num_hosts();
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    let got = cache.paths(&topo, topo.host(a), topo.host(b));
                    let want = direct(&topo, a, b, max);
                    assert_eq!(*got, want, "{} {a}->{b} max={max}", topo.name);
                }
            }
        }
    }

    #[test]
    fn repeat_queries_hit_the_cache() {
        let topo = fat_tree(4, GBPS);
        let mut cache = PathCache::new(16);
        let p1 = cache.paths(&topo, topo.host(0), topo.host(8));
        let misses = cache.enumerations();
        let p2 = cache.paths(&topo, topo.host(0), topo.host(8));
        assert_eq!(cache.enumerations(), misses, "second query must be a hit");
        assert!(Arc::ptr_eq(&p1, &p2));
    }

    #[test]
    fn tor_pair_sharing_avoids_reenumeration() {
        // Hosts 0,1 hang off one ToR; hosts 8,9 off another (k=4 fat-tree,
        // 2 hosts per rack). Four host pairs, one ToR pair: exactly one
        // enumeration.
        let topo = fat_tree(4, GBPS);
        let mut cache = PathCache::new(16);
        for a in [0usize, 1] {
            for b in [8usize, 9] {
                let got = cache.paths(&topo, topo.host(a), topo.host(b));
                assert_eq!(*got, direct(&topo, a, b, 16));
            }
        }
        assert_eq!(cache.enumerations(), 1);
    }

    #[test]
    fn fault_epoch_invalidates_cache() {
        let topo = fat_tree(4, GBPS);
        let mut cache = PathCache::new(16);
        let before = cache.paths(&topo, topo.host(0), topo.host(8));
        let dead = before[0].links[1];
        topo.fail_link(dead);
        let after = cache.paths(&topo, topo.host(0), topo.host(8));
        assert_eq!(*after, direct(&topo, 0, 8, 16));
        let rev = topo.link(dead).reverse;
        for p in after.iter() {
            assert!(!p.links.contains(&dead) && !p.links.contains(&rev));
        }
        topo.restore_link(dead);
        let restored = cache.paths(&topo, topo.host(0), topo.host(8));
        assert_eq!(*restored, *before, "restore must resurface the full set");
    }

    #[test]
    fn dead_uplink_disables_tor_pair_sharing() {
        let topo = fat_tree(4, GBPS);
        let mut cache = PathCache::new(16);
        // Kill host 0's only uplink: the ToR-sharing precondition fails
        // and the direct enumeration correctly reports disconnection.
        let up = topo.neighbors(topo.host(0))[0].1;
        topo.fail_link(up);
        assert!(cache.paths(&topo, topo.host(0), topo.host(8)).is_empty());
        // Sibling host 1 is unaffected.
        assert!(!cache.paths(&topo, topo.host(1), topo.host(8)).is_empty());
    }

    #[test]
    fn clear_forgets_everything() {
        let topo = fat_tree(4, GBPS);
        let mut cache = PathCache::new(16);
        cache.paths(&topo, topo.host(0), topo.host(8));
        cache.clear();
        cache.paths(&topo, topo.host(0), topo.host(8));
        assert_eq!(cache.enumerations(), 2);
    }
}
