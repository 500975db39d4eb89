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
//! `src → ToR(src)` ++ *middle* ++ `ToR(dst) → dst`, and the middles are
//! exactly the valley-free paths between the two ToRs. A leaf host's walk
//! table is its trivial walk followed by its ToR's table behind the
//! uplink; nothing climbs *to* a leaf host, so the trivial walks join with
//! nothing, the remaining pairs are the ToR tables' pairs in the same
//! order, the hosts add no revisit (simplicity is decided among the
//! switches) and every path grows by the same two hops (the stable
//! shortest-first order is unchanged). The cache therefore holds three
//! things, all dropped together when the topology's fault epoch moves:
//!
//! * one [`WalkTable`] per **ToR switch**, built the first time a pair
//!   under that ToR is looked up (a 32-pod fat-tree has 8 192 hosts but
//!   only 512 ToRs);
//! * per ordered **ToR pair**, the middles the budget keeps — at most
//!   `max_paths` of them, joined from the two tables; the sampled
//!   positions depend only on how many paths there are and on the budget,
//!   so the (k/2)² − `max_paths` others are never written out;
//! * per **host pair**, the finished candidate list: the pair's two
//!   access links around each kept middle.
//!
//! A cold lookup is thus a join over two small tables plus `max_paths`
//! short copies, which is why nothing needs to pre-warm the cache.

use crate::paths::{sampled, Join, PathFinder, WalkTable};
use crate::{LinkId, NodeId, Path, RoutingMode, Topology};
use std::collections::HashMap;
use std::sync::Arc;

/// The middles kept for one ToR pair, back to back.
#[derive(Default)]
struct Middles {
    links: Vec<LinkId>,
    /// End offset of each middle in `links`.
    ends: Vec<usize>,
}

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
    /// Shared capped middles per (ToR(src), ToR(dst)) pair.
    middles: HashMap<(NodeId, NodeId), Middles>,
    /// Ascending walks per ToR switch, the inputs of every middle join.
    tables: HashMap<NodeId, WalkTable>,
    /// How many times a candidate list was derived rather than shared.
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
            tables: HashMap::new(),
            enumerations: 0,
            epoch: 0,
        }
    }

    /// The candidate budget the cache was built for.
    #[inline]
    pub fn max_paths(&self) -> usize {
        self.max_paths
    }

    /// Number of enumerations performed so far (cache *misses* at the
    /// enumeration level): one per ToR pair whose middles were joined,
    /// plus one per pair without ToR-pair sharing that went through
    /// [`PathFinder::paths`]. Tests use this to prove that ToR-pair
    /// sharing avoids per-host-pair enumeration.
    #[inline]
    pub fn enumerations(&self) -> u64 {
        self.enumerations
    }

    /// Drops every cached entry (topology changed).
    pub fn clear(&mut self) {
        self.by_pair.clear();
        self.middles.clear();
        self.tables.clear();
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
            Some((src_up, dst_up)) => self.paths_via_tor_pair(topo, src_up, dst_up),
            None => {
                self.enumerations += 1;
                PathFinder::new(topo).paths(src, dst, self.max_paths)
            }
        };
        let arc = Arc::new(paths);
        self.by_pair.insert((src, dst), Arc::clone(&arc));
        arc
    }

    /// Pre-enumerates the shared middles for every ordered ToR pair.
    /// Intended for topology bring-up — an SDN controller installs its
    /// path tables before traffic arrives — and pure memoization: a warm
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

    /// The ToR-pair sharing branch: fetch (or join once) the pair's kept
    /// middles and put this host pair's access links around each.
    fn paths_via_tor_pair(&mut self, topo: &Topology, src_up: LinkId, dst_up: LinkId) -> Vec<Path> {
        let tor_src = topo.link(src_up).dst;
        let tor_dst = topo.link(dst_up).dst;
        let dst_down = topo.link(dst_up).reverse;
        let max_paths = self.max_paths;
        let (tables, enumerations) = (&mut self.tables, &mut self.enumerations);
        let kept = self.middles.entry((tor_src, tor_dst)).or_insert_with(|| {
            *enumerations += 1;
            for tor in [tor_src, tor_dst] {
                tables
                    .entry(tor)
                    .or_insert_with(|| WalkTable::new(topo, tor));
            }
            let join = Join::new(&tables[&tor_src], &tables[&tor_dst]);
            let mut kept = Middles::default();
            for i in sampled(join.len(), max_paths) {
                join.extend_links(i, &mut kept.links);
                kept.ends.push(kept.links.len());
            }
            kept
        });
        let mut from = 0;
        kept.ends
            .iter()
            .map(|&to| {
                let mut links = Vec::with_capacity(to - from + 2);
                links.push(src_up);
                links.extend_from_slice(&kept.links[from..to]);
                links.push(dst_down);
                from = to;
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
        // enumeration, whose kept middles (2 of the 4 inter-pod paths
        // under this budget) all four lists are built around.
        let topo = fat_tree(4, GBPS);
        let mut cache = PathCache::new(2);
        for a in [0usize, 1] {
            for b in [8usize, 9] {
                let got = cache.paths(&topo, topo.host(a), topo.host(b));
                assert_eq!(*got, direct(&topo, a, b, 2));
            }
        }
        assert_eq!(cache.enumerations(), 1);
        assert_eq!(cache.by_pair.len(), 4);
        assert_eq!(cache.tables.len(), 2, "one walk table per ToR");
        let kept: Vec<_> = cache.middles.values().map(|m| m.ends.len()).collect();
        assert_eq!(kept, [2], "one ToR pair, only the sampled middles stored");
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
