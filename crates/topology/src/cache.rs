//! Candidate-path cache for Alg. 2.
//!
//! TAPS re-runs its whole allocation on every task arrival (Alg. 1), so
//! the same (src, dst) pairs are path-enumerated over and over even though
//! the topology never changes mid-run. [`PathCache`] hands the engine each
//! pair's capped candidate list as a [`Candidates`] *view* over shared
//! link buffers, so its state grows with the fabric, not with how many
//! host pairs have been looked up.
//!
//! On the paper's tree/fat-tree families the cache exploits an
//! equivalence: in [`RoutingMode::UpDown`], when both endpoints are leaf
//! hosts (exactly one uplink each), every valley-free path is
//! `src → ToR(src)` ++ *middle* ++ `ToR(dst) → dst`, and the middles are
//! exactly the valley-free paths between the two ToRs. A leaf host's walk
//! table is its trivial walk followed by its ToR's table behind the
//! uplink; nothing climbs *to* a leaf host, so the trivial walks join with
//! nothing, the remaining pairs are the ToR tables' pairs in the same
//! order, the hosts add no revisit (simplicity is decided among the
//! switches) and every path grows by the same two hops (the stable
//! shortest-first order is unchanged). Two hosts under the *same* ToR
//! have one path, the empty middle: anything climbing above the ToR must
//! come back down through it. The cache therefore holds, all dropped
//! together when the topology's fault epoch moves:
//!
//! * one [`WalkTable`] per **ToR switch**, built the first time a pair
//!   under that ToR is looked up (a 32-pod fat-tree has 8 192 hosts but
//!   only 512 ToRs);
//! * per ordered pair of **distinct ToRs**, the middles the budget keeps —
//!   at most `max_paths` of them, joined from the two tables, in one flat
//!   buffer with each middle's bottleneck capacity; the sampled positions
//!   depend only on how many paths there are and on the budget, so the
//!   (k/2)² − `max_paths` others are never written out;
//! * per **host pair without ToR sharing** (other routing, a host with
//!   several or no live uplinks), the whole capped list in the same flat
//!   form.
//!
//! A ToR-shared pair's view is its two access links around its ToR pair's
//! middles; nothing is stored for the host pair itself. A cold lookup is
//! a join over two small tables plus `max_paths` short copies, which is
//! why nothing needs to pre-warm the cache, and a warm one is a ToR-pair
//! probe and a reference-count bump.

use crate::paths::{sampled, Join, PathFinder, WalkTable};
use crate::{LinkId, NodeId, Path, RoutingMode, Topology};
use std::collections::HashMap;
use std::sync::Arc;

/// Link sequences stored back to back: a ToR pair's kept middles, or the
/// whole candidate paths of one host pair.
#[derive(Default)]
struct LinkSeqs {
    links: Vec<LinkId>,
    /// End offset of each sequence in `links`.
    ends: Vec<usize>,
    /// Bottleneck capacity of each sequence (`f64::INFINITY` when empty).
    bottlenecks: Vec<f64>,
}

impl LinkSeqs {
    /// Closes the sequence written to `links` since the previous one.
    fn close(&mut self, topo: &Topology) {
        let from = self.ends.last().copied().unwrap_or(0);
        let bottleneck = self.links[from..]
            .iter()
            .map(|l| topo.link(*l).capacity)
            .fold(f64::INFINITY, f64::min);
        self.ends.push(self.links.len());
        self.bottlenecks.push(bottleneck);
    }

    fn from_paths(topo: &Topology, paths: Vec<Path>) -> LinkSeqs {
        let mut seqs = LinkSeqs::default();
        for p in paths {
            seqs.links.extend_from_slice(&p.links);
            seqs.close(topo);
        }
        seqs
    }
}

/// One host pair's candidate paths, in Alg. 2's order, as a view: every
/// candidate is the pair's access links (none, for a pair without ToR
/// sharing) around one shared link sequence, its *middle*. Cloning is a
/// reference-count bump; [`path`](Self::path) writes one candidate out.
#[derive(Clone)]
pub struct Candidates {
    /// `[uplink of src, downlink to dst]` when the middles are a ToR
    /// pair's.
    access: Option<[LinkId; 2]>,
    /// Bottleneck capacity of `access` (`f64::INFINITY` without).
    access_bottleneck: f64,
    middles: Arc<LinkSeqs>,
}

impl Candidates {
    /// Number of candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.middles.ends.len()
    }

    /// Whether there are none (the endpoints are disconnected).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.middles.ends.is_empty()
    }

    /// The links every candidate crosses around its middle: the source's
    /// uplink and the destination's downlink, or none.
    #[inline]
    pub fn access(&self) -> &[LinkId] {
        match &self.access {
            Some(a) => a,
            None => &[],
        }
    }

    /// Candidate `i`'s links between the [`access`](Self::access) links.
    #[inline]
    pub fn middle(&self, i: usize) -> &[LinkId] {
        let from = if i == 0 { 0 } else { self.middles.ends[i - 1] };
        &self.middles.links[from..self.middles.ends[i]]
    }

    /// Candidate `i`'s bottleneck capacity, access links included:
    /// [`Path::bottleneck`] of [`path`](Self::path)`(i)`.
    #[inline]
    pub fn bottleneck(&self, i: usize) -> f64 {
        self.access_bottleneck.min(self.middles.bottlenecks[i])
    }

    /// Candidate `i`'s links, source to destination.
    pub fn links(&self, i: usize) -> impl Iterator<Item = LinkId> + '_ {
        let (up, down) = match self.access {
            Some([up, down]) => (Some(up), Some(down)),
            None => (None, None),
        };
        up.into_iter()
            .chain(self.middle(i).iter().copied())
            .chain(down)
    }

    /// Candidate `i` written out.
    pub fn path(&self, i: usize) -> Path {
        let middle = self.middle(i);
        let mut links = Vec::with_capacity(self.access().len() + middle.len());
        match self.access {
            Some([up, down]) => {
                links.push(up);
                links.extend_from_slice(middle);
                links.push(down);
            }
            None => links.extend_from_slice(middle),
        }
        Path { links }
    }

    /// Every candidate written out.
    pub fn to_paths(&self) -> Vec<Path> {
        (0..self.len()).map(|i| self.path(i)).collect()
    }
}

/// Equal when the two lists are, candidate for candidate.
impl PartialEq for Candidates {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.links(i).eq(other.links(i)))
    }
}

/// Caches [`PathFinder::paths`] results for a fixed candidate budget, per
/// ToR pair where the topology allows (module docs).
///
/// Every lookup compares the topology's fault-state
/// [`epoch`](Topology::epoch) against the epoch the cache was filled at
/// and self-clears on mismatch, so entries never outlive a link/switch
/// failure or repair. Callers that can see more than one topology must
/// still [`clear`](Self::clear) when switching topologies (the allocator
/// engine guards this).
pub struct PathCache {
    /// Candidate budget, as in [`PathFinder::paths`]'s `max_paths`.
    max_paths: usize,
    /// Whole capped lists of host pairs without ToR-pair sharing.
    by_pair: HashMap<(NodeId, NodeId), Arc<LinkSeqs>>,
    /// Kept middles per ordered pair of distinct ToRs.
    middles: HashMap<(NodeId, NodeId), Arc<LinkSeqs>>,
    /// The middles of two hosts under one ToR: the empty one alone.
    same_tor: Arc<LinkSeqs>,
    /// Ascending walks per ToR switch, the inputs of every middle join.
    tables: HashMap<NodeId, WalkTable>,
    /// How many times a candidate set was derived rather than shared.
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
            same_tor: Arc::new(LinkSeqs {
                links: Vec::new(),
                ends: vec![0],
                bottlenecks: vec![f64::INFINITY],
            }),
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
    /// enumeration level): one per pair of distinct ToRs whose middles
    /// were joined, plus one per pair without ToR-pair sharing that went
    /// through [`PathFinder::paths`]. Tests use this to prove that
    /// ToR-pair sharing avoids per-host-pair enumeration.
    #[inline]
    pub fn enumerations(&self) -> u64 {
        self.enumerations
    }

    /// Number of candidate sets the cache holds: one per pair of distinct
    /// ToRs joined, plus one per host pair without ToR-pair sharing.
    #[inline]
    pub fn entries(&self) -> usize {
        self.middles.len() + self.by_pair.len()
    }

    /// Drops every cached entry (topology changed).
    pub fn clear(&mut self) {
        self.by_pair.clear();
        self.middles.clear();
        self.tables.clear();
    }

    /// Candidate paths from `src` to `dst`, identical to
    /// `PathFinder::new(topo).paths(src, dst, self.max_paths)`, written
    /// out from [`candidates`](Self::candidates) on every call.
    pub fn paths(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> Arc<Vec<Path>> {
        Arc::new(self.candidates(topo, src, dst).to_paths())
    }

    /// The same list as [`paths`](Self::paths), as a view over the
    /// cache's shared buffers: nothing is allocated for a ToR-shared pair
    /// once its ToR pair has been joined.
    pub fn candidates(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> Candidates {
        if self.epoch != topo.epoch() {
            // A link or switch changed state since the cache was filled:
            // every memoized candidate set is suspect.
            self.clear();
            self.epoch = topo.epoch();
        }
        match leaf_uplinks(topo, src, dst) {
            Some((src_up, dst_up)) => {
                let dst_down = topo.link(dst_up).reverse;
                let (tor_src, tor_dst) = (topo.link(src_up).dst, topo.link(dst_up).dst);
                Candidates {
                    access: Some([src_up, dst_down]),
                    access_bottleneck: topo.link(src_up).capacity.min(topo.link(dst_down).capacity),
                    middles: self.tor_pair(topo, tor_src, tor_dst),
                }
            }
            None => {
                let (max_paths, enumerations) = (self.max_paths, &mut self.enumerations);
                let whole = self.by_pair.entry((src, dst)).or_insert_with(|| {
                    *enumerations += 1;
                    let paths = PathFinder::new(topo).paths(src, dst, max_paths);
                    Arc::new(LinkSeqs::from_paths(topo, paths))
                });
                Candidates {
                    access: None,
                    access_bottleneck: f64::INFINITY,
                    middles: Arc::clone(whole),
                }
            }
        }
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
                    self.candidates(topo, hs, hd);
                }
            }
        }
    }

    /// The kept middles from `tor_src` to `tor_dst`, joined on first use.
    fn tor_pair(&mut self, topo: &Topology, tor_src: NodeId, tor_dst: NodeId) -> Arc<LinkSeqs> {
        if tor_src == tor_dst {
            return Arc::clone(&self.same_tor);
        }
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
            let mut kept = LinkSeqs::default();
            for i in sampled(join.len(), max_paths) {
                join.extend_links(i, &mut kept.links);
                kept.close(topo);
            }
            Arc::new(kept)
        });
        Arc::clone(kept)
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
    use crate::NodeKind;

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
                    let want = direct(&topo, a, b, max);
                    let view = cache.candidates(&topo, topo.host(a), topo.host(b));
                    assert_eq!(view.to_paths(), want, "{} {a}->{b} max={max}", topo.name);
                    for (i, p) in want.iter().enumerate() {
                        assert_eq!(view.bottleneck(i).to_bits(), p.bottleneck(&topo).to_bits());
                    }
                    assert_eq!(*cache.paths(&topo, topo.host(a), topo.host(b)), want);
                }
            }
        }
    }

    /// Two ToRs under two spines, with one slow host and one slow spine
    /// link, so that either the access links or the middle can be a
    /// candidate's bottleneck.
    #[test]
    fn view_bottlenecks_are_the_written_out_paths() {
        let mut topo = Topology::new("mixed capacities", RoutingMode::UpDown);
        let spines = [
            topo.add_node(NodeKind::CoreSwitch, 2),
            topo.add_node(NodeKind::CoreSwitch, 2),
        ];
        for (r, capacity) in [(0, 0.5 * GBPS), (1, 10.0 * GBPS)] {
            let tor = topo.add_node(NodeKind::TorSwitch, 1);
            topo.add_duplex_link(tor, spines[0], 10.0 * GBPS);
            topo.add_duplex_link(tor, spines[1], [capacity, 10.0 * GBPS][r]);
            for c in [0.25 * GBPS, GBPS] {
                let host = topo.add_node(NodeKind::Host, 0);
                topo.add_duplex_link(host, tor, c);
            }
        }
        let mut cache = PathCache::new(16);
        for a in 0..4 {
            for b in (0..4).filter(|&b| b != a) {
                let want = direct(&topo, a, b, 16);
                let view = cache.candidates(&topo, topo.host(a), topo.host(b));
                assert_eq!(view.to_paths(), want, "{a}->{b}");
                for (i, p) in want.iter().enumerate() {
                    let got = view.bottleneck(i);
                    assert_eq!(
                        got.to_bits(),
                        p.bottleneck(&topo).to_bits(),
                        "{a}->{b} #{i}"
                    );
                }
            }
        }
        let slow = cache.candidates(&topo, topo.host(1), topo.host(3));
        let middles: Vec<f64> = (0..slow.len()).map(|i| slow.bottleneck(i)).collect();
        assert_eq!(middles, [GBPS, 0.5 * GBPS], "the second spine link binds");
    }

    #[test]
    fn repeat_queries_hit_the_cache() {
        let topo = fat_tree(4, GBPS);
        let mut cache = PathCache::new(16);
        let c1 = cache.candidates(&topo, topo.host(0), topo.host(8));
        let misses = cache.enumerations();
        let c2 = cache.candidates(&topo, topo.host(0), topo.host(8));
        assert_eq!(cache.enumerations(), misses, "second query must be a hit");
        assert!(Arc::ptr_eq(&c1.middles, &c2.middles));
    }

    #[test]
    fn tor_pair_sharing_avoids_reenumeration() {
        // Hosts 0,1 hang off one ToR; hosts 8,9 off another (k=4 fat-tree,
        // 2 hosts per rack). Four host pairs, one ToR pair: exactly one
        // enumeration, whose kept middles (2 of the 4 inter-pod paths
        // under this budget) all four views share, and nothing stored per
        // host pair.
        let topo = fat_tree(4, GBPS);
        let mut cache = PathCache::new(2);
        let mut views = Vec::new();
        for a in [0usize, 1] {
            for b in [8usize, 9] {
                let view = cache.candidates(&topo, topo.host(a), topo.host(b));
                assert_eq!(view.to_paths(), direct(&topo, a, b, 2));
                views.push(view);
            }
        }
        assert_eq!(cache.enumerations(), 1);
        assert!(cache.by_pair.is_empty(), "no per-host-pair entry");
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.tables.len(), 2, "one walk table per ToR");
        let kept: Vec<_> = cache.middles.values().map(|m| m.ends.len()).collect();
        assert_eq!(kept, [2], "one ToR pair, only the sampled middles stored");
        assert!(views
            .iter()
            .all(|v| Arc::ptr_eq(&v.middles, &views[0].middles)));
    }

    #[test]
    fn same_tor_pairs_share_the_empty_middle() {
        // Hosts 0 and 1 share a ToR: one path, host-ToR-host, and neither
        // a join nor an entry behind it.
        let topo = fat_tree(4, GBPS);
        let mut cache = PathCache::new(16);
        let view = cache.candidates(&topo, topo.host(0), topo.host(1));
        assert_eq!(view.to_paths(), direct(&topo, 0, 1, 16));
        assert_eq!((view.len(), view.middle(0).len()), (1, 0));
        assert_eq!((cache.enumerations(), cache.entries()), (0, 0));
    }

    #[test]
    fn pairs_without_tor_sharing_keep_their_whole_list() {
        let topo = dumbbell(2, 2, GBPS);
        let mut cache = PathCache::new(4);
        let view = cache.candidates(&topo, topo.host(0), topo.host(2));
        assert!(view.access().is_empty());
        assert_eq!(view.middle(0), &direct(&topo, 0, 2, 4)[0].links[..]);
        assert_eq!((cache.enumerations(), cache.entries()), (1, 1));
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
        assert!(cache
            .candidates(&topo, topo.host(0), topo.host(8))
            .is_empty());
        // Sibling host 1 is unaffected.
        assert!(!cache
            .candidates(&topo, topo.host(1), topo.host(8))
            .is_empty());
    }

    #[test]
    fn clear_forgets_everything() {
        let topo = fat_tree(4, GBPS);
        let mut cache = PathCache::new(16);
        cache.candidates(&topo, topo.host(0), topo.host(8));
        cache.clear();
        cache.candidates(&topo, topo.host(0), topo.host(8));
        assert_eq!(cache.enumerations(), 2);
    }
}
