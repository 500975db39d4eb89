//! Path enumeration and flow-level ECMP.
//!
//! TAPS's Alg. 2 considers, for each flow, "all the possible paths" between
//! its endpoints and picks the one on which the flow completes earliest.
//! On the tree/fat-tree families of the paper, the possible paths are the
//! *valley-free* (up-then-down) simple paths; on arbitrary small graphs we
//! enumerate all shortest paths instead. Both enumerations are
//! deterministic, and both can be capped — when capped, the returned paths
//! are an evenly-spaced sample of the full enumeration so that a capped
//! TAPS still spreads load across the symmetric core of a fat-tree.
//!
//! # The valley-free enumeration
//!
//! A valley-free path climbs strictly from `src` to an *apex* and descends
//! strictly to `dst`, so it is one ascending walk from `src` glued to the
//! reverse of one ascending walk from `dst` that ends at the same node.
//! The definition is therefore a join of two [`WalkTable`]s:
//!
//! 1. a node's table lists every strictly ascending walk from it, the
//!    trivial one first, in depth-first order (a walk's extensions are
//!    listed when the walk is expanded, the last-listed walk is expanded
//!    next);
//! 2. [`Join`] pairs every `src` walk, in table order, with every `dst`
//!    walk that shares its apex, in table order, and drops the pairs whose
//!    halves share a node below the apex (such a path would revisit it,
//!    e.g. host-tor-agg-tor-host inside one rack);
//! 3. the surviving pairs are stably sorted shortest-first — Alg. 2 breaks
//!    completion-time ties by the first candidate, and a capped
//!    enumeration should keep the direct paths;
//! 4. a budget keeps the pairs at the [`sampled`] positions of that order.
//!
//! Pairs are two indices each; link sequences are written only for the
//! pairs a caller asks for, so a capped enumeration of a (k/2)²-path
//! fat-tree pair allocates `max_paths` paths, not (k/2)². [`PathFinder`]
//! builds the two tables per call; the [`cache`](crate::cache) keeps one
//! table per ToR switch and joins those.

use crate::{LinkId, NodeId, Path, RoutingMode, Topology};

/// SplitMix64 — a tiny, high-quality 64-bit mixer used for deterministic
/// flow-level ECMP hashing.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// How many candidates flow-level ECMP hashes over.
const ECMP_FANOUT: usize = 64;

/// Path enumerator over a topology.
///
/// Construction is free; all state lives in the topology.
#[derive(Clone, Copy)]
pub struct PathFinder<'t> {
    topo: &'t Topology,
}

impl<'t> PathFinder<'t> {
    /// Creates a path finder over `topo`.
    pub fn new(topo: &'t Topology) -> Self {
        PathFinder { topo }
    }

    /// Enumerates candidate paths from `src` to `dst`, capped at
    /// `max_paths` (evenly sampled when the full enumeration is larger).
    /// Uses the topology's [`RoutingMode`]. Panics if `src == dst` or
    /// `max_paths == 0`; returns an empty vector only if the endpoints are
    /// disconnected — links and switches that are currently failed (see
    /// [`Topology::fail_link`]) are skipped, so under faults only the
    /// surviving paths are enumerated.
    pub fn paths(&self, src: NodeId, dst: NodeId, max_paths: usize) -> Vec<Path> {
        assert_ne!(src, dst, "flow endpoints must differ");
        assert!(max_paths > 0);
        match self.topo.routing {
            RoutingMode::UpDown => self.up_down_paths(src, dst, |join| {
                sampled(join.len(), max_paths)
                    .map(|i| join.path(i))
                    .collect()
            }),
            RoutingMode::ShortestPath => sample_evenly(self.shortest_paths(src, dst), max_paths),
        }
    }

    /// Flow-level ECMP: deterministically picks one path among the
    /// candidates using `hash` (e.g. a flow id) — the
    /// `splitmix64(hash) % n`-th of the `n` paths [`paths`](Self::paths)
    /// returns for a budget of 64. This is how §V-A extends the
    /// single-path baselines to multi-rooted trees.
    pub fn ecmp(&self, src: NodeId, dst: NodeId, hash: u64) -> Option<Path> {
        assert_ne!(src, dst, "flow endpoints must differ");
        let pick = |n: usize| (splitmix64(hash) % n as u64) as usize;
        match self.topo.routing {
            // Count the candidates, write out only the chosen one.
            RoutingMode::UpDown => self.up_down_paths(src, dst, |join| {
                let n = join.len().min(ECMP_FANOUT);
                (n > 0).then(|| join.path(sample_at(pick(n), join.len(), ECMP_FANOUT)))
            }),
            RoutingMode::ShortestPath => {
                let mut paths = sample_evenly(self.shortest_paths(src, dst), ECMP_FANOUT);
                (!paths.is_empty()).then(|| paths.swap_remove(pick(paths.len())))
            }
        }
    }

    /// All valley-free simple paths — the join of the two endpoints' walk
    /// tables (see the module docs), handed to `f` to count or write out.
    /// The apex may be at any level (for two hosts in the same rack it is
    /// their shared ToR).
    fn up_down_paths<R>(&self, src: NodeId, dst: NodeId, f: impl FnOnce(&Join<'_>) -> R) -> R {
        let (ws, wd) = (
            WalkTable::new(self.topo, src),
            WalkTable::new(self.topo, dst),
        );
        f(&Join::new(&ws, &wd))
    }

    /// All shortest paths from `src` to `dst` over the raw directed graph.
    fn shortest_paths(&self, src: NodeId, dst: NodeId) -> Vec<Path> {
        // BFS from dst over *reverse* links gives dist-to-dst.
        let n = self.topo.num_nodes();
        let mut dist = vec![u32::MAX; n];
        dist[dst.idx()] = 0;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(dst);
        while let Some(u) = queue.pop_front() {
            for (v, link) in self.topo.neighbors(u) {
                // neighbors() lists outgoing links of u; since every cable
                // is duplex, v->u also exists, so v's dist via u is valid.
                // Fault state is cable-symmetric, so checking u's outgoing
                // direction also covers v->u.
                if self.topo.is_link_up(*link) && dist[v.idx()] == u32::MAX {
                    dist[v.idx()] = dist[u.idx()] + 1;
                    queue.push_back(*v);
                }
            }
        }
        if dist[src.idx()] == u32::MAX {
            return Vec::new();
        }
        // DFS from src along strictly-decreasing dist.
        let mut out = Vec::new();
        let mut stack: Vec<(NodeId, Vec<crate::LinkId>)> = vec![(src, Vec::new())];
        while let Some((u, links)) = stack.pop() {
            if u == dst {
                out.push(Path { links });
                continue;
            }
            for (v, link) in self.topo.neighbors(u) {
                if self.topo.is_link_up(*link)
                    && dist[v.idx()] != u32::MAX
                    && dist[v.idx()] + 1 == dist[u.idx()]
                {
                    let mut nl = links.clone();
                    nl.push(*link);
                    stack.push((*v, nl));
                }
            }
        }
        out.sort_by(|a, b| a.links.cmp(&b.links));
        out
    }
}

/// One strictly ascending walk of a [`WalkTable`], stored as its last
/// step: the walk it extends plus the link climbed (and that link's
/// reverse, for descending along it).
#[derive(Clone, Copy)]
struct Walk {
    /// Node the walk ends at.
    apex: NodeId,
    /// Links climbed.
    hops: u32,
    /// `(walk extended, link up, link down)`; `None` for the trivial walk.
    step: Option<(u32, LinkId, LinkId)>,
}

/// Every strictly ascending walk from one node over the live links, in
/// the enumeration's depth-first order (module docs, step 1), with an
/// index by apex. Valid for the fault epoch it was built at.
pub(crate) struct WalkTable {
    walks: Vec<Walk>,
    /// `(apex, walk index)`, ascending.
    by_apex: Vec<(NodeId, u32)>,
}

impl WalkTable {
    /// Builds the table of `origin`.
    pub(crate) fn new(topo: &Topology, origin: NodeId) -> WalkTable {
        let mut walks = vec![Walk {
            apex: origin,
            hops: 0,
            step: None,
        }];
        let mut frontier = vec![0u32];
        while let Some(w) = frontier.pop() {
            let Walk { apex, hops, .. } = walks[w as usize];
            let lvl = topo.node(apex).level;
            for &(next, up) in topo.neighbors(apex) {
                if topo.node(next).level > lvl && topo.is_link_up(up) {
                    frontier.push(walks.len() as u32);
                    walks.push(Walk {
                        apex: next,
                        hops: hops + 1,
                        step: Some((w, up, topo.link(up).reverse)),
                    });
                }
            }
        }
        let mut by_apex: Vec<(NodeId, u32)> =
            (0u32..).zip(&walks).map(|(w, x)| (x.apex, w)).collect();
        by_apex.sort_unstable();
        WalkTable { walks, by_apex }
    }

    /// The steps of walk `w`, last first: `(link up, link down, node the
    /// step starts from)`.
    fn steps(&self, w: u32) -> impl Iterator<Item = (LinkId, LinkId, NodeId)> + '_ {
        std::iter::successors(self.walks[w as usize].step, |&(p, _, _)| {
            self.walks[p as usize].step
        })
        .map(|(p, up, down)| (up, down, self.walks[p as usize].apex))
    }
}

/// The simple valley-free paths between the origins of two walk tables,
/// in the enumeration's order (module docs, steps 2–3), each held as the
/// pair of walks it is glued from.
pub(crate) struct Join<'a> {
    src: &'a WalkTable,
    dst: &'a WalkTable,
    /// `(src walk, dst walk)`, shortest path first.
    pairs: Vec<(u32, u32)>,
}

impl<'a> Join<'a> {
    /// Joins the tables of a path's two endpoints.
    pub(crate) fn new(src: &'a WalkTable, dst: &'a WalkTable) -> Join<'a> {
        // For each src walk, the run of `dst.by_apex` ending at the same
        // apex: one two-pointer pass over the two apex-ordered indexes.
        let mut runs = vec![(0, 0); src.walks.len()];
        let (mut lo, end) = (0, dst.by_apex.len());
        for &(apex, i) in &src.by_apex {
            while lo < end && dst.by_apex[lo].0 < apex {
                lo += 1;
            }
            let mut hi = lo;
            while hi < end && dst.by_apex[hi].0 == apex {
                hi += 1;
            }
            runs[i as usize] = (lo, hi);
        }
        let mut pairs = Vec::with_capacity(dst.walks.len());
        for (i, (lo, hi)) in (0u32..).zip(runs) {
            for &(_, j) in &dst.by_apex[lo..hi] {
                // Simple iff the halves share no node below the apex.
                let revisits = src
                    .steps(i)
                    .any(|(_, _, n)| dst.steps(j).any(|(_, _, m)| m == n));
                if !revisits {
                    pairs.push((i, j));
                }
            }
        }
        let hops = |&(i, j): &(u32, u32)| src.walks[i as usize].hops + dst.walks[j as usize].hops;
        pairs.sort_by_key(hops);
        Join { src, dst, pairs }
    }

    /// Number of paths.
    pub(crate) fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Appends the links of the `idx`-th path to `out`.
    pub(crate) fn extend_links(&self, idx: usize, out: &mut Vec<LinkId>) {
        let (i, j) = self.pairs[idx];
        let at = out.len();
        out.extend(self.src.steps(i).map(|(up, _, _)| up));
        out[at..].reverse();
        out.extend(self.dst.steps(j).map(|(_, down, _)| down));
    }

    /// The `idx`-th path.
    fn path(&self, idx: usize) -> Path {
        let (i, j) = self.pairs[idx];
        let hops = self.src.walks[i as usize].hops + self.dst.walks[j as usize].hops;
        let mut links = Vec::with_capacity(hops as usize);
        self.extend_links(idx, &mut links);
        Path { links }
    }
}

/// Position in an `n`-element enumeration of the `i`-th element a budget
/// of `max` keeps: everything when it fits, else `max` evenly spaced
/// positions starting with the first.
#[inline]
fn sample_at(i: usize, n: usize, max: usize) -> usize {
    if n <= max {
        i
    } else {
        i * n / max
    }
}

/// The positions a budget of `max` keeps of an `n`-element enumeration,
/// ascending. They depend on `n` and `max` alone, which is what lets the
/// join and the path cache write out only the kept candidates.
pub(crate) fn sampled(n: usize, max: usize) -> impl Iterator<Item = usize> {
    (0..n.min(max)).map(move |i| sample_at(i, n, max))
}

/// Takes the [`sampled`] elements of `v`.
fn sample_evenly<T>(v: Vec<T>, max: usize) -> Vec<T> {
    if v.len() <= max {
        return v;
    }
    let mut keep = sampled(v.len(), max).peekable();
    (0..)
        .zip(v)
        .filter_map(|(i, x)| keep.next_if_eq(&i).map(|_| x))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{
        dumbbell, fat_tree, fig3_star, partial_fat_tree_testbed, single_rooted, GBPS,
    };

    #[test]
    fn single_rooted_has_unique_paths() {
        let t = single_rooted(2, 2, 2, GBPS);
        let pf = PathFinder::new(&t);
        // Hosts in different pods: unique 6-hop path via the core.
        let p = pf.paths(t.host(0), t.host(7), 16);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].len(), 6);
        // Same rack: unique 2-hop path via the ToR.
        let p = pf.paths(t.host(0), t.host(1), 16);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].len(), 2);
        // Same pod, different rack: 4 hops via the aggregation switch.
        let p = pf.paths(t.host(0), t.host(2), 16);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].len(), 4);
    }

    #[test]
    fn paths_are_valid_walks() {
        let t = fat_tree(4, GBPS);
        let pf = PathFinder::new(&t);
        for (a, b) in [(0usize, 1usize), (0, 3), (0, 8), (5, 12)] {
            for p in pf.paths(t.host(a), t.host(b), 64) {
                let nodes = p.nodes(&t);
                assert_eq!(nodes.first().copied(), Some(t.host(a)));
                assert_eq!(nodes.last().copied(), Some(t.host(b)));
                // Consecutive links connect.
                for w in p.links.windows(2) {
                    assert_eq!(t.link(w[0]).dst, t.link(w[1]).src);
                }
                // Simple path: no repeated nodes.
                let mut sorted = nodes.clone();
                sorted.sort();
                sorted.dedup();
                assert_eq!(sorted.len(), nodes.len(), "path revisits a node: {nodes:?}");
            }
        }
    }

    #[test]
    fn fat_tree_path_multiplicity() {
        // k=4: inter-pod pairs have (k/2)^2 = 4 shortest up-down paths;
        // intra-pod inter-rack pairs have k/2 = 2; same-rack pairs have 1.
        let t = fat_tree(4, GBPS);
        let pf = PathFinder::new(&t);
        // hosts 0,1 share an edge switch; 0,2 share a pod; 0,8 are
        // inter-pod (each pod holds k^2/4 = 4 hosts).
        let shortest_counts = |a: usize, b: usize| {
            pf.paths(t.host(a), t.host(b), 1024)
                .iter()
                .map(|p| p.len())
                .collect::<Vec<_>>()
        };
        assert_eq!(shortest_counts(0, 1).iter().filter(|&&l| l == 2).count(), 1);
        assert_eq!(shortest_counts(0, 2).iter().filter(|&&l| l == 4).count(), 2);
        assert_eq!(shortest_counts(0, 4).iter().filter(|&&l| l == 6).count(), 4);
    }

    #[test]
    fn intra_pod_core_detours_are_rejected_as_non_simple() {
        // In a fat-tree, an intra-pod detour via the core must come back
        // down through the same aggregation switch it climbed, revisiting
        // it — so the only *simple* valley-free intra-pod paths are the
        // k/2 direct 4-hop ones.
        let t = fat_tree(4, GBPS);
        let pf = PathFinder::new(&t);
        let paths = pf.paths(t.host(0), t.host(2), 1024);
        let lens: Vec<usize> = paths.iter().map(|p| p.len()).collect();
        assert_eq!(lens, vec![4, 4]);
    }

    #[test]
    fn capped_enumeration_samples_evenly() {
        let t = fat_tree(8, GBPS);
        let pf = PathFinder::new(&t);
        let all = pf.paths(t.host(0), t.host(t.num_hosts() - 1), 10_000);
        let capped = pf.paths(t.host(0), t.host(t.num_hosts() - 1), 4);
        assert_eq!(capped.len(), 4);
        assert!(all.len() > 4);
        // Every capped path is in the full enumeration.
        for p in &capped {
            assert!(all.contains(p));
        }
        // First (shortest, first-enumerated) path is kept.
        assert_eq!(capped[0], all[0]);
    }

    #[test]
    fn testbed_has_two_interpod_paths() {
        let t = partial_fat_tree_testbed(GBPS);
        let pf = PathFinder::new(&t);
        // hosts 0..3 are pod 0, hosts 4..7 pod 1.
        let p = pf.paths(t.host(0), t.host(4), 64);
        let shortest: Vec<_> = p.iter().filter(|p| p.len() == 6).collect();
        assert_eq!(shortest.len(), 2, "one path per core switch");
    }

    #[test]
    fn dumbbell_shortest_paths() {
        let t = dumbbell(2, 2, GBPS);
        let pf = PathFinder::new(&t);
        // host 0 (left) to host 2 (right): unique 3-hop path.
        let p = pf.paths(t.host(0), t.host(2), 8);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].len(), 3);
        // host 0 to host 1 (both left): 2-hop via the left switch.
        let p = pf.paths(t.host(0), t.host(1), 8);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].len(), 2);
    }

    #[test]
    fn fig3_star_paths() {
        let t = fig3_star(GBPS);
        let pf = PathFinder::new(&t);
        for a in 0..4 {
            for b in 0..4 {
                if a == b {
                    continue;
                }
                let p = pf.paths(t.host(a), t.host(b), 8);
                assert_eq!(p.len(), 1);
                assert_eq!(p[0].len(), 4, "host-edge-center-edge-host");
            }
        }
    }

    #[test]
    fn ecmp_is_deterministic_and_spreads() {
        let t = fat_tree(4, GBPS);
        let pf = PathFinder::new(&t);
        let (a, b) = (t.host(0), t.host(8));
        let p1 = pf.ecmp(a, b, 42).unwrap();
        let p2 = pf.ecmp(a, b, 42).unwrap();
        assert_eq!(p1, p2);
        // Across many hashes, more than one distinct path is used.
        let mut distinct = std::collections::HashSet::new();
        for h in 0..64u64 {
            distinct.insert(pf.ecmp(a, b, h).unwrap());
        }
        assert!(distinct.len() > 1, "ECMP should spread across paths");
    }

    #[test]
    fn failed_links_are_excluded_from_enumeration() {
        let t = fat_tree(4, GBPS);
        let pf = PathFinder::new(&t);
        let (a, b) = (t.host(0), t.host(8));
        let before = pf.paths(a, b, 1024);
        assert_eq!(before.iter().filter(|p| p.len() == 6).count(), 4);
        // Kill the ToR->agg hop of the first path (the host keeps its
        // uplink): every surviving candidate must avoid that cable (in
        // both directions).
        let dead = before[0].links[1];
        t.fail_link(dead);
        let after = pf.paths(a, b, 1024);
        assert!(!after.is_empty());
        assert!(after.len() < before.len());
        let rev = t.link(dead).reverse;
        for p in &after {
            assert!(!p.links.contains(&dead) && !p.links.contains(&rev));
        }
        t.restore_link(dead);
        assert_eq!(pf.paths(a, b, 1024), before);
    }

    #[test]
    fn host_uplink_failure_disconnects() {
        let t = single_rooted(2, 2, 2, GBPS);
        let pf = PathFinder::new(&t);
        // A single-rooted tree has exactly one path host->host; killing
        // the source's only uplink leaves no candidates.
        let p = pf.paths(t.host(0), t.host(7), 16);
        t.fail_link(p[0].links[0]);
        assert!(pf.paths(t.host(0), t.host(7), 16).is_empty());
        assert!(pf.ecmp(t.host(0), t.host(7), 1).is_none());
    }

    #[test]
    fn failed_links_excluded_from_bfs_shortest_paths() {
        let t = dumbbell(2, 2, GBPS);
        let pf = PathFinder::new(&t);
        let p = pf.paths(t.host(0), t.host(2), 8);
        assert_eq!(p.len(), 1);
        // The dumbbell's single cross-link is the only route between the
        // sides: failing any hop disconnects them.
        t.fail_link(p[0].links[1]);
        assert!(pf.paths(t.host(0), t.host(2), 8).is_empty());
        // Same-side routing is unaffected.
        assert_eq!(pf.paths(t.host(0), t.host(1), 8).len(), 1);
    }

    #[test]
    fn switch_failure_reroutes_around_it() {
        let t = fat_tree(4, GBPS);
        let pf = PathFinder::new(&t);
        let (a, b) = (t.host(0), t.host(8));
        let before = pf.paths(a, b, 1024);
        // Fail the aggregation switch the first path climbs through
        // (third node on the path: host, tor, agg).
        let agg = before[0].nodes(&t)[2];
        assert!(t.node(agg).kind.is_switch());
        t.fail_switch(agg);
        let after = pf.paths(a, b, 1024);
        assert!(!after.is_empty());
        for p in &after {
            assert!(!p.nodes(&t).contains(&agg));
        }
    }

    #[test]
    fn sample_evenly_behaviour() {
        let v: Vec<u32> = (0..10).collect();
        assert_eq!(sample_evenly(v.clone(), 20), v);
        let s = sample_evenly(v.clone(), 3);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0], 0);
        let s1 = sample_evenly(v, 1);
        assert_eq!(s1, vec![0]);
    }
}
