//! Property tests over randomized topology parameters: every enumerated
//! path must be a simple, connected, valley-free walk; ECMP must stay
//! within the candidate set and be deterministic; and the walk-table join
//! behind `PathFinder` and `PathCache` — both its written-out lists and
//! its `Candidates` views — must return, element for element, what the
//! [`reference`] enumeration returns, on every topology family, budget
//! and fault set.

use proptest::prelude::*;
use taps_topology::build::{
    bcube, dumbbell, fat_tree, fig3_star, partial_fat_tree_testbed, single_rooted, GBPS,
};
use taps_topology::cache::{Candidates, PathCache};
use taps_topology::paths::{splitmix64, PathFinder};
use taps_topology::{LinkId, NodeId, NodeKind, Path, Topology};

/// The candidate enumeration as it was first written, kept as the
/// definition the production code is compared against: two depth-first
/// lists of ascending walks, a nested-loop join on the apex, a stable
/// shortest-first sort, then an evenly spaced sample of the *finished*
/// list. The valley-free half uses nothing of the crate but the public
/// graph accessors.
mod reference {
    use taps_topology::paths::PathFinder;
    use taps_topology::{LinkId, NodeId, Path, RoutingMode, Topology};

    pub fn paths(topo: &Topology, src: NodeId, dst: NodeId, max_paths: usize) -> Vec<Path> {
        let all = match topo.routing {
            RoutingMode::UpDown => up_down_paths(topo, src, dst),
            // The shortest-path enumeration itself is not under test: take
            // it uncapped (nothing is sampled) and sample it here.
            RoutingMode::ShortestPath => PathFinder::new(topo).paths(src, dst, usize::MAX),
        };
        sample_evenly(all, max_paths)
    }

    fn up_down_paths(topo: &Topology, src: NodeId, dst: NodeId) -> Vec<Path> {
        let mut by_apex: Vec<(NodeId, Vec<Vec<LinkId>>)> = Vec::new();
        for (apex, up_links) in &ascending_walks(topo, dst) {
            let down: Vec<LinkId> = up_links
                .iter()
                .rev()
                .map(|l| topo.link(*l).reverse)
                .collect();
            match by_apex.iter_mut().find(|(n, _)| *n == *apex) {
                Some((_, v)) => v.push(down),
                None => by_apex.push((*apex, vec![down])),
            }
        }
        let mut out = Vec::new();
        for (apex, up_links) in &ascending_walks(topo, src) {
            let Some((_, downs)) = by_apex.iter().find(|(n, _)| n == apex) else {
                continue;
            };
            let mut up_nodes = vec![src];
            up_nodes.extend(up_links.iter().map(|l| topo.link(*l).dst));
            for down in downs {
                let down_nodes: Vec<NodeId> = down.iter().map(|l| topo.link(*l).dst).collect();
                if up_nodes
                    .iter()
                    .any(|n| *n != *apex && down_nodes.contains(n))
                {
                    continue;
                }
                let mut links = up_links.clone();
                links.extend_from_slice(down);
                out.push(Path { links });
            }
        }
        out.sort_by_key(|p| p.links.len());
        out
    }

    fn ascending_walks(topo: &Topology, n: NodeId) -> Vec<(NodeId, Vec<LinkId>)> {
        let mut out = vec![(n, Vec::new())];
        let mut frontier = vec![(n, Vec::new())];
        while let Some((node, links)) = frontier.pop() {
            let lvl = topo.node(node).level;
            for (next, link) in topo.neighbors(node) {
                if topo.is_link_up(*link) && topo.node(*next).level > lvl {
                    let mut nl = links.clone();
                    nl.push(*link);
                    out.push((*next, nl.clone()));
                    frontier.push((*next, nl));
                }
            }
        }
        out
    }

    fn sample_evenly<T>(mut v: Vec<T>, max: usize) -> Vec<T> {
        if v.len() <= max {
            return v;
        }
        let n = v.len();
        let mut keep = vec![false; n];
        for i in 0..max {
            keep[i * n / max] = true;
        }
        let mut idx = 0;
        v.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
        v
    }
}

/// Every builder of `taps_topology::build`, the tree families at several
/// sizes.
fn topology(which: usize) -> Topology {
    match which % 9 {
        0 => fat_tree(4, GBPS),
        1 => fat_tree(6, GBPS),
        2 => fat_tree(8, GBPS),
        3 => single_rooted(2, 2, 2, GBPS),
        4 => single_rooted(3, 3, 4, GBPS),
        5 => partial_fat_tree_testbed(GBPS),
        6 => fig3_star(GBPS),
        7 => dumbbell(2, 2, GBPS),
        _ => bcube(3, 1, GBPS),
    }
}

/// A host pair: `spread` 0 stays in the rack (neighbouring host index),
/// 1 in the pod (a few hosts away), 2 goes anywhere.
fn host_pair(topo: &Topology, a: usize, b: usize, spread: usize) -> (NodeId, NodeId) {
    let n = topo.num_hosts();
    let a = a % n;
    let reach = [1, 8, n - 1][spread].min(n - 1);
    (topo.host(a), topo.host((a + 1 + b % reach) % n))
}

/// Applies one fault per entry of `faults` and returns the cables failed
/// (switch failures are undone by `reset_faults` only): a random cable,
/// `src`'s own uplink, a random switch, or a whole aggregation switch.
fn inject(topo: &Topology, src: NodeId, faults: &[(usize, usize)]) -> Vec<LinkId> {
    let switches = |kind: Option<NodeKind>| -> Vec<NodeId> {
        (0..topo.num_nodes())
            .map(NodeId::from_idx)
            .filter(|n| match kind {
                Some(k) => topo.node(*n).kind == k,
                None => topo.node(*n).kind.is_switch(),
            })
            .collect()
    };
    let mut cables = Vec::new();
    for &(kind, pick) in faults {
        match kind % 4 {
            0 => cables.push(LinkId::from_idx(pick % topo.num_links())),
            1 => cables.push(topo.neighbors(src)[0].1),
            k => {
                let pool = switches((k == 3).then_some(NodeKind::AggSwitch));
                if let Some(s) = pool.get(pick % pool.len().max(1)) {
                    topo.fail_switch(*s);
                }
            }
        }
    }
    for l in &cables {
        topo.fail_link(*l);
    }
    cables
}

/// `view` written out is `want`, and each candidate's links and
/// bottleneck are the written-out path's.
fn assert_view_is(topo: &Topology, view: &Candidates, want: &[Path], ctx: &str) {
    assert_eq!(view.to_paths(), want, "view, {ctx}");
    for (i, p) in want.iter().enumerate() {
        assert!(
            view.links(i).eq(p.links.iter().copied()),
            "links {i}, {ctx}"
        );
        let (access, middle) = (view.access(), view.middle(i));
        assert_eq!(access.len() + middle.len(), p.len(), "split {i}, {ctx}");
        if let [up, down] = access {
            assert_eq!(
                (p.links[0], p.links[p.len() - 1]),
                (*up, *down),
                "access {i}, {ctx}"
            );
        }
        assert_eq!(
            view.bottleneck(i).to_bits(),
            p.bottleneck(topo).to_bits(),
            "bottleneck {i}, {ctx}"
        );
    }
}

fn check_path_validity(topo: &Topology, src: NodeId, dst: NodeId, max: usize) {
    let pf = PathFinder::new(topo);
    let paths = pf.paths(src, dst, max);
    assert!(!paths.is_empty(), "connected topology must yield a path");
    for p in &paths {
        let nodes = p.nodes(topo);
        assert_eq!(nodes.first(), Some(&src));
        assert_eq!(nodes.last(), Some(&dst));
        for w in p.links.windows(2) {
            assert_eq!(topo.link(w[0]).dst, topo.link(w[1]).src, "disconnected hop");
        }
        let mut uniq = nodes.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), nodes.len(), "path revisits a node");
        // Valley-free over levels: up phase then down phase.
        let levels: Vec<u8> = nodes.iter().map(|n| topo.node(*n).level).collect();
        let apex = levels.iter().copied().max().unwrap();
        let apex_pos = levels.iter().position(|&l| l == apex).unwrap();
        assert!(
            levels[..=apex_pos].windows(2).all(|w| w[0] < w[1])
                || topo.routing == taps_topology::RoutingMode::ShortestPath,
            "ascent not strictly increasing: {levels:?}"
        );
        assert!(
            levels[apex_pos..].windows(2).all(|w| w[0] > w[1])
                || topo.routing == taps_topology::RoutingMode::ShortestPath,
            "descent not strictly decreasing: {levels:?}"
        );
    }
    // No duplicate paths.
    let mut dedup = paths.clone();
    dedup.sort_by(|a, b| a.links.cmp(&b.links));
    dedup.dedup();
    assert_eq!(dedup.len(), paths.len(), "duplicate paths enumerated");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn single_rooted_paths_are_valid(
        pods in 1usize..5,
        racks in 1usize..5,
        hosts in 1usize..6,
        a in 0usize..200,
        b in 0usize..200,
        max in 1usize..8,
    ) {
        let topo = single_rooted(pods, racks, hosts, GBPS);
        let n = topo.num_hosts();
        let (a, b) = (a % n, b % n);
        prop_assume!(a != b);
        check_path_validity(&topo, topo.host(a), topo.host(b), max);
        // Trees have exactly one path regardless of the cap.
        let pf = PathFinder::new(&topo);
        prop_assert_eq!(pf.paths(topo.host(a), topo.host(b), 64).len(), 1);
    }

    #[test]
    fn fat_tree_paths_are_valid(
        k in prop::sample::select(vec![2usize, 4, 6]),
        a in 0usize..200,
        b in 0usize..200,
        max in 1usize..64,
    ) {
        let topo = fat_tree(k, GBPS);
        let n = topo.num_hosts();
        let (a, b) = (a % n, b % n);
        prop_assume!(a != b);
        check_path_validity(&topo, topo.host(a), topo.host(b), max);
    }

    #[test]
    fn fat_tree_path_counts_match_theory(
        k in prop::sample::select(vec![2usize, 4, 6]),
        a in 0usize..100,
        b in 0usize..100,
    ) {
        let topo = fat_tree(k, GBPS);
        let n = topo.num_hosts();
        let (a, b) = (a % n, b % n);
        prop_assume!(a != b);
        let half = k / 2;
        let hosts_per_pod = half * half;
        let pod = |h: usize| h / hosts_per_pod;
        let edge = |h: usize| h / half;
        let pf = PathFinder::new(&topo);
        let count = pf.paths(topo.host(a), topo.host(b), 10_000).len();
        let expected = if pod(a) != pod(b) {
            half * half
        } else if edge(a) != edge(b) {
            half
        } else {
            1
        };
        prop_assert_eq!(count, expected, "k={}, hosts {},{}", k, a, b);
    }

    #[test]
    fn ecmp_picks_from_candidates_and_is_deterministic(
        k in prop::sample::select(vec![2usize, 4]),
        a in 0usize..50,
        b in 0usize..50,
        hash in any::<u64>(),
    ) {
        let topo = fat_tree(k, GBPS);
        let n = topo.num_hosts();
        let (a, b) = (a % n, b % n);
        prop_assume!(a != b);
        let pf = PathFinder::new(&topo);
        let all = pf.paths(topo.host(a), topo.host(b), 64);
        let e1 = pf.ecmp(topo.host(a), topo.host(b), hash).unwrap();
        let e2 = pf.ecmp(topo.host(a), topo.host(b), hash).unwrap();
        prop_assert_eq!(&e1, &e2, "ECMP must be deterministic");
        prop_assert!(all.contains(&e1), "ECMP outside the candidate set");
    }

    #[test]
    fn path_cache_matches_direct_enumeration(
        k in prop::sample::select(vec![2usize, 4, 6]),
        a in 0usize..200,
        b in 0usize..200,
        max in 1usize..40,
    ) {
        // The cache (including its ToR-pair middle sharing and the
        // even-sampling cap) must be observationally identical to a
        // fresh PathFinder enumeration, on any pair and any budget.
        let topo = fat_tree(k, GBPS);
        let n = topo.num_hosts();
        let (a, b) = (a % n, b % n);
        prop_assume!(a != b);
        let (src, dst) = (topo.host(a), topo.host(b));
        let mut cache = PathCache::new(max);
        let direct = PathFinder::new(&topo).paths(src, dst, max);
        prop_assert_eq!(cache.paths(&topo, src, dst).as_slice(), &direct[..]);
        // Second query answers from the cache and stays identical.
        prop_assert_eq!(cache.paths(&topo, src, dst).as_slice(), &direct[..]);
        assert_view_is(&topo, &cache.candidates(&topo, src, dst), &direct, "warm view");
    }

    #[test]
    fn path_cache_matches_on_trees_too(
        pods in 1usize..4,
        racks in 1usize..4,
        hosts in 1usize..5,
        a in 0usize..100,
        b in 0usize..100,
        max in 1usize..8,
    ) {
        let topo = single_rooted(pods, racks, hosts, GBPS);
        let n = topo.num_hosts();
        let (a, b) = (a % n, b % n);
        prop_assume!(a != b);
        let (src, dst) = (topo.host(a), topo.host(b));
        let mut cache = PathCache::new(max);
        let direct = PathFinder::new(&topo).paths(src, dst, max);
        prop_assert_eq!(cache.paths(&topo, src, dst).as_slice(), &direct[..]);
    }

    #[test]
    fn dumbbell_paths_are_valid(
        l in 1usize..6,
        r in 1usize..6,
        a in 0usize..12,
        b in 0usize..12,
    ) {
        let topo = dumbbell(l, r, GBPS);
        let n = topo.num_hosts();
        let (a, b) = (a % n, b % n);
        prop_assume!(a != b);
        check_path_validity(&topo, topo.host(a), topo.host(b), 4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn enumeration_and_cache_equal_the_reference(
        which in 0usize..9,
        a in any::<usize>(),
        b in any::<usize>(),
        spread in 0usize..3,
        budget in prop::sample::select(vec![1usize, 2, 3, 4, 16, 64, usize::MAX]),
        faults in prop::collection::vec((0usize..4, any::<usize>()), 0..4),
    ) {
        let topo = topology(which);
        let (src, dst) = host_pair(&topo, a, b, spread);
        // One cache lives through every fault state: its walk tables and
        // middles must be dropped with each epoch, not reused.
        let mut cache = PathCache::new(budget);
        let check = |cache: &mut PathCache, state: &str| {
            let want = reference::paths(&topo, src, dst, budget);
            let ctx = format!("{} {src:?}->{dst:?} budget {budget}, {state}", topo.name);
            assert_eq!(PathFinder::new(&topo).paths(src, dst, budget), want, "direct, {ctx}");
            assert_eq!(*PathCache::new(budget).paths(&topo, src, dst), want, "cold, {ctx}");
            let cold = PathCache::new(budget).candidates(&topo, src, dst);
            assert_view_is(&topo, &cold, &want, &format!("cold, {ctx}"));
            assert_eq!(*cache.paths(&topo, src, dst), want, "long-lived, {ctx}");
            assert_eq!(*cache.paths(&topo, src, dst), want, "warm, {ctx}");
            let warm = cache.candidates(&topo, src, dst);
            assert_view_is(&topo, &warm, &want, &format!("warm, {ctx}"));
            let mut warmed = PathCache::new(budget);
            warmed.warm(&topo);
            assert_eq!(*warmed.paths(&topo, src, dst), want, "pre-warmed, {ctx}");
            let pre = warmed.candidates(&topo, src, dst);
            assert_view_is(&topo, &pre, &want, &format!("pre-warmed, {ctx}"));
        };
        check(&mut cache, "healthy");
        let cables = inject(&topo, src, &faults);
        check(&mut cache, "faulted");
        if let Some(l) = cables.first() {
            topo.restore_link(*l);
            check(&mut cache, "one cable restored");
        }
        topo.reset_faults();
        check(&mut cache, "faults reset");
    }

    #[test]
    fn ecmp_is_the_hashed_element_of_the_64_candidate_list(
        which in 0usize..9,
        a in any::<usize>(),
        b in any::<usize>(),
        spread in 0usize..3,
        seed in any::<u64>(),
        faults in prop::collection::vec((0usize..4, any::<usize>()), 0..4),
    ) {
        let topo = topology(which);
        let (src, dst) = host_pair(&topo, a, b, spread);
        inject(&topo, src, &faults);
        let pf = PathFinder::new(&topo);
        let list = pf.paths(src, dst, 64);
        for h in (0..64).map(|i| seed.wrapping_add(i)) {
            let want = (!list.is_empty())
                .then(|| list[(splitmix64(h) % list.len() as u64) as usize].clone());
            prop_assert_eq!(pf.ecmp(src, dst, h), want, "{} hash {}", topo.name, h);
        }
    }
}
