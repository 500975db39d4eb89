//! Builders for the topologies the paper evaluates on.
//!
//! All capacities are in bytes per second; the paper uses 1 Gbps links
//! everywhere ([`GBPS`]).

use crate::{NodeId, NodeKind, RoutingMode, Topology};

/// One gigabit per second, in bytes per second (the paper's uniform link
/// capacity).
pub const GBPS: f64 = 1e9 / 8.0;

/// Builds the paper's Fig. 5 three-level **single-rooted tree**:
/// `pods` aggregation switches hang off one core switch, each aggregation
/// switch serves `racks_per_pod` ToR switches, and each rack holds
/// `hosts_per_rack` hosts. Every link has capacity `capacity` B/s.
///
/// The paper's full-scale instance is `single_rooted(30, 30, 40, GBPS)`:
/// 36 000 hosts.
pub fn single_rooted(
    pods: usize,
    racks_per_pod: usize,
    hosts_per_rack: usize,
    capacity: f64,
) -> Topology {
    assert!(pods > 0 && racks_per_pod > 0 && hosts_per_rack > 0);
    let mut t = Topology::new(
        format!("single-rooted({pods},{racks_per_pod},{hosts_per_rack})"),
        RoutingMode::UpDown,
    );
    let core = t.add_node(NodeKind::CoreSwitch, 3);
    for _ in 0..pods {
        let agg = t.add_node(NodeKind::AggSwitch, 2);
        t.add_duplex_link(agg, core, capacity);
        for _ in 0..racks_per_pod {
            let tor = t.add_node(NodeKind::TorSwitch, 1);
            t.add_duplex_link(tor, agg, capacity);
            for _ in 0..hosts_per_rack {
                let host = t.add_node(NodeKind::Host, 0);
                t.add_duplex_link(host, tor, capacity);
            }
        }
    }
    debug_assert!(t.validate().is_ok());
    t
}

/// Builds a classic `k`-pod **fat-tree** (Al-Fares et al., the paper's
/// multi-rooted topology): `k` pods, each with `k/2` edge and `k/2`
/// aggregation switches; `(k/2)^2` core switches; `k^3/4` hosts. `k` must
/// be even and ≥ 2.
///
/// The paper's instance is `fat_tree(32, GBPS)`: 8 192 hosts.
///
/// Wiring: edge switch `e` of a pod connects to all `k/2` aggregation
/// switches of that pod; aggregation switch `a` (0-based within its pod)
/// connects to core switches `a*k/2 .. (a+1)*k/2`. Hosts are packed
/// pod-major: host `h` lives in pod `h / (k^2/4)`.
pub fn fat_tree(k: usize, capacity: f64) -> Topology {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree requires even k >= 2"
    );
    // Sizing paths below pack node/link counts into u32 ids; keep the
    // k=32-and-beyond regime on the checked boundary instead of trusting
    // bare conversions (the node count is k^3/4 + 5k^2/4).
    let nodes = k * k * k / 4 + 5 * k * k / 4;
    assert!(
        u32::try_from(2 * nodes).is_ok(),
        "fat-tree k={k} exceeds the u32 id space"
    );
    let half = k / 2;
    let mut t = Topology::new(format!("fat-tree({k})"), RoutingMode::UpDown);

    let cores: Vec<NodeId> = (0..half * half)
        .map(|_| t.add_node(NodeKind::CoreSwitch, 3))
        .collect();

    for _pod in 0..k {
        let aggs: Vec<NodeId> = (0..half)
            .map(|_| t.add_node(NodeKind::AggSwitch, 2))
            .collect();
        for (a, agg) in aggs.iter().enumerate() {
            for c in 0..half {
                t.add_duplex_link(*agg, cores[a * half + c], capacity);
            }
        }
        for _e in 0..half {
            let edge = t.add_node(NodeKind::TorSwitch, 1);
            for agg in &aggs {
                t.add_duplex_link(edge, *agg, capacity);
            }
            for _h in 0..half {
                let host = t.add_node(NodeKind::Host, 0);
                t.add_duplex_link(host, edge, capacity);
            }
        }
    }
    debug_assert_eq!(t.num_hosts(), k * k * k / 4);
    debug_assert!(t.validate().is_ok());
    t
}

/// Builds the paper's Fig. 13 **partial fat-tree testbed**: 8 hosts in 4
/// racks across 2 pods; each pod has 2 edge and 2 aggregation switches;
/// 2 core switches connect the pods (aggregation switch `i` of each pod
/// connects to core `i`).
pub fn partial_fat_tree_testbed(capacity: f64) -> Topology {
    let mut t = Topology::new("partial-fat-tree-testbed", RoutingMode::UpDown);
    let core0 = t.add_node(NodeKind::CoreSwitch, 3);
    let core1 = t.add_node(NodeKind::CoreSwitch, 3);
    for _pod in 0..2 {
        let agg0 = t.add_node(NodeKind::AggSwitch, 2);
        let agg1 = t.add_node(NodeKind::AggSwitch, 2);
        t.add_duplex_link(agg0, core0, capacity);
        t.add_duplex_link(agg1, core1, capacity);
        for _rack in 0..2 {
            let edge = t.add_node(NodeKind::TorSwitch, 1);
            t.add_duplex_link(edge, agg0, capacity);
            t.add_duplex_link(edge, agg1, capacity);
            for _h in 0..2 {
                let host = t.add_node(NodeKind::Host, 0);
                t.add_duplex_link(host, edge, capacity);
            }
        }
    }
    debug_assert!(t.validate().is_ok());
    t
}

/// Builds a **dumbbell**: `left` hosts on one switch, `right` hosts on
/// another, and a single bottleneck cable between the switches. This is
/// the "one bottleneck link" setting of the motivation examples
/// (Figs. 1 and 2).
pub fn dumbbell(left: usize, right: usize, capacity: f64) -> Topology {
    assert!(left > 0 && right > 0);
    let mut t = Topology::new(
        format!("dumbbell({left},{right})"),
        RoutingMode::ShortestPath,
    );
    let sl = t.add_node(NodeKind::TorSwitch, 1);
    let sr = t.add_node(NodeKind::TorSwitch, 1);
    t.add_duplex_link(sl, sr, capacity);
    for _ in 0..left {
        let h = t.add_node(NodeKind::Host, 0);
        t.add_duplex_link(h, sl, capacity);
    }
    for _ in 0..right {
        let h = t.add_node(NodeKind::Host, 0);
        t.add_duplex_link(h, sr, capacity);
    }
    debug_assert!(t.validate().is_ok());
    t
}

/// Builds a **BCube(n, k)** server-centric topology (Guo et al.,
/// SIGCOMM'09 — cited by §II as one of the rich-connected architectures
/// TAPS's multipath routing targets).
///
/// `BCube(n, 0)` is `n` hosts on one switch; `BCube(n, k)` is `n`
/// copies of `BCube(n, k-1)` plus `n^k` level-`k` switches, where host
/// `i` of copy `c` connects to level-`k` switch `i` on port `k`.
/// Total: `n^(k+1)` hosts, `(k+1)·n^k` switches; every host has `k+1`
/// links. Servers forward traffic in BCube, so paths may relay through
/// intermediate hosts — path enumeration therefore uses BFS
/// ([`RoutingMode::ShortestPath`]) rather than valley-free levels.
pub fn bcube(n: usize, k: usize, capacity: f64) -> Topology {
    assert!(n >= 2, "BCube needs n >= 2 hosts per level-0 switch");
    assert!(k <= 3, "keep BCube instances tractable (k <= 3)");
    let mut t = Topology::new(format!("bcube({n},{k})"), RoutingMode::ShortestPath);
    let num_hosts = n.pow(k as u32 + 1);
    let hosts: Vec<NodeId> = (0..num_hosts)
        .map(|_| t.add_node(NodeKind::Host, 0))
        .collect();
    // Level l has n^k switches; switch s at level l connects the hosts
    // whose address agrees with s on every digit except digit l.
    let switches_per_level = n.pow(k as u32);
    for level in 0..=k {
        for s in 0..switches_per_level {
            let sw = t.add_node(NodeKind::TorSwitch, 1);
            // The hosts of this switch: insert digit `a` at position
            // `level` into the (k-digit) switch index `s`.
            let high = s / n.pow(level as u32);
            let low = s % n.pow(level as u32);
            for a in 0..n {
                let host = (high * n + a) * n.pow(level as u32) + low;
                t.add_duplex_link(hosts[host], sw, capacity);
            }
        }
    }
    debug_assert!(t.validate().is_ok());
    t
}

/// Builds the Fig. 3 **global-scheduling motivation topology**: four
/// hosts on four edge switches `S1..S4`, all connected through a central
/// switch `S5`. Host `i` (1-based, as in the paper) is
/// `topology.host(i - 1)`.
pub fn fig3_star(capacity: f64) -> Topology {
    let mut t = Topology::new("fig3-star", RoutingMode::ShortestPath);
    let s5 = t.add_node(NodeKind::CoreSwitch, 2);
    for _ in 0..4 {
        let s = t.add_node(NodeKind::TorSwitch, 1);
        t.add_duplex_link(s, s5, capacity);
        let h = t.add_node(NodeKind::Host, 0);
        t.add_duplex_link(h, s, capacity);
    }
    debug_assert!(t.validate().is_ok());
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeKind;

    #[test]
    fn single_rooted_counts() {
        let t = single_rooted(3, 4, 5, GBPS);
        assert_eq!(t.num_hosts(), 3 * 4 * 5);
        // 1 core + 3 agg + 12 tor + 60 hosts
        assert_eq!(t.num_nodes(), 1 + 3 + 12 + 60);
        // cables: 3 agg-core + 12 tor-agg + 60 host-tor, x2 directions
        assert_eq!(t.num_links(), 2 * (3 + 12 + 60));
        assert_eq!(t.uniform_capacity(), Some(GBPS));
    }

    #[test]
    fn paper_scale_single_rooted() {
        let t = single_rooted(30, 30, 40, GBPS);
        assert_eq!(t.num_hosts(), 36_000);
        t.validate().unwrap();
    }

    #[test]
    fn fat_tree_counts() {
        for k in [2usize, 4, 8] {
            let t = fat_tree(k, GBPS);
            assert_eq!(t.num_hosts(), k * k * k / 4, "hosts for k={k}");
            let switches = t.num_nodes() - t.num_hosts();
            // (k/2)^2 cores + k pods x (k/2 agg + k/2 edge)
            assert_eq!(switches, (k / 2) * (k / 2) + k * k, "switches for k={k}");
            // cables: cores-agg k*(k/2)*(k/2)... each pod: (k/2 aggs x k/2 core links)
            // + (k/2 edges x k/2 agg links) + (k/2 edges x k/2 hosts)
            let cables = k * (k / 2) * (k / 2) * 3;
            assert_eq!(t.num_links(), 2 * cables, "links for k={k}");
            t.validate().unwrap();
        }
    }

    #[test]
    fn fat_tree_paper_scale() {
        let t = fat_tree(32, GBPS);
        assert_eq!(t.num_hosts(), 8192);
    }

    #[test]
    fn testbed_structure() {
        let t = partial_fat_tree_testbed(GBPS);
        assert_eq!(t.num_hosts(), 8);
        let kinds: Vec<usize> = [
            NodeKind::CoreSwitch,
            NodeKind::AggSwitch,
            NodeKind::TorSwitch,
        ]
        .iter()
        .map(|k| {
            (0..t.num_nodes())
                .filter(|i| t.node(crate::NodeId(*i as u32)).kind == *k)
                .count()
        })
        .collect();
        assert_eq!(kinds, vec![2, 4, 4]);
        t.validate().unwrap();
    }

    #[test]
    fn dumbbell_structure() {
        let t = dumbbell(2, 2, GBPS);
        assert_eq!(t.num_hosts(), 4);
        assert_eq!(t.num_links(), 2 * (1 + 4));
    }

    #[test]
    fn bcube_structure() {
        // BCube(4,1): 16 hosts, 2 levels x 4 switches, every host has
        // 2 links (one per level).
        let t = bcube(4, 1, GBPS);
        assert_eq!(t.num_hosts(), 16);
        assert_eq!(t.num_nodes(), 16 + 8);
        // cables: each level connects all 16 hosts once -> 32 cables.
        assert_eq!(t.num_links(), 2 * 32);
        for h in 0..16 {
            assert_eq!(t.neighbors(t.host(h)).len(), 2);
        }
        t.validate().unwrap();

        let t2 = bcube(2, 2, GBPS);
        assert_eq!(t2.num_hosts(), 8);
        assert_eq!(t2.num_nodes() - t2.num_hosts(), 3 * 4);
    }

    #[test]
    fn bcube_paths_exist_between_all_hosts() {
        use crate::paths::PathFinder;
        let t = bcube(3, 1, GBPS);
        let pf = PathFinder::new(&t);
        for a in 0..t.num_hosts() {
            for b in 0..t.num_hosts() {
                if a == b {
                    continue;
                }
                let paths = pf.paths(t.host(a), t.host(b), 8);
                assert!(!paths.is_empty(), "no path {a}->{b}");
                // Same level-0 switch (same high digit): 2 hops; same
                // level-1 switch (same low digit): 2 hops; otherwise the
                // shortest route relays through one intermediate host:
                // 4 hops.
                let same_l0 = a / 3 == b / 3;
                let same_l1 = a % 3 == b % 3;
                let expect = if same_l0 || same_l1 { 2 } else { 4 };
                assert_eq!(paths[0].len(), expect, "hosts {a},{b}");
            }
        }
    }

    #[test]
    fn fig3_structure() {
        let t = fig3_star(GBPS);
        assert_eq!(t.num_hosts(), 4);
        assert_eq!(t.num_nodes(), 9);
        assert_eq!(t.num_links(), 2 * 8);
    }
}
