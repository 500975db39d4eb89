//! Data-center network topology substrate for the TAPS reproduction.
//!
//! The paper evaluates TAPS on a three-level single-rooted tree (Fig. 5,
//! 36 000 hosts), a 32-pod fat-tree (8 192 hosts), a small partial fat-tree
//! testbed (Fig. 13, 8 hosts) and ad-hoc motivation topologies (Figs. 1–3).
//! This crate models all of them as directed multigraphs with per-link
//! capacities and provides the path machinery the schedulers need:
//!
//! * **valley-free (up-down) path enumeration** for hierarchical
//!   topologies — this is what TAPS's Alg. 2 iterates over, and it scales
//!   to the paper's 36 000-host tree because it never materializes the
//!   whole graph search space;
//! * **BFS-based shortest-path enumeration** for arbitrary small graphs
//!   (the Fig. 3 motivation topology);
//! * **flow-level ECMP** hashing, used to extend the single-path baselines
//!   (Fair Sharing, D3, PDQ, Baraat, Varys) to multi-rooted trees exactly
//!   as §V-A prescribes.
//!
//! Links are *directed*: one full-duplex cable contributes two independent
//! directed links, so a flow `a → b` never contends with a flow `b → a`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Rules L3, L4, L6 and marker hygiene, library code only (DESIGN.md §13).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::dbg_macro, clippy::allow_attributes))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(unfulfilled_lint_expectations))]

pub mod build;
pub mod cache;
pub mod paths;

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Index of a node (host or switch) in a [`Topology`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Index of a *directed* link in a [`Topology`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl NodeId {
    /// The node index as a `usize` for indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }

    /// A `NodeId` from a `usize` index, asserting it fits (a k=32
    /// fat-tree holds 9 472 nodes, far below `u32::MAX`, but the
    /// conversion stays checked so sizing paths need no bare `as` cast).
    #[inline]
    pub fn from_idx(i: usize) -> NodeId {
        assert!(u32::try_from(i).is_ok(), "node index {i} exceeds u32");
        NodeId(i as u32)
    }
}

impl LinkId {
    /// The link index as a `usize` for indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }

    /// A `LinkId` from a `usize` index, asserting it fits (a topology can
    /// never hold `u32::MAX` links; this keeps the conversion checked so
    /// callers need no bare `as` cast).
    #[inline]
    pub fn from_idx(i: usize) -> LinkId {
        assert!(u32::try_from(i).is_ok(), "link index {i} exceeds u32");
        LinkId(i as u32)
    }
}

/// What role a node plays in the data center.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// End host (server). Flows originate and terminate only at hosts.
    Host,
    /// Top-of-rack (edge) switch.
    TorSwitch,
    /// Aggregation switch.
    AggSwitch,
    /// Core switch.
    CoreSwitch,
}

impl NodeKind {
    /// Whether the node is a switch of any level.
    #[inline]
    pub fn is_switch(self) -> bool {
        !matches!(self, NodeKind::Host)
    }
}

/// A node of the topology.
#[derive(Clone, Debug)]
pub struct Node {
    /// Role of the node.
    pub kind: NodeKind,
    /// Hierarchy level used by valley-free routing: hosts are 0, ToR 1,
    /// aggregation 2, core 3. Arbitrary topologies may leave levels at 0
    /// and use BFS path enumeration instead.
    pub level: u8,
}

/// A directed link with a fixed capacity in bytes per second.
#[derive(Clone, Debug)]
pub struct Link {
    /// Tail (transmitting) node.
    pub src: NodeId,
    /// Head (receiving) node.
    pub dst: NodeId,
    /// Capacity in bytes per second.
    pub capacity: f64,
    /// The opposite-direction link of the same physical cable.
    pub reverse: LinkId,
}

/// A loop-free directed path, stored as the sequence of directed links
/// from the source host to the destination host.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Path {
    /// Directed links in order from source to destination.
    pub links: Vec<LinkId>,
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.links.iter()).finish()
    }
}

impl Path {
    /// Number of hops.
    #[inline]
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the path is empty (src == dst).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Minimum capacity along the path; `f64::INFINITY` for empty paths.
    pub fn bottleneck(&self, topo: &Topology) -> f64 {
        self.links
            .iter()
            .map(|l| topo.link(*l).capacity)
            .fold(f64::INFINITY, f64::min)
    }

    /// Sequence of nodes visited, starting at the source.
    pub fn nodes(&self, topo: &Topology) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.links.len() + 1);
        if let Some(first) = self.links.first() {
            out.push(topo.link(*first).src);
        }
        for l in &self.links {
            out.push(topo.link(*l).dst);
        }
        out
    }
}

/// How paths should be enumerated on this topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingMode {
    /// Valley-free up-down routing over the `level` labels. Correct and
    /// fast for the tree/fat-tree families the paper uses.
    UpDown,
    /// Breadth-first shortest-path enumeration over the raw graph. Used
    /// for the ad-hoc motivation topologies.
    ShortestPath,
}

/// A directed data-center topology.
#[derive(Debug)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Outgoing adjacency: for each node, `(neighbor, link)` pairs in
    /// insertion order.
    out_adj: Vec<Vec<(NodeId, LinkId)>>,
    /// Host nodes in insertion order; the workload generator addresses
    /// hosts by their index in this vector.
    hosts: Vec<NodeId>,
    /// Path enumeration strategy.
    pub routing: RoutingMode,
    /// Human-readable name, e.g. `"single-rooted(30,30,40)"`.
    pub name: String,
    /// Per-directed-link up/down state for fault injection. Interior
    /// mutability because the simulation engine, the controller and the
    /// allocator all hold `&Topology` while faults are injected; atomics
    /// rather than `Cell` because the figure binaries share one
    /// fault-free `&Topology` across `taps_bench::run_jobs`' scoped
    /// threads, so `Topology` must stay `Sync`. A run that injects
    /// faults is single-threaded and applies them between simulation
    /// events, never during a path search, so `Relaxed` ordering
    /// suffices.
    link_up: Vec<AtomicBool>,
    /// Per-node up/down state; a dead switch implicitly downs every link
    /// incident to it (see [`Topology::is_link_up`]).
    node_up: Vec<AtomicBool>,
    /// Bumped on every link/node state change. Consumers holding derived
    /// state (the candidate-path cache, allocation engines) compare this
    /// against the epoch they were built at and invalidate on mismatch.
    epoch: AtomicU64,
}

impl Clone for Topology {
    fn clone(&self) -> Self {
        Topology {
            nodes: self.nodes.clone(),
            links: self.links.clone(),
            out_adj: self.out_adj.clone(),
            hosts: self.hosts.clone(),
            routing: self.routing,
            name: self.name.clone(),
            link_up: self
                .link_up
                .iter()
                .map(|b| AtomicBool::new(b.load(Ordering::Relaxed)))
                .collect(),
            node_up: self
                .node_up
                .iter()
                .map(|b| AtomicBool::new(b.load(Ordering::Relaxed)))
                .collect(),
            epoch: AtomicU64::new(self.epoch.load(Ordering::Relaxed)),
        }
    }
}

impl Topology {
    /// Creates an empty topology using the given routing mode.
    pub fn new(name: impl Into<String>, routing: RoutingMode) -> Self {
        Topology {
            nodes: Vec::new(),
            links: Vec::new(),
            out_adj: Vec::new(),
            hosts: Vec::new(),
            routing,
            name: name.into(),
            link_up: Vec::new(),
            node_up: Vec::new(),
            epoch: AtomicU64::new(0),
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, kind: NodeKind, level: u8) -> NodeId {
        let id = NodeId::from_idx(self.nodes.len());
        self.nodes.push(Node { kind, level });
        self.out_adj.push(Vec::new());
        self.node_up.push(AtomicBool::new(true));
        if kind == NodeKind::Host {
            self.hosts.push(id);
        }
        id
    }

    /// Adds a full-duplex cable between `a` and `b`: two directed links of
    /// equal capacity (bytes per second). Returns `(a→b, b→a)`.
    pub fn add_duplex_link(&mut self, a: NodeId, b: NodeId, capacity: f64) -> (LinkId, LinkId) {
        assert!(capacity > 0.0, "link capacity must be positive");
        assert_ne!(a, b, "self-loops are not allowed");
        let fwd = LinkId::from_idx(self.links.len());
        let rev = LinkId::from_idx(self.links.len() + 1);
        self.links.push(Link {
            src: a,
            dst: b,
            capacity,
            reverse: rev,
        });
        self.links.push(Link {
            src: b,
            dst: a,
            capacity,
            reverse: fwd,
        });
        self.out_adj[a.idx()].push((b, fwd));
        self.out_adj[b.idx()].push((a, rev));
        self.link_up.push(AtomicBool::new(true));
        self.link_up.push(AtomicBool::new(true));
        (fwd, rev)
    }

    /// Node accessor.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.idx()]
    }

    /// Link accessor.
    #[inline]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.idx()]
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of *directed* links.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of hosts.
    #[inline]
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// The `i`-th host (workload generators address hosts by index).
    #[inline]
    pub fn host(&self, i: usize) -> NodeId {
        self.hosts[i]
    }

    /// All hosts in insertion order.
    #[inline]
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Outgoing `(neighbor, link)` pairs of a node.
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        &self.out_adj[n.idx()]
    }

    /// Iterator over all directed links.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId::from_idx(i), l))
    }

    /// Uniform capacity if every link has the same one, else `None`.
    pub fn uniform_capacity(&self) -> Option<f64> {
        let first = self.links.first()?.capacity;
        self.links
            .iter()
            .all(|l| (l.capacity - first).abs() < 1e-9)
            .then_some(first)
    }

    /// Whether the directed link is usable: its cable is up and both
    /// endpoint nodes are up. Both directions of a cable always agree
    /// (fault injection fails and restores cables, not directions).
    #[inline]
    pub fn is_link_up(&self, l: LinkId) -> bool {
        let link = &self.links[l.idx()];
        self.link_up[l.idx()].load(Ordering::Relaxed)
            && self.node_up[link.src.idx()].load(Ordering::Relaxed)
            && self.node_up[link.dst.idx()].load(Ordering::Relaxed)
    }

    /// Whether the node is up.
    #[inline]
    pub fn is_node_up(&self, n: NodeId) -> bool {
        self.node_up[n.idx()].load(Ordering::Relaxed)
    }

    /// Fault-state epoch: bumped on every link/node state change. Derived
    /// state (path caches, allocation engines) stamped with an older epoch
    /// must be rebuilt.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// True when every link and node is up (no outstanding faults).
    pub fn all_up(&self) -> bool {
        self.link_up.iter().all(|b| b.load(Ordering::Relaxed))
            && self.node_up.iter().all(|b| b.load(Ordering::Relaxed))
    }

    /// Downs the cable carrying `l`: both directed links become unusable.
    /// Idempotent; bumps the epoch only on an actual state change.
    pub fn fail_link(&self, l: LinkId) {
        let rev = self.links[l.idx()].reverse;
        let a = self.link_up[l.idx()].swap(false, Ordering::Relaxed);
        let b = self.link_up[rev.idx()].swap(false, Ordering::Relaxed);
        if a || b {
            self.epoch.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Restores the cable carrying `l`: both directed links come back.
    /// Idempotent; note that links incident to a dead switch stay
    /// unusable until the switch itself is restored.
    pub fn restore_link(&self, l: LinkId) {
        let rev = self.links[l.idx()].reverse;
        let a = self.link_up[l.idx()].swap(true, Ordering::Relaxed);
        let b = self.link_up[rev.idx()].swap(true, Ordering::Relaxed);
        if !a || !b {
            self.epoch.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Downs a switch: every link incident to it becomes unusable.
    /// Host nodes cannot fail (the paper's fault model is network-side).
    pub fn fail_switch(&self, n: NodeId) {
        assert!(
            self.nodes[n.idx()].kind.is_switch(),
            "only switches can fail; {n:?} is a host"
        );
        if self.node_up[n.idx()].swap(false, Ordering::Relaxed) {
            self.epoch.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Restores a previously failed switch.
    pub fn restore_switch(&self, n: NodeId) {
        assert!(
            self.nodes[n.idx()].kind.is_switch(),
            "only switches can fail; {n:?} is a host"
        );
        if !self.node_up[n.idx()].swap(true, Ordering::Relaxed) {
            self.epoch.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Clears every outstanding fault (all links and nodes up). The
    /// simulation engine calls this at the start and end of each run so
    /// repeated runs over one `Topology` see identical initial state.
    pub fn reset_faults(&self) {
        let mut changed = false;
        for b in &self.link_up {
            changed |= !b.swap(true, Ordering::Relaxed);
        }
        for b in &self.node_up {
            changed |= !b.swap(true, Ordering::Relaxed);
        }
        if changed {
            self.epoch.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Checks basic structural invariants (used by tests and debug builds).
    pub fn validate(&self) -> Result<(), String> {
        for (i, l) in self.links.iter().enumerate() {
            let rev = &self.links[l.reverse.idx()];
            if rev.src != l.dst || rev.dst != l.src {
                return Err(format!("link l{i} reverse mismatch"));
            }
            if rev.reverse != LinkId::from_idx(i) {
                return Err(format!("link l{i} reverse not involutive"));
            }
        }
        for h in &self.hosts {
            if self.node(*h).kind != NodeKind::Host {
                return Err(format!("host list contains non-host {h:?}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplex_links_are_involutive() {
        let mut t = Topology::new("t", RoutingMode::ShortestPath);
        let a = t.add_node(NodeKind::Host, 0);
        let b = t.add_node(NodeKind::TorSwitch, 1);
        let (f, r) = t.add_duplex_link(a, b, 1e9);
        assert_eq!(t.link(f).reverse, r);
        assert_eq!(t.link(r).reverse, f);
        assert_eq!(t.link(f).src, a);
        assert_eq!(t.link(r).src, b);
        t.validate().unwrap();
    }

    #[test]
    fn hosts_registered_in_order() {
        let mut t = Topology::new("t", RoutingMode::ShortestPath);
        let h0 = t.add_node(NodeKind::Host, 0);
        let _s = t.add_node(NodeKind::CoreSwitch, 1);
        let h1 = t.add_node(NodeKind::Host, 0);
        assert_eq!(t.num_hosts(), 2);
        assert_eq!(t.host(0), h0);
        assert_eq!(t.host(1), h1);
    }

    #[test]
    fn path_nodes_and_bottleneck() {
        let mut t = Topology::new("t", RoutingMode::ShortestPath);
        let a = t.add_node(NodeKind::Host, 0);
        let s = t.add_node(NodeKind::TorSwitch, 1);
        let b = t.add_node(NodeKind::Host, 0);
        let (l0, _) = t.add_duplex_link(a, s, 2e9);
        let (l1, _) = t.add_duplex_link(s, b, 1e9);
        let p = Path {
            links: vec![l0, l1],
        };
        assert_eq!(p.nodes(&t), vec![a, s, b]);
        assert!((p.bottleneck(&t) - 1e9).abs() < 1.0);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn uniform_capacity_detection() {
        let mut t = Topology::new("t", RoutingMode::ShortestPath);
        let a = t.add_node(NodeKind::Host, 0);
        let b = t.add_node(NodeKind::Host, 0);
        let c = t.add_node(NodeKind::Host, 0);
        t.add_duplex_link(a, b, 1e9);
        assert_eq!(t.uniform_capacity(), Some(1e9));
        t.add_duplex_link(b, c, 2e9);
        assert_eq!(t.uniform_capacity(), None);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut t = Topology::new("t", RoutingMode::ShortestPath);
        let a = t.add_node(NodeKind::Host, 0);
        t.add_duplex_link(a, a, 1e9);
    }

    #[test]
    fn fail_link_downs_both_directions_and_bumps_epoch() {
        let mut t = Topology::new("t", RoutingMode::ShortestPath);
        let a = t.add_node(NodeKind::Host, 0);
        let b = t.add_node(NodeKind::TorSwitch, 1);
        let (f, r) = t.add_duplex_link(a, b, 1e9);
        assert!(t.is_link_up(f) && t.is_link_up(r));
        let e0 = t.epoch();
        t.fail_link(f);
        assert!(!t.is_link_up(f) && !t.is_link_up(r));
        assert_eq!(t.epoch(), e0 + 1);
        // Idempotent: a second failure is not a state change.
        t.fail_link(r);
        assert_eq!(t.epoch(), e0 + 1);
        t.restore_link(r);
        assert!(t.is_link_up(f) && t.is_link_up(r));
        assert_eq!(t.epoch(), e0 + 2);
    }

    #[test]
    fn switch_failure_downs_incident_links() {
        let mut t = Topology::new("t", RoutingMode::ShortestPath);
        let a = t.add_node(NodeKind::Host, 0);
        let s = t.add_node(NodeKind::TorSwitch, 1);
        let b = t.add_node(NodeKind::Host, 0);
        let (l0, _) = t.add_duplex_link(a, s, 1e9);
        let (l1, _) = t.add_duplex_link(s, b, 1e9);
        t.fail_switch(s);
        assert!(!t.is_node_up(s));
        assert!(!t.is_link_up(l0) && !t.is_link_up(l1));
        // Restoring a link through a dead switch does not revive it.
        t.restore_link(l0);
        assert!(!t.is_link_up(l0));
        t.restore_switch(s);
        assert!(t.is_link_up(l0) && t.is_link_up(l1));
        assert!(t.all_up());
    }

    #[test]
    #[should_panic(expected = "only switches")]
    fn host_failure_panics() {
        let mut t = Topology::new("t", RoutingMode::ShortestPath);
        let a = t.add_node(NodeKind::Host, 0);
        t.fail_switch(a);
    }

    #[test]
    fn reset_faults_restores_everything_and_clone_preserves_state() {
        let mut t = Topology::new("t", RoutingMode::ShortestPath);
        let a = t.add_node(NodeKind::Host, 0);
        let s = t.add_node(NodeKind::AggSwitch, 2);
        let (l, _) = t.add_duplex_link(a, s, 1e9);
        t.fail_link(l);
        t.fail_switch(s);
        let snapshot = t.clone();
        assert!(!snapshot.is_link_up(l) && !snapshot.is_node_up(s));
        assert_eq!(snapshot.epoch(), t.epoch());
        t.reset_faults();
        assert!(t.all_up());
        // Reset with nothing outstanding leaves the epoch alone.
        let e = t.epoch();
        t.reset_faults();
        assert_eq!(t.epoch(), e);
    }
}
