//! §IV-B — NP-hardness of the task-based flow scheduling problem.
//!
//! The paper reduces Hamiltonian Circuit to task-based flow scheduling on
//! a single link: for a graph `G = ⟨V, E⟩` with `n = |V|` vertices, every
//! edge `(v_{i1}, v_{i2})` becomes a task of four flows, each of size
//! `1/2`, released at time zero, with deadlines
//! `i1 + 1`, `2n − i1`, `i2 + 1` and `2n − i2`. Then `n` tasks can be
//! completed on the unit-capacity link **iff** `G` has a Hamiltonian
//! circuit.
//!
//! This module constructs the reduction and provides exact (exponential)
//! solvers for both sides, so the equivalence is machine-checked on small
//! graphs in the tests — reproducing the paper's proof witness.

/// An undirected graph for the reduction, as an edge list over vertices
/// `0..n`.
#[derive(Clone, Debug)]
pub struct Graph {
    /// Number of vertices.
    pub n: usize,
    /// Undirected edges `(u, v)`, `u != v`.
    pub edges: Vec<(usize, usize)>,
}

impl Graph {
    /// Builds a graph, validating the edge list.
    pub fn new(n: usize, edges: Vec<(usize, usize)>) -> Self {
        for &(u, v) in &edges {
            assert!(u < n && v < n && u != v, "bad edge ({u},{v})");
        }
        Graph { n, edges }
    }

    /// Exhaustive Hamiltonian-circuit search (exponential; small graphs
    /// only).
    pub fn has_hamiltonian_circuit(&self) -> bool {
        if self.n == 0 {
            return false;
        }
        if self.n == 1 {
            return false;
        }
        let mut adj = vec![vec![false; self.n]; self.n];
        for &(u, v) in &self.edges {
            adj[u][v] = true;
            adj[v][u] = true;
        }
        let mut visited = vec![false; self.n];
        visited[0] = true;
        fn dfs(adj: &[Vec<bool>], visited: &mut [bool], at: usize, depth: usize, n: usize) -> bool {
            if depth == n {
                return adj[at][0];
            }
            for next in 0..n {
                if !visited[next] && adj[at][next] {
                    visited[next] = true;
                    if dfs(adj, visited, next, depth + 1, n) {
                        return true;
                    }
                    visited[next] = false;
                }
            }
            false
        }
        dfs(&adj, &mut visited, 0, 1, self.n)
    }
}

/// One task of the reduction: four unit-half flows with the given
/// deadlines (sizes are all `1/2`, release time zero).
#[derive(Clone, Debug, PartialEq)]
pub struct ReductionTask {
    /// The edge this task encodes.
    pub edge: (usize, usize),
    /// The four flow deadlines `i1+1, 2n−i1, i2+1, 2n−i2`.
    pub deadlines: [f64; 4],
}

/// Builds the paper's reduction instance: one task per edge.
pub fn reduction_instance(g: &Graph) -> Vec<ReductionTask> {
    #[expect(
        clippy::as_conversions,
        reason = "vertex counts are tiny, far below 2^53"
    )]
    let n = g.n as f64;
    g.edges
        .iter()
        .map(|&(i1, i2)| {
            #[expect(
                clippy::as_conversions,
                reason = "vertex indices are tiny, far below 2^53"
            )]
            let (f1, f2) = (i1 as f64, i2 as f64);
            ReductionTask {
                edge: (i1, i2),
                deadlines: [f1 + 1.0, 2.0 * n - f1, f2 + 1.0, 2.0 * n - f2],
            }
        })
        .collect()
}

/// Exact feasibility of a set of single-link tasks: all flows release at
/// time zero on a unit-capacity link with preemption, so EDF is optimal
/// and the set is feasible **iff** for every deadline `D`, the total work
/// with deadline `≤ D` is at most `D`.
pub fn feasible_on_single_link(tasks: &[&ReductionTask]) -> bool {
    let mut work: Vec<(f64, f64)> = Vec::new(); // (deadline, size)
    for t in tasks {
        for &d in &t.deadlines {
            work.push((d, 0.5));
        }
    }
    work.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut cum = 0.0;
    for (d, s) in work {
        cum += s;
        if cum > d + 1e-9 {
            return false;
        }
    }
    true
}

/// Exact (exponential) maximum number of completable tasks of a
/// reduction instance on the single link: tries all subsets, largest
/// first. Small instances only (`m ≤ ~20`).
pub fn max_completable_tasks(tasks: &[ReductionTask]) -> usize {
    let m = tasks.len();
    assert!(m <= 20, "exponential solver: keep instances small");
    let mut best = 0usize;
    for mask in 0u32..(1 << m) {
        #[expect(
            clippy::as_conversions,
            reason = "count_ones() <= 32 always fits usize"
        )]
        let k = mask.count_ones() as usize;
        if k <= best {
            continue;
        }
        let subset: Vec<&ReductionTask> = (0..m)
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| &tasks[i])
            .collect();
        if feasible_on_single_link(&subset) {
            best = k;
        }
    }
    best
}

/// The paper's claim, checked exactly: `n` tasks of the reduction are
/// completable iff the graph has a Hamiltonian circuit.
pub fn reduction_agrees(g: &Graph) -> bool {
    let inst = reduction_instance(g);
    let schedulable = max_completable_tasks(&inst) >= g.n;
    schedulable == g.has_hamiltonian_circuit()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Graph {
        Graph::new(n, (0..n).map(|i| (i, (i + 1) % n)).collect())
    }

    fn path(n: usize) -> Graph {
        Graph::new(n, (0..n - 1).map(|i| (i, i + 1)).collect())
    }

    fn complete(n: usize) -> Graph {
        let mut e = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                e.push((u, v));
            }
        }
        Graph::new(n, e)
    }

    #[test]
    fn hamiltonian_search_is_correct() {
        assert!(cycle(3).has_hamiltonian_circuit());
        assert!(cycle(5).has_hamiltonian_circuit());
        assert!(complete(4).has_hamiltonian_circuit());
        assert!(!path(4).has_hamiltonian_circuit());
        // Star K_{1,3}: no circuit.
        let star = Graph::new(4, vec![(0, 1), (0, 2), (0, 3)]);
        assert!(!star.has_hamiltonian_circuit());
        // Two disjoint triangles: no spanning circuit.
        let two_tri = Graph::new(6, vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        assert!(!two_tri.has_hamiltonian_circuit());
    }

    #[test]
    fn reduction_structure() {
        let g = cycle(3);
        let inst = reduction_instance(&g);
        assert_eq!(inst.len(), 3);
        // Edge (0,1): deadlines 1, 6, 2, 5.
        assert_eq!(inst[0].deadlines, [1.0, 6.0, 2.0, 5.0]);
    }

    #[test]
    fn edf_feasibility_checker() {
        // Two flows of 1/2 with deadline 1: feasible (total 1 by 1).
        let t = ReductionTask {
            edge: (0, 1),
            deadlines: [1.0, 1.0, 2.0, 2.0],
        };
        assert!(feasible_on_single_link(&[&t]));
        // Four halves by deadline 2 and four more by 4: exactly fits.
        let t2 = ReductionTask {
            edge: (0, 1),
            deadlines: [2.0, 2.0, 4.0, 4.0],
        };
        let t3 = ReductionTask {
            edge: (1, 2),
            deadlines: [2.0, 2.0, 4.0, 4.0],
        };
        assert!(feasible_on_single_link(&[&t2, &t3]));
        // Two more halves due by 2 overflow that prefix: infeasible.
        let t4 = ReductionTask {
            edge: (2, 0),
            deadlines: [9.0, 9.0, 2.0, 2.0],
        };
        assert!(!feasible_on_single_link(&[&t2, &t3, &t4]));
    }

    #[test]
    fn reduction_agrees_on_small_graphs() {
        // Graphs with circuits.
        assert!(reduction_agrees(&cycle(3)), "triangle");
        assert!(reduction_agrees(&cycle(4)), "square");
        assert!(reduction_agrees(&cycle(5)), "pentagon");
        assert!(reduction_agrees(&complete(4)), "K4");
        // Graphs without circuits.
        assert!(reduction_agrees(&path(3)), "path3");
        assert!(reduction_agrees(&path(4)), "path4");
        let star = Graph::new(4, vec![(0, 1), (0, 2), (0, 3)]);
        assert!(reduction_agrees(&star), "star");
    }

    #[test]
    fn square_with_diagonal_still_agrees() {
        // Square + one diagonal: has a Hamiltonian circuit; the solver
        // must find a 4-task subset even though 5 tasks exist.
        let g = Graph::new(4, vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        assert!(g.has_hamiltonian_circuit());
        assert!(reduction_agrees(&g));
    }
}
