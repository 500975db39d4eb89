//! Reference implementations the production code is measured against.
//!
//! * [`naive_batch`] — the paper-naive Alg. 2/3, written straight from
//!   the pseudocode with no cache, scratch buffer or pruning. The
//!   allocation engine ([`crate::AllocEngine`]) must reproduce its
//!   schedules bit for bit; the proptests, the root `alloc_reference`
//!   test and `bench_admission`'s `before_legacy` column all use it.
//! * [`SingleLinkOracle`] — an exact (exponential-time) optimizer for
//!   small task-scheduling instances, used to measure how close TAPS's
//!   heuristic gets to the optimum the paper proves NP-hard (§IV-B).
//!
//! # `SingleLinkOracle`
//!
//! Scope: all flows of an instance share one bottleneck link (the
//! motivation-example setting). On a single preemptive link, a set of
//! flows with release times (task arrivals) and deadlines is feasible
//! **iff** the *processor demand criterion* holds: for every window
//! `[s, e]` with `s` a release and `e` a deadline, the total work of
//! flows entirely inside the window fits in `e − s`. The oracle then
//! maximizes the number (or total size) of tasks over all task subsets.

use crate::alloc::{AllocError, FlowAlloc, FlowDemand};
use taps_flowsim::Workload;
use taps_timeline::{Clock, IntervalSet};
use taps_topology::paths::PathFinder;
use taps_topology::{Path, Topology};

/// The paper-naive Alg. 2 (`PathCalculation`) and Alg. 3
/// (`TimeAllocation`) over one priority-ordered batch, starting from
/// empty occupancy: for every flow, re-enumerate its candidate paths
/// (capped at `max_paths`), materialize each candidate's slices as the
/// first `E` idle slots of `T_ocp = ⋃ O_x` at or after `start_slot`,
/// keep the earliest-completing candidate (strict first-wins) and commit
/// it. Stateless and deliberately unoptimized — it shares nothing with
/// the engine but the [`Clock`] and the demand/allocation types.
/// Fails with [`AllocError::Disconnected`] at the first flow (in
/// priority order) whose endpoints have no surviving path.
pub fn naive_batch(
    topo: &Topology,
    slot: f64,
    max_paths: usize,
    demands: &[FlowDemand],
    start_slot: u64,
) -> Result<Vec<FlowAlloc>, AllocError> {
    let clock = Clock::new(slot);
    let pf = PathFinder::new(topo);
    let mut occupancy = vec![IntervalSet::new(); topo.num_links()];
    let mut out = Vec::with_capacity(demands.len());
    for d in demands {
        let mut best: Option<(IntervalSet, u64, Path)> = None;
        for p in pf.paths(topo.host(d.src), topo.host(d.dst), max_paths) {
            let mut t_ocp = IntervalSet::new();
            for l in &p.links {
                t_ocp = t_ocp.union(&occupancy[l.idx()]);
            }
            let e = clock.slots_for(d.remaining, p.bottleneck(topo));
            #[expect(
                clippy::expect_used,
                reason = "invariant: the idle tail is infinite, so E >= 1 slots are always allocatable"
            )]
            let slices = t_ocp
                .allocate_first_free(start_slot, e)
                .expect("E >= 1 slots always allocatable");
            #[expect(
                clippy::expect_used,
                reason = "invariant: E >= 1 makes the allocation non-empty"
            )]
            let completion = slices.max_end().expect("non-empty allocation");
            if best.as_ref().is_none_or(|(_, c, _)| completion < *c) {
                best = Some((slices, completion, p));
            }
        }
        let Some((slices, completion_slot, path)) = best else {
            return Err(AllocError::Disconnected { flow: d.id });
        };
        for l in &path.links {
            occupancy[l.idx()].insert_set(&slices);
        }
        out.push(FlowAlloc {
            id: d.id,
            path,
            slices,
            completion_slot,
            deadline: d.deadline,
            on_time: clock.reached(completion_slot, d.deadline),
        });
    }
    Ok(out)
}

/// One flow projected onto the shared bottleneck.
#[derive(Clone, Debug)]
struct Job {
    task: usize,
    release: f64,
    deadline: f64,
    /// Seconds of link time needed (size / capacity).
    work: f64,
}

/// Exact optimizer over task subsets on one shared bottleneck link.
pub struct SingleLinkOracle {
    jobs: Vec<Job>,
    num_tasks: usize,
    task_sizes: Vec<f64>,
}

impl SingleLinkOracle {
    /// Projects a workload onto a single link of `capacity` bytes/s.
    /// Every flow is assumed to traverse the same bottleneck (true for
    /// the dumbbell topologies of the motivation examples).
    pub fn from_workload(wl: &Workload, capacity: f64) -> Self {
        assert!(capacity > 0.0);
        let jobs = wl
            .flows
            .iter()
            .map(|f| Job {
                task: f.task,
                release: f.arrival,
                deadline: f.deadline,
                work: f.size / capacity,
            })
            .collect();
        let task_sizes = wl
            .tasks
            .iter()
            .map(|t| t.flows.clone().map(|fid| wl.flows[fid].size).sum())
            .collect();
        SingleLinkOracle {
            jobs,
            num_tasks: wl.num_tasks(),
            task_sizes,
        }
    }

    /// Preemptive EDF feasibility of the flows of the chosen task set
    /// (processor demand criterion).
    fn feasible(&self, mask: u32) -> bool {
        let chosen: Vec<&Job> = self
            .jobs
            .iter()
            .filter(|j| mask >> j.task & 1 == 1)
            .collect();
        if chosen.is_empty() {
            return true;
        }
        let releases: Vec<f64> = chosen.iter().map(|j| j.release).collect();
        let deadlines: Vec<f64> = chosen.iter().map(|j| j.deadline).collect();
        for &s in &releases {
            for &e in &deadlines {
                if e <= s {
                    continue;
                }
                let demand: f64 = chosen
                    .iter()
                    .filter(|j| j.release >= s && j.deadline <= e)
                    .map(|j| j.work)
                    .sum();
                if demand > (e - s) + 1e-9 {
                    return false;
                }
            }
        }
        true
    }

    /// Maximum number of tasks completable, over all subsets.
    /// Exponential in the task count (`<= 20` enforced).
    pub fn max_tasks(&self) -> usize {
        assert!(
            self.num_tasks <= 20,
            "exponential oracle: small instances only"
        );
        let mut best = 0usize;
        for mask in 0u32..(1 << self.num_tasks) {
            #[expect(
                clippy::as_conversions,
                reason = "count_ones() <= 32 always fits usize"
            )]
            let k = mask.count_ones() as usize;
            if k > best && self.feasible(mask) {
                best = k;
            }
        }
        best
    }

    /// Maximum total bytes over completable task subsets (the task-size
    /// throughput optimum).
    pub fn max_task_bytes(&self) -> f64 {
        assert!(self.num_tasks <= 20);
        let mut best = 0.0f64;
        for mask in 0u32..(1 << self.num_tasks) {
            let bytes: f64 = (0..self.num_tasks)
                .filter(|t| mask >> t & 1 == 1)
                .map(|t| self.task_sizes[t])
                .sum();
            if bytes.total_cmp(&best).is_gt() && self.feasible(mask) {
                best = bytes;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taps_flowsim::Workload;

    const CAP: f64 = 1e9 / 8.0;

    fn wl(tasks: Vec<(f64, f64, Vec<f64>)>) -> Workload {
        // All flows 0 -> 1 on a conceptual single link; sizes in "link
        // seconds".
        Workload::from_tasks(
            tasks
                .into_iter()
                .map(|(a, d, sizes)| {
                    (
                        a,
                        d,
                        sizes
                            .into_iter()
                            .map(|s| (0usize, 1usize, s * CAP))
                            .collect(),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn fig1_optimum_is_one_task() {
        // Fig. 1(a): total demand 10 over horizon 4 — one task fits, and
        // it is the (1,3) one.
        let w = wl(vec![(0.0, 4.0, vec![2.0, 4.0]), (0.0, 4.0, vec![1.0, 3.0])]);
        let o = SingleLinkOracle::from_workload(&w, CAP);
        assert_eq!(o.max_tasks(), 1);
        assert!((o.max_task_bytes() - 4.0 * CAP).abs() < 1.0);
    }

    #[test]
    fn fig2_optimum_is_two_tasks() {
        let w = wl(vec![(0.0, 4.0, vec![1.0, 1.0]), (0.0, 2.0, vec![1.0, 1.0])]);
        let o = SingleLinkOracle::from_workload(&w, CAP);
        assert_eq!(o.max_tasks(), 2, "the paper's TAPS schedule is optimal");
    }

    #[test]
    fn staggered_releases_use_the_window_criterion() {
        // Task 0: released 0, deadline 1, work 1 (fills [0,1]).
        // Task 1: released 1, deadline 2, work 1 (fills [1,2]).
        // Both feasible; adding task 2 (released 0, deadline 2, work 0.5)
        // overloads [0,2].
        let w = wl(vec![
            (0.0, 1.0, vec![1.0]),
            (1.0, 2.0, vec![1.0]),
            (0.0, 2.0, vec![0.5]),
        ]);
        let o = SingleLinkOracle::from_workload(&w, CAP);
        assert_eq!(o.max_tasks(), 2);
    }

    #[test]
    fn empty_and_trivial() {
        let w = wl(vec![(0.0, 5.0, vec![1.0])]);
        let o = SingleLinkOracle::from_workload(&w, CAP);
        assert_eq!(o.max_tasks(), 1);
    }

    #[test]
    fn infeasible_single_task_scores_zero() {
        let w = wl(vec![(0.0, 1.0, vec![2.0])]);
        let o = SingleLinkOracle::from_workload(&w, CAP);
        assert_eq!(o.max_tasks(), 0);
        assert_eq!(o.max_task_bytes(), 0.0);
    }
}
