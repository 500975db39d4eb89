//! Seeded inputs: every request a run sends is a pure function of
//! `(workload, --seed, round)`.

use std::time::Instant;

use taps_flowsim::Workload;
use taps_service::load::submit_for_task;
use taps_service::Submit;
use taps_topology::build::GBPS;
use taps_workload::{ReplayConfig, ReplayPlan, WorkloadConfig};

use crate::spec::WorkloadSpec;

/// Slot length every entry point uses (`ControllerConfig::default()`,
/// `TapsConfig::default()`), seconds.
pub const SLOT_S: f64 = 1e-4;

/// Rounds cycle through this many distinct sub-seeds, so the fourth
/// round of a run replays the first one's input: on the deterministic
/// workloads its digest must then match, which checks run-to-run
/// bit-identity at no extra cost.
pub const SUB_SEEDS: usize = 3;

/// Generator seed of round `round` under run seed `seed`.
pub fn sub_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((round % SUB_SEEDS) as u64)
}

/// Number of hosts of a `k`-ary fat-tree.
pub fn fat_tree_hosts(k: usize) -> usize {
    k * k * k / 4
}

/// Inputs of one round.
pub struct RoundInput {
    /// Generated tasks and flows (paper §V-A distributions).
    pub wl: Workload,
    /// Submission schedule: one event per task, in arrival order.
    pub plan: ReplayPlan,
    /// Added to every task and flow id, so no two rounds of a run (and
    /// no two runs on nearby seeds) ever reuse an id — a daemon answers
    /// a reused id from its verdict cache without deciding anything.
    pub id_base: u64,
    /// Wall time the generator took.
    pub generate_s: f64,
}

/// Generates round `round` of `spec` under `seed`.
pub fn generate(spec: &WorkloadSpec, seed: u64, round: usize) -> RoundInput {
    generate_n(spec, seed, round, spec.tasks)
}

/// [`generate`] cut to the first `tasks` tasks (the generator draws
/// tasks one after another, so this is a true prefix of the full round).
pub fn generate_n(spec: &WorkloadSpec, seed: u64, round: usize, tasks: usize) -> RoundInput {
    let start = Instant::now();
    let mut cfg = WorkloadConfig::paper_multi_rooted(fat_tree_hosts(spec.k), sub_seed(seed, round));
    cfg.num_tasks = tasks;
    cfg.mean_flows_per_task = spec.flows_per_task;
    cfg.sd_flows_per_task = spec.flows_per_task / 4.0;
    cfg.arrival_rate = spec.rate;
    let wl = cfg.generate();
    let plan = ReplayPlan::build(&wl, &ReplayConfig::default());
    RoundInput {
        wl,
        plan,
        id_base: ((seed & 0xFFFF) * 64 + round as u64 + 1) << 24,
        generate_s: start.elapsed().as_secs_f64(),
    }
}

impl RoundInput {
    /// The submit message of plan event `idx`, with absolute `deadline`.
    /// Built by the service's own `submit_for_task`, then moved into
    /// this round's id range.
    pub fn submit(&self, idx: usize, deadline: f64) -> Submit {
        let ev = self.plan.events[idx];
        let mut s = submit_for_task(&self.wl, ev.task, deadline);
        s.task += self.id_base;
        for f in &mut s.flows {
            f.flow += self.id_base;
        }
        s
    }

    /// Wire task id of plan event `idx`.
    pub fn task_id(&self, idx: usize) -> u64 {
        self.plan.events[idx].task as u64 + self.id_base
    }
}

/// Slots a flow of `bytes` needs on a fat-tree path (every link is
/// [`GBPS`]): the demand-conservation figure a grant must carry. The
/// rounding is the validator's, restated so the check stays independent
/// of the code under test.
pub fn expected_slots(bytes: f64) -> u64 {
    let per_slot = GBPS * SLOT_S;
    ((bytes / per_slot) - 1e-9).ceil().max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn same_seed_same_inputs_and_prefix_property() {
        let spec = &WORKLOADS[0];
        let a = generate_n(spec, 11, 0, 40);
        let b = generate_n(spec, 11, 0, 40);
        assert_eq!(a.plan.digest(), b.plan.digest());
        let longer = generate_n(spec, 11, 0, 60);
        assert_eq!(a.plan.events[..], longer.plan.events[..40]);
        assert_ne!(a.plan.digest(), generate_n(spec, 12, 0, 40).plan.digest());
        // Round 3 replays round 0's stream under fresh ids.
        let again = generate_n(spec, 11, SUB_SEEDS, 40);
        assert_eq!(a.plan.digest(), again.plan.digest());
        assert_ne!(a.id_base, again.id_base);
    }

    #[test]
    fn ids_are_disjoint_across_rounds_and_seeds() {
        let spec = &WORKLOADS[1];
        let r0 = generate_n(spec, 5, 0, 10);
        let r1 = generate_n(spec, 5, 1, 10);
        let other = generate_n(spec, 6, 0, 10);
        let max_flow = |r: &RoundInput| r.id_base + r.wl.num_flows() as u64;
        assert!(max_flow(&r0) <= r1.id_base);
        assert!(max_flow(&r1) <= other.id_base);
        let s = r1.submit(3, 1.0);
        assert_eq!(s.task, r1.task_id(3));
        assert!(s.flows.iter().all(|f| f.flow >= r1.id_base));
    }

    #[test]
    fn slots_round_up_to_whole_slots() {
        assert_eq!(expected_slots(12_500.0), 1);
        assert_eq!(expected_slots(12_501.0), 2);
        assert_eq!(expected_slots(200_000.0), 16);
        assert_eq!(expected_slots(1.0), 1);
    }
}
