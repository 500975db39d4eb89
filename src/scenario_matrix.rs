//! The scenario matrix's cells (DESIGN.md §16), shared by
//! `cargo xtask scenarios` and the root suite's one-cell check in
//! `tests/scenarios.rs`: the topology, the two pinned seeds, every
//! family's preset, and the outcome digest that
//! `tests/goldens/scenario_matrix.json` pins per cell.

use taps_flowsim::SimReport;
use taps_topology::build::{single_rooted, GBPS};
use taps_topology::Topology;
use taps_workload::ScenarioConfig;

/// The matrix's two pinned seeds.
pub const SEEDS: [u64; 2] = [3, 11];

/// The 16-host single-rooted tree every cell runs on.
pub fn topology() -> Topology {
    single_rooted(2, 2, 4, GBPS)
}

/// All scenario families at a fixed seed, sized for gate latency.
pub fn presets(seed: u64) -> Vec<(&'static str, ScenarioConfig)> {
    vec![
        ("weighted", ScenarioConfig::weighted(16, 24, seed)),
        (
            "close_to_deadline",
            ScenarioConfig::close_to_deadline(16, 20, seed),
        ),
        ("websearch", ScenarioConfig::websearch_sizes(16, 20, seed)),
        (
            "data_mining",
            ScenarioConfig::data_mining_sizes(16, 16, seed),
        ),
        ("incast", ScenarioConfig::incast(16, 20, seed)),
        ("straggler", ScenarioConfig::straggler(16, 16, seed)),
        ("diurnal_ramp", ScenarioConfig::diurnal_ramp(16, 24, seed)),
    ]
}

/// FNV-1a over a word stream.
pub struct Fnv(pub u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one word in.
    pub fn mix(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

/// Digests a run's full outcome: per-flow terminal status, finish time,
/// delivered bytes, plus the task-success vector and the weighted
/// aggregates.
pub fn outcome_digest(rep: &SimReport) -> u64 {
    let mut h = Fnv::new();
    h.mix(rep.tasks_completed as u64);
    h.mix(rep.flows_on_time as u64);
    h.mix(rep.bytes_on_time_tasks.to_bits());
    h.mix(rep.bytes_wasted_flow.to_bits());
    h.mix(rep.wbytes_total.to_bits());
    h.mix(rep.wbytes_on_time_tasks.to_bits());
    for ok in &rep.task_success {
        h.mix(u64::from(*ok));
    }
    for f in &rep.flow_outcomes {
        h.mix(f.status as u64);
        h.mix(f.finish.unwrap_or(-1.0).to_bits());
        h.mix(f.delivered.to_bits());
        h.mix(u64::from(f.on_time));
    }
    h.0
}
