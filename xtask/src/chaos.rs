//! `cargo xtask chaos --seeds N` — the seeded control-plane chaos gate.
//!
//! For each seed the driver runs the full SDN chaos harness
//! ([`taps_sdn::run_chaos`]) over the §VI testbed topology with a
//! Fig. 14-style workload, a lossy control channel (20 % drop, delivery
//! delays up to two slots), one mid-run link outage and one controller
//! crash + checkpoint-failover, and asserts the safety and determinism
//! contract from DESIGN.md §10:
//!
//! * the commit-time schedule validator never fires and the per-slot
//!   audit finds **zero** violations — no transmission without a live
//!   grant, no link-slot double-booking across epochs;
//! * exactly one controller recovery is observed (the crash is in the
//!   plan, so the failover must actually happen);
//! * a second run with identical inputs produces a **bit-identical**
//!   outcome digest (verdicts, finish times, delivered bytes, counters).
//!
//! The reliable-channel, no-fault configuration (the §VI testbed) is
//! audited in Tier-1 (`tests/chaos_digest.rs`, `tests/golden_traces.rs`).

use taps::trace_scenarios::testbed_workload;
use taps_sdn::{run_chaos, ChannelConfig, ChaosConfig, ControllerConfig};
use taps_topology::build::{partial_fat_tree_testbed, GBPS};
use taps_topology::Topology;
use taps_workload::FaultPlan;

/// One failed per-seed check.
pub struct ChaosFailure {
    pub seed: u64,
    pub what: String,
}

/// A switch-to-switch cable of the testbed fabric (deterministic pick:
/// first such link in id order), used for the mid-run link outage.
fn fabric_cable(topo: &Topology) -> Option<taps_topology::LinkId> {
    topo.links()
        .find(|(_, l)| topo.node(l.src).kind.is_switch() && topo.node(l.dst).kind.is_switch())
        .map(|(id, _)| id)
}

/// Runs one lossy-with-failover scenario for `seed`; pushes failures and
/// returns a one-line human summary.
fn chaos_seed(topo: &Topology, seed: u64, failures: &mut Vec<ChaosFailure>) -> String {
    let wl = testbed_workload(1000 + seed, 16);
    let horizon = match wl.tasks.last() {
        Some(t) => t.deadline + 0.08,
        None => return format!("seed {seed}: empty workload"),
    };
    // 20 % drop, deliveries delayed up to two slots (the retry policy's
    // base timeout covers one slot + two max delays, so a grant survives
    // well within its bounded backoff schedule).
    let mut cfg = ChaosConfig::unreliable(
        ControllerConfig::default(),
        ChannelConfig::lossy(0.2, 0.0002),
        seed,
        horizon,
    );
    let mut plan = FaultPlan::controller_outage(0.005, 0.010);
    if let Some(cable) = fabric_cable(topo) {
        plan = plan.merge(FaultPlan::link_outage(cable, 0.015, 0.022));
    }
    cfg.faults = plan.events;

    let a = run_chaos(topo, &wl, &cfg);
    let b = run_chaos(topo, &wl, &cfg);

    if a.digest != b.digest {
        failures.push(ChaosFailure {
            seed,
            what: format!(
                "double run is not bit-identical (digest {:#018x} vs {:#018x})",
                a.digest, b.digest
            ),
        });
    }
    if a.violations() != 0 {
        failures.push(ChaosFailure {
            seed,
            what: format!(
                "safety violated: {} occupancy conflict(s), {} grantless transmission slot(s)",
                a.occupancy_violations, a.grantless_transmissions
            ),
        });
    }
    if a.failovers.len() != 1 {
        failures.push(ChaosFailure {
            seed,
            what: format!(
                "expected exactly one controller recovery, observed {}",
                a.failovers.len()
            ),
        });
    }
    if a.flows_on_time == 0 {
        failures.push(ChaosFailure {
            seed,
            what: "no flow finished on time — the plane made no progress under chaos".into(),
        });
    }
    let recovery_ms = a.failovers.first().map(|r| r * 1e3).unwrap_or(f64::NAN);
    format!(
        "seed {seed}: {} flows ({} on time, {} rejected, {} missed), \
         1 crash (recovery {:.2} ms), digest {:#018x}",
        a.flows_total, a.flows_on_time, a.flows_rejected, a.flows_missed, recovery_ms, a.digest
    )
}

/// Entry point for `cargo xtask chaos --seeds N`. Returns the failures
/// (empty means the gate passes); summaries are printed as we go.
pub fn run(seeds: u64) -> Vec<ChaosFailure> {
    let topo = partial_fat_tree_testbed(GBPS);
    let mut failures = Vec::new();
    for seed in 0..seeds {
        let line = chaos_seed(&topo, seed, &mut failures);
        println!("chaos: {line}");
    }
    failures
}
