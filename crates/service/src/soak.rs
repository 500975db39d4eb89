//! Deterministic in-process soak scenario behind `cargo xtask soak`.
//!
//! Two seeds, one overload phase each: a paper-shaped workload is
//! replayed at a rate that overwhelms the decision budget mid-run, and
//! the gate checks the robustness contract end to end —
//!
//! * zero invariant violations (queue bound, SLO, transport overflow);
//! * sheds carry valid reasons, and every deadline-infeasible shed
//!   really was infeasible (`at + projected ≥ deadline` re-checked from
//!   the audit log);
//! * the overload phase enters batch mode, so burst admission is
//!   covered;
//! * double runs with the same seed are byte-identical: digests, shed
//!   lists and metrics snapshots all match;
//! * sustained throughput stays above the floor (in simulation time).
//!
//! Everything is in-process and seeded; there is no wall-clock or
//! thread dependence, so a failure is always reproducible.

use serde_json::Serialize;
use taps_obs::reason;
use taps_sdn::ControllerConfig;
use taps_topology::build::{fat_tree, GBPS};
use taps_workload::{BurstPhase, ReplayConfig, ReplayPlan, WorkloadConfig};

use crate::controller::{ServiceConfig, ServiceController};
use crate::load::{run_load, LoadConfig, LoadReport};

/// Soak scenario shape. The defaults are the CI gate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SoakConfig {
    /// The seeds to run (each runs twice for the identity check).
    pub seeds: &'static [u64],
    /// Fat-tree arity (paper-scale gate: 16 → 1024 hosts).
    pub k: usize,
    /// Tasks per run.
    pub num_tasks: usize,
    /// Mean flows per task (kept small: the soak stresses the service
    /// loop, not the allocator).
    pub mean_flows_per_task: f64,
    /// Global replay compression (see [`ReplayConfig::rate_scale`]).
    pub rate_scale: f64,
    /// Extra compression of the middle third — the overload phase.
    pub burst_rate_scale: f64,
    /// p99 admission-latency SLO, seconds.
    pub slo_p99: f64,
    /// Sustained submission throughput floor, tasks per sim-second.
    pub min_throughput: f64,
    /// Round-robin client count.
    pub clients: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seeds: &[11, 23],
            k: 16,
            num_tasks: 1_200,
            mean_flows_per_task: 2.0,
            rate_scale: 2_000.0,
            burst_rate_scale: 100.0,
            slo_p99: 0.005,
            min_throughput: 50_000.0,
            clients: 4,
        }
    }
}

impl SoakConfig {
    /// A small variant for unit tests (k=4, fewer tasks).
    pub fn small() -> Self {
        SoakConfig {
            k: 4,
            num_tasks: 300,
            ..SoakConfig::default()
        }
    }
}

/// One gate failure: which seed and what went wrong.
#[derive(Clone, Debug)]
pub struct SoakFailure {
    /// The failing seed.
    pub seed: u64,
    /// Description of the violated gate.
    pub what: String,
}

fn service_cfg() -> ServiceConfig {
    ServiceConfig {
        queue_cap: 1_024,
        shed_watermark: 64,
        batch_enter: 32,
        batch_exit: 8,
        max_batch: 64,
        decision_cost: 2e-5,
    }
}

fn controller_cfg() -> ControllerConfig {
    ControllerConfig::default()
}

fn run_once(cfg: &SoakConfig, seed: u64) -> LoadReport {
    let topo = fat_tree(cfg.k, GBPS);
    let mut wcfg = WorkloadConfig::paper_single_rooted(topo.num_hosts(), seed);
    wcfg.num_tasks = cfg.num_tasks;
    wcfg.mean_flows_per_task = cfg.mean_flows_per_task;
    wcfg.sd_flows_per_task = (cfg.mean_flows_per_task / 4.0).max(0.0);
    // Tighter-than-paper deadlines: the soak gates on deadline-aware
    // shedding, so a meaningful fraction of the burst backlog must be
    // genuinely infeasible at ~millisecond queue delays.
    wcfg.mean_deadline = 0.008;
    let wl = wcfg.generate();
    let n = wl.num_tasks();
    let plan = ReplayPlan::build(
        &wl,
        &ReplayConfig {
            rate_scale: cfg.rate_scale,
            burst: Some(BurstPhase {
                start: n / 3,
                len: n / 3,
                rate_scale: cfg.burst_rate_scale,
            }),
        },
    );
    let svc_cfg = service_cfg();
    let mut svc = ServiceController::new(&topo, controller_cfg(), svc_cfg);
    run_load(
        &mut svc,
        &svc_cfg,
        &wl,
        &plan,
        &LoadConfig {
            clients: cfg.clients,
            slo_p99: cfg.slo_p99,
        },
    )
}

fn audit(seed: u64, rep: &LoadReport, cfg: &SoakConfig, failures: &mut Vec<SoakFailure>) {
    let mut fail = |what: String| failures.push(SoakFailure { seed, what });
    for v in &rep.violations {
        fail(format!("invariant violation: {v}"));
    }
    if rep.throughput < cfg.min_throughput {
        fail(format!(
            "throughput {:.0}/s below floor {:.0}/s",
            rep.throughput, cfg.min_throughput
        ));
    }
    if rep.shed == 0 {
        fail("overload phase produced no sheds (burst too weak to gate on)".into());
    }
    let batch_enters = rep
        .metrics
        .get("service")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("batch_mode_enters"))
        .and_then(|n| n.as_u64())
        .unwrap_or(0);
    if batch_enters == 0 {
        fail("overload phase never entered batch mode (burst admission not covered)".into());
    }
    let svc = service_cfg();
    for s in &rep.shed_log {
        match s.reason {
            reason::SHED_QUEUE_FULL => {}
            reason::SHED_INFEASIBLE => {
                // Re-check the audit record: the task really could not
                // have met its deadline from its queue position.
                if s.at + s.projected < s.deadline {
                    fail(format!(
                        "task {} shed as infeasible but {} + {} < {}",
                        s.task, s.at, s.projected, s.deadline
                    ));
                }
                // And the projection itself must be honest: at most the
                // full-queue delay plus the control RTT.
                let max_projected =
                    (svc.queue_cap + 1) as f64 * svc.decision_cost + controller_cfg().control_rtt;
                if s.projected > max_projected {
                    fail(format!(
                        "task {} shed with projected delay {} beyond the queue bound {}",
                        s.task, s.projected, max_projected
                    ));
                }
            }
            other => fail(format!(
                "task {} shed with unexpected reason {other} ({})",
                s.task,
                reason::name(other)
            )),
        }
    }
    let total = rep.granted + rep.rejected + rep.shed;
    if total != rep.submitted {
        fail(format!(
            "accounting: {} granted + {} rejected + {} shed != {} submitted",
            rep.granted, rep.rejected, rep.shed, rep.submitted
        ));
    }
}

/// Runs the soak gate. Returns human-readable progress lines and the
/// list of gate failures (empty = pass).
pub fn run_soak(cfg: &SoakConfig) -> (Vec<String>, Vec<SoakFailure>) {
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    let mut digests = Vec::new();
    for &seed in cfg.seeds {
        let a = run_once(cfg, seed);
        let b = run_once(cfg, seed);
        lines.push(format!(
            "seed {seed}: {} submitted, {} granted, {} rejected, {} shed, \
             p50 {:.1} us, p99 {:.1} us, {:.0} tasks/s, digest {:016x}",
            a.submitted,
            a.granted,
            a.rejected,
            a.shed,
            a.p50 * 1e6,
            a.p99 * 1e6,
            a.throughput,
            a.digest
        ));
        if a.digest != b.digest {
            failures.push(SoakFailure {
                seed,
                what: format!(
                    "double run diverged: digest {:016x} vs {:016x}",
                    a.digest, b.digest
                ),
            });
        }
        if a.shed_log != b.shed_log {
            failures.push(SoakFailure {
                seed,
                what: "double run diverged: shed logs differ".into(),
            });
        }
        if a.decisions != b.decisions {
            failures.push(SoakFailure {
                seed,
                what: "double run diverged: decision logs differ".into(),
            });
        }
        let (ma, mb) = (a.metrics.to_value(), b.metrics.to_value());
        if serde_json::to_string(&ma).ok() != serde_json::to_string(&mb).ok() {
            failures.push(SoakFailure {
                seed,
                what: "double run diverged: metrics snapshots differ".into(),
            });
        }
        audit(seed, &a, cfg, &mut failures);
        digests.push(a.digest);
    }
    if digests.len() == 2 && digests[0] == digests[1] {
        failures.push(SoakFailure {
            seed: cfg.seeds[1],
            what: "different seeds produced identical digests (suspicious)".into(),
        });
    }
    (lines, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_soak_passes() {
        let cfg = SoakConfig::small();
        let (lines, failures) = run_soak(&cfg);
        assert_eq!(lines.len(), 2);
        assert!(failures.is_empty(), "soak failures: {failures:?}");
    }
}
