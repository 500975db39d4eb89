//! Canonical traced scenarios (DESIGN.md §11).
//!
//! Shared by the golden-trace regression suite (`tests/golden_traces.rs`)
//! and `cargo xtask trace`: each builder runs a fixed, seeded scenario
//! with a [`taps_obs::RingRecorder`] attached and returns the drained
//! event stream. Determinism contract: same builder, same byte-identical
//! JSONL export, every time.

use std::sync::Arc;
use taps_obs::{RingRecorder, TraceEvent, TraceRecord, TraceSink};
use taps_sdn::{run_chaos_traced, ChaosConfig, ControllerConfig};
use taps_topology::build::{dumbbell, partial_fat_tree_testbed, single_rooted, GBPS};
use taps_workload::{FaultPlan, ScenarioConfig, WorkloadConfig};

/// The 8-host partial fat-tree workload used by the testbed scenarios
/// ([`WorkloadConfig::testbed`]).
pub fn testbed_workload(seed: u64, tasks: usize) -> taps_flowsim::Workload {
    WorkloadConfig::testbed(tasks, seed).generate()
}

/// Drains `ring`, asserting nothing was dropped (a capacity problem must
/// fail loudly, not truncate the artifact).
fn drain(ring: &RingRecorder) -> Vec<TraceRecord> {
    assert_eq!(ring.dropped(), 0, "trace ring overflowed");
    ring.drain()
}

/// The §VI 8-host testbed run (reliable control plane, seed 5, 20
/// tasks) with full control-plane tracing. The run must be clean: no
/// audit violation, no packet on a default route, no failover.
pub fn testbed_trace() -> Vec<TraceRecord> {
    let topo = partial_fat_tree_testbed(GBPS);
    let wl = testbed_workload(5, 20);
    #[expect(
        clippy::expect_used,
        reason = "the workload generator always emits the requested 20 tasks"
    )]
    let horizon = wl.tasks.last().expect("non-empty workload").deadline + 0.05;
    let ring = Arc::new(RingRecorder::new());
    let cfg = ChaosConfig::reliable(ControllerConfig::default(), horizon);
    let rep = run_chaos_traced(&topo, &wl, &cfg, ring.clone());
    assert_eq!(rep.violations() + rep.default_routed_slots, 0);
    assert!(rep.failovers.is_empty());
    drain(&ring)
}

/// The chaos scenario's configuration: lossy channels (20% drop, seed
/// 42) plus a controller outage during `[5 ms, 10 ms)`.
pub fn chaos_config(horizon: f64) -> ChaosConfig {
    let mut cfg = ChaosConfig::unreliable(
        ControllerConfig::default(),
        taps_sdn::ChannelConfig::lossy(0.2, 0.0002),
        42,
        horizon,
    );
    cfg.faults = FaultPlan::controller_outage(0.005, 0.010).events;
    cfg
}

/// The chaos scenario: lossy channels (20% drop) plus a controller
/// crash/failover, seed 42 — the trace records retries, the failover
/// window, and the post-recovery re-commits.
pub fn chaos_trace() -> Vec<TraceRecord> {
    let topo = partial_fat_tree_testbed(GBPS);
    let wl = testbed_workload(11, 16);
    #[expect(
        clippy::expect_used,
        reason = "the workload generator always emits the requested 16 tasks"
    )]
    let horizon = wl.tasks.last().expect("non-empty workload").deadline + 0.08;
    let cfg = chaos_config(horizon);
    let ring = Arc::new(RingRecorder::new());
    let rep = run_chaos_traced(&topo, &wl, &cfg, ring.clone());
    assert_eq!(rep.violations(), 0, "chaos safety invariants");
    topo.reset_faults();
    drain(&ring)
}

/// Runs a scenario-matrix workload (DESIGN.md §16) through the flow
/// simulator under default-configured TAPS on the 16-host single-rooted
/// tree, with scheduler and engine tracing attached. Shared by the four
/// scenario goldens below.
fn scenario_trace(cfg: &ScenarioConfig) -> Vec<TraceRecord> {
    use taps_core::{Taps, TapsConfig};
    use taps_flowsim::{SimConfig, Simulation};
    let topo = single_rooted(2, 2, 4, GBPS);
    #[expect(clippy::expect_used, reason = "the checked-in presets always validate")]
    let wl = cfg.generate().expect("scenario preset validates");
    let ring = Arc::new(RingRecorder::new());
    ring.emit(
        0.0,
        &TraceEvent::RunMeta {
            hosts: topo.num_hosts() as u64,
            links: topo.num_links() as u64,
            slot: TapsConfig::default().slot,
        },
    );
    let mut taps = Taps::default();
    taps.set_trace_sink(ring.clone());
    let rep = Simulation::new(&topo, &wl, SimConfig::default())
        .with_trace_sink(ring.clone())
        .run(&mut taps);
    assert!(rep.tasks_completed > 0, "scenario admits nothing");
    drain(&ring)
}

/// Weighted-admission scenario golden: weights in U(0.25, 4.0) drive
/// the σ-order reject rule and emit `TaskWeight` events.
pub fn weighted_trace() -> Vec<TraceRecord> {
    scenario_trace(&ScenarioConfig::weighted(16, 24, 5))
}

/// Close-to-deadline stress golden: every deadline sits at slack
/// U(1.05, 1.5) over the bottleneck transfer time.
pub fn close_to_deadline_trace() -> Vec<TraceRecord> {
    scenario_trace(&ScenarioConfig::close_to_deadline(16, 20, 7))
}

/// Incast fan-in golden: 6 senders converge on one receiver per task.
pub fn incast_trace() -> Vec<TraceRecord> {
    scenario_trace(&ScenarioConfig::incast(16, 20, 3))
}

/// Diurnal-ramp golden: arrival rate ramps 1× → 4× → 1× across five
/// equal phases via the multi-window replay shaper.
pub fn diurnal_ramp_trace() -> Vec<TraceRecord> {
    scenario_trace(&ScenarioConfig::diurnal_ramp(16, 30, 9))
}

/// The Fig. 1 motivation walk-through (2 tasks × 2 flows on one
/// bottleneck) through the flow simulator under TAPS.
pub fn fig1_trace() -> Vec<TraceRecord> {
    use taps_core::{Taps, TapsConfig};
    use taps_flowsim::{SimConfig, Simulation, Workload};
    let u = GBPS; // one size unit = one second at line rate
    let topo = dumbbell(4, 4, GBPS);
    let wl = Workload::from_tasks(vec![
        (0.0, 4.0, vec![(0, 4, 2.0 * u), (1, 5, 4.0 * u)]),
        (0.0, 4.0, vec![(2, 6, 1.0 * u), (3, 7, 3.0 * u)]),
    ]);
    let ring = Arc::new(RingRecorder::new());
    ring.emit(
        0.0,
        &TraceEvent::RunMeta {
            hosts: topo.num_hosts() as u64,
            links: topo.num_links() as u64,
            slot: 1.0,
        },
    );
    let mut taps = Taps::with_config(TapsConfig {
        slot: 1.0,
        ..TapsConfig::default()
    });
    taps.set_trace_sink(ring.clone());
    let rep = Simulation::new(&topo, &wl, SimConfig::default())
        .with_trace_sink(ring.clone())
        .run(&mut taps);
    assert_eq!(rep.tasks_completed, 1, "the paper's task-aware outcome");
    drain(&ring)
}
