//! Overhead guard (DESIGN.md §11): attaching a trace sink must not
//! perturb a single scheduling decision — with and without a recorder,
//! the same seeded run produces bit-identical outcomes — and must not
//! slow the admission path beyond a configurable latency budget (the
//! PR 5 class of regression, where default-on obs hooks multiplied
//! admission p50, must fail loudly here instead of surfacing in a
//! bench report months later).

use std::sync::Arc;
use std::time::Instant;
use taps::trace_scenarios::{chaos_config, testbed_workload};
use taps_obs::RingRecorder;
use taps_sdn::{
    run_chaos, run_chaos_traced, ChaosConfig, Controller, ControllerConfig, ProbeHeader,
};
use taps_topology::build::{partial_fat_tree_testbed, GBPS};

/// The §VI testbed run: seed 5, 20 tasks, on a reliable control plane.
fn testbed_config() -> (taps_topology::Topology, taps_flowsim::Workload, ChaosConfig) {
    let topo = partial_fat_tree_testbed(GBPS);
    let wl = testbed_workload(5, 20);
    let horizon = wl.tasks.last().expect("non-empty workload").deadline + 0.05;
    let cfg = ChaosConfig::reliable(ControllerConfig::default(), horizon);
    (topo, wl, cfg)
}

#[test]
fn tracing_does_not_perturb_testbed_outcomes() {
    let (topo, wl, cfg) = testbed_config();
    let plain = run_chaos(&topo, &wl, &cfg);
    let ring = Arc::new(RingRecorder::new());
    let traced = run_chaos_traced(&topo, &wl, &cfg, ring.clone());
    // ChaosReport carries every outcome (verdicts, per-slot bytes,
    // audit and channel counters); its Debug form is an exact
    // field-by-field image.
    assert_eq!(
        format!("{plain:?}"),
        format!("{traced:?}"),
        "attaching a trace sink changed testbed outcomes"
    );
    assert!(!ring.drain().is_empty(), "traced run recorded nothing");
}

/// A long-lived traced service fills any bounded recorder, and from then
/// on every event is dropped. A full recorder must change no outcome and
/// must keep the *first* events (drop-newest, order preserved).
#[test]
fn a_full_recorder_does_not_perturb_outcomes() {
    let (topo, wl, cfg) = testbed_config();
    let run = |ring: &Arc<RingRecorder>| {
        format!("{:?}", run_chaos_traced(&topo, &wl, &cfg, ring.clone()))
    };
    let plain = run_chaos(&topo, &wl, &cfg);
    let unbounded = Arc::new(RingRecorder::new());
    let full = Arc::new(RingRecorder::with_capacity(64));
    assert_eq!(format!("{plain:?}"), run(&unbounded));
    assert_eq!(
        format!("{plain:?}"),
        run(&full),
        "a full trace recorder changed testbed outcomes"
    );
    assert_eq!(unbounded.dropped(), 0);
    assert_eq!(full.len(), 64);
    assert!(full.dropped() > 0, "the scenario must overflow 64 slots");
    assert_eq!(full.drain(), unbounded.drain()[..64]);
}

#[test]
fn tracing_does_not_perturb_chaos_digest() {
    let topo = partial_fat_tree_testbed(GBPS);
    let wl = testbed_workload(11, 16);
    let horizon = wl.tasks.last().expect("non-empty workload").deadline + 0.08;
    let cfg = chaos_config(horizon);
    let plain = run_chaos(&topo, &wl, &cfg);
    topo.reset_faults();
    let ring = Arc::new(RingRecorder::new());
    let traced = run_chaos_traced(&topo, &wl, &cfg, ring);
    topo.reset_faults();
    assert_eq!(
        plain.digest, traced.digest,
        "attaching a trace sink changed the chaos outcome digest"
    );
    assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
}

/// p50 of per-probe admission latency: replays every task of `wl`
/// through a fresh [`Controller`], timing each `handle_probe` call —
/// exactly the path whose latency `BENCH_admission.json` tracks.
fn admission_p50_secs(
    topo: &taps_topology::Topology,
    wl: &taps_flowsim::Workload,
    traced: bool,
) -> f64 {
    let mut ctl = Controller::new(topo, ControllerConfig::default());
    if traced {
        ctl.set_trace_sink(Arc::new(RingRecorder::new()));
    }
    let mut lat: Vec<f64> = Vec::with_capacity(wl.tasks.len());
    for t in &wl.tasks {
        let probes: Vec<ProbeHeader> = t
            .flows
            .clone()
            .map(|fid| {
                let f = &wl.flows[fid];
                ProbeHeader {
                    task: t.id,
                    flow: fid,
                    src: f.src,
                    dst: f.dst,
                    size: f.size,
                    deadline: f.deadline,
                }
            })
            .collect();
        let t0 = Instant::now();
        let out = ctl.handle_probe(t.arrival, &probes);
        lat.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    lat.sort_by(|a, b| a.total_cmp(b));
    lat[lat.len() / 2]
}

/// One paired measurement: (untraced p50, traced p50) of the admission
/// decision over the same seeded workload, best-of-five replays each to
/// damp scheduler noise.
fn measure_pair() -> (f64, f64) {
    let topo = partial_fat_tree_testbed(GBPS);
    let wl = testbed_workload(5, 40);
    // Throwaway replays of each flavour to warm caches and the page
    // allocator before anything is timed.
    admission_p50_secs(&topo, &wl, false);
    admission_p50_secs(&topo, &wl, true);
    let best = |traced: bool| {
        (0..5)
            .map(|_| admission_p50_secs(&topo, &wl, traced))
            .fold(f64::INFINITY, f64::min)
    };
    (best(false), best(true))
}

/// Latency budget: a traced admission run's p50 must stay within
/// `TAPS_OBS_BUDGET_FACTOR` (default 1.5) of the untraced p50. The
/// PR 5 regression was ~3x at this scale, far outside any timer noise;
/// a genuine hot-path event-construction regression trips this before
/// it can reach a bench report. One retry damps CI machine flake.
#[test]
fn tracing_stays_within_latency_budget() {
    let factor: f64 = std::env::var("TAPS_OBS_BUDGET_FACTOR")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.5);
    assert!(factor >= 1.0, "budget factor below 1.0 can never pass");
    let mut last = (0.0, 0.0);
    for attempt in 0..2 {
        let (plain, traced) = measure_pair();
        last = (plain, traced);
        if traced <= plain * factor {
            return;
        }
        eprintln!(
            "attempt {attempt}: traced p50 {:.1}µs vs untraced {:.1}µs (budget {factor}x) — retrying",
            traced * 1e6,
            plain * 1e6
        );
    }
    panic!(
        "traced admission p50 {:.1}µs exceeds {}x untraced p50 {:.1}µs",
        last.1 * 1e6,
        factor,
        last.0 * 1e6
    );
}
