//! Trace a testbed run, replay it through the invariant validator, and
//! measure the recorder's overhead (DESIGN.md §11).
//!
//! Runs the canonical 8-host testbed scenario untraced and traced,
//! prints the wall-clock ratio, then validates the trace and dumps the
//! first few JSONL records.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use std::sync::Arc;
use std::time::Instant;
use taps::trace_scenarios::testbed_workload;
use taps_obs::{jsonl, replay, RingRecorder};
use taps_sdn::{run_chaos, run_chaos_traced, ChaosConfig, ControllerConfig};
use taps_topology::build::{partial_fat_tree_testbed, GBPS};

fn main() {
    let topo = partial_fat_tree_testbed(GBPS);
    let wl = testbed_workload(5, 20);
    let horizon = wl.tasks.last().expect("non-empty workload").deadline + 0.05;
    let cfg = ChaosConfig::reliable(ControllerConfig::default(), horizon);

    const REPS: usize = 20;
    // Warm-up, then interleave to be fair to both configurations.
    run_chaos(&topo, &wl, &cfg);
    let mut plain = std::time::Duration::ZERO;
    let mut traced = std::time::Duration::ZERO;
    let mut records = Vec::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        run_chaos(&topo, &wl, &cfg);
        plain += t0.elapsed();

        let ring = Arc::new(RingRecorder::new());
        let t0 = Instant::now();
        run_chaos_traced(&topo, &wl, &cfg, ring.clone());
        traced += t0.elapsed();
        records = ring.drain();
    }
    println!(
        "testbed x{REPS}: untraced {:.2} ms, traced {:.2} ms ({:+.1}%)",
        plain.as_secs_f64() * 1e3,
        traced.as_secs_f64() * 1e3,
        (traced.as_secs_f64() / plain.as_secs_f64() - 1.0) * 100.0
    );

    let report = replay::validate(&records).expect("trace re-proves the safety invariants");
    println!(
        "replay: {} events, {} commits, {} grants; {} exclusivity / {} deadline / {} agreement checks",
        report.events,
        report.commits,
        report.grants,
        report.exclusivity_checks,
        report.deadline_checks,
        report.agreement_checks
    );
    for line in jsonl::to_jsonl(&records).lines().take(5) {
        println!("{line}");
    }
}
