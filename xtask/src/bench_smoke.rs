//! `cargo xtask bench-smoke` — four performance-regression gates.
//!
//! First, the engine gate ([`run`]): runs `bench_admission` once with a
//! tiny configuration (fat-tree k = 8 and 16) in release mode and fails
//! if the engine's full or delta pass is *slower* than the paper-naive
//! reference (`speedup_p50 < 1.0`) at either size, or if any run's
//! schedule diverged from the reference schedule. The thresholds are
//! deliberately loose — real speedups are an order of magnitude, so
//! 1.0x only trips on a genuine hot-path regression (the PR 5 obs
//! regression was 0.30x), never on CI machine noise.
//!
//! Second, the flowsim linearity gate ([`run_linearity`]): a `Taps` round
//! of the benchmark's `sim_taps_k8` shape is timed at 1 000 and at 4 000
//! tasks, and seconds-per-1 000-tasks may grow by at most 2x. The
//! engine walks only the flows in flight, so the figure is flat (0.9x);
//! when it scanned every flow of the workload per event it grew 15x
//! (EXPERIMENTS.md, "Flowsim engine scaling").
//!
//! Third, the controller history-independence gate
//! ([`run_history`]): one `handle_probe` against the same ≈200 flows in
//! flight on `fat_tree(16)` is timed on a controller whose registry
//! remembers no retired flow and on one that remembers 20 000, and the
//! second may cost at most 1.2x the first. The probe path iterates the
//! in-flight index only, so the figure is 1.0x; when every pass walked
//! the registry and sorted by looking each flow up in it, it was 2.6x
//! (EXPERIMENTS.md, "Controller probe scaling").
//!
//! Fourth, the cold-lookup gate ([`run_cold`]): one `allocate_batch` of
//! 256 one-slot flows between 256 distinct ToR pairs of `fat_tree(16)` is
//! timed on an allocator whose path cache is empty and on one after
//! `warm_paths()`, and the first may cost at most 8x the second. A cold
//! candidate lookup joins two small walk tables and writes out the 16
//! kept paths (≈3 us; the warm batch is ≈1.2 us a flow, because a
//! one-slot flow on an idle fabric drops 15 of its 16 candidates on the
//! busy-prefix bound), so the figure is ≈4x and nothing needs to pre-warm
//! the cache; when a miss walked the graph and built all 64 paths of the
//! ToR pair it was 20x (EXPERIMENTS.md, "Candidate lookup and ranking").

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use taps::core::{FlowDemand, SlotAllocator};
use taps::prelude::*;
use taps_bench::history::AgedController;

/// One gate violation, human-readable.
pub struct Failure {
    /// What went wrong (includes the offending k and value).
    pub what: String,
}

/// One per-size summary row for reporting.
pub struct Row {
    /// Fat-tree parameter.
    pub k: u64,
    /// Fast-engine p50 speedup over legacy.
    pub speedup_p50: f64,
    /// Delta-engine p50 speedup over legacy.
    pub speedup_p50_delta: f64,
}

/// Seconds per 1 000 tasks of the two timed flowsim rounds.
pub struct LinearityRow {
    /// At [`LINEARITY_TASKS`]`.0` tasks.
    pub short: f64,
    /// At [`LINEARITY_TASKS`]`.1` tasks.
    pub long: f64,
}

/// Round lengths the linearity gate compares.
pub const LINEARITY_TASKS: (usize, usize) = (1_000, 4_000);

/// Largest allowed growth of seconds-per-1 000-tasks between the two.
pub const LINEARITY_MAX_GROWTH: f64 = 2.0;

/// Best-of-three seconds per 1 000 tasks of one `Taps` round of the
/// `sim_taps_k8` shape (`fat_tree(8)`, Poisson 300 tasks/s, ~16 flows
/// per task, capacity validation on) cut to `tasks` tasks.
fn sim_seconds_per_1000(topo: &Topology, tasks: usize) -> f64 {
    let wl = WorkloadConfig {
        num_tasks: tasks,
        mean_flows_per_task: 16.0,
        sd_flows_per_task: 4.0,
        arrival_rate: 300.0,
        ..WorkloadConfig::paper_multi_rooted(topo.num_hosts(), 1)
    }
    .generate();
    let best = (0..3)
        .map(|_| {
            let start = Instant::now();
            let rep = Simulation::new(topo, &wl, SimConfig::default()).run(&mut Taps::new());
            std::hint::black_box(rep);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    best * 1_000.0 / tasks as f64
}

/// Times the two rounds and checks the gate.
pub fn run_linearity() -> (LinearityRow, Vec<Failure>) {
    let topo = fat_tree(8, GBPS);
    let row = LinearityRow {
        short: sim_seconds_per_1000(&topo, LINEARITY_TASKS.0),
        long: sim_seconds_per_1000(&topo, LINEARITY_TASKS.1),
    };
    let mut failures = Vec::new();
    check_linearity(&row, &mut failures);
    (row, failures)
}

/// The linearity gate itself, separated from the timing for unit testing.
pub fn check_linearity(row: &LinearityRow, failures: &mut Vec<Failure>) {
    if row.long > LINEARITY_MAX_GROWTH * row.short {
        failures.push(Failure {
            what: format!(
                "flowsim: {:.3} s per 1 000 tasks at {} tasks, {:.3} at {} ({:.1}x > {:.1}x): \
                 per-event cost grows with the length of the round",
                row.short,
                LINEARITY_TASKS.0,
                row.long,
                LINEARITY_TASKS.1,
                row.long / row.short,
                LINEARITY_MAX_GROWTH
            ),
        });
    }
}

/// Best-of-five µs per `handle_probe` of the two timed histories.
pub struct HistoryRow {
    /// With no retired flow in the registry.
    pub fresh: f64,
    /// With [`HISTORY_RETIRED`] retired flows in the registry.
    pub aged: f64,
}

/// Retired flows the aged controller of the history gate remembers.
pub const HISTORY_RETIRED: usize = 20_000;

/// Largest allowed ratio of the aged probe time to the fresh one.
pub const HISTORY_MAX_RATIO: f64 = 1.2;

/// Timed probes per sample of the history gate.
const HISTORY_PROBES: u32 = 48;

/// Best-of-five mean µs of one `handle_probe` against the fixture's
/// in-flight set, on a controller remembering `retired` finished flows.
fn probe_us(topo: &Topology, retired: usize) -> f64 {
    (0..5)
        .map(|_| {
            let mut aged = AgedController::new(topo, retired);
            let total: Duration = (0..HISTORY_PROBES).map(|_| aged.probe_and_retire()).sum();
            total.as_secs_f64() * 1e6 / f64::from(HISTORY_PROBES)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Times the two histories and checks the gate.
pub fn run_history() -> (HistoryRow, Vec<Failure>) {
    let topo = fat_tree(16, GBPS);
    let row = HistoryRow {
        fresh: probe_us(&topo, 0),
        aged: probe_us(&topo, HISTORY_RETIRED),
    };
    let mut failures = Vec::new();
    check_history(&row, &mut failures);
    (row, failures)
}

/// The history gate itself, separated from the timing for unit testing.
pub fn check_history(row: &HistoryRow, failures: &mut Vec<Failure>) {
    if row.aged > HISTORY_MAX_RATIO * row.fresh {
        failures.push(Failure {
            what: format!(
                "controller: {:.0} us per probe on a fresh registry, {:.0} us with {} retired \
                 flows ({:.2}x > {:.1}x): probe cost grows with how long the controller has been up",
                row.fresh,
                row.aged,
                HISTORY_RETIRED,
                row.aged / row.fresh,
                HISTORY_MAX_RATIO
            ),
        });
    }
}

/// Best-of-five µs of the cold-lookup gate's batch on the two caches.
pub struct ColdRow {
    /// On an allocator that has never looked a path up.
    pub cold: f64,
    /// On one whose path cache `warm_paths()` filled.
    pub warm: f64,
}

/// Flows (and distinct ToR pairs) in the cold-lookup gate's batch.
pub const COLD_FLOWS: usize = 256;

/// Largest allowed ratio of the cold batch time to the warm one.
pub const COLD_MAX_RATIO: f64 = 8.0;

/// Best-of-five µs of one `allocate_batch` of `demands` on a fresh
/// allocator, after `warm_paths()` when `warm`.
fn batch_us(topo: &Topology, demands: &[FlowDemand], warm: bool) -> f64 {
    (0..5)
        .map(|_| {
            let mut alloc = SlotAllocator::new(topo, 1e-4, 16);
            if warm {
                alloc.warm_paths();
            }
            let start = Instant::now();
            std::hint::black_box(alloc.allocate_batch(demands, 0)).ok();
            start.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// Times the batch on both caches and checks the gate.
pub fn run_cold() -> (ColdRow, Vec<Failure>) {
    let topo = fat_tree(16, GBPS);
    // k = 16: 128 ToRs of 8 hosts. Flow i leaves the first host of ToR
    // i mod 128 (the host `warm_paths` looks pairs up by) for a ToR 17 or
    // 57 racks on, so the 256 ordered ToR pairs are distinct.
    let (tors, per_tor) = (128, 8);
    let demands: Vec<FlowDemand> = (0..COLD_FLOWS)
        .map(|i| {
            let src = i % tors;
            FlowDemand {
                id: i,
                src: src * per_tor,
                dst: (src + 17 + 40 * (i / tors)) % tors * per_tor,
                remaining: 1.0,
                deadline: 1.0,
            }
        })
        .collect();
    let row = ColdRow {
        cold: batch_us(&topo, &demands, false),
        warm: batch_us(&topo, &demands, true),
    };
    let mut failures = Vec::new();
    check_cold(&row, &mut failures);
    (row, failures)
}

/// The cold-lookup gate itself, separated from the timing for unit
/// testing.
pub fn check_cold(row: &ColdRow, failures: &mut Vec<Failure>) {
    if row.cold > COLD_MAX_RATIO * row.warm {
        failures.push(Failure {
            what: format!(
                "path cache: {:.0} us for {} flows on a warm cache, {:.0} us on an empty one \
                 ({:.1}x > {:.1}x): a first lookup between two racks costs more than ranking \
                 its candidates",
                row.warm,
                COLD_FLOWS,
                row.cold,
                row.cold / row.warm,
                COLD_MAX_RATIO
            ),
        });
    }
}

/// Runs `bench_admission` with the smoke configuration — two sizes, a
/// dozen timed arrivals, small window: enough signal for an
/// order-of-magnitude gate, ~seconds of runtime — and parses its report.
fn run_bench(root: &Path, out_dir: &Path) -> Result<serde_json::Value, Failure> {
    let out = out_dir.join("BENCH_admission.json");
    let status = Command::new("cargo")
        .current_dir(root)
        .args([
            "run",
            "--release",
            "-p",
            "taps-bench",
            "--bin",
            "bench_admission",
            "--",
            "--ks",
            "8,16",
            "--arrivals",
            "12",
            "--window",
            "6",
            "--flows",
            "4",
        ])
        .arg("--out")
        .arg(&out)
        .arg("--metrics-out")
        .arg(out_dir.join("METRICS_admission.json"))
        .status();
    match status {
        Ok(s) if s.success() => {}
        Ok(s) => {
            return Err(Failure {
                what: format!("bench_admission exited with {s} (schedule divergence aborts)"),
            });
        }
        Err(e) => {
            return Err(Failure {
                what: format!("cannot spawn cargo: {e}"),
            });
        }
    }
    let text = std::fs::read_to_string(&out).map_err(|e| Failure {
        what: format!("cannot read {}: {e}", out.display()),
    })?;
    serde_json::from_str(&text).map_err(|e| Failure {
        what: format!("cannot parse {}: {e:?}", out.display()),
    })
}

/// Runs the smoke benchmark in `root` and checks the gate. Returns the
/// summary rows and every violation (empty = green).
pub fn run(root: &Path) -> (Vec<Row>, Vec<Failure>) {
    let mut failures = Vec::new();
    let out_dir = root.join("target").join("bench-smoke");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        return (
            Vec::new(),
            vec![Failure {
                what: format!("cannot create {}: {e}", out_dir.display()),
            }],
        );
    }
    let doc = match run_bench(root, &out_dir) {
        Ok(doc) => doc,
        Err(f) => return (Vec::new(), vec![f]),
    };
    let rows = check(&doc, &mut failures);
    if rows.is_empty() {
        failures.push(Failure {
            what: "bench report contains no result rows".into(),
        });
    }
    (rows, failures)
}

/// The gate itself, separated from process plumbing for unit testing:
/// every result row must report `speedup_p50 >= 1.0` for both engines
/// and `schedules_identical: true`.
pub fn check(doc: &serde_json::Value, failures: &mut Vec<Failure>) -> Vec<Row> {
    let mut rows = Vec::new();
    let results = doc.get("results").and_then(|r| r.as_array()).unwrap_or(&[]);
    for row in results {
        let k = row.get("k").and_then(|v| v.as_u64()).unwrap_or(0);
        let mut speedup = |field: &str| -> f64 {
            match row.get(field).and_then(|v| v.as_f64()) {
                Some(s) => {
                    if s < 1.0 {
                        failures.push(Failure {
                            what: format!("k={k}: {field} {s:.2} < 1.0 (hot path regressed)"),
                        });
                    }
                    s
                }
                None => {
                    failures.push(Failure {
                        what: format!("k={k}: missing {field}"),
                    });
                    0.0
                }
            }
        };
        let speedup_p50 = speedup("speedup_p50");
        let speedup_p50_delta = speedup("speedup_p50_delta");
        if row.get("schedules_identical").and_then(|v| v.as_bool()) != Some(true) {
            failures.push(Failure {
                what: format!("k={k}: schedules_identical is not true"),
            });
        }
        rows.push(Row {
            k,
            speedup_p50,
            speedup_p50_delta,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(speedup: f64, delta: f64, identical: bool) -> serde_json::Value {
        serde_json::Value::Object(vec![(
            "results".into(),
            serde_json::Value::Array(vec![serde_json::Value::Object(vec![
                ("k".into(), serde_json::Value::UInt(8)),
                ("speedup_p50".into(), serde_json::Value::Float(speedup)),
                ("speedup_p50_delta".into(), serde_json::Value::Float(delta)),
                (
                    "schedules_identical".into(),
                    serde_json::Value::Bool(identical),
                ),
            ])]),
        )])
    }

    #[test]
    fn healthy_report_passes() {
        let mut failures = Vec::new();
        let rows = check(&doc(3.2, 12.5, true), &mut failures);
        assert_eq!(rows.len(), 1);
        assert!(failures.is_empty(), "{}", failures[0].what);
    }

    #[test]
    fn regressed_fast_path_fails() {
        let mut failures = Vec::new();
        check(&doc(0.30, 12.5, true), &mut failures);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].what.contains("speedup_p50 0.30"));
    }

    #[test]
    fn regressed_delta_path_fails() {
        let mut failures = Vec::new();
        check(&doc(3.2, 0.9, true), &mut failures);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].what.contains("speedup_p50_delta"));
    }

    #[test]
    fn diverged_schedule_fails() {
        let mut failures = Vec::new();
        check(&doc(3.2, 12.5, false), &mut failures);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].what.contains("schedules_identical"));
    }

    #[test]
    fn missing_rows_or_fields_fail() {
        let mut failures = Vec::new();
        let rows = check(&serde_json::Value::Object(Vec::new()), &mut failures);
        assert!(rows.is_empty());
    }

    #[test]
    fn flat_or_shrinking_cost_per_task_passes_linearity() {
        let mut failures = Vec::new();
        for (short, long) in [(0.18, 0.14), (0.10, 0.19)] {
            check_linearity(&LinearityRow { short, long }, &mut failures);
        }
        assert!(failures.is_empty(), "{}", failures[0].what);
    }

    #[test]
    fn growing_cost_per_task_fails_linearity() {
        let mut failures = Vec::new();
        // The full-array-scan engine: 0.39 s -> 5.86 s per 1 000 tasks.
        check_linearity(
            &LinearityRow {
                short: 0.39,
                long: 5.86,
            },
            &mut failures,
        );
        assert_eq!(failures.len(), 1);
        assert!(failures[0].what.contains("15.0x > 2.0x"));
    }

    #[test]
    fn flat_probe_cost_passes_the_history_gate() {
        let mut failures = Vec::new();
        for (fresh, aged) in [(131.0, 134.0), (140.0, 128.0), (100.0, 120.0)] {
            check_history(&HistoryRow { fresh, aged }, &mut failures);
        }
        assert!(failures.is_empty(), "{}", failures[0].what);
    }

    #[test]
    fn probe_cost_following_the_registry_fails_the_history_gate() {
        let mut failures = Vec::new();
        // The registry walk and lookup-sort: 207 us -> 577 us per probe.
        check_history(
            &HistoryRow {
                fresh: 207.0,
                aged: 577.0,
            },
            &mut failures,
        );
        assert_eq!(failures.len(), 1);
        assert!(failures[0].what.contains("2.79x > 1.2x"));
    }

    #[test]
    fn a_cheap_cold_lookup_passes_the_cold_gate() {
        let mut failures = Vec::new();
        for (warm, cold) in [(295.0, 1150.0), (540.0, 1420.0), (600.0, 580.0)] {
            check_cold(&ColdRow { cold, warm }, &mut failures);
        }
        assert!(failures.is_empty(), "{}", failures[0].what);
    }

    #[test]
    fn a_graph_walk_per_miss_fails_the_cold_gate() {
        let mut failures = Vec::new();
        // A ninefold batch; the per-ToR-pair graph walk read 12 300 us
        // against 620 us warm (20x).
        check_cold(
            &ColdRow {
                cold: 5_400.0,
                warm: 600.0,
            },
            &mut failures,
        );
        assert_eq!(failures.len(), 1);
        assert!(failures[0].what.contains("9.0x > 8.0x"));
    }
}
