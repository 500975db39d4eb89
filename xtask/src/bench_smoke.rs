//! `cargo xtask bench-smoke` — two wall-clock regression gates, for the
//! two properties no Tier-1 count checks yet. (Flowsim linearity and
//! controller history independence are counted in
//! `tests/flowsim_linear.rs` and `tests/controller_history.rs`.)
//!
//! First, the admission gate ([`run`]): runs `bench_admission` once with
//! a tiny configuration (fat-tree k = 8 and 16, [`KS`]) in release mode
//! and fails unless its report holds exactly one row per requested size,
//! if the engine's full or delta pass is *slower* than the paper-naive
//! reference (`speedup_p50 < 1.0`) at either size, or if any run's
//! schedule diverged from the reference schedule. The thresholds are
//! deliberately loose — real speedups are an order of magnitude, so
//! 1.0x only trips on a genuine hot-path regression (the PR 5 obs
//! regression was 0.30x), never on CI machine noise.
//!
//! Second, the cold-lookup gate ([`run_cold`]): one `allocate_batch` of
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
use std::time::Instant;

use taps::core::{FlowDemand, SlotAllocator};
use taps::prelude::*;

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

/// Fat-tree sizes the admission gate asks `bench_admission` for; its
/// report must hold exactly one row for each.
pub const KS: [u64; 2] = [8, 16];

/// Runs `bench_admission` with the smoke configuration — the [`KS`]
/// sizes, a dozen timed arrivals, small window: enough signal for an
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
            KS.map(|k| k.to_string()).join(",").as_str(),
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
    let rows = check(&doc, &KS, &mut failures);
    (rows, failures)
}

/// The gate itself, separated from process plumbing for unit testing:
/// the report must hold exactly one row per requested size in `ks`, and
/// every row must report `speedup_p50 >= 1.0` for both engines and
/// `schedules_identical: true`.
pub fn check(doc: &serde_json::Value, ks: &[u64], failures: &mut Vec<Failure>) -> Vec<Row> {
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
    for &k in ks {
        let n = rows.iter().filter(|r| r.k == k).count();
        if n != 1 {
            failures.push(Failure {
                what: format!("k={k}: the report has {n} rows for a requested size, not 1"),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(k: u64, speedup: f64, delta: f64, identical: bool) -> serde_json::Value {
        serde_json::Value::Object(vec![
            ("k".into(), serde_json::Value::UInt(k)),
            ("speedup_p50".into(), serde_json::Value::Float(speedup)),
            ("speedup_p50_delta".into(), serde_json::Value::Float(delta)),
            (
                "schedules_identical".into(),
                serde_json::Value::Bool(identical),
            ),
        ])
    }

    fn doc(rows: Vec<serde_json::Value>) -> serde_json::Value {
        serde_json::Value::Object(vec![("results".into(), serde_json::Value::Array(rows))])
    }

    fn one(speedup: f64, delta: f64, identical: bool) -> serde_json::Value {
        doc(vec![row(8, speedup, delta, identical)])
    }

    #[test]
    fn healthy_report_passes() {
        let mut failures = Vec::new();
        let healthy = doc(KS.iter().map(|&k| row(k, 3.2, 12.5, true)).collect());
        let rows = check(&healthy, &KS, &mut failures);
        assert_eq!(rows.len(), KS.len());
        assert!(failures.is_empty(), "{}", failures[0].what);
    }

    #[test]
    fn regressed_fast_path_fails() {
        let mut failures = Vec::new();
        check(&one(0.30, 12.5, true), &[8], &mut failures);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].what.contains("speedup_p50 0.30"));
    }

    #[test]
    fn regressed_delta_path_fails() {
        let mut failures = Vec::new();
        check(&one(3.2, 0.9, true), &[8], &mut failures);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].what.contains("speedup_p50_delta"));
    }

    #[test]
    fn diverged_schedule_fails() {
        let mut failures = Vec::new();
        check(&one(3.2, 12.5, false), &[8], &mut failures);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].what.contains("schedules_identical"));
    }

    #[test]
    fn missing_rows_fail() {
        let mut failures = Vec::new();
        let rows = check(&serde_json::Value::Object(Vec::new()), &KS, &mut failures);
        assert!(rows.is_empty());
        assert_eq!(failures.len(), KS.len());
    }

    #[test]
    fn a_report_without_the_k16_row_fails() {
        let mut failures = Vec::new();
        check(&one(3.2, 12.5, true), &[8, 16], &mut failures);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].what.contains("k=16: the report has 0 rows"));
    }

    #[test]
    fn a_duplicated_row_fails() {
        let mut failures = Vec::new();
        let twice = doc(vec![row(8, 3.2, 12.5, true), row(8, 3.2, 12.5, true)]);
        check(&twice, &[8], &mut failures);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].what.contains("k=8: the report has 2 rows"));
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
