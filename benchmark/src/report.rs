//! Output: the one-line result the driver reads, the human table,
//! `results.json`, and the repeatability report.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use serde_json::{Deserialize, Error, Serialize, Value};

use crate::ladder::{self, TracedSummary};
use crate::run::{self, Env, RunSummary};
use crate::spec::{Kind, WorkloadSpec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{iqr_share, median, quartiles};

fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metric_obj<S: AsRef<str>>(metrics: &[(S, S, f64)]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(name, unit, value)| {
                (
                    name.as_ref().to_string(),
                    obj(vec![
                        ("value", Value::Float(*value)),
                        ("unit", Value::Str(unit.as_ref().to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let doc = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(attempted)),
        ("failed", Value::UInt(failed)),
        ("metrics", metric_obj(metrics)),
    ]);
    serde_json::to_string(&doc).expect("a Value always serializes")
}

fn end_to_end_of(s: &RunSummary) -> Vec<(&'static str, &'static str, f64)> {
    END_TO_END
        .iter()
        .zip(s.metric_values())
        .map(|(&(n, u), v)| (n, u, v))
        .collect()
}

fn per_layer_of(t: &TracedSummary) -> Vec<(&'static str, &'static str, f64)> {
    PER_LAYER
        .iter()
        .zip(&t.metrics)
        .map(|(&(n, u), &(_, v))| (n, u, v))
        .collect()
}

fn print_untraced(s: &RunSummary) {
    println!(
        "== {} (seed {}, tracing off): {} rounds, {} decisions in {} windows, {} failed{}",
        s.workload,
        s.seed,
        s.rounds,
        s.samples,
        s.windows,
        s.failed,
        if s.invalid_rounds > 0 {
            format!(", {} rounds discarded for generator lag", s.invalid_rounds)
        } else {
            String::new()
        }
    );
    for (name, unit, value) in end_to_end_of(s) {
        println!("  {name:<24} {value:>14.6} {unit}");
    }
    println!(
        "  {:<24} {:>14.6} ratio",
        "failed_ops_ratio", s.failed_ops_ratio
    );
    println!(
        "  {:<24} {:>14.6} ms   (p{} of all samples pooled — the highest with ten beyond it)",
        "decision_tail_ms",
        s.tail.1,
        s.tail.0 * 100.0
    );
    for (i, (p50, p99, dps, cpu, ok)) in s.per_round.iter().enumerate() {
        println!(
            "  round {i}: p50 {p50:.4} ms, p99 {p99:.4} ms, {dps:.2} decisions/s, \
             {cpu:.4} CPU ms/decision, success {ok:.4}"
        );
    }
    if let Some(same) = s.replay_identical {
        println!("  replayed round reproduced its digest: {same}");
    }
    for v in &s.violations {
        println!("  CHECK FAILED: {v}");
    }
}

fn print_traced(t: &TracedSummary) {
    println!(
        "== {} (seed {}, traced ladder): {} operations, {} failed",
        t.workload, t.seed, t.attempted, t.failed
    );
    for (name, unit, value) in per_layer_of(t) {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    for v in &t.violations {
        println!("  CHECK FAILED: {v}");
    }
}

/// One workload, one mode, as the driver calls it. The result line is
/// the last line of standard output. Returns whether a result was
/// produced (its `correct` field carries the verdict).
pub fn one(
    spec: &WorkloadSpec,
    env: &Env,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<bool, String> {
    if traced {
        let t = ladder::run_traced(spec, env, seed)?;
        print_traced(&t);
        println!(
            "{}",
            result_line(t.correct(), t.attempted, t.failed, &per_layer_of(&t))
        );
    } else {
        let s = run::run(spec, env, seed, seconds)?;
        print_untraced(&s);
        println!(
            "{}",
            result_line(s.correct(), s.attempted, s.failed, &end_to_end_of(&s))
        );
    }
    Ok(true)
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One workload's entry in `results.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Whether both runs passed every check.
    pub correct: bool,
    /// Rounds, samples, attempted, failed of the untraced run.
    pub rounds: u64,
    /// Latency samples pooled.
    pub samples: u64,
    /// Tasks submitted.
    pub attempted: u64,
    /// Failed operations (both runs).
    pub failed: u64,
    /// Round digests of the untraced run.
    pub digests: Vec<u64>,
    /// `(name, unit, value)` of the end-to-end metrics.
    pub end_to_end: Vec<(String, String, f64)>,
    /// `(name, unit, value)` of the per-layer metrics.
    pub per_layer: Vec<(String, String, f64)>,
}

/// The whole `results.json` document.
#[derive(Clone, Debug, PartialEq)]
pub struct Results {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Logical CPUs of the machine.
    pub nproc: u64,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// One entry per workload.
    pub workloads: Vec<WorkloadResult>,
}

fn metrics_from_value(v: &Value) -> Result<Vec<(String, String, f64)>, Error> {
    let Value::Object(members) = v else {
        return Err(Error::msg("metrics: expected an object"));
    };
    members
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| Error::msg("metric without a value"))?;
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .ok_or_else(|| Error::msg("metric without a unit"))?;
            Ok((name.clone(), unit.to_string(), value))
        })
        .collect()
}

fn field<T: Deserialize>(v: &Value, key: &str) -> Result<T, Error> {
    v.get(key)
        .ok_or_else(|| Error::msg(format!("missing field `{key}`")))
        .and_then(T::from_value)
}

impl Serialize for WorkloadResult {
    fn to_value(&self) -> Value {
        obj(vec![
            ("name", self.name.to_value()),
            ("correct", self.correct.to_value()),
            ("rounds", self.rounds.to_value()),
            ("samples", self.samples.to_value()),
            ("attempted", self.attempted.to_value()),
            ("failed", self.failed.to_value()),
            ("digests", self.digests.to_value()),
            ("end_to_end", metric_obj(&self.end_to_end)),
            ("per_layer", metric_obj(&self.per_layer)),
        ])
    }
}

impl Deserialize for WorkloadResult {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(WorkloadResult {
            name: field(v, "name")?,
            correct: field(v, "correct")?,
            rounds: field(v, "rounds")?,
            samples: field(v, "samples")?,
            attempted: field(v, "attempted")?,
            failed: field(v, "failed")?,
            digests: field(v, "digests")?,
            end_to_end: metrics_from_value(v.get("end_to_end").unwrap_or(&Value::Null))?,
            per_layer: metrics_from_value(v.get("per_layer").unwrap_or(&Value::Null))?,
        })
    }
}

impl Serialize for Results {
    fn to_value(&self) -> Value {
        obj(vec![
            ("seed", self.seed.to_value()),
            ("seconds", self.seconds.to_value()),
            ("nproc", self.nproc.to_value()),
            ("rustc", self.rustc.to_value()),
            ("commit", self.commit.to_value()),
            ("workloads", self.workloads.to_value()),
        ])
    }
}

impl Deserialize for Results {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Results {
            seed: field(v, "seed")?,
            seconds: field(v, "seconds")?,
            nproc: field(v, "nproc")?,
            rustc: field(v, "rustc")?,
            commit: field(v, "commit")?,
            workloads: field(v, "workloads")?,
        })
    }
}

fn owned(m: Vec<(&str, &str, f64)>) -> Vec<(String, String, f64)> {
    m.into_iter()
        .map(|(n, u, v)| (n.to_string(), u.to_string(), v))
        .collect()
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every workload with tracing off, then every workload's traced
/// ladder; prints every metric and writes `results.json`. Returns whether every check passed.
pub fn all(env: &Env, seed: u64, seconds: f64) -> Result<bool, String> {
    let mut results = Results {
        seed,
        seconds,
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        rustc: tool_line("rustc", &["--version"]),
        commit: tool_line("git", &["rev-parse", "HEAD"]),
        workloads: Vec::new(),
    };
    println!(
        "taps-e2e-bench: seed {seed}, {seconds} s per run, nproc {}, {}, commit {}",
        results.nproc, results.rustc, results.commit
    );
    // Every untraced run comes before the first traced one: the ladders
    // hold spans and a 25 MB trace ring, and the in-process workloads
    // report this process's own peak resident set.
    let mut untraced = Vec::with_capacity(WORKLOADS.len());
    for spec in &WORKLOADS {
        let s = run::run(spec, env, seed, seconds)?;
        print_untraced(&s);
        untraced.push(s);
    }
    for (spec, s) in WORKLOADS.iter().zip(untraced) {
        let t = ladder::run_traced(spec, env, seed)?;
        print_traced(&t);
        results.workloads.push(WorkloadResult {
            name: spec.name.to_string(),
            correct: s.correct() && t.correct(),
            rounds: s.rounds as u64,
            samples: s.samples as u64,
            attempted: s.attempted,
            failed: s.failed + t.failed,
            digests: s.digests.clone(),
            end_to_end: {
                let mut m = owned(end_to_end_of(&s));
                m.push((
                    "failed_ops_ratio".into(),
                    "ratio".into(),
                    s.failed_ops_ratio,
                ));
                m
            },
            per_layer: owned(per_layer_of(&t)),
        });
    }
    let path = env.out_dir.join("results.json");
    let text = serde_json::to_string_pretty(&results).expect("a Value always serializes");
    write_file(&path, &(text + "\n"))?;
    let ok = results.workloads.iter().all(|w| w.correct);
    println!(
        "wrote {} — {}",
        path.display(),
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(ok)
}

/// Regression bounds of the end-to-end metrics, as `BENCHMARK.json`
/// fixes them (share of the median).
pub const BOUNDS: [(&str, f64); 7] = [
    ("decision_p50_ms", 0.25),
    ("decision_p99_ms", 0.25),
    ("decisions_per_s", 0.25),
    ("cpu_ms_per_decision", 0.25),
    ("task_success_ratio", 0.10),
    ("peak_rss_mb", 0.15),
    ("setup_s", 0.25),
];

/// Whether a larger value of the metric is the better one.
pub fn higher_is_better(metric: &str) -> bool {
    matches!(metric, "decisions_per_s" | "task_success_ratio")
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(metric: &str, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    let rel = (second - first) / first.abs();
    if higher_is_better(metric) {
        -rel
    } else {
        rel
    }
}

/// Two sets of `n` untraced runs of every workload on the same seed;
/// prints, as markdown (`repeat.sh` keeps it as `repeatability.md`), median, quartiles and the
/// gap between the two sets' medians per metric × workload. Fails when
/// a gap or a within-set spread exceeds the metric's bound.
pub fn repeat(env: &Env, n: usize, seed: u64, seconds: f64) -> Result<bool, String> {
    if n < 2 {
        return Err("repeat needs at least 2 runs per set".into());
    }
    let mut md = String::new();
    let _ = writeln!(
        md,
        "# Repeatability — two sets of {n} runs, seed {seed}, {seconds} s per run\n\n\
         nproc {}, {}, commit {}\n\n\
         `gap` is how much worse the second set's median is than the first's; `spread` is the\n\
         larger of the two sets' interquartile ranges; both as a share of the median, against\n\
         the metric's bound in `BENCHMARK.json`.\n",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "HEAD"]),
    );
    let mut ok = true;
    for spec in &WORKLOADS {
        // Interleave the two sets so drift hits both alike.
        let mut sets: [Vec<RunSummary>; 2] = [Vec::new(), Vec::new()];
        for i in 0..2 * n {
            let s = run::run(spec, env, seed, seconds)?;
            if !s.correct() {
                ok = false;
                eprintln!(
                    "{}: run {i} failed its checks: {:?}",
                    spec.name, s.violations
                );
            }
            sets[i % 2].push(s);
        }
        let _ = writeln!(
            md,
            "## {}\n\n| metric | set A median [q1, q3] | set B median [q1, q3] | gap | spread | bound | |\n|---|---|---|---|---|---|---|",
            spec.name
        );
        for (mi, &(name, bound)) in BOUNDS.iter().enumerate() {
            let col = |set: &Vec<RunSummary>| -> Vec<f64> {
                set.iter().map(|s| s.metric_values()[mi]).collect()
            };
            let (a, b) = (col(&sets[0]), col(&sets[1]));
            let (ma, mb) = (median(&a), median(&b));
            let (qa, qb) = (quartiles(&a), quartiles(&b));
            let gap = worsening(name, ma, mb);
            let spread = iqr_share(&a).max(iqr_share(&b));
            // Set-up time is exempt from the spread rule, as in the
            // driver's acceptance test.
            let pass = gap <= bound && (name == "setup_s" || spread <= bound);
            ok &= pass;
            let _ = writeln!(
                md,
                "| {name} | {ma:.5} [{:.5}, {:.5}] | {mb:.5} [{:.5}, {:.5}] | {:+.2} % | {:.2} % | {:.0} % | {} |",
                qa[0],
                qa[2],
                qb[0],
                qb[2],
                gap * 100.0,
                spread * 100.0,
                bound * 100.0,
                if pass { "ok" } else { "EXCEEDED" }
            );
        }
        if spec.kind != Kind::Uds {
            // Runs differ in how many rounds the clock allowed; the
            // rounds they share must agree.
            let first = &sets[0][0].digests;
            let digests_equal = sets.iter().flatten().all(|s| {
                let n = s.digests.len().min(first.len());
                s.digests[..n] == first[..n]
            });
            let _ = writeln!(
                md,
                "\nround digests identical across all {} runs: {digests_equal}",
                2 * n
            );
            ok &= digests_equal;
        }
        let _ = writeln!(md);
    }
    print!("{md}");
    Ok(ok)
}

/// One untraced run of every workload on each of `n` consecutive seeds
/// — the benchmark driver's own acceptance test: the interquartile
/// spread of each end-to-end metric over the seeds, as a share of the
/// median, must stay within the metric's bound (`setup_s` is exempt).
/// Prints markdown; `repeat.sh` appends it to `repeatability.md`.
pub fn spread(env: &Env, n: usize, seed: u64, seconds: f64) -> Result<bool, String> {
    if n < 2 {
        return Err("spread needs at least 2 seeds".into());
    }
    let mut md = String::new();
    let _ = writeln!(
        md,
        "# Spread over seeds — one run on each of seeds {seed}..{}, {seconds} s per run\n",
        seed + n as u64 - 1
    );
    let mut ok = true;
    for spec in &WORKLOADS {
        let mut runs = Vec::with_capacity(n);
        for s in seed..seed + n as u64 {
            let r = run::run(spec, env, s, seconds)?;
            if !r.correct() {
                ok = false;
                eprintln!(
                    "{}: seed {s} failed its checks: {:?}",
                    spec.name, r.violations
                );
            }
            runs.push(r);
        }
        let _ = writeln!(
            md,
            "## {}\n\n| metric | median [q1, q3] | spread | bound | |\n|---|---|---|---|---|",
            spec.name
        );
        for (mi, &(name, bound)) in BOUNDS.iter().enumerate() {
            let col: Vec<f64> = runs.iter().map(|s| s.metric_values()[mi]).collect();
            let q = quartiles(&col);
            let share = iqr_share(&col);
            let pass = name == "setup_s" || share <= bound;
            ok &= pass;
            let _ = writeln!(
                md,
                "| {name} | {:.5} [{:.5}, {:.5}] | {:.2} % | {:.0} % | {} |",
                q[1],
                q[0],
                q[2],
                share * 100.0,
                bound * 100.0,
                if pass { "ok" } else { "EXCEEDED" }
            );
        }
        let _ = writeln!(md);
    }
    print!("{md}");
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, &[("a_ms", "ms", 1.25), ("b", "count", 3.0)]);
        let v: Value = serde_json::from_str(&line).unwrap();
        let Value::Object(members) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(10));
        let a = v.get("metrics").and_then(|m| m.get("a_ms")).unwrap();
        assert_eq!(a.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(a.get("unit").and_then(Value::as_str), Some("ms"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn results_json_round_trips() {
        let r = Results {
            seed: 7,
            seconds: 20.0,
            nproc: 2,
            rustc: "rustc 1.95.0".into(),
            commit: "abc123".into(),
            workloads: vec![WorkloadResult {
                name: "uds_steady".into(),
                correct: true,
                rounds: 4,
                samples: 6000,
                attempted: 6000,
                failed: 0,
                digests: vec![1, u64::MAX],
                end_to_end: vec![("decision_p50_ms".into(), "ms".into(), 2.4512)],
                per_layer: vec![
                    ("sdn.probe_us_p50".into(), "us".into(), 301.5),
                    ("service.duplicate_submits".into(), "count".into(), 0.0),
                ],
            }],
        };
        let text = serde_json::to_string_pretty(&r).unwrap();
        let back: Results = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening("decision_p50_ms", 2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((worsening("decisions_per_s", 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worsening("decisions_per_s", 100.0, 110.0) < 0.0);
        assert_eq!(worsening("x", 0.0, 1.0), 0.0);
    }

    #[test]
    fn bounds_cover_every_end_to_end_metric() {
        let names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        let bounded: Vec<&str> = BOUNDS.iter().map(|b| b.0).collect();
        assert_eq!(names, bounded);
    }
}
