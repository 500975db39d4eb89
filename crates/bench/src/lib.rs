//! Shared experiment harness for the figure-regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one figure of the paper's
//! evaluation (§V–§VI); this library provides the pieces they share:
//! scheduler construction, the default scaled-down topology/workload
//! presets (see DESIGN.md for the scaling argument), a parallel sweep
//! runner, and plain-text/JSON output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use taps_baselines::{Baraat, D2tcp, FairSharing, Pdq, Varys, D3};
use taps_core::{RejectPolicy, Taps, TapsConfig};
use taps_flowsim::{Scheduler, SimConfig, SimReport, Simulation, Workload};
use taps_topology::build::{fat_tree, single_rooted, GBPS};
use taps_topology::Topology;
use taps_workload::WorkloadConfig;

/// The six schedulers of §V, in the paper's plotting order.
pub const SCHEDULER_NAMES: [&str; 6] = ["FairSharing", "D3", "PDQ", "Baraat", "Varys", "TAPS"];

/// Builds a fresh scheduler by name. Panics on unknown names.
pub fn make_scheduler(name: &str) -> Box<dyn Scheduler + Send> {
    match name {
        "FairSharing" => Box::new(FairSharing::new()),
        "D3" => Box::new(D3::new()),
        "PDQ" => Box::new(Pdq::new()),
        "Baraat" => Box::new(Baraat::new()),
        "Varys" => Box::new(Varys::new()),
        "TAPS" => Box::new(Taps::new()),
        "D2TCP" => Box::new(D2tcp::new()),
        other => panic!("unknown scheduler {other}"),
    }
}

/// Builds a TAPS instance with a specific reject policy (ablations).
pub fn make_taps(policy: RejectPolicy, max_paths: usize, slot: f64) -> Box<dyn Scheduler + Send> {
    Box::new(Taps::with_config(TapsConfig {
        slot,
        max_candidate_paths: max_paths,
        policy,
        ..TapsConfig::default()
    }))
}

/// Experiment scale: how large the topology (and proportionally the
/// per-task flow count) is relative to the paper's full setup.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scale {
    /// CI-size: `single_rooted(3,3,4)` / `fat_tree(4)`; flows ÷ 100.
    Tiny,
    /// Default: `single_rooted(6,6,6)` / `fat_tree(8)`; flows scaled so
    /// the per-core-link load per task matches the paper (≈ 40 flows per
    /// pod uplink per task).
    Small,
    /// The paper's full scale: `single_rooted(30,30,40)` / `fat_tree(32)`.
    Paper,
}

impl std::str::FromStr for Scale {
    type Err = ();

    /// Parses `tiny` / `small` / `paper`.
    fn from_str(s: &str) -> Result<Scale, ()> {
        match s {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "paper" => Ok(Scale::Paper),
            _ => Err(()),
        }
    }
}

impl Scale {
    /// The single-rooted tree of Fig. 5 at this scale.
    pub fn single_rooted_topo(self) -> Topology {
        match self {
            Scale::Tiny => single_rooted(3, 3, 4, GBPS),
            Scale::Small => single_rooted(6, 6, 6, GBPS),
            Scale::Paper => single_rooted(30, 30, 40, GBPS),
        }
    }

    /// The multi-rooted fat-tree at this scale.
    pub fn fat_tree_topo(self) -> Topology {
        match self {
            Scale::Tiny => fat_tree(4, GBPS),
            Scale::Small => fat_tree(8, GBPS),
            Scale::Paper => fat_tree(32, GBPS),
        }
    }

    /// Mean flows per task preserving the paper's per-pod-uplink load
    /// (≈ 40 flows × pods for the single-rooted tree).
    pub fn single_rooted_flows_per_task(self) -> f64 {
        match self {
            Scale::Tiny => 12.0,
            Scale::Small => 240.0,
            Scale::Paper => 1200.0,
        }
    }

    /// Mean flows per task for the fat-tree runs (paper: 1024).
    pub fn fat_tree_flows_per_task(self) -> f64 {
        match self {
            Scale::Tiny => 16.0,
            Scale::Small => 128.0,
            Scale::Paper => 1024.0,
        }
    }
}

/// Workload preset mirroring §V-A at a given scale (single-rooted).
pub fn workload_single_rooted(scale: Scale, topo: &Topology, seed: u64) -> WorkloadConfig {
    let mut cfg = WorkloadConfig::paper_single_rooted(topo.num_hosts(), seed);
    let flows = scale.single_rooted_flows_per_task();
    cfg.sd_flows_per_task = flows / 4.0;
    cfg.mean_flows_per_task = flows;
    cfg
}

/// Workload preset mirroring §V-A at a given scale (fat-tree).
pub fn workload_fat_tree(scale: Scale, topo: &Topology, seed: u64) -> WorkloadConfig {
    let mut cfg = WorkloadConfig::paper_multi_rooted(topo.num_hosts(), seed);
    let flows = scale.fat_tree_flows_per_task();
    cfg.sd_flows_per_task = flows / 4.0;
    cfg.mean_flows_per_task = flows;
    cfg
}

/// One scheduler's metrics at one sweep point (serializable row).
#[derive(Clone, Debug)]
pub struct Row {
    /// Sweep x-value (e.g. mean deadline in ms).
    pub x: f64,
    /// Scheduler name.
    pub scheduler: String,
    /// Task completion ratio.
    pub task_completion: f64,
    /// Flow completion ratio.
    pub flow_completion: f64,
    /// Application throughput, flow granularity (bytes of on-time flows
    /// / total bytes).
    pub app_throughput: f64,
    /// Application throughput, task granularity (bytes of flows in fully
    /// completed tasks / total bytes) — the paper's Fig. 6(a)/9(a)
    /// "task size ratio".
    pub app_task_throughput: f64,
    /// Wasted bandwidth ratio (flow granularity, Fig. 8).
    pub wasted_bandwidth: f64,
    /// Wasted bandwidth ratio (task granularity).
    pub wasted_bandwidth_task: f64,
    /// Seeds averaged.
    pub seeds: usize,
}

impl serde_json::Serialize for Row {
    fn to_value(&self) -> serde_json::Value {
        serde_json::Value::Object(vec![
            ("x".into(), self.x.to_value()),
            ("scheduler".into(), self.scheduler.to_value()),
            ("task_completion".into(), self.task_completion.to_value()),
            ("flow_completion".into(), self.flow_completion.to_value()),
            ("app_throughput".into(), self.app_throughput.to_value()),
            (
                "app_task_throughput".into(),
                self.app_task_throughput.to_value(),
            ),
            ("wasted_bandwidth".into(), self.wasted_bandwidth.to_value()),
            (
                "wasted_bandwidth_task".into(),
                self.wasted_bandwidth_task.to_value(),
            ),
            ("seeds".into(), self.seeds.to_value()),
        ])
    }
}

/// Runs one `(topology, workload)` point under one scheduler.
pub fn run_one(topo: &Topology, wl: &Workload, name: &str) -> SimReport {
    let mut sched = make_scheduler(name);
    let cfg = SimConfig {
        validate_capacity: false, // sweeps are hot paths; invariants are covered by tests
        ..SimConfig::default()
    };
    Simulation::new(topo, wl, cfg).run(sched.as_mut())
}

/// Runs all six schedulers at one point, each over `seeds` workloads
/// produced by `gen(seed)`, and returns the seed-averaged rows.
/// Scheduler×seed combinations run in parallel (crossbeam scoped
/// threads).
pub fn run_point<F>(topo: &Topology, x: f64, seeds: usize, gen: F) -> Vec<Row>
where
    F: Fn(u64) -> Workload + Sync,
{
    let workloads: Vec<Workload> = (0..seeds as u64).map(&gen).collect();
    let mut jobs: Vec<(usize, usize)> = Vec::new(); // (scheduler idx, seed idx)
    for s in 0..SCHEDULER_NAMES.len() {
        for w in 0..workloads.len() {
            jobs.push((s, w));
        }
    }
    let results: Vec<(usize, SimReport)> = run_jobs(&jobs, |(s, w)| {
        (*s, run_one(topo, &workloads[*w], SCHEDULER_NAMES[*s]))
    });

    SCHEDULER_NAMES
        .iter()
        .enumerate()
        .map(|(s, name)| {
            let mine: Vec<&SimReport> = results
                .iter()
                .filter(|(si, _)| *si == s)
                .map(|(_, r)| r)
                .collect();
            let n = mine.len() as f64;
            let avg = |f: &dyn Fn(&SimReport) -> f64| mine.iter().map(|r| f(r)).sum::<f64>() / n;
            Row {
                x,
                scheduler: name.to_string(),
                task_completion: avg(&|r| r.task_completion_ratio()),
                flow_completion: avg(&|r| r.flow_completion_ratio()),
                app_throughput: avg(&|r| r.app_throughput()),
                app_task_throughput: avg(&|r| r.app_task_throughput()),
                wasted_bandwidth: avg(&|r| r.wasted_bandwidth_ratio()),
                wasted_bandwidth_task: avg(&|r| r.wasted_bandwidth_task_ratio()),
                seeds,
            }
        })
        .collect()
}

/// Runs `jobs` across `min(jobs, cores)` scoped threads, preserving
/// nothing about order (results carry their own keys).
pub fn run_jobs<J, R, F>(jobs: &[J], f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(jobs.len().max(1));
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let r = f(&jobs[i]);
                results.lock().expect("worker thread panicked").push(r);
            });
        }
    });
    results.into_inner().expect("worker thread panicked")
}

/// Prints a figure-style table: one row per x-value, one column per
/// scheduler, cells from `metric`.
pub fn print_table(title: &str, x_label: &str, rows: &[Row], metric: fn(&Row) -> f64) {
    println!("\n## {title}");
    print!("{x_label:>12}");
    for name in SCHEDULER_NAMES {
        print!("{name:>13}");
    }
    println!();
    let mut xs: Vec<f64> = rows.iter().map(|r| r.x).collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup();
    for x in xs {
        print!("{x:>12.3}");
        for name in SCHEDULER_NAMES {
            let cell = rows
                .iter()
                .find(|r| r.x == x && r.scheduler == name)
                .map(metric)
                .unwrap_or(f64::NAN);
            print!("{cell:>13.4}");
        }
        println!();
    }
}

/// Renders a figure-style ASCII chart: one braille-free lane per
/// scheduler, `y` scaled to `[0, 1]`, one column per x-value. Used by
/// the figure binaries under `--chart` so the regenerated "figures"
/// actually look like figures in a terminal.
pub fn print_chart(title: &str, rows: &[Row], metric: fn(&Row) -> f64) {
    const HEIGHT: usize = 12;
    const GLYPHS: [char; 6] = ['F', 'D', 'P', 'B', 'V', 'T']; // Fair D3 PDQ Baraat Varys TAPS
    let mut xs: Vec<f64> = rows.iter().map(|r| r.x).collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup();
    if xs.is_empty() {
        return;
    }
    let mut grid = vec![vec![' '; xs.len() * 3 + 1]; HEIGHT + 1];
    for (si, name) in SCHEDULER_NAMES.iter().enumerate() {
        for (xi, x) in xs.iter().enumerate() {
            let Some(v) = rows
                .iter()
                .find(|r| r.x == *x && r.scheduler == *name)
                .map(metric)
            else {
                continue;
            };
            let y = (v.clamp(0.0, 1.0) * HEIGHT as f64).round() as usize;
            let row = HEIGHT - y;
            let col = xi * 3 + 1;
            // Later schedulers overwrite on collision; TAPS (last) wins,
            // which keeps the headline curve visible.
            grid[row][col + si % 2] = GLYPHS[si];
        }
    }
    println!(
        "
## {title} (chart; 1.0 at top, lanes: F=Fair D=D3 P=PDQ B=Baraat V=Varys T=TAPS)"
    );
    for (i, line) in grid.iter().enumerate() {
        let label = if i == 0 {
            "1.0 |".to_string()
        } else if i == HEIGHT {
            "0.0 |".to_string()
        } else {
            "    |".to_string()
        };
        println!("{label}{}", line.iter().collect::<String>());
    }
    print!("     ");
    for x in &xs {
        print!("{x:>3.0}");
    }
    println!();
}

/// Writes rows as JSON to the path given by `--json <path>` (no-op when
/// absent).
pub fn maybe_write_json(args: &Args, rows: &[Row]) {
    if let Some(path) = args.get("json") {
        let body = serde_json::to_string_pretty(rows).expect("rows serialize");
        std::fs::write(&path, body).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path}");
    }
}

/// Prints a one-line usage error and exits with status 2, as
/// `taps-serviced` and `taps-load` do for a malformed flag.
fn usage_error(msg: &str) -> ! {
    let bin = std::env::args().next().unwrap_or_default();
    let bin = std::path::Path::new(&bin)
        .file_name()
        .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    eprintln!("{bin}: {msg}");
    std::process::exit(2)
}

/// Minimal `--key value` / `--key=value` / `--flag` argument parser (the
/// workspace avoids a CLI dependency).
#[derive(Clone, Debug, Default)]
pub struct Args {
    kv: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `std::env::args()`; a malformed command line exits 2 with
    /// a one-line message.
    pub fn parse() -> Args {
        Self::parse_from(std::env::args().skip(1)).unwrap_or_else(|e| usage_error(&e))
    }

    /// Parses an explicit iterator; a positional argument is an error
    /// naming it.
    pub fn parse_from<I: IntoIterator<Item = String>>(iter: I) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = iter.into_iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {a:?}"));
            };
            if let Some((k, v)) = key.split_once('=') {
                args.kv.push((k.to_string(), v.to_string()));
            } else if it.peek().is_some_and(|n| !n.starts_with("--")) {
                args.kv.push((key.to_string(), it.next().unwrap()));
            } else {
                args.flags.push(key.to_string());
            }
        }
        Ok(args)
    }

    /// String value of `--key`.
    pub fn get(&self, key: &str) -> Option<String> {
        self.kv
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    }

    /// The value of `--key` parsed as `T`, `None` when absent; a value
    /// that does not parse is an error naming the flag and the value.
    pub(crate) fn value<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("invalid value for --{key}: {raw:?}"))
            })
            .transpose()
    }

    /// `f64` value of `--key`, or `default`; a malformed one exits 2.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.value(key)
            .unwrap_or_else(|e| usage_error(&e))
            .unwrap_or(default)
    }

    /// `usize` value of `--key`, or `default`; a malformed one exits 2.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.value(key)
            .unwrap_or_else(|e| usage_error(&e))
            .unwrap_or(default)
    }

    /// Whether bare `--flag` was passed.
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// The scale preset (`--scale tiny|small|paper`, default small); an
    /// unknown one exits 2.
    pub fn scale(&self) -> Scale {
        self.value("scale")
            .unwrap_or_else(|e| usage_error(&format!("{e} (tiny|small|paper)")))
            .unwrap_or(Scale::Small)
    }

    /// Seeds per point (`--seeds N`, default 3).
    pub fn seeds(&self) -> usize {
        self.get_usize("seeds", 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_forms() {
        let a = Args::parse_from(
            [
                "--scale",
                "tiny",
                "--seeds=5",
                "--verbose",
                "--json",
                "out.json",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(a.scale(), Scale::Tiny);
        assert_eq!(a.seeds(), 5);
        assert!(a.has_flag("verbose"));
        assert_eq!(a.get("json").as_deref(), Some("out.json"));
        assert_eq!(a.get_f64("missing", 1.5), 1.5);
    }

    #[test]
    fn a_malformed_flag_is_an_error_naming_it() {
        let args = |v: &[&str]| Args::parse_from(v.iter().map(|s| s.to_string()));
        assert_eq!(
            args(&["--seeds", "2", "tiny"]).unwrap_err(),
            "unexpected positional argument \"tiny\""
        );
        let a = args(&["--seeds", "two", "--load=0.5"]).unwrap();
        assert_eq!(
            a.value::<usize>("seeds"),
            Err("invalid value for --seeds: \"two\"".to_string())
        );
        assert_eq!(a.value::<f64>("load"), Ok(Some(0.5)));
        assert_eq!(a.value::<usize>("missing"), Ok(None));
        assert!(args(&["--scale", "huge"])
            .unwrap()
            .value::<Scale>("scale")
            .is_err());
    }

    #[test]
    fn make_scheduler_builds_all_six() {
        for name in SCHEDULER_NAMES {
            assert_eq!(make_scheduler(name).name(), name);
        }
    }

    #[test]
    fn run_jobs_runs_everything() {
        let jobs: Vec<usize> = (0..100).collect();
        let mut out = run_jobs(&jobs, |&j| j * 2);
        out.sort_unstable();
        assert_eq!(out, (0..100).map(|j| j * 2).collect::<Vec<_>>());
    }

    #[test]
    fn chart_rendering_does_not_panic() {
        let rows: Vec<Row> = SCHEDULER_NAMES
            .iter()
            .enumerate()
            .flat_map(|(i, name)| {
                (0..3).map(move |x| Row {
                    x: x as f64 * 10.0,
                    scheduler: name.to_string(),
                    task_completion: (i as f64 / 6.0 + x as f64 / 10.0).min(1.0),
                    flow_completion: 0.5,
                    app_throughput: 0.5,
                    app_task_throughput: 0.5,
                    wasted_bandwidth: 0.0,
                    wasted_bandwidth_task: 0.0,
                    seeds: 1,
                })
            })
            .collect();
        print_chart("test", &rows, |r| r.task_completion);
        print_chart("empty", &[], |r| r.task_completion);
    }

    #[test]
    fn tiny_point_runs_all_schedulers() {
        let scale = Scale::Tiny;
        let topo = scale.single_rooted_topo();
        let rows = run_point(&topo, 40.0, 2, |seed| {
            let mut cfg = workload_single_rooted(scale, &topo, seed);
            cfg.num_tasks = 5;
            cfg.generate()
        });
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.task_completion >= 0.0 && r.task_completion <= 1.0);
            assert_eq!(r.seeds, 2);
        }
    }
}
