//! An untraced run: rounds of one workload until `--seconds` is used
//! up, folded into the end-to-end metrics.

use std::path::PathBuf;
use std::time::Instant;

use crate::inputs::{self, SUB_SEEDS};
use crate::runners::{inproc, sim, uds, RoundResult};
use crate::spec::{Kind, WorkloadSpec};
use crate::stats::{highest_supported_percentile, lower_quartile, median, percentile};

/// Latency percentiles are taken over windows of about this many
/// consecutive decisions — the smallest sample whose p99 still has ten
/// samples beyond it — and the run reports the median over its windows.
/// One scheduling stall of the sandbox (they last up to ~100 ms here and
/// come every few seconds) then spoils one window instead of the whole
/// run's tail.
pub const WINDOW: usize = 1_000;

/// Rounds a run may discard and redo because its generator ran late.
const MAX_INVALID_ROUNDS: usize = 2;

/// Where the run finds the daemon and may put its socket.
pub struct Env {
    /// The `taps-serviced` binary.
    pub daemon_bin: PathBuf,
    /// Directory for the socket file and the traces.
    pub out_dir: PathBuf,
}

impl Env {
    /// A socket path unique to this process.
    pub fn socket(&self) -> PathBuf {
        self.out_dir.join(format!("d{}.sock", std::process::id()))
    }
}

/// The end-to-end result of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunSummary {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// Rounds that counted.
    pub rounds: usize,
    /// Rounds discarded because the generator fell behind.
    pub invalid_rounds: usize,
    /// Tasks submitted over all rounds.
    pub attempted: u64,
    /// Failed operations over all rounds.
    pub failed: u64,
    /// Latency samples pooled over all rounds.
    pub samples: usize,
    /// Windows the percentiles were taken over.
    pub windows: usize,
    /// Median over windows of the median submit → decision latency, ms.
    pub decision_p50_ms: f64,
    /// Lower quartile over windows of the 99th percentile of the same,
    /// ms: interference only ever adds latency, and in a bad minute of
    /// the sandbox a stall lands in every second window, so the median
    /// over windows still moved by a factor of two between runs.
    pub decision_p99_ms: f64,
    /// Over all samples pooled: the highest percentile with ten samples
    /// beyond it, and its value (informational; stalls show here).
    pub tail: (f64, f64),
    /// Median over rounds of decisions ÷ timed wall time.
    pub decisions_per_s: f64,
    /// Median over rounds of CPU ms ÷ decisions.
    pub cpu_ms_per_decision: f64,
    /// Median over rounds (distinct inputs only, where the workload is
    /// deterministic) of (granted, never preempted) ÷ submitted.
    pub task_success_ratio: f64,
    /// `failed ÷ attempted`.
    pub failed_ops_ratio: f64,
    /// Largest peak resident set over the rounds, MB.
    pub peak_rss_mb: f64,
    /// Median over every set-up of every round, seconds.
    pub setup_s: f64,
    /// `(p50 ms, p99 ms, decisions/s, CPU ms/decision, success ratio)`
    /// of each round, in order.
    pub per_round: Vec<(f64, f64, f64, f64, f64)>,
    /// Digest of each round, in order.
    pub digests: Vec<u64>,
    /// Whether a replayed round reproduced its first digest
    /// (`None`: no round was replayed, or the workload is not
    /// deterministic).
    pub replay_identical: Option<bool>,
    /// Failed checks, one line each (capped).
    pub violations: Vec<String>,
}

impl RunSummary {
    /// Every output check passed and the sample is large enough.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty() && self.windows > 0
    }

    /// The end-to-end metrics in `spec::END_TO_END` order.
    pub fn metric_values(&self) -> [f64; 7] {
        [
            self.decision_p50_ms,
            self.decision_p99_ms,
            self.decisions_per_s,
            self.cpu_ms_per_decision,
            self.task_success_ratio,
            self.peak_rss_mb,
            self.setup_s,
        ]
    }
}

/// Runs one round of `spec`.
pub fn run_round(
    spec: &WorkloadSpec,
    env: &Env,
    seed: u64,
    round: usize,
) -> Result<RoundResult, String> {
    match spec.kind {
        Kind::Uds => {
            let input = inputs::generate(spec, seed, round);
            uds::run_round(&env.daemon_bin, &env.socket(), spec.k, &input)
        }
        Kind::Inproc => Ok(inproc::run_round(spec, seed, round)),
        Kind::Sim => Ok(sim::run_round(spec, seed, round)),
    }
}

/// `(p50, p99)` of each window of a round's latencies, in decision
/// order: the round is cut into `len / WINDOW` equal windows.
pub fn window_percentiles(latencies_ms: &[f64]) -> Vec<(f64, f64)> {
    let windows = latencies_ms.len() / WINDOW;
    (0..windows)
        .map(|w| {
            let lo = w * latencies_ms.len() / windows;
            let hi = (w + 1) * latencies_ms.len() / windows;
            let mut v = latencies_ms[lo..hi].to_vec();
            v.sort_by(f64::total_cmp);
            (percentile(&v, 0.50), percentile(&v, 0.99))
        })
        .collect()
}

/// Folds rounds into a summary.
pub fn summarize(
    spec: &WorkloadSpec,
    seed: u64,
    rounds: &[RoundResult],
    invalid: usize,
) -> RunSummary {
    let mut lat: Vec<f64> = rounds.iter().flat_map(RoundResult::latencies_ms).collect();
    lat.sort_by(f64::total_cmp);
    let per_round =
        |f: &dyn Fn(&RoundResult) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    // On the deterministic workloads a replayed round adds nothing to
    // the success ratio, and counting it would make the ratio depend on
    // how many rounds the clock allowed: there it is taken over the
    // distinct inputs only, and so repeats exactly.
    let distinct = if spec.kind == Kind::Uds {
        rounds
    } else {
        &rounds[..rounds.len().min(SUB_SEEDS)]
    };
    let attempted: u64 = rounds.iter().map(|r| r.submitted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed_ops).sum();
    let digests: Vec<u64> = rounds.iter().map(|r| r.digest).collect();
    let mut violations: Vec<String> = rounds
        .iter()
        .enumerate()
        .flat_map(|(i, r)| r.violations.iter().map(move |v| format!("round {i}: {v}")))
        .take(20)
        .collect();
    // Round `SUB_SEEDS + i` replays round `i`'s input under fresh ids.
    let replay_identical = (spec.kind != Kind::Uds && digests.len() > SUB_SEEDS).then(|| {
        digests
            .iter()
            .enumerate()
            .skip(SUB_SEEDS)
            .all(|(i, d)| *d == digests[i % SUB_SEEDS])
    });
    if replay_identical == Some(false) {
        violations.push("a replayed round did not reproduce its digest".into());
    }
    let tail_p = highest_supported_percentile(lat.len()).unwrap_or(0.5);
    let windows: Vec<(f64, f64)> = rounds
        .iter()
        .flat_map(|r| window_percentiles(&r.latencies_ms().collect::<Vec<_>>()))
        .collect();
    RunSummary {
        workload: spec.name.to_string(),
        seed,
        rounds: rounds.len(),
        invalid_rounds: invalid,
        attempted,
        failed,
        samples: lat.len(),
        windows: windows.len(),
        decision_p50_ms: median(&windows.iter().map(|w| w.0).collect::<Vec<_>>()),
        decision_p99_ms: lower_quartile(&windows.iter().map(|w| w.1).collect::<Vec<_>>()),
        tail: (tail_p, percentile(&lat, tail_p)),
        decisions_per_s: median(&per_round(&|r| r.decisions as f64 / r.wall_s)),
        cpu_ms_per_decision: median(&per_round(&|r| r.cpu_s * 1e3 / r.decisions.max(1) as f64)),
        task_success_ratio: median(
            &distinct
                .iter()
                .map(|r| r.succeeded as f64 / r.submitted as f64)
                .collect::<Vec<_>>(),
        ),
        failed_ops_ratio: failed as f64 / attempted.max(1) as f64,
        peak_rss_mb: rounds.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max),
        setup_s: median(
            &rounds
                .iter()
                .flat_map(|r| r.setups_s.iter().copied())
                .collect::<Vec<_>>(),
        ),
        per_round: rounds
            .iter()
            .map(|r| {
                let mut l: Vec<f64> = r.latencies_ms().collect();
                l.sort_by(f64::total_cmp);
                (
                    percentile(&l, 0.50),
                    percentile(&l, 0.99),
                    r.decisions as f64 / r.wall_s,
                    r.cpu_s * 1e3 / r.decisions.max(1) as f64,
                    r.succeeded as f64 / r.submitted as f64,
                )
            })
            .collect(),
        digests,
        replay_identical,
        violations,
    }
}

/// Runs rounds of `spec` for about `seconds` of wall time.
pub fn run(spec: &WorkloadSpec, env: &Env, seed: u64, seconds: f64) -> Result<RunSummary, String> {
    let start = Instant::now();
    let mut rounds: Vec<RoundResult> = Vec::new();
    let mut invalid = 0usize;
    let mut attempt = 0usize;
    loop {
        let began = start.elapsed().as_secs_f64();
        // Ids stay unique even when a round is discarded and redone.
        let r = run_round(spec, env, seed, attempt)?;
        attempt += 1;
        match &r.invalid {
            // A late generator can only make the latencies look worse,
            // never better, so once the retries are used up a late round
            // is kept rather than failing the run.
            Some(why) if invalid < MAX_INVALID_ROUNDS => {
                invalid += 1;
                eprintln!("{}: round discarded and redone: {why}", spec.name);
            }
            Some(why) => {
                eprintln!("{}: round kept although {why}", spec.name);
                rounds.push(r);
            }
            None => rounds.push(r),
        }
        // Another round only if about half of it still fits.
        let elapsed = start.elapsed().as_secs_f64();
        let round_s = elapsed - began;
        if !rounds.is_empty() && elapsed + round_s / 2.0 > seconds {
            break;
        }
    }
    Ok(summarize(spec, seed, &rounds, invalid))
}
