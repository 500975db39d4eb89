//! The three entry points a workload can drive, one round at a time.

pub mod inproc;
pub mod sim;
pub mod uds;

use serde_json::Value;

/// Set-ups per round. Set-up takes milliseconds, so repeating it costs
/// nothing and gives the run's median some twenty samples.
pub const SETUPS_PER_ROUND: usize = 5;

/// What one round measured, with tracing off.
#[derive(Clone, Debug, Default)]
pub struct RoundResult {
    /// `(task, start, end)` of every submit → terminal decision
    /// interval in decision order, seconds on the round's clock (start
    /// is the due time on the socket workloads).
    pub decision_spans: Vec<(u64, f64, f64)>,
    /// Tasks submitted.
    pub submitted: u64,
    /// Terminal decisions received.
    pub decisions: u64,
    /// Tasks granted and never preempted (sim: completed on time).
    pub succeeded: u64,
    /// Wall time of the timed region, seconds.
    pub wall_s: f64,
    /// CPU time the process under test spent in the timed region, seconds.
    pub cpu_s: f64,
    /// Peak resident set of the process under test, MB.
    pub peak_rss_mb: f64,
    /// Set-up times, seconds: the set-up is done [`SETUPS_PER_ROUND`]
    /// times per round and only the last one is used.
    pub setups_s: Vec<f64>,
    /// Missing decisions + error lines + failed output checks.
    pub failed_ops: u64,
    /// One line per failed check.
    pub violations: Vec<String>,
    /// FNV-1a digest of the decisions (bit-identity witness on the
    /// deterministic workloads; informational on the socket ones).
    pub digest: u64,
    /// Why the round does not count (the open-loop generator fell
    /// behind); `None` for a valid round.
    pub invalid: Option<String>,
    /// How late the generator was awake for each due submit, ms
    /// (socket workloads).
    pub gen_lag_ms: Vec<f64>,
    /// Submits that fell due while an earlier one was blocked on a full
    /// socket buffer (they have no lag sample: the daemon held them up).
    pub blocked_sends: u64,
    /// The daemon's (or in-process service's) final `Stats` document.
    pub final_stats: Option<Value>,
}

impl RoundResult {
    /// Submit → terminal decision wall time per decided task, ms.
    pub fn latencies_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.decision_spans.iter().map(|&(_, s, e)| (e - s) * 1e3)
    }
}

/// Counter `name` of the service section of a `Stats` document.
pub fn service_counter(stats: &Value, name: &str) -> u64 {
    stats
        .get("service")
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// 64-bit FNV-1a over a word stream.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
