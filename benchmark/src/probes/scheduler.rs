//! Layer `core::scheduler` — the flowsim adapter of Alg. 1
//! (`taps_core::Taps`), timed through `runners::sim::TimedScheduler`.

use super::sdn::history_slope;
use super::{percentile_us, Metrics};
use crate::runners::sim::SimOutcome;
use crate::stats::mean;

/// This layer's metrics from one timed simulation.
pub fn metrics(out: &SimOutcome) -> Metrics {
    // Decisions in the order they were taken.
    let decide_ns: Vec<u64> = out
        .sched
        .decision_spans
        .iter()
        .map(|&(_, s, e)| ((e - s) * 1e9) as u64)
        .collect();
    vec![
        ("core.taps_arrival_us_p50", percentile_us(&decide_ns, 0.50)),
        ("core.taps_arrival_us_p99", percentile_us(&decide_ns, 0.99)),
        ("core.taps_rates_us", mean(&out.sched.rates_s) * 1e6),
        ("core.taps_history_slope", history_slope(&decide_ns)),
    ]
}
