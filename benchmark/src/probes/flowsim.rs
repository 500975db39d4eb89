//! Layer `flowsim` — the event engine around the scheduler callbacks.

use super::Metrics;
use crate::runners::sim::SimOutcome;

/// This layer's metrics from one timed simulation: the engine's self
/// time is the run minus the time inside scheduler callbacks.
pub fn metrics(out: &SimOutcome) -> Metrics {
    vec![
        ("flowsim.run_s", out.run_s),
        ("flowsim.engine_self_s", out.run_s - out.sched.callbacks_s),
        ("flowsim.events", out.report.events as f64),
        ("flowsim.events_per_s", out.report.events as f64 / out.run_s),
    ]
}
