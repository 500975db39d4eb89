//! Structured observability for the TAPS reproduction (DESIGN.md §11).
//!
//! Three pieces, all deterministic:
//!
//! * **Tracing** — [`TraceSink`] receives typed [`TraceEvent`]s stamped
//!   with simulation time; emitters assign monotonic sequence numbers.
//!   [`RingRecorder`] is the bounded drop-newest recorder; [`jsonl`]
//!   exports/imports traces as byte-stable JSONL, so a trace is itself
//!   a testable artifact (the golden-trace suite diffs them as text).
//! * **Metrics** — [`Metrics`] is a `BTreeMap`-backed registry of named
//!   counters and fixed-bucket histograms with deterministic JSON
//!   export; [`Metrics::from_trace`] derives the standard registry from
//!   a recorded stream.
//! * **Replay validation** — [`replay::validate`] re-checks link
//!   exclusivity, slice-within-deadline, and grant/forwarding agreement
//!   from the event stream alone (`cargo xtask trace` drives it).
//!
//! The scheduler/simulator/control-plane crates emit through
//! [`obs_event!`] into an `Option<Arc<dyn TraceSink>>`: a sink decides
//! at run time, and with `None` the hooks stay dormant and schedules are
//! bit-identical (the overhead guard test asserts it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Rules L3, L6 and marker hygiene, library code only (DESIGN.md §13).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::print_stdout))]
#![cfg_attr(not(test), deny(clippy::print_stderr, clippy::dbg_macro))]
#![cfg_attr(not(test), deny(clippy::allow_attributes))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(unfulfilled_lint_expectations))]

mod event;
pub mod json;
pub mod jsonl;
mod metrics;
pub mod replay;
mod ring;

pub use event::{TraceEvent, TraceRecord};
pub use metrics::{Histogram, Metrics, COUNT_BOUNDS, DEPTH_BOUNDS, LATENCY_US_BOUNDS};
pub use ring::{RingRecorder, DEFAULT_CAPACITY};

/// Machine-readable reject reason codes carried by
/// [`TraceEvent::Reject`].
pub mod reason {
    /// No allocation meets the task deadline and the reject rule
    /// (Alg. 3) turned the task away.
    pub const INFEASIBLE: u64 = 0;
    /// Admission would require preemption and the policy forbids it.
    pub const WOULD_PREEMPT: u64 = 1;
    /// Source and destination are disconnected (link failures).
    pub const DISCONNECTED: u64 = 2;
    /// The switch flow-table budget had no room for the task's flows.
    pub const TABLE_BUDGET: u64 = 3;
    /// The bounded pending queue was full when the submission arrived
    /// (backpressure shed; the reply carries a retry-after hint).
    pub const SHED_QUEUE_FULL: u64 = 4;
    /// Deadline-aware load shed: given the current queue delay the task
    /// could not have met its deadline even if admitted immediately on
    /// reaching the head of the queue.
    pub const SHED_INFEASIBLE: u64 = 5;
    /// The service was draining: new and still-queued submissions are
    /// answered with a terminal reject instead of waiting forever.
    pub const SHED_DRAINING: u64 = 6;

    /// Human-readable name for a reason code.
    pub fn name(code: u64) -> &'static str {
        match code {
            INFEASIBLE => "infeasible",
            WOULD_PREEMPT => "would_preempt",
            DISCONNECTED => "disconnected",
            TABLE_BUDGET => "table_budget",
            SHED_QUEUE_FULL => "shed_queue_full",
            SHED_INFEASIBLE => "shed_infeasible",
            SHED_DRAINING => "shed_draining",
            _ => "unknown",
        }
    }
}

/// Receiver of trace events. Implementations must be cheap on the emit
/// path — non-blocking in practice, never allocating per event;
/// emitters hold an `Option<std::sync::Arc<dyn TraceSink>>` and skip
/// all work when it is `None`.
pub trait TraceSink: Send + Sync {
    /// Records one event at simulation time `t`.
    fn emit(&self, t: f64, ev: &TraceEvent);
}

/// Emits a [`TraceEvent`] variant to `$sink` (an
/// `Option<std::sync::Arc<dyn TraceSink>>`, or anything with a matching
/// `as_deref`) at simulation time `$t`; a no-op when `$sink` is `None`.
///
/// Lint L6 requires all trace output in lib code to go through this
/// macro (no ad-hoc prints).
#[macro_export]
macro_rules! obs_event {
    ($sink:expr, $t:expr, $variant:ident { $($body:tt)* }) => {
        if let Some(sink) = ($sink).as_deref() {
            $crate::TraceSink::emit(sink, $t, &$crate::TraceEvent::$variant { $($body)* });
        }
    };
}

/// Widens a dense `usize` id or count to the `u64` of a trace event
/// field.
#[inline]
pub fn obs_id(x: usize) -> u64 {
    x as u64
}

/// A sink that discards everything (useful as a benchmark control).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&self, _t: f64, _ev: &TraceEvent) {}
}
