//! Flow-level discrete-event simulator for deadline-sensitive data center
//! transport, reproducing the evaluation substrate of the TAPS paper
//! (ICPP 2015, §V).
//!
//! The paper evaluates all schedulers in a custom flow-level simulator: a
//! *fluid* model in which every flow transmits at a scheduler-assigned rate
//! that is piecewise-constant between scheduling events. This crate is the
//! Rust re-implementation of that substrate:
//!
//! * [`Workload`] — tasks (sets of flows sharing one deadline) and flows,
//!   produced by `taps-workload`;
//! * [`Scheduler`] — the trait the six algorithms implement (TAPS in
//!   `taps-core`, the five baselines in `taps-baselines`);
//! * [`Simulation`] — the event engine: task arrivals, flow completions,
//!   deadline expiries and scheduler wake-ups, with per-link capacity
//!   validation;
//! * [`SimReport`] — the metrics of §V-A: task completion ratio, flow
//!   completion ratio, application throughput (size-weighted), wasted
//!   bandwidth ratio, plus an optional rate-segment log from which Fig. 14's
//!   effective-throughput time series is binned.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Rules L1, L3, L4, L6 and marker hygiene, library code only (DESIGN.md §13).
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::dbg_macro, clippy::allow_attributes))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(unfulfilled_lint_expectations))]

mod ctx;
mod engine;
pub mod fault;
mod metrics;
mod scheduler;
mod spec;
mod state;

pub use ctx::SimCtx;
pub use engine::{SimConfig, Simulation};
pub use fault::{dedup_fault_plan, sort_fault_plan, FaultEvent, FaultKind};
pub use metrics::{effective_throughput_series, goodput_fraction_series, RateSegment, SimReport};
pub use scheduler::{DeadlineAction, Scheduler};
pub use spec::{FlowId, FlowSpec, TaskId, TaskSpec, Workload};
pub use state::{FlowRt, FlowStatus, TaskRt, TaskStatus};

/// Time tolerance: events closer than this are simultaneous (seconds).
pub const EPS_TIME: f64 = 1e-9;

/// Byte tolerance: a flow with at most this many bytes left is complete.
pub const EPS_BYTES: f64 = 0.5;

/// A flow finishing within this slack after its deadline still counts as
/// on-time; absorbs floating-point drift for flows engineered to finish
/// exactly at their deadline (e.g. Varys's `r = s/d` reservations).
pub const DEADLINE_SLACK: f64 = 1e-6;
