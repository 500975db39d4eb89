//! Wall-clock submit → decision benchmark of the TAPS reproduction.
//!
//! Three entry points are driven with seeded inputs — the real
//! `taps-serviced` daemon over its Unix socket, the in-process
//! `ServiceController`, and the flowsim `Taps` scheduler — and timed end
//! to end with tracing off. A separate traced run replays the same
//! request stream at successively deeper public entry points (the
//! *ladder*) to attribute the time to each layer. See `README.md`.

#![forbid(unsafe_code)]

pub mod daemon;
pub mod inputs;
pub mod ladder;
pub mod ledger;
pub mod probes;
pub mod procstat;
pub mod report;
pub mod run;
pub mod runners;
pub mod spec;
pub mod stats;
pub mod trace;
