//! Live service mode for the TAPS reproduction (DESIGN.md §15).
//!
//! The paper's controller is an algorithm; operating it as a daemon
//! adds the failure modes every centralized admission service has:
//! bursts beyond the decision budget, clients that stop reading their
//! notifications, and restarts. This crate wraps
//! [`taps_sdn::Controller`] in a single-threaded, deterministic event
//! loop ([`ServiceController`]) that stays correct under all three:
//!
//! * **Backpressure** — the pending queue is bounded; overflow is shed
//!   with a terminal reject carrying a retry-after hint.
//! * **Deadline-aware shedding** — above a depth watermark, queued
//!   tasks that cannot meet their deadline given the projected queue
//!   delay are rejected immediately (cheapest-to-lose first) instead
//!   of wasting decision slots on lost causes.
//! * **Slow consumers** — per-client outbound buffers are bounded;
//!   a full buffer drops the notification and marks the client, never
//!   blocking the loop.
//! * **Overload batching** — past a watermark the loop decides up to
//!   `max_batch` queued tasks per iteration instead of one, and goes
//!   back below a lower watermark (hysteresis).
//! * **Graceful drain** — stop accepting, decide the backlog with
//!   terminal statuses, checkpoint via the controller's §10 machinery
//!   so a restarted daemon resyncs exactly like a standby takeover.
//!
//! Determinism: the loop consumes `(request, now)` pairs; no wall
//! clock, RNG or threads are involved, so identical inputs reproduce
//! byte-identical decisions, trace events and metrics — the soak gate
//! (`cargo xtask soak`) asserts this with double runs.
//!
//! Transports: [`SimTransport`] is the in-process deterministic channel
//! used by simulations and tests; [`uds`] serves the same JSONL
//! protocol over a Unix domain socket for real use (`taps-serviced` /
//! `taps-load` binaries).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod load;
pub mod messages;
pub mod soak;
pub mod transport;
#[cfg(unix)]
pub mod uds;

pub use controller::{ServiceConfig, ServiceController, ServiceState, ShedRecord};
pub use load::{run_load, LoadConfig, LoadReport};
pub use messages::{
    decode_line, encode_line, verdict, ClientId, GrantSummary, Request, Response, Submit,
    SubmitFlow,
};
pub use soak::{run_soak, SoakConfig, SoakFailure};
pub use transport::{PushError, SimTransport, Transport, DEFAULT_INBOX_CAP, DEFAULT_OUTBOX_CAP};
#[cfg(unix)]
pub use uds::UdsTransport;

/// Command-line flag parsing shared by `taps-serviced` and `taps-load`.
pub mod cli {
    use std::str::FromStr;

    /// The value following `flag` in `args`, parsed as `T`; `default`
    /// when the flag is absent. A flag with no value after it or with one
    /// that does not parse is an error naming the flag (and the value).
    pub fn flag_value<T: FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
        let Some(i) = args.iter().position(|a| a == flag) else {
            return Ok(default);
        };
        let Some(raw) = args.get(i + 1) else {
            return Err(format!("missing value for {flag}"));
        };
        raw.parse()
            .map_err(|_| format!("invalid value for {flag}: {raw:?}"))
    }

    #[cfg(test)]
    mod tests {
        use super::flag_value;

        fn args(a: &[&str]) -> Vec<String> {
            a.iter().map(|s| s.to_string()).collect()
        }

        #[test]
        fn absent_flag_yields_the_default() {
            let a = args(&["taps-serviced", "--socket", "/tmp/s"]);
            assert_eq!(flag_value(&a, "--k", 8usize), Ok(8));
        }

        #[test]
        fn good_value_is_parsed() {
            let a = args(&["taps-serviced", "--socket", "/tmp/s", "--k", "16"]);
            assert_eq!(flag_value(&a, "--k", 8usize), Ok(16));
            assert_eq!(
                flag_value(&a, "--socket", String::new()),
                Ok("/tmp/s".to_string())
            );
        }

        #[test]
        fn bad_value_names_flag_and_value() {
            let a = args(&["taps-serviced", "--k", "abc", "--queue-cap", "4k"]);
            assert_eq!(
                flag_value(&a, "--k", 8usize),
                Err("invalid value for --k: \"abc\"".to_string())
            );
            assert_eq!(
                flag_value(&a, "--queue-cap", 4_096usize),
                Err("invalid value for --queue-cap: \"4k\"".to_string())
            );
        }

        #[test]
        fn trailing_flag_is_an_error() {
            let a = args(&["taps-serviced", "--k", "8", "--queue-cap"]);
            assert_eq!(
                flag_value(&a, "--queue-cap", 4_096usize),
                Err("missing value for --queue-cap".to_string())
            );
        }
    }
}
