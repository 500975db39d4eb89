//! Baseline schedulers the paper compares TAPS against (§V):
//!
//! * [`FairSharing`] — deadline- and task-agnostic max-min fair sharing
//!   (the TCP/RCP-family stand-in);
//! * [`D3`] — FCFS centralized rate reservation, `r = remaining / time
//!   to deadline`, with the §V-A improvement that flows which already
//!   missed their deadline stop transmitting;
//! * [`Pdq`] — preemptive distributed quick flow scheduling: EDF/SJF
//!   criticality, at most one flow per link at full rate, Early
//!   Termination, optional per-switch flow-list limits;
//! * [`Baraat`] — FIFO task serialization (deadline-agnostic), SJF among
//!   a task's flows, PDQ-like link occupancy, keeps transmitting past
//!   deadlines;
//! * [`Varys`] — deadline-sensitive admission control in task arrival
//!   order with `r = s/d` reservations and no preemption (admitted tasks
//!   are never revisited; infeasible newcomers are rejected whole).
//!
//! All five implement [`taps_flowsim::Scheduler`] and run on the same
//! simulator substrate as TAPS, as in the paper. [`D2tcp`] is provided
//! as an *extension* baseline: §II discusses it but the paper's
//! evaluation omits it.

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

mod baraat;
mod d2tcp;
mod d3;
mod fair;
mod pdq;
mod util;
mod varys;

pub use baraat::Baraat;
pub use d2tcp::D2tcp;
pub use d3::D3;
pub use fair::FairSharing;
pub use pdq::{Pdq, PdqConfig};
pub use util::{max_min_rates, weighted_max_min_rates};
pub use varys::Varys;
