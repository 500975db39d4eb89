//! TAPS — the paper's contribution: a centralized, task-level,
//! deadline-aware, **preemptive** flow scheduler running on an SDN
//! controller.
//!
//! The controller reacts to task arrivals (Alg. 1, [`arbiter`]): it
//! tentatively re-allocates *all* in-flight flows plus the newcomer's
//! flows in EDF-then-SJF order onto per-link slotted timelines — at most
//! one flow occupies a link during a slot — choosing for each flow the
//! candidate path that completes it earliest (Alg. 2,
//! [`alloc::SlotAllocator`]), with slice placement by first-fit over the
//! union of the path's occupancy sets (Alg. 3, `taps-timeline`). A
//! **reject rule** ([`arbiter::decide`]) then admits the task, rejects
//! it, or *discards* (preempts) a worse-off in-flight task.
//!
//! Accepted flows get pre-allocated transmission time slices and explicit
//! routes; senders transmit at full line rate exactly during their slices.
//! [`Arbiter`] is the one implementation of that loop; [`Taps`] adapts it
//! to the `taps-flowsim` engine (driving transmission the same way TAPS
//! servers obey the controller's slice grants) and `taps-sdn`'s
//! controller adapts it to probes, grants and switch commands.
//!
//! The allocation problem itself is NP-hard (reduction from Hamiltonian
//! Circuit, §IV-B) — reproduced and machine-checked in [`hardness`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Rules L1, L2, L3, L4, L6 and marker hygiene, library code only (DESIGN.md §13).
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::as_conversions))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::dbg_macro, clippy::allow_attributes))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(unfulfilled_lint_expectations))]

pub mod alloc;
pub mod analysis;
pub mod arbiter;
pub mod delta;
pub mod hardness;
pub mod oracle;
mod scheduler;
pub mod validate;

pub use alloc::{AllocCounters, AllocEngine, AllocError, FlowAlloc, FlowDemand, SlotAllocator};
pub use analysis::{analyze, gantt_for_link, ScheduleAnalysis};
pub use arbiter::{Arbiter, InFlight, RejectDecision, RejectPolicy, Standing};
pub use delta::{DeltaCache, DeltaStats};
pub use oracle::SingleLinkOracle;
pub use scheduler::{Taps, TapsConfig};
pub use validate::{Violation, ViolationReport};
