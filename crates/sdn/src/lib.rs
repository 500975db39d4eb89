//! SDN control-plane substrate for TAPS (§IV of the paper, exercised by
//! the §VI testbed reproduction).
//!
//! The paper's deployment has three roles:
//!
//! * the **controller** (§IV-C) runs the centralized algorithm, installs
//!   forwarding entries on switches (only the first 1 000 entries of a
//!   ~2 000-entry TCAM are used for TAPS flows) and sends pre-allocated
//!   time slices to senders;
//! * **servers** (§IV-D) keep per-flow state (deadline, expected
//!   transmission time, allocated slices), send a probe packet with the
//!   scheduling header when a task arrives, transmit exactly during their
//!   granted slices, and emit `TERM` when a flow finishes;
//! * **switches** (§IV-E) are unmodified commodity switches that only
//!   forward along the installed entries.
//!
//! This crate models that message protocol faithfully enough to (a) run
//! the Fig. 14 testbed experiment end-to-end and (b) test the control
//! plane's invariants: grants are consistent with installed entries,
//! flow-table capacity is respected, and entries are withdrawn on `TERM`.
//!
//! On top of the reliable protocol sits the **unreliable control plane**
//! (DESIGN.md §10): [`channel`] provides a seeded lossy message channel
//! (drop/delay/duplicate/reorder) plus ACK-based retries with bounded
//! exponential backoff; every controller-originated update is stamped
//! with an `(epoch, gen)` pair and applied last-writer-wins, so stale or
//! duplicated deliveries are harmless; servers fail closed on lease
//! expiry, switches withdraw-on-silence; and the controller checkpoints
//! its state so a standby can take over after a crash
//! ([`Controller::checkpoint`] / [`Controller::restore`]). The [`chaos`]
//! harness runs full scenarios combining link faults, message loss and
//! controller crashes and audits the invariants every slot.

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

pub mod channel;
pub mod chaos;
mod controller;
mod expiry;
mod messages;
mod obs;
mod server;
mod switch;

pub use channel::{
    ChannelConfig, ChannelStats, ControlChannel, Envelope, ExpiredMsg, ReliableSender, RetryPolicy,
    RetryStats, EXPIRED_BUFFER_CAP,
};
pub use chaos::{probe_lifetime, run_chaos, run_chaos_traced, ChaosConfig, ChaosReport};
pub use controller::{
    CheckpointFlow, ControlStats, Controller, ControllerCheckpoint, ControllerConfig,
    RetainedRecords, TaskVerdict,
};
pub use messages::{CtrlMsg, FlowGrant, LinkEvent, ProbeHeader, ServerMsg, SwitchCmd, SwitchMsg};
pub use server::ServerAgent;
pub use switch::{FlowEntry, FlowTable, SwitchAgent, TableError};
