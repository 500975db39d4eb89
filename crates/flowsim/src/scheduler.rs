//! The scheduler interface all six algorithms implement.

use crate::ctx::SimCtx;
use crate::fault::FaultEvent;
use crate::spec::{FlowId, TaskId};

/// What to do with a flow whose deadline just expired unfinished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeadlineAction {
    /// Stop transmitting (D3 and Fair Sharing per §V-A, PDQ, Varys, TAPS).
    /// The flow is marked [`crate::FlowStatus::Missed`].
    Stop,
    /// Keep transmitting past the deadline (Baraat — deadline-agnostic;
    /// the extra bytes count as wasted bandwidth). The flow keeps status
    /// `Admitted` with `missed_deadline` set.
    Continue,
}

/// A flow scheduling algorithm driven by the [`crate::Simulation`] engine.
///
/// Contract:
///
/// * `on_task_arrival` runs once per task, after the task's flows moved to
///   [`crate::FlowStatus::Admitted`]… unless the scheduler rejects them via
///   [`SimCtx::reject_task`]. Routes must be assigned here (or at latest
///   before the flow gets a nonzero rate).
/// * `assign_rates` runs after every batch of events (arrivals,
///   completions, deadline expiries) and after every requested wake-up. The
///   engine zeroes all rates first; the scheduler must set a rate for every
///   flow it wants transmitting. Rates must respect link capacities — the
///   engine validates this when [`crate::SimConfig::validate_capacity`] is
///   on.
/// * `next_wake` lets schedulers with time-driven plans (TAPS's slotted
///   schedule) request a callback at the next instant their rate assignment
///   changes even though no simulation event occurs.
pub trait Scheduler {
    /// Short algorithm name used in reports ("TAPS", "PDQ", …).
    fn name(&self) -> &'static str;

    /// A task (and all of its flows) just arrived.
    fn on_task_arrival(&mut self, ctx: &mut SimCtx<'_>, task: TaskId);

    /// A flow just delivered its last byte. It is already terminal: its
    /// rate is zero and its route released.
    fn on_flow_completed(&mut self, _ctx: &mut SimCtx<'_>, _flow: FlowId) {}

    /// A live flow's deadline just expired.
    fn on_flow_deadline(&mut self, _ctx: &mut SimCtx<'_>, _flow: FlowId) -> DeadlineAction {
        DeadlineAction::Stop
    }

    /// A topology fault (link/switch failure or repair) was just applied
    /// — `ctx.topo()` already reflects the new state. Schedulers with
    /// explicit routes should re-route affected flows here; until they
    /// do, the engine forces the rate of every flow whose route crosses
    /// a dead link to zero. The default does nothing (the flow then
    /// stalls and misses its deadline naturally).
    fn on_fault(&mut self, _ctx: &mut SimCtx<'_>, _event: &FaultEvent) {}

    /// Recompute transmission rates for all live flows.
    fn assign_rates(&mut self, ctx: &mut SimCtx<'_>);

    /// Next instant (strictly after `now`) at which this scheduler's rate
    /// assignment changes on its own, if any.
    fn next_wake(&mut self, _now: f64) -> Option<f64> {
        None
    }
}
