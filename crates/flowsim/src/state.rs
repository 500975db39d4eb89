//! Runtime state of flows and tasks during a simulation.

use crate::spec::{FlowSpec, TaskSpec};
use crate::{DEADLINE_SLACK, EPS_BYTES};
use taps_topology::Path;

/// Lifecycle of a flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowStatus {
    /// Task has not arrived yet.
    NotArrived,
    /// Admitted by the scheduler; transmitting or waiting for a rate.
    Admitted,
    /// Finished transmitting all bytes (check [`FlowRt::on_time`] for
    /// whether it met its deadline).
    Completed,
    /// Stopped at its deadline with bytes remaining.
    Missed,
    /// Proactively killed by the scheduler before the deadline (PDQ's
    /// Early Termination).
    Terminated,
    /// Rejected at admission; never transmitted.
    Rejected,
    /// Belonged to a task that was preempted (discarded) mid-flight.
    Discarded,
}

impl FlowStatus {
    /// Whether the flow can still transmit.
    #[inline]
    pub fn is_live(self) -> bool {
        matches!(self, FlowStatus::Admitted)
    }

    /// Whether the flow reached a terminal state.
    #[inline]
    pub fn is_terminal(self) -> bool {
        !matches!(self, FlowStatus::NotArrived | FlowStatus::Admitted)
    }
}

/// Lifecycle of a task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskStatus {
    /// Not arrived yet.
    NotArrived,
    /// Admitted; flows in flight.
    Admitted,
    /// Rejected on arrival by the scheduler's admission rule.
    Rejected,
    /// Admitted, then preempted (discarded) by the scheduler.
    Discarded,
}

/// Runtime state of one flow.
#[derive(Clone, Debug)]
pub struct FlowRt {
    /// Immutable description.
    pub spec: FlowSpec,
    /// Current lifecycle state.
    pub status: FlowStatus,
    /// Route assigned by the scheduler (must be set before the flow can
    /// receive a nonzero rate). Released when the flow turns terminal.
    pub route: Option<Path>,
    /// Current fluid transmission rate, bytes per second.
    pub rate: f64,
    /// Bytes delivered so far.
    pub delivered: f64,
    /// Completion time, if completed.
    pub finish: Option<f64>,
    /// Set when the deadline passed before completion (a flow may keep
    /// transmitting past its deadline under deadline-agnostic schedulers
    /// such as Baraat).
    pub missed_deadline: bool,
}

impl FlowRt {
    /// Fresh runtime state for a spec.
    pub fn new(spec: FlowSpec) -> Self {
        FlowRt {
            spec,
            status: FlowStatus::NotArrived,
            route: None,
            rate: 0.0,
            delivered: 0.0,
            finish: None,
            missed_deadline: false,
        }
    }

    /// Moves the flow to the terminal `status`: it stops transmitting
    /// and releases its route, so a run holds paths for in-flight flows
    /// only (nothing reads the route of a finished flow).
    pub(crate) fn retire(&mut self, status: FlowStatus) {
        debug_assert!(status.is_terminal());
        self.status = status;
        self.rate = 0.0;
        self.route = None;
    }

    /// Bytes still to deliver.
    #[inline]
    pub fn remaining(&self) -> f64 {
        (self.spec.size - self.delivered).max(0.0)
    }

    /// Whether all bytes have (effectively) been delivered.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.remaining() <= EPS_BYTES
    }

    /// Completed before (or at) its deadline — the paper's notion of a
    /// successful flow.
    #[inline]
    pub fn on_time(&self) -> bool {
        self.status == FlowStatus::Completed
            && !self.missed_deadline
            && self
                .finish
                .is_some_and(|t| t <= self.spec.deadline + DEADLINE_SLACK)
    }

    /// Fraction of the flow already delivered, in `[0, 1]`.
    #[inline]
    pub fn progress(&self) -> f64 {
        (self.delivered / self.spec.size).clamp(0.0, 1.0)
    }
}

/// Runtime state of one task.
#[derive(Clone, Debug)]
pub struct TaskRt {
    /// Immutable description.
    pub spec: TaskSpec,
    /// Current lifecycle state.
    pub status: TaskStatus,
}

impl TaskRt {
    /// Fresh runtime state for a spec.
    pub fn new(spec: TaskSpec) -> Self {
        TaskRt {
            spec,
            status: TaskStatus::NotArrived,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FlowSpec {
        FlowSpec {
            id: 0,
            task: 0,
            src: 0,
            dst: 1,
            size: 1000.0,
            arrival: 0.0,
            deadline: 1.0,
        }
    }

    #[test]
    fn flow_lifecycle_accessors() {
        let mut f = FlowRt::new(spec());
        assert!(!f.status.is_live());
        assert!(!f.status.is_terminal());
        f.status = FlowStatus::Admitted;
        assert!(f.status.is_live());
        assert_eq!(f.remaining(), 1000.0);
        f.delivered = 999.9;
        assert!(f.is_done());
        f.status = FlowStatus::Completed;
        f.finish = Some(0.9);
        assert!(f.on_time());
        assert!(f.status.is_terminal());
    }

    #[test]
    fn late_completion_is_not_on_time() {
        let mut f = FlowRt::new(spec());
        f.status = FlowStatus::Completed;
        f.delivered = 1000.0;
        f.finish = Some(1.5);
        assert!(!f.on_time());
    }

    #[test]
    fn missed_flag_overrides_on_time() {
        let mut f = FlowRt::new(spec());
        f.status = FlowStatus::Completed;
        f.delivered = 1000.0;
        f.finish = Some(0.5);
        f.missed_deadline = true;
        assert!(!f.on_time());
    }

    #[test]
    fn progress_clamps() {
        let mut f = FlowRt::new(spec());
        f.delivered = 1500.0;
        assert_eq!(f.progress(), 1.0);
        assert_eq!(f.remaining(), 0.0);
    }
}
