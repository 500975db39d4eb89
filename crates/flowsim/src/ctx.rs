//! The mutable view schedulers get of the simulation.

use crate::spec::{FlowId, TaskId};
use crate::state::{FlowRt, FlowStatus, TaskRt, TaskStatus};
use taps_topology::paths::{splitmix64, PathFinder};
use taps_topology::{Path, Topology};

/// Engine-owned mutable state (flows, tasks, clock).
#[derive(Debug)]
pub(crate) struct SimState {
    pub now: f64,
    pub flows: Vec<FlowRt>,
    pub tasks: Vec<TaskRt>,
    /// Ids of the arrived flows that were live at the end of the last
    /// event, plus this event's arrivals, in ascending id order. The
    /// engine appends at task arrival and compacts once per event; a
    /// flow that turned terminal since is still listed, so every reader
    /// filters on `is_live()`.
    pub live: Vec<FlowId>,
}

/// Controlled view of the simulation handed to [`crate::Scheduler`]
/// callbacks. All state transitions flow through these methods so the
/// engine can keep its bookkeeping consistent.
pub struct SimCtx<'a> {
    pub(crate) st: &'a mut SimState,
    pub(crate) topo: &'a Topology,
}

impl<'a> SimCtx<'a> {
    /// Current simulation time, seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.st.now
    }

    /// The network. The returned reference outlives the `SimCtx` borrow
    /// (it is tied to the simulation, not to this view), so callers can
    /// hold it across mutations.
    #[inline]
    pub fn topo(&self) -> &'a Topology {
        self.topo
    }

    /// All flows (runtime state).
    #[inline]
    pub fn flows(&self) -> &[FlowRt] {
        &self.st.flows
    }

    /// One flow.
    #[inline]
    pub fn flow(&self, id: FlowId) -> &FlowRt {
        &self.st.flows[id]
    }

    /// All tasks.
    #[inline]
    pub fn tasks(&self) -> &[TaskRt] {
        &self.st.tasks
    }

    /// One task.
    #[inline]
    pub fn task(&self, id: TaskId) -> &TaskRt {
        &self.st.tasks[id]
    }

    /// Flow ids belonging to a task.
    #[inline]
    pub fn task_flows(&self, id: TaskId) -> std::ops::Range<FlowId> {
        self.st.tasks[id].spec.flows.clone()
    }

    /// Ids of all live (admitted, unfinished) flows, in ascending id
    /// order. Costs `O(in-flight)`, not `O(flows of the workload)`.
    pub fn live_flow_ids(&self) -> impl Iterator<Item = FlowId> + '_ {
        let flows = &self.st.flows;
        self.st
            .live
            .iter()
            .copied()
            .filter(move |&fid| flows[fid].status.is_live())
    }

    /// Fraction of a task's bytes already delivered — the *completion
    /// ratio* used by TAPS's reject rule.
    pub fn task_completion_ratio(&self, id: TaskId) -> f64 {
        let range = self.task_flows(id);
        let mut total = 0.0;
        let mut done = 0.0;
        for fid in range {
            let f = &self.st.flows[fid];
            total += f.spec.size;
            done += f.delivered.min(f.spec.size);
        }
        if total <= 0.0 {
            0.0
        } else {
            done / total
        }
    }

    /// Assigns a route to a flow. Must happen before the flow gets a
    /// nonzero rate.
    pub fn set_route(&mut self, id: FlowId, route: Path) {
        assert!(!route.is_empty(), "flow {id}: empty route");
        self.st.flows[id].route = Some(route);
    }

    /// Assigns the deterministic flow-level ECMP route (hash of the flow
    /// id over the candidate shortest paths), as §V-A uses for the
    /// baselines on multi-rooted trees. Panics if the endpoints are
    /// disconnected.
    pub fn set_ecmp_route(&mut self, id: FlowId) {
        let f = &self.st.flows[id];
        let pf = PathFinder::new(self.topo);
        let src = self.topo.host(f.spec.src);
        let dst = self.topo.host(f.spec.dst);
        #[expect(
            clippy::expect_used,
            reason = "workload generators only emit host pairs connected by construction"
        )]
        let route = pf
            .ecmp(src, dst, splitmix64(id as u64))
            .expect("flow endpoints disconnected");
        self.st.flows[id].route = Some(route);
    }

    /// Sets a flow's fluid transmission rate (bytes/s). The flow must be
    /// live and routed.
    pub fn set_rate(&mut self, id: FlowId, rate: f64) {
        let f = &mut self.st.flows[id];
        debug_assert!(
            rate >= 0.0 && rate.is_finite(),
            "flow {id}: bad rate {rate}"
        );
        if rate > 0.0 {
            debug_assert!(f.status.is_live(), "flow {id}: rate on non-live flow");
            debug_assert!(f.route.is_some(), "flow {id}: rate without route");
        }
        f.rate = rate;
    }

    /// Rejects an arriving task: all its flows become
    /// [`FlowStatus::Rejected`] and never transmit. Only valid while the
    /// task's flows have not delivered any bytes. Flows already in a
    /// terminal state (e.g. a 0-byte flow completed at arrival) keep it.
    pub fn reject_task(&mut self, id: TaskId) {
        for fid in self.task_flows(id) {
            let f = &mut self.st.flows[fid];
            if f.status.is_terminal() {
                continue;
            }
            debug_assert!(
                // lint: l8-ok(exact zero: delivered only accumulates, so a rejected task must never have transmitted a byte)
                f.delivered == 0.0,
                "rejecting task {id} after flow {fid} transmitted"
            );
            f.retire(FlowStatus::Rejected);
        }
        self.st.tasks[id].status = TaskStatus::Rejected;
    }

    /// Preempts (discards) an in-flight task: its unfinished flows stop
    /// and everything the task delivered counts as wasted bandwidth.
    /// This is TAPS's task preemption.
    pub fn discard_task(&mut self, id: TaskId) {
        for fid in self.task_flows(id) {
            let f = &mut self.st.flows[fid];
            if f.status.is_live() {
                f.retire(FlowStatus::Discarded);
            }
        }
        self.st.tasks[id].status = TaskStatus::Discarded;
    }

    /// Proactively terminates one flow (PDQ's Early Termination: the flow
    /// can no longer meet its deadline even at full rate).
    pub fn terminate_flow(&mut self, id: FlowId) {
        let f = &mut self.st.flows[id];
        debug_assert!(f.status.is_live());
        f.retire(FlowStatus::Terminated);
    }
}
