//! Varys — deadline-sensitive coflow scheduling (Chowdhury et al.,
//! SIGCOMM'14), as the paper adapts it for deadline-sensitive
//! simulations.
//!
//! "The earliest-arrived task should be scheduled first. \[…\] in
//! deadline-sensitive environment, the rate of a flow is assigned as
//! `r = s/d`. \[…\] Once a task is scheduled, it would not be rejected"
//! (§II, §III-A): on arrival, every flow of the task reserves the constant
//! rate that finishes it exactly at the deadline; if any link cannot fit
//! the task's reservations on top of the existing ones, the **whole task
//! is rejected** — Varys never preempts admitted tasks, which is the
//! arrival-order sensitivity TAPS fixes.

use crate::util::route_task_ecmp;
use taps_flowsim::{DeadlineAction, FlowId, Scheduler, SimCtx, TaskId};

/// Varys scheduler (deadline-sensitive admission variant).
#[derive(Debug, Default)]
pub struct Varys {
    /// Reserved constant rate per flow (bytes/s); 0 for unadmitted flows.
    reserved: Vec<f64>,
    /// Stamped per-link reserved-sum scratch.
    link_reserved: Vec<f64>,
}

impl Varys {
    /// Creates a Varys scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for Varys {
    fn name(&self) -> &'static str {
        "Varys"
    }

    fn on_task_arrival(&mut self, ctx: &mut SimCtx<'_>, task: TaskId) {
        route_task_ecmp(ctx, task);
        self.reserved.resize(ctx.flows().len(), 0.0);

        // Existing reservations per link (live admitted flows only —
        // completed flows release their reservation implicitly). Admitted
        // flows run at constant rate until their shared deadline, and
        // within [now, new task's deadline] the reserved sum can only
        // drop as earlier tasks finish, so checking "now" is exact.
        self.link_reserved.clear();
        self.link_reserved.resize(ctx.topo().num_links(), 0.0);
        let live: Vec<FlowId> = ctx.live_flow_ids().collect();
        for fid in live {
            if ctx.flow(fid).spec.task == task {
                continue; // the new task's own flows
            }
            let r = self.reserved[fid];
            if r > 0.0 {
                #[expect(
                    clippy::expect_used,
                    reason = "invariant: on_task_arrival routes every flow before it becomes live"
                )]
                let route = ctx.flow(fid).route.as_ref().expect("routed at arrival");
                for l in &route.links {
                    self.link_reserved[l.idx()] += r;
                }
            }
        }

        // Required new reservations.
        let flows = ctx.task_flows(task);
        let mut feasible = true;
        'check: for fid in flows.clone() {
            let f = ctx.flow(fid);
            let r = f.spec.size / f.spec.rel_deadline();
            #[expect(
                clippy::expect_used,
                reason = "invariant: on_task_arrival routes every flow before it becomes live"
            )]
            let route = f.route.as_ref().expect("routed at arrival");
            for l in &route.links {
                let cap = ctx.topo().link(*l).capacity;
                // Accumulate the task's own demand link by link.
                self.link_reserved[l.idx()] += r;
                if self.link_reserved[l.idx()] > cap * (1.0 + 1e-9) {
                    feasible = false;
                    break 'check;
                }
            }
        }

        if feasible {
            for fid in flows {
                let f = ctx.flow(fid);
                self.reserved[fid] = f.spec.size / f.spec.rel_deadline();
            }
        } else {
            ctx.reject_task(task);
        }
    }

    fn on_flow_deadline(&mut self, _ctx: &mut SimCtx<'_>, _flow: FlowId) -> DeadlineAction {
        DeadlineAction::Stop
    }

    fn assign_rates(&mut self, ctx: &mut SimCtx<'_>) {
        let live: Vec<FlowId> = ctx.live_flow_ids().collect();
        for fid in live {
            let r = self.reserved.get(fid).copied().unwrap_or(0.0);
            if r > 0.0 {
                ctx.set_rate(fid, r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taps_flowsim::{FlowStatus, SimConfig, Simulation, Workload};
    use taps_topology::build::{dumbbell, GBPS};

    /// Paper Fig. 2(c): t1 = {(1,4),(1,4)} reserves 1/4 + 1/4; t2 =
    /// {(1,2),(1,2)} would need another 1/2 + 1/2 on the bottleneck —
    /// infeasible, so t2 is rejected whole. Varys completes 1 task.
    #[test]
    fn varys_fig2_completes_one_task() {
        let topo = dumbbell(4, 4, GBPS);
        let u = GBPS;
        let wl = Workload::from_tasks(vec![
            (0.0, 4.0, vec![(0, 4, u), (1, 5, u)]),
            (0.0, 2.0, vec![(2, 6, u), (3, 7, u)]),
        ]);
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut Varys::new());
        assert_eq!(rep.tasks_completed, 1);
        assert!(rep.task_success[0]);
        assert_eq!(rep.flow_outcomes[2].status, FlowStatus::Rejected);
        assert_eq!(rep.flow_outcomes[3].status, FlowStatus::Rejected);
        // Rejected flows never transmit: zero waste.
        assert_eq!(rep.bytes_wasted_flow, 0.0);
        // Admitted flows finish exactly at their deadline.
        for fid in [0usize, 1] {
            let fin = rep.flow_outcomes[fid].finish.unwrap();
            assert!((fin - 4.0).abs() < 1e-6, "finish {fin}");
        }
    }

    #[test]
    fn varys_admits_when_feasible() {
        let topo = dumbbell(4, 4, GBPS);
        let u = GBPS;
        let wl = Workload::from_tasks(vec![
            (0.0, 4.0, vec![(0, 4, u)]),
            (0.0, 2.0, vec![(1, 5, u)]),
        ]);
        // Reservations: 1/4 + 1/2 = 3/4 <= 1: both admitted.
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut Varys::new());
        assert_eq!(rep.tasks_completed, 2);
    }

    #[test]
    fn varys_is_arrival_order_sensitive() {
        // The same two tasks in the opposite arrival order: the urgent
        // task now reserves first and the lax one still fits -> order
        // changes the outcome under rejection-based admission when the
        // total doesn't fit.
        let topo = dumbbell(4, 4, GBPS);
        let u = GBPS;
        // Lax task wants rate 0.8 (reserve), urgent wants 0.5.
        let wl1 = Workload::from_tasks(vec![
            (0.0, 2.5, vec![(0, 4, 2.0 * u)]), // r = 0.8
            (0.001, 2.001, vec![(1, 5, u)]),   // r = 0.5 -> rejected
        ]);
        let rep1 = Simulation::new(&topo, &wl1, SimConfig::default()).run(&mut Varys::new());
        assert_eq!(rep1.tasks_completed, 1);
        assert!(rep1.task_success[0]);

        let wl2 = Workload::from_tasks(vec![
            (0.0, 2.0, vec![(0, 4, u)]),           // r = 0.5
            (0.001, 2.501, vec![(1, 5, 2.0 * u)]), // r = 0.8 -> rejected
        ]);
        let rep2 = Simulation::new(&topo, &wl2, SimConfig::default()).run(&mut Varys::new());
        assert_eq!(rep2.tasks_completed, 1);
        assert!(rep2.task_success[0]);
    }

    #[test]
    fn varys_rejects_task_atomically() {
        let topo = dumbbell(4, 4, GBPS);
        let u = GBPS;
        // Task 1 has one feasible flow and one infeasible flow: the whole
        // task is rejected, including the feasible flow.
        let wl = Workload::from_tasks(vec![
            (0.0, 2.0, vec![(0, 4, 1.8 * u)]),                  // r = 0.9
            (0.0, 2.0, vec![(1, 5, 0.1 * u), (2, 6, 1.0 * u)]), // 0.05 ok, 0.5 no
        ]);
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut Varys::new());
        assert_eq!(rep.tasks_completed, 1);
        assert_eq!(rep.flow_outcomes[1].status, FlowStatus::Rejected);
        assert_eq!(rep.flow_outcomes[2].status, FlowStatus::Rejected);
    }
}
