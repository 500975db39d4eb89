//! D3 — Deadline-Driven Delivery control (Wilson et al., SIGCOMM'11), as
//! simulated by the paper.
//!
//! Flows request `r = remaining / (deadline − now)` and are served
//! **first-come-first-served in arrival order**; leftover capacity is
//! handed out greedily in the same order (this reproduces D3's documented
//! pathology: "large flows that arrived earlier occupy the bottleneck
//! bandwidth, but block small flows arrived later"). Per §V-A, the
//! implementation includes the improvement from the PDQ paper: flows that
//! already missed their deadline stop transmitting.

use crate::util::route_task_ecmp;
use taps_flowsim::{DeadlineAction, FlowId, Scheduler, SimCtx, TaskId};

/// D3 scheduler.
#[derive(Debug, Default)]
pub struct D3 {
    /// Stamped residual-capacity scratch (bytes/s), one slot per link.
    residual: Vec<f64>,
}

impl D3 {
    /// Creates a D3 scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for D3 {
    fn name(&self) -> &'static str {
        "D3"
    }

    fn on_task_arrival(&mut self, ctx: &mut SimCtx<'_>, task: TaskId) {
        route_task_ecmp(ctx, task);
    }

    fn on_flow_deadline(&mut self, _ctx: &mut SimCtx<'_>, _flow: FlowId) -> DeadlineAction {
        DeadlineAction::Stop
    }

    fn assign_rates(&mut self, ctx: &mut SimCtx<'_>) {
        let now = ctx.now();
        // Flow ids are assigned in task-arrival order, and flows within a
        // task arrive together, so ascending id *is* FCFS order.
        let live: Vec<FlowId> = ctx.live_flow_ids().collect();
        if live.is_empty() {
            return;
        }
        self.residual.clear();
        self.residual
            .extend(ctx.topo().links().map(|(_, l)| l.capacity));

        let mut rates = vec![0.0f64; live.len()];
        // Pass 1: grant the requested rate, capped by path residuals.
        for (i, &fid) in live.iter().enumerate() {
            let f = ctx.flow(fid);
            let t_left = f.spec.deadline - now;
            if t_left <= 0.0 {
                continue; // will be stopped by the deadline event
            }
            let request = f.remaining() / t_left;
            #[expect(
                clippy::expect_used,
                reason = "invariant: on_task_arrival routes every flow before it becomes live"
            )]
            let route = f.route.as_ref().expect("routed at arrival");
            let avail = route
                .links
                .iter()
                .map(|l| self.residual[l.idx()])
                .fold(f64::INFINITY, f64::min);
            let r = request.min(avail).max(0.0);
            if r > 0.0 {
                for l in &route.links {
                    self.residual[l.idx()] -= r;
                }
                rates[i] = r;
            }
        }
        // Pass 2: hand leftovers out greedily in the same FCFS order so
        // earlier flows can finish ahead of their request schedule.
        for (i, &fid) in live.iter().enumerate() {
            let f = ctx.flow(fid);
            #[expect(
                clippy::expect_used,
                reason = "invariant: on_task_arrival routes every flow before it becomes live"
            )]
            let route = f.route.as_ref().expect("routed at arrival");
            let avail = route
                .links
                .iter()
                .map(|l| self.residual[l.idx()])
                .fold(f64::INFINITY, f64::min);
            if avail > 0.0 {
                for l in &route.links {
                    self.residual[l.idx()] -= avail;
                }
                rates[i] += avail;
            }
        }
        for (i, fid) in live.into_iter().enumerate() {
            if rates[i] > 0.0 {
                ctx.set_rate(fid, rates[i]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taps_flowsim::{FlowStatus, SimConfig, Simulation, Workload};
    use taps_topology::build::{dumbbell, GBPS};

    /// Paper Fig. 1(c): sizes (2,4) for task 1 and (1,3) for task 2, all
    /// deadlines 4 "time units". D3 serves f11 and f12 first (earlier
    /// flows); f11 finishes on time, everything else misses: 1 flow, 0
    /// tasks.
    #[test]
    fn d3_fig1_completes_one_flow_no_task() {
        let topo = dumbbell(4, 4, GBPS);
        let u = GBPS;
        let wl = Workload::from_tasks(vec![
            (0.0, 4.0, vec![(0, 4, 2.0 * u), (1, 5, 4.0 * u)]),
            (0.0, 4.0, vec![(2, 6, 1.0 * u), (3, 7, 3.0 * u)]),
        ]);
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut D3::new());
        assert_eq!(rep.tasks_completed, 0);
        assert_eq!(rep.flows_on_time, 1);
        // f11 (flow 0) is the completed one, at exactly t = 4 (rate 1/2).
        assert!(rep.flow_outcomes[0].on_time);
        assert!((rep.flow_outcomes[0].finish.unwrap() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn d3_grants_requests_when_feasible() {
        let topo = dumbbell(2, 2, GBPS);
        // Two flows each needing a third of the link: both get their
        // request and finish exactly at their deadlines (leftover goes to
        // the first flow, so it finishes earlier).
        let wl = Workload::from_tasks(vec![(0.0, 3.0, vec![(0, 2, GBPS), (1, 3, GBPS)])]);
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut D3::new());
        assert_eq!(rep.flows_on_time, 2);
        assert_eq!(rep.tasks_completed, 1);
        // FCFS leftover: flow 0 hogs the spare and finishes first.
        assert!(rep.flow_outcomes[0].finish.unwrap() < rep.flow_outcomes[1].finish.unwrap());
    }

    #[test]
    fn d3_blocks_later_urgent_flows() {
        let topo = dumbbell(2, 2, GBPS);
        // Earlier large lazy flow vs later small urgent flow: FCFS lets
        // the large flow eat the link; the urgent one starves.
        let wl = Workload::from_tasks(vec![
            (0.0, 10.0, vec![(0, 2, 5.0 * GBPS)]),
            (0.1, 1.1, vec![(1, 3, 0.95 * GBPS)]),
        ]);
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut D3::new());
        // Flow 0 requests 0.5; flow 1 requests ~0.95 but only ~0.5 is
        // left... it cannot make its deadline.
        assert!(rep.flow_outcomes[0].on_time);
        assert_eq!(rep.flow_outcomes[1].status, FlowStatus::Missed);
    }
}
