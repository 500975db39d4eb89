//! Baraat — decentralized task-aware scheduling (Dogar et al.), as
//! simulated by the paper.
//!
//! "The priority of tasks obeys FIFO \[arrival order\] and the priority of
//! all the flows in a task is the same \[SJF among them in the Fig. 2
//! walk-through\]. The flow scheduling of Baraat is similar to PDQ except
//! the flow priority" (§II). Baraat is **deadline-agnostic**: it neither
//! rejects nor terminates flows, and it keeps transmitting after deadlines
//! pass — which is exactly why its wasted-bandwidth ratio is high in
//! Fig. 8.

use crate::util::route_task_ecmp;
use taps_flowsim::{DeadlineAction, FlowId, Scheduler, SimCtx, TaskId};

/// Baraat scheduler.
#[derive(Debug, Default)]
pub struct Baraat {
    /// Stamped per-link busy flags.
    link_busy: Vec<u64>,
    epoch: u64,
}

impl Baraat {
    /// Creates a Baraat scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// FIFO-task then SJF-within-task priority key (lower is more
    /// critical). Task ids are assigned in arrival order.
    fn key(f: &taps_flowsim::FlowRt) -> (usize, f64, usize) {
        (f.spec.task, f.remaining(), f.spec.id)
    }
}

impl Scheduler for Baraat {
    fn name(&self) -> &'static str {
        "Baraat"
    }

    fn on_task_arrival(&mut self, ctx: &mut SimCtx<'_>, task: TaskId) {
        route_task_ecmp(ctx, task);
    }

    fn on_flow_deadline(&mut self, _ctx: &mut SimCtx<'_>, _flow: FlowId) -> DeadlineAction {
        // Deadline-agnostic: keep going (and keep wasting bandwidth).
        DeadlineAction::Continue
    }

    fn assign_rates(&mut self, ctx: &mut SimCtx<'_>) {
        let mut live: Vec<FlowId> = ctx.live_flow_ids().collect();
        if live.is_empty() {
            return;
        }
        // `total_cmp` keyed sort: a NaN flow size cannot panic the
        // comparator (NaN orders after every real number).
        live.sort_by(|&a, &b| {
            let (ta, ra, ia) = Self::key(ctx.flow(a));
            let (tb, rb, ib) = Self::key(ctx.flow(b));
            ta.cmp(&tb)
                .then_with(|| ra.total_cmp(&rb))
                .then_with(|| ia.cmp(&ib))
        });

        self.epoch += 1;
        self.link_busy.resize(ctx.topo().num_links(), 0);

        for fid in live {
            #[expect(
                clippy::expect_used,
                reason = "invariant: on_task_arrival routes every flow before it becomes live"
            )]
            let route = ctx
                .flow(fid)
                .route
                .as_ref()
                .expect("routed at arrival")
                .clone();
            let free = route
                .links
                .iter()
                .all(|l| self.link_busy[l.idx()] != self.epoch);
            if free {
                let rate = route.bottleneck(ctx.topo());
                for l in &route.links {
                    self.link_busy[l.idx()] = self.epoch;
                }
                ctx.set_rate(fid, rate);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taps_flowsim::{SimConfig, Simulation, Workload};
    use taps_topology::build::{dumbbell, GBPS};

    /// Paper Fig. 2(b): t1 = {f11 (1,4), f12 (1,4)}, t2 = {f21 (1,2),
    /// f22 (1,2)}. Earlier-arrived t1 runs first (SJF within the task),
    /// so t2's flows start at 2 and 3 and both miss their deadline of 2:
    /// t2 fails. (The paper's prose says Baraat "fails all the tasks",
    /// but by Fig. 2(a)'s own numbers t1 finishes at 2 ≤ 4 under any
    /// FIFO-task schedule; the robust claim — Baraat completes fewer
    /// tasks than TAPS's 2 — is asserted in the cross-scheduler
    /// integration tests.)
    #[test]
    fn baraat_fig2_fails_the_urgent_task() {
        let topo = dumbbell(4, 4, GBPS);
        let u = GBPS;
        let wl = Workload::from_tasks(vec![
            (0.0, 4.0, vec![(0, 4, u), (1, 5, u)]),
            (0.0, 2.0, vec![(2, 6, u), (3, 7, u)]),
        ]);
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut Baraat::new());
        assert_eq!(rep.tasks_completed, 1);
        assert!(rep.task_success[0]);
        assert!(!rep.task_success[1], "the urgent task must fail");
        // t1's two flows complete on time (at 1 and 2); t2's miss but
        // still finish late (deadline-agnostic).
        assert_eq!(rep.flows_on_time, 2);
        assert!(rep.flow_outcomes[0].on_time);
        assert!(rep.flow_outcomes[1].on_time);
        assert!(!rep.flow_outcomes[2].on_time);
        // t2's flows were fully delivered (bandwidth wasted past the
        // deadline).
        assert!(rep.flow_outcomes[2].delivered >= u - 1.0);
        assert!(rep.flow_outcomes[3].delivered >= u - 1.0);
        assert!(rep.wasted_bandwidth_ratio() > 0.4);
    }

    #[test]
    fn baraat_task_order_trumps_deadlines() {
        let topo = dumbbell(2, 2, GBPS);
        // Task 0 arrives first with a lax deadline; task 1 is urgent but
        // must wait (FIFO) and misses.
        let wl = Workload::from_tasks(vec![
            (0.0, 9.0, vec![(0, 2, 2.0 * GBPS)]),
            (0.001, 1.0, vec![(1, 3, GBPS)]),
        ]);
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut Baraat::new());
        assert!(rep.flow_outcomes[0].on_time);
        assert!(!rep.flow_outcomes[1].on_time);
    }

    #[test]
    fn baraat_sjf_within_task() {
        let topo = dumbbell(2, 2, GBPS);
        // One task, two flows sharing the bottleneck: the smaller flow
        // goes first.
        let wl = Workload::from_tasks(vec![(
            0.0,
            9.0,
            vec![(0, 2, 3.0 * GBPS), (1, 3, 1.0 * GBPS)],
        )]);
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut Baraat::new());
        let small = rep.flow_outcomes[1].finish.unwrap();
        let big = rep.flow_outcomes[0].finish.unwrap();
        assert!((small - 1.0).abs() < 1e-6);
        assert!((big - 4.0).abs() < 1e-6);
    }
}
