//! Fair Sharing — the deadline- and task-agnostic baseline.
//!
//! "Each flow that competes for a bottleneck link gets a fair share of the
//! link capacity" (§V-A): max-min fairness via progressive filling. Flows
//! that miss their deadline stop transmitting (explicitly granted to Fair
//! Sharing and D3 by §V-A so useless transmission is avoided).

use crate::util::{max_min_rates, route_task_ecmp};
use taps_flowsim::{DeadlineAction, FlowId, Scheduler, SimCtx, TaskId};

/// Max-min Fair Sharing scheduler.
#[derive(Debug, Default)]
pub struct FairSharing {
    _priv: (),
}

impl FairSharing {
    /// Creates a Fair Sharing scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for FairSharing {
    fn name(&self) -> &'static str {
        "FairSharing"
    }

    fn on_task_arrival(&mut self, ctx: &mut SimCtx<'_>, task: TaskId) {
        // Admit everything; route by flow-level ECMP.
        route_task_ecmp(ctx, task);
    }

    fn on_flow_deadline(&mut self, _ctx: &mut SimCtx<'_>, _flow: FlowId) -> DeadlineAction {
        DeadlineAction::Stop
    }

    fn assign_rates(&mut self, ctx: &mut SimCtx<'_>) {
        let live: Vec<FlowId> = ctx.live_flow_ids().collect();
        if live.is_empty() {
            return;
        }
        let rates = {
            #[expect(
                clippy::expect_used,
                reason = "invariant: on_task_arrival routes every flow before it becomes live"
            )]
            let flows: Vec<(FlowId, &taps_topology::Path)> = live
                .iter()
                .map(|&fid| {
                    (
                        fid,
                        ctx.flow(fid).route.as_ref().expect("routed at arrival"),
                    )
                })
                .collect();
            max_min_rates(ctx.topo(), &flows)
        };
        for (i, fid) in live.into_iter().enumerate() {
            ctx.set_rate(fid, rates[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taps_flowsim::{SimConfig, Simulation, Workload};
    use taps_topology::build::{dumbbell, GBPS};

    #[test]
    fn fair_sharing_splits_bottleneck_equally() {
        let topo = dumbbell(2, 2, GBPS);
        // Two equal cross flows, generous deadlines: both finish at the
        // same instant (1 s at half rate for 0.5 s of traffic each).
        let wl = Workload::from_tasks(vec![(
            0.0,
            5.0,
            vec![(0, 2, GBPS / 2.0), (1, 3, GBPS / 2.0)],
        )]);
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut FairSharing::new());
        assert_eq!(rep.flows_on_time, 2);
        for o in &rep.flow_outcomes {
            assert!((o.finish.unwrap() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn fair_sharing_fig1_completes_one_flow_no_task() {
        // Paper Fig. 1(b): four flows (2 tasks x 2 flows) on one
        // bottleneck; sizes (2,4,1,3) "time units", all deadlines 4.
        // With fair sharing, only f21 (size 1) completes: at 1/4 rate
        // each, f21 finishes at t=4... exactly at the deadline; the rest
        // miss. One flow, zero tasks.
        let topo = dumbbell(4, 4, GBPS);
        let u = GBPS; // one "size unit" = one second at link rate
        let wl = Workload::from_tasks(vec![
            (0.0, 4.0, vec![(0, 4, 2.0 * u), (1, 5, 4.0 * u)]),
            (0.0, 4.0, vec![(2, 6, 1.0 * u), (3, 7, 3.0 * u)]),
        ]);
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut FairSharing::new());
        assert_eq!(rep.tasks_completed, 0);
        assert_eq!(rep.flows_on_time, 1);
        // The on-time flow is the smallest one (f21 = flow id 2).
        assert!(rep.flow_outcomes[2].on_time);
    }

    #[test]
    fn stops_missed_flows() {
        let topo = dumbbell(1, 1, GBPS);
        let wl = Workload::from_tasks(vec![(0.0, 1.0, vec![(0, 1, 3.0 * GBPS)])]);
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut FairSharing::new());
        // Stopped at the deadline: exactly 1 s of bytes delivered.
        assert!((rep.bytes_delivered - GBPS).abs() < 1e3);
        assert_eq!(rep.flows_on_time, 0);
    }
}
