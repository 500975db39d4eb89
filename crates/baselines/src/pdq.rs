//! PDQ — Preemptive Distributed Quick flow scheduling (Hong et al.,
//! SIGCOMM'12), as simulated by the paper.
//!
//! Criticality order is EDF with SJF tie-breaking; the most critical flow
//! on every link of its path transmits at full rate (at most one flow per
//! link at any time), everything else is paused. §V-A simulates PDQ "with
//! the basic Early Termination function": a flow that can no longer meet
//! its deadline even at full rate is killed. A per-switch flow-list limit
//! can be configured to model PDQ's bounded switch state (the paper's
//! Fig. 3 uses a full flow list at one switch); flows that cannot claim a
//! list slot at every switch on their path are paused.

use crate::util::route_task_ecmp;
use taps_flowsim::{DeadlineAction, FlowId, Scheduler, SimCtx, TaskId, DEADLINE_SLACK};

/// PDQ configuration.
#[derive(Clone, Debug)]
pub struct PdqConfig {
    /// Early Termination: proactively kill flows that cannot meet their
    /// deadline even at full line rate (on in §V-A).
    pub early_termination: bool,
    /// Maximum number of flows each switch can track; `None` = unbounded.
    /// Flows are admitted to lists in criticality order; a flow that
    /// cannot claim a slot at *every* switch on its path is paused.
    pub flow_list_limit: Option<usize>,
    /// Per-switch overrides of the flow-list limit (the paper's Fig. 3
    /// assumes the list is full at one specific switch, S3).
    pub flow_list_limit_at: Vec<(taps_topology::NodeId, usize)>,
}

impl Default for PdqConfig {
    fn default() -> Self {
        PdqConfig {
            early_termination: true,
            flow_list_limit: None,
            flow_list_limit_at: Vec::new(),
        }
    }
}

impl PdqConfig {
    fn limit_at(&self, node: taps_topology::NodeId) -> Option<usize> {
        self.flow_list_limit_at
            .iter()
            .find(|(n, _)| *n == node)
            .map(|(_, l)| *l)
            .or(self.flow_list_limit)
    }
}

/// PDQ scheduler.
#[derive(Debug, Default)]
pub struct Pdq {
    cfg: PdqConfig,
    /// Stamped per-link busy flags.
    link_busy: Vec<u64>,
    /// Stamped per-node list-slot usage.
    node_slots: Vec<(u32, u64)>,
    epoch: u64,
}

impl Pdq {
    /// PDQ with §V-A defaults (Early Termination on, unbounded lists).
    pub fn new() -> Self {
        Self::with_config(PdqConfig::default())
    }

    /// PDQ with an explicit configuration.
    pub fn with_config(cfg: PdqConfig) -> Self {
        Pdq {
            cfg,
            link_busy: Vec::new(),
            node_slots: Vec::new(),
            epoch: 0,
        }
    }

    /// EDF-then-SJF criticality key (lower is more critical).
    fn key(f: &taps_flowsim::FlowRt) -> (f64, f64, usize) {
        (f.spec.deadline, f.remaining(), f.spec.id)
    }
}

impl Scheduler for Pdq {
    fn name(&self) -> &'static str {
        "PDQ"
    }

    fn on_task_arrival(&mut self, ctx: &mut SimCtx<'_>, task: TaskId) {
        route_task_ecmp(ctx, task);
    }

    fn on_flow_deadline(&mut self, _ctx: &mut SimCtx<'_>, _flow: FlowId) -> DeadlineAction {
        DeadlineAction::Stop
    }

    fn assign_rates(&mut self, ctx: &mut SimCtx<'_>) {
        let now = ctx.now();
        let mut live: Vec<FlowId> = ctx.live_flow_ids().collect();
        if live.is_empty() {
            return;
        }
        // `total_cmp` keyed sort: a NaN deadline or size cannot panic the
        // comparator (NaN orders after every real number).
        live.sort_by(|&a, &b| {
            let (da, ra, ia) = Self::key(ctx.flow(a));
            let (db, rb, ib) = Self::key(ctx.flow(b));
            da.total_cmp(&db)
                .then_with(|| ra.total_cmp(&rb))
                .then_with(|| ia.cmp(&ib))
        });

        self.epoch += 1;
        self.link_busy.resize(ctx.topo().num_links(), 0);
        self.node_slots.resize(ctx.topo().num_nodes(), (0, 0));

        for fid in live {
            let f = ctx.flow(fid);
            #[expect(
                clippy::expect_used,
                reason = "invariant: on_task_arrival routes every flow before it becomes live"
            )]
            let route = f.route.as_ref().expect("routed at arrival").clone();
            let bottleneck = route.bottleneck(ctx.topo());

            if self.cfg.early_termination {
                // Even at full rate from now on, the flow cannot finish
                // in time: kill it (PDQ's Early Termination).
                let best_finish = now + f.remaining() / bottleneck;
                if best_finish > f.spec.deadline + DEADLINE_SLACK {
                    ctx.terminate_flow(fid);
                    continue;
                }
            }

            // Claim a flow-list slot at every limited switch on the path
            // (paused flows occupy list state too, so this happens before
            // the link-availability check).
            if self.cfg.flow_list_limit.is_some() || !self.cfg.flow_list_limit_at.is_empty() {
                let nodes = route.nodes(ctx.topo());
                let switches: Vec<_> = nodes
                    .iter()
                    .filter(|n| ctx.topo().node(**n).kind.is_switch())
                    .copied()
                    .collect();
                let fits = switches.iter().all(|n| {
                    let Some(limit) = self.cfg.limit_at(*n) else {
                        return true;
                    };
                    let (used, ep) = self.node_slots[n.idx()];
                    (if ep == self.epoch { used } else { 0 }) < limit as u32
                });
                if !fits {
                    continue; // paused: no slots, no transmission
                }
                for n in switches {
                    let slot = &mut self.node_slots[n.idx()];
                    if slot.1 != self.epoch {
                        *slot = (0, self.epoch);
                    }
                    slot.0 += 1;
                }
            }

            // Transmit at full rate iff every link on the path is free.
            let free = route
                .links
                .iter()
                .all(|l| self.link_busy[l.idx()] != self.epoch);
            if free {
                for l in &route.links {
                    self.link_busy[l.idx()] = self.epoch;
                }
                ctx.set_rate(fid, bottleneck);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taps_flowsim::{FlowStatus, SimConfig, Simulation, Workload};
    use taps_topology::build::{dumbbell, GBPS};

    /// Paper Fig. 1(d): priority order f21, f11, f22, f12 (EDF ties broken
    /// by SJF). Flows run one at a time at full rate: f21 completes at 1,
    /// f11 at 3; f22 and f12 cannot finish by 4. Two flows, zero tasks.
    #[test]
    fn pdq_fig1_completes_two_flows_no_task() {
        let topo = dumbbell(4, 4, GBPS);
        let u = GBPS;
        let wl = Workload::from_tasks(vec![
            (0.0, 4.0, vec![(0, 4, 2.0 * u), (1, 5, 4.0 * u)]),
            (0.0, 4.0, vec![(2, 6, 1.0 * u), (3, 7, 3.0 * u)]),
        ]);
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut Pdq::new());
        assert_eq!(rep.tasks_completed, 0);
        assert_eq!(rep.flows_on_time, 2);
        // f21 (flow 2) then f11 (flow 0).
        assert!(rep.flow_outcomes[2].on_time);
        assert!((rep.flow_outcomes[2].finish.unwrap() - 1.0).abs() < 1e-6);
        assert!(rep.flow_outcomes[0].on_time);
        assert!((rep.flow_outcomes[0].finish.unwrap() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn pdq_early_termination_kills_doomed_flows() {
        let topo = dumbbell(2, 2, GBPS);
        // Two unit flows, both deadline 1.5: the second must wait 1 s and
        // then cannot finish by 1.5 -> terminated the moment it becomes
        // doomed, wasting nothing.
        let wl = Workload::from_tasks(vec![
            (0.0, 1.5, vec![(0, 2, GBPS)]),
            (0.0, 1.5, vec![(1, 3, GBPS)]),
        ]);
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut Pdq::new());
        assert_eq!(rep.flows_on_time, 1);
        assert_eq!(rep.flow_outcomes[1].status, FlowStatus::Terminated);
        assert_eq!(rep.flow_outcomes[1].delivered, 0.0);
    }

    #[test]
    fn pdq_preempts_for_more_critical_arrivals() {
        let topo = dumbbell(2, 2, GBPS);
        // A relaxed flow is preempted when an urgent one arrives.
        let wl = Workload::from_tasks(vec![
            (0.0, 10.0, vec![(0, 2, 3.0 * GBPS)]),
            (0.5, 1.6, vec![(1, 3, 1.0 * GBPS)]),
        ]);
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut Pdq::new());
        assert_eq!(rep.flows_on_time, 2);
        // Urgent flow runs 0.5..1.5.
        assert!((rep.flow_outcomes[1].finish.unwrap() - 1.5).abs() < 1e-6);
        // Preempted flow (0.5 s of its 3 s done) resumes at 1.5 and
        // finishes at 4.0.
        assert!((rep.flow_outcomes[0].finish.unwrap() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn pdq_flow_list_limit_pauses_excess_flows() {
        let topo = dumbbell(2, 2, GBPS);
        // Both flows share the left switch; with a 1-entry list only the
        // more critical flow may transmit even though their links beyond
        // the switch differ... here they also share the bottleneck, so
        // the observable effect is serialization (which unlimited PDQ
        // would also give); the difference shows on disjoint paths.
        let wl = Workload::from_tasks(vec![
            (0.0, 5.0, vec![(0, 2, GBPS)]),
            (0.0, 5.0, vec![(1, 0, GBPS)]), // h1 -> h0: disjoint links
        ]);
        let mut pdq = Pdq::with_config(PdqConfig {
            early_termination: false,
            flow_list_limit: Some(1),
            ..PdqConfig::default()
        });
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut pdq);
        // Disjoint directed paths, but both traverse the left switch: the
        // 1-slot list serializes them.
        let f0 = rep.flow_outcomes[0].finish.unwrap();
        let f1 = rep.flow_outcomes[1].finish.unwrap();
        assert!((f0 - 1.0).abs() < 1e-6, "critical flow unhindered: {f0}");
        assert!((f1 - 2.0).abs() < 1e-6, "second flow waited: {f1}");
    }

    /// Paper Fig. 3 under PDQ: with the flow list full at S3 (a 1-entry
    /// list at that switch only), f4 is paused behind f3's list slot and
    /// Early Termination kills it; f1, f2, f3 complete — the paper's
    /// "PDQ can only complete 3 flows".
    #[test]
    fn pdq_fig3_loses_the_fourth_flow() {
        use taps_topology::build::fig3_star;
        let topo = fig3_star(GBPS);
        let u = GBPS;
        let wl = Workload::from_tasks(vec![
            (0.0, 1.0, vec![(0, 1, u)]),
            (0.0, 2.0, vec![(0, 3, u)]),
            (0.0, 2.0, vec![(2, 1, u)]),
            (0.0, 3.0, vec![(2, 3, 2.0 * u)]),
        ]);
        // S3 (the edge switch of host index 2) is node 5 in fig3_star's
        // construction order: s5=0, then (s1=1,h1=2), (s2=3,h2=4),
        // (s3=5,h3=6), (s4=7,h4=8).
        let s3 = taps_topology::NodeId(5);
        assert!(topo.node(s3).kind.is_switch());
        let mut pdq = Pdq::with_config(PdqConfig {
            flow_list_limit_at: vec![(s3, 1)],
            ..PdqConfig::default()
        });
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut pdq);
        assert_eq!(rep.flows_on_time, 3);
        assert_eq!(rep.flow_outcomes[3].status, FlowStatus::Terminated);
    }

    #[test]
    fn pdq_without_list_limit_multiplexes_disjoint_paths() {
        let topo = dumbbell(2, 2, GBPS);
        let wl = Workload::from_tasks(vec![
            (0.0, 5.0, vec![(0, 2, GBPS)]),
            (0.0, 5.0, vec![(1, 0, GBPS)]),
        ]);
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut Pdq::new());
        // Disjoint directed paths: both at full rate concurrently.
        for o in &rep.flow_outcomes {
            assert!((o.finish.unwrap() - 1.0).abs() < 1e-6);
        }
    }
}
