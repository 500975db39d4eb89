//! Property tests of the simulation engine itself, driven by a "chaos"
//! scheduler that makes adversarial-but-legal choices: random admission,
//! random feasible rates, random deadline actions. Whatever the
//! scheduler does within its contract, the engine must conserve bytes,
//! never oversubscribe a link (the engine's own validator is armed), and
//! terminate.
//!
//! Every run goes through [`LiveSetCheck`], which compares the engine's
//! incrementally maintained live-flow list against a scan of the whole
//! flow array at every scheduler callback.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taps_flowsim::{
    DeadlineAction, FaultEvent, FaultKind, FlowId, FlowStatus, Scheduler, SimConfig, SimCtx,
    Simulation, TaskId, TaskStatus, Workload,
};
use taps_topology::build::{dumbbell, single_rooted, GBPS};

/// Legal-but-random scheduler.
struct Chaos {
    rng: StdRng,
    reject_prob: f64,
    continue_prob: f64,
    /// Per arrival: preempt one earlier, still admitted task.
    discard_prob: f64,
    /// Per live flow and rate assignment: terminate it early.
    terminate_prob: f64,
}

impl Chaos {
    fn new(seed: u64, reject_prob: f64, continue_prob: f64) -> Self {
        Chaos {
            rng: StdRng::seed_from_u64(seed),
            reject_prob,
            continue_prob,
            discard_prob: 0.0,
            terminate_prob: 0.0,
        }
    }
}

impl Scheduler for Chaos {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn on_task_arrival(&mut self, ctx: &mut SimCtx<'_>, task: TaskId) {
        if task > 0 && self.rng.gen_bool(self.discard_prob) {
            let victim = self.rng.gen_range(0..task);
            if ctx.task(victim).status == TaskStatus::Admitted {
                ctx.discard_task(victim);
            }
        }
        // ECMP routing panics on a disconnected pair, so arrivals during
        // an outage are turned away.
        if !ctx.topo().all_up() || self.rng.gen_bool(self.reject_prob) {
            ctx.reject_task(task);
            return;
        }
        for fid in ctx.task_flows(task) {
            ctx.set_ecmp_route(fid);
        }
    }

    fn on_flow_deadline(&mut self, _ctx: &mut SimCtx<'_>, _flow: FlowId) -> DeadlineAction {
        if self.rng.gen_bool(self.continue_prob) {
            DeadlineAction::Continue
        } else {
            DeadlineAction::Stop
        }
    }

    fn assign_rates(&mut self, ctx: &mut SimCtx<'_>) {
        // Random share of each flow's fair share: never oversubscribes
        // because the shares are scaled by the per-link flow counts.
        let mut live: Vec<FlowId> = ctx.live_flow_ids().collect();
        live.retain(|&fid| {
            let kill = self.rng.gen_bool(self.terminate_prob);
            if kill {
                ctx.terminate_flow(fid);
            }
            !kill
        });
        if live.is_empty() {
            return;
        }
        let mut link_count = vec![0u32; ctx.topo().num_links()];
        for &fid in &live {
            if let Some(r) = &ctx.flow(fid).route {
                for l in &r.links {
                    link_count[l.idx()] += 1;
                }
            }
        }
        for fid in live {
            let Some(route) = ctx.flow(fid).route.clone() else {
                continue;
            };
            let fair = route
                .links
                .iter()
                .map(|l| ctx.topo().link(*l).capacity / link_count[l.idx()] as f64)
                .fold(f64::INFINITY, f64::min);
            let frac = self.rng.gen_range(0.0..=1.0);
            if frac > 0.05 {
                ctx.set_rate(fid, fair * frac);
            }
        }
    }
}

/// Differential check of the engine's live-flow list: before and after
/// every callback of the wrapped scheduler, `live_flow_ids()` must read
/// exactly like a scan of the full flow array, and every terminal flow
/// must have stopped and released its route.
struct LiveSetCheck<S>(S);

fn assert_live_view(ctx: &SimCtx<'_>) {
    let listed: Vec<FlowId> = ctx.live_flow_ids().collect();
    let scanned: Vec<FlowId> = ctx
        .flows()
        .iter()
        .enumerate()
        .filter(|(_, f)| f.status.is_live())
        .map(|(fid, _)| fid)
        .collect();
    assert_eq!(listed, scanned, "live list diverged at t={}", ctx.now());
    for (fid, f) in ctx.flows().iter().enumerate() {
        if f.status.is_terminal() {
            assert!(
                f.route.is_none() && f.rate == 0.0,
                "terminal flow {fid} still holds a route or a rate"
            );
        }
    }
}

impl<S: Scheduler> Scheduler for LiveSetCheck<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn on_task_arrival(&mut self, ctx: &mut SimCtx<'_>, task: TaskId) {
        assert_live_view(ctx);
        self.0.on_task_arrival(ctx, task);
        assert_live_view(ctx);
    }

    fn on_flow_completed(&mut self, ctx: &mut SimCtx<'_>, flow: FlowId) {
        assert_live_view(ctx);
        self.0.on_flow_completed(ctx, flow);
        assert_live_view(ctx);
    }

    fn on_flow_deadline(&mut self, ctx: &mut SimCtx<'_>, flow: FlowId) -> DeadlineAction {
        assert_live_view(ctx);
        let action = self.0.on_flow_deadline(ctx, flow);
        assert_live_view(ctx);
        action
    }

    fn on_fault(&mut self, ctx: &mut SimCtx<'_>, event: &FaultEvent) {
        assert_live_view(ctx);
        self.0.on_fault(ctx, event);
        assert_live_view(ctx);
    }

    fn assign_rates(&mut self, ctx: &mut SimCtx<'_>) {
        assert_live_view(ctx);
        self.0.assign_rates(ctx);
        assert_live_view(ctx);
    }

    fn next_wake(&mut self, now: f64) -> Option<f64> {
        self.0.next_wake(now)
    }
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (1u64..100_000, 1usize..10, 1usize..12, 1usize..200).prop_map(
        |(seed, tasks, flows, size_kb)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut specs = Vec::new();
            let mut arrival = 0.0;
            for _ in 0..tasks {
                arrival += rng.gen_range(0.0..0.01);
                let deadline = arrival + rng.gen_range(0.001..0.05);
                let n = rng.gen_range(1..=flows);
                let mut fs = Vec::new();
                for _ in 0..n {
                    let src = rng.gen_range(0..16usize);
                    let dst = (src + rng.gen_range(1..16usize)) % 16;
                    fs.push((src, dst, size_kb as f64 * 1000.0 * rng.gen_range(0.2..2.0)));
                }
                specs.push((arrival, deadline, fs));
            }
            Workload::from_tasks(specs)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chaos_scheduler_cannot_break_the_engine(
        wl in arb_workload(),
        seed in 0u64..1_000,
        reject in 0.0f64..0.5,
        cont in 0.0f64..1.0,
        discard in 0.0f64..0.3,
        terminate in 0.0f64..0.05,
        outage in (0usize..1_000, 0.0f64..0.1, 0.0f64..0.05),
    ) {
        let topo = single_rooted(2, 2, 4, GBPS);
        let mut chaos = LiveSetCheck(Chaos {
            discard_prob: discard,
            terminate_prob: terminate,
            ..Chaos::new(seed, reject, cont)
        });
        // One cable fails mid-run and is repaired later.
        let (link, down_at, down_for) = outage;
        let (link, _) = topo.links().nth(link % topo.num_links()).expect("index in range");
        let cfg = SimConfig {
            faults: vec![
                FaultEvent { time: down_at, kind: FaultKind::LinkDown(link) },
                FaultEvent { time: down_at + down_for, kind: FaultKind::LinkUp(link) },
            ],
            // validate_capacity on: the engine itself asserts feasibility.
            ..SimConfig::default()
        };
        let rep = Simulation::new(&topo, &wl, cfg).run(&mut chaos);
        prop_assert!(!rep.truncated, "chaos run must terminate naturally");
        prop_assert_eq!(rep.flows_total, wl.num_flows());
        // Byte conservation per flow.
        for o in &rep.flow_outcomes {
            prop_assert!(o.delivered >= 0.0);
            prop_assert!(o.delivered <= wl.flows[o.flow].size + 1.0);
            match o.status {
                FlowStatus::Completed => {
                    prop_assert!(o.finish.is_some());
                    prop_assert!(o.delivered >= wl.flows[o.flow].size - 1.0);
                }
                FlowStatus::Rejected => prop_assert_eq!(o.delivered, 0.0),
                FlowStatus::NotArrived | FlowStatus::Admitted => {
                    prop_assert!(false, "non-terminal status at end: {:?}", o.status);
                }
                _ => {}
            }
        }
        // Global conservation.
        let sum: f64 = rep.flow_outcomes.iter().map(|o| o.delivered).sum();
        prop_assert!((sum - rep.bytes_delivered).abs() < 1.0);
    }

    #[test]
    fn finish_times_respect_physics(wl in arb_workload(), seed in 0u64..1_000) {
        // A flow cannot finish faster than its size over the line rate,
        // counting from its arrival.
        let topo = dumbbell(8, 8, GBPS);
        let mut chaos = LiveSetCheck(Chaos::new(seed, 0.1, 0.5));
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut chaos);
        for o in &rep.flow_outcomes {
            if let Some(fin) = o.finish {
                let spec = &wl.flows[o.flow];
                let min_time = spec.size / GBPS;
                prop_assert!(
                    fin >= spec.arrival + min_time - 1e-6,
                    "flow {} finished impossibly fast: {} < {} + {}",
                    o.flow, fin, spec.arrival, min_time
                );
            }
        }
    }

    #[test]
    fn deadline_stop_caps_late_delivery(wl in arb_workload(), seed in 0u64..1_000) {
        // With Continue-probability 0, no flow may deliver anything
        // after its deadline: delivered <= capacity x (deadline-arrival).
        let topo = dumbbell(8, 8, GBPS);
        let mut chaos = LiveSetCheck(Chaos::new(seed, 0.0, 0.0));
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut chaos);
        for o in &rep.flow_outcomes {
            let spec = &wl.flows[o.flow];
            let budget = GBPS * (spec.deadline - spec.arrival);
            prop_assert!(o.delivered <= budget + 1.0,
                "flow {} delivered {} > pre-deadline budget {}", o.flow, o.delivered, budget);
        }
    }
}
