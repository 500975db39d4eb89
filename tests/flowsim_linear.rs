//! The flowsim engine's per-event cost must follow the flows in flight,
//! not the length of the workload, and making it so must not move a
//! single outcome. No wall clock: the first test reads the length of the
//! engine's live-flow list, the second pins every scheduler's report.

use taps::prelude::*;
use taps_flowsim::{DeadlineAction, FlowId, SimCtx, TaskId};

/// The `sim_taps_k8` benchmark shape: Poisson arrivals at 300 tasks/s of
/// ~16-flow tasks on `fat_tree(8)`.
fn round(tasks: usize, seed: u64) -> Workload {
    WorkloadConfig {
        num_tasks: tasks,
        mean_flows_per_task: 16.0,
        sd_flows_per_task: 4.0,
        arrival_rate: 300.0,
        ..WorkloadConfig::paper_multi_rooted(128, seed)
    }
    .generate()
}

/// `Taps`, recording at every callback how many ids `live_flow_ids()`
/// would walk (its upper size hint is the length of the engine's list,
/// stale entries included) and how many of them are live.
struct Watched {
    inner: Taps,
    max_listed: usize,
    max_in_flight: usize,
}

impl Watched {
    fn look(&mut self, ctx: &SimCtx<'_>) {
        let ids = ctx.live_flow_ids();
        let listed = ids
            .size_hint()
            .1
            .expect("a filtered slice has an upper bound");
        self.max_listed = self.max_listed.max(listed);
        self.max_in_flight = self.max_in_flight.max(ids.count());
    }
}

impl Scheduler for Watched {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_task_arrival(&mut self, ctx: &mut SimCtx<'_>, task: TaskId) {
        self.inner.on_task_arrival(ctx, task);
        self.look(ctx);
    }

    fn on_flow_deadline(&mut self, ctx: &mut SimCtx<'_>, flow: FlowId) -> DeadlineAction {
        self.look(ctx);
        self.inner.on_flow_deadline(ctx, flow)
    }

    fn assign_rates(&mut self, ctx: &mut SimCtx<'_>) {
        self.look(ctx);
        self.inner.assign_rates(ctx);
        self.look(ctx);
    }

    fn next_wake(&mut self, now: f64) -> Option<f64> {
        self.inner.next_wake(now)
    }
}

fn watch(topo: &Topology, wl: &Workload) -> Watched {
    let mut sched = Watched {
        inner: Taps::new(),
        max_listed: 0,
        max_in_flight: 0,
    };
    let rep = Simulation::new(topo, wl, SimConfig::default()).run(&mut sched);
    assert!(!rep.truncated);
    sched
}

#[test]
fn live_list_tracks_flows_in_flight_not_round_length() {
    let topo = fat_tree(8, GBPS);
    let short = round(500, 11);
    let long = round(2_000, 11);
    let burst = |wl: &Workload| wl.tasks.iter().map(|t| t.num_flows()).max().unwrap_or(0);

    let s = watch(&topo, &short);
    let l = watch(&topo, &long);
    for (w, wl) in [(&s, &short), (&l, &long)] {
        // The list is compacted once per event, so it can run ahead of
        // the live flows by at most what one event retires.
        assert!(
            w.max_listed <= w.max_in_flight + burst(wl),
            "{} ids listed for {} flows in flight (+{} per task) of {}",
            w.max_listed,
            w.max_in_flight,
            burst(wl),
            wl.num_flows()
        );
    }
    // Four times the tasks at the same load: the same order of flows in
    // flight, so the same order of work per event.
    assert!(long.num_flows() > 3 * short.num_flows());
    assert!(
        l.max_listed <= 2 * s.max_listed,
        "live list grew {} -> {} with the round",
        s.max_listed,
        l.max_listed
    );
    assert!(l.max_listed * 20 < long.num_flows());
}

/// FNV-1a over everything a run decides: per flow its status, finish
/// time, delivered bytes and on-time flag, then the event count.
fn digest(rep: &SimReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for o in &rep.flow_outcomes {
        eat(o.status as u64);
        eat(o.finish.map_or(u64::MAX, f64::to_bits));
        eat(o.delivered.to_bits());
        eat(u64::from(o.on_time));
    }
    eat(rep.events);
    h
}

#[test]
fn all_seven_schedulers_reproduce_their_pinned_reports() {
    // Pinned on the full-array-scan engine this list replaced: the live
    // list must hand every scheduler the same ids in the same order.
    let pinned: [(Box<dyn Scheduler>, u64); 7] = [
        (Box::new(FairSharing::new()), 0x7e93_ef2f_22af_ade5),
        (Box::new(D3::new()), 0x8848_24bd_1495_6714),
        (Box::new(Pdq::new()), 0x547e_1959_d72a_3a20),
        (Box::new(Baraat::new()), 0xc1d4_cbe6_53a2_ca1f),
        (Box::new(Varys::new()), 0x8749_e814_57b6_fe58),
        (Box::new(D2tcp::new()), 0x7969_2335_b134_cce7),
        (Box::new(Taps::new()), 0x8105_6fd4_efae_5f42),
    ];
    let topo = fat_tree(4, GBPS);
    let wl = WorkloadConfig {
        num_tasks: 60,
        mean_flows_per_task: 12.0,
        sd_flows_per_task: 3.0,
        arrival_rate: 600.0,
        ..WorkloadConfig::paper_multi_rooted(topo.num_hosts(), 7)
    }
    .generate();
    let (got, want): (Vec<_>, Vec<_>) = pinned
        .into_iter()
        .map(|(mut sched, want)| {
            let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(sched.as_mut());
            assert!(!rep.truncated);
            ((sched.name(), digest(&rep)), (sched.name(), want))
        })
        .unzip();
    assert_eq!(got, want, "got {got:#018x?}");
}
