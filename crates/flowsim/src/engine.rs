//! The discrete-event engine.
//!
//! Fluid model: between consecutive events every flow transmits at its
//! scheduler-assigned constant rate. Events are task arrivals, flow
//! completions, deadline expiries and scheduler wake-ups; after each batch
//! of simultaneous events the scheduler reassigns rates.
//!
//! One event costs `O(flows in flight)`, whatever the length of the
//! workload: the engine keeps the ids of the arrived, unfinished flows in
//! ascending order (appended at task arrival, which is id order; compacted
//! once per event) and both its own per-event passes and
//! [`SimCtx::live_flow_ids`] walk that list, never the full flow array.

use crate::ctx::{SimCtx, SimState};
use crate::fault::{sort_fault_plan, FaultEvent, FaultKind};
use crate::metrics::{RateSegment, SimReport};
use crate::scheduler::{DeadlineAction, Scheduler};
use crate::spec::Workload;
use crate::state::{FlowRt, FlowStatus, TaskRt, TaskStatus};
use crate::EPS_TIME;
use taps_obs::obs_event;
use taps_topology::Topology;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// After every rate assignment, assert that no link is oversubscribed
    /// (within a 1e-6 relative tolerance). Costs `O(senders × path len)`
    /// per event; on by default, disable for paper-scale sweeps.
    pub validate_capacity: bool,
    /// Record a `(flow, t0, t1, bytes)` segment for every transmission
    /// interval — needed for the Fig. 14 effective-throughput time series.
    /// Off by default (memory).
    pub log_segments: bool,
    /// Safety valve: abort after this many event iterations.
    pub max_events: u64,
    /// Deterministic fault plan: topology events applied at their absolute
    /// times (sorted internally; simultaneous events keep input order).
    /// Empty by default.
    pub faults: Vec<FaultEvent>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            validate_capacity: true,
            log_segments: false,
            max_events: 500_000_000,
            faults: Vec::new(),
        }
    }
}

/// A runnable simulation: topology + workload + config.
pub struct Simulation<'a> {
    topo: &'a Topology,
    workload: &'a Workload,
    cfg: SimConfig,
    trace: Option<std::sync::Arc<dyn taps_obs::TraceSink>>,
}

impl<'a> Simulation<'a> {
    /// Creates a simulation. The workload must validate against the
    /// topology (host indices in range).
    ///
    /// # Panics
    ///
    /// If [`Workload::validate`] refuses the workload: the engine's
    /// live-flow list is ascending by id only because flow ranges are
    /// contiguous and tasks arrive in id order.
    pub fn new(topo: &'a Topology, workload: &'a Workload, cfg: SimConfig) -> Self {
        #[expect(
            clippy::panic,
            reason = "documented constructor precondition: an unvalidated workload would silently break the live list's ordering"
        )]
        if let Err(why) = workload.validate() {
            panic!("invalid workload: {why}");
        }
        debug_assert!(workload
            .flows
            .iter()
            .all(|f| f.src < topo.num_hosts() && f.dst < topo.num_hosts()));
        Simulation {
            topo,
            workload,
            cfg,
            trace: None,
        }
    }

    /// Attaches a trace sink. The engine then emits the simulation
    /// facts — task arrivals, flow specs, completions, deadline
    /// expiries, link faults — as typed events (DESIGN.md §11).
    pub fn with_trace_sink(mut self, sink: std::sync::Arc<dyn taps_obs::TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Runs the workload under `sched` to completion and reports metrics.
    pub fn run(&self, sched: &mut dyn Scheduler) -> SimReport {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock is reported as a perf metric only; no scheduling decision reads it"
        )]
        let start_wall = std::time::Instant::now();
        let mut st = SimState {
            now: 0.0,
            flows: self
                .workload
                .flows
                .iter()
                .cloned()
                .map(FlowRt::new)
                .collect(),
            tasks: self
                .workload
                .tasks
                .iter()
                .cloned()
                .map(TaskRt::new)
                .collect(),
            live: Vec::new(),
        };
        // Flow ids by ascending deadline (stable, so by id within one
        // deadline); `dl_ptr` advances past entries whose flow reached a
        // terminal state.
        let deadline_of = |fid: usize| self.workload.flows[fid].deadline;
        let mut by_deadline: Vec<usize> = (0..self.workload.flows.len()).collect();
        by_deadline.sort_by(|&a, &b| deadline_of(a).total_cmp(&deadline_of(b)));
        let mut dl_ptr = 0usize;

        // Fault plan, time-sorted. The engine owns the topology's fault
        // state for the duration of the run: start from (and return to)
        // the all-up state so back-to-back runs are independent.
        self.topo.reset_faults();
        let mut faults = self.cfg.faults.clone();
        sort_fault_plan(&mut faults);
        let mut fault_ptr = 0usize;

        let mut next_arrival = 0usize; // index into workload.tasks

        // Live flows with a positive rate, ascending by id, and the
        // earliest instant one of them finishes. Both are rebuilt after
        // every rate assignment and nothing touches a flow between that
        // and the next event, so they hold at the top of the loop.
        let mut senders: Vec<usize> = Vec::new();
        let mut t_complete = f64::INFINITY;
        let mut completed: Vec<usize> = Vec::new();
        let mut segments: Vec<RateSegment> = Vec::new();
        // Stamped per-link load accumulator for capacity validation.
        let mut link_load: Vec<(f64, u64)> = vec![(0.0, 0); self.topo.num_links()];
        let mut load_epoch = 0u64;

        let mut events: u64 = 0;
        let mut truncated = false;

        loop {
            // ---- pick the next event time ------------------------------
            // Earliest projected completion among senders.
            let mut t_next = t_complete;
            if next_arrival < st.tasks.len() {
                t_next = t_next.min(st.tasks[next_arrival].spec.arrival);
            }
            // Earliest pending deadline (skip terminal flows permanently).
            while dl_ptr < by_deadline.len() && st.flows[by_deadline[dl_ptr]].status.is_terminal() {
                dl_ptr += 1;
            }
            if dl_ptr < by_deadline.len() {
                t_next = t_next.min(deadline_of(by_deadline[dl_ptr]));
            }
            // Next topology fault.
            if fault_ptr < faults.len() {
                t_next = t_next.min(faults[fault_ptr].time);
            }
            // Scheduler wake-up.
            if let Some(w) = sched.next_wake(st.now) {
                debug_assert!(w > st.now - EPS_TIME, "wake-up in the past");
                t_next = t_next.min(w.max(st.now));
            }

            if !t_next.is_finite() {
                break; // nothing left to do
            }
            events += 1;
            if events > self.cfg.max_events {
                truncated = true;
                break;
            }
            let t_next = t_next.max(st.now);

            // ---- advance the fluid model to t_next; completions --------
            let dt = t_next - st.now;
            completed.clear();
            for &fid in &senders {
                let f = &mut st.flows[fid];
                if dt > 0.0 {
                    let bytes = (f.rate * dt).min(f.remaining());
                    f.delivered += bytes;
                    if self.cfg.log_segments && bytes > 0.0 {
                        segments.push(RateSegment {
                            flow: fid,
                            t0: st.now,
                            t1: t_next,
                            bytes,
                        });
                    }
                }
                if f.is_done() {
                    f.retire(FlowStatus::Completed);
                    f.finish = Some(t_next);
                    completed.push(fid);
                }
            }
            st.now = t_next;
            for &fid in &completed {
                obs_event!(self.trace, st.now, FlowCompleted { flow: fid as u64 });
                let mut ctx = SimCtx {
                    st: &mut st,
                    topo: self.topo,
                };
                sched.on_flow_completed(&mut ctx, fid);
            }

            // ---- deadline expiries -------------------------------------
            while dl_ptr < by_deadline.len()
                && deadline_of(by_deadline[dl_ptr]) <= st.now + EPS_TIME
            {
                let fid = by_deadline[dl_ptr];
                dl_ptr += 1;
                let f = &mut st.flows[fid];
                if !f.status.is_live() || f.missed_deadline {
                    continue;
                }
                if f.is_done() {
                    // Finished exactly at the deadline: count as complete.
                    f.retire(FlowStatus::Completed);
                    f.finish = Some(st.now);
                    obs_event!(self.trace, st.now, FlowCompleted { flow: fid as u64 });
                    let mut ctx = SimCtx {
                        st: &mut st,
                        topo: self.topo,
                    };
                    sched.on_flow_completed(&mut ctx, fid);
                    continue;
                }
                let mut ctx = SimCtx {
                    st: &mut st,
                    topo: self.topo,
                };
                match sched.on_flow_deadline(&mut ctx, fid) {
                    DeadlineAction::Stop => {
                        let f = &mut st.flows[fid];
                        f.retire(FlowStatus::Missed);
                        f.missed_deadline = true;
                        obs_event!(self.trace, st.now, DeadlineExpired { flow: fid as u64 });
                    }
                    DeadlineAction::Continue => {
                        st.flows[fid].missed_deadline = true;
                    }
                }
            }

            // ---- topology faults ---------------------------------------
            // After expiries (a flow whose deadline coincides with a fault
            // is already dead) and before arrivals (a task arriving at the
            // fault instant sees the post-fault topology).
            while fault_ptr < faults.len() && faults[fault_ptr].time <= st.now + EPS_TIME {
                let ev = faults[fault_ptr];
                fault_ptr += 1;
                ev.apply(self.topo);
                match ev.kind {
                    FaultKind::LinkDown(l) => {
                        obs_event!(
                            self.trace,
                            st.now,
                            LinkFault {
                                link: l.idx() as u64,
                                up: false
                            }
                        );
                    }
                    FaultKind::LinkUp(l) => {
                        obs_event!(
                            self.trace,
                            st.now,
                            LinkFault {
                                link: l.idx() as u64,
                                up: true
                            }
                        );
                    }
                    // Switch/controller faults are control-plane events;
                    // the chaos harness traces those itself.
                    _ => {}
                }
                let mut ctx = SimCtx {
                    st: &mut st,
                    topo: self.topo,
                };
                sched.on_fault(&mut ctx, &ev);
            }

            // ---- task arrivals -----------------------------------------
            while next_arrival < st.tasks.len()
                && st.tasks[next_arrival].spec.arrival <= st.now + EPS_TIME
            {
                let tid = next_arrival;
                next_arrival += 1;
                st.tasks[tid].status = TaskStatus::Admitted;
                obs_event!(
                    self.trace,
                    st.now,
                    TaskArrived {
                        task: tid as u64,
                        flows: st.tasks[tid].spec.num_flows() as u64,
                        deadline: st.tasks[tid].spec.deadline,
                    }
                );
                // Only non-default weights are traced: an unweighted
                // workload must export byte-identical JSONL whether or
                // not the vocabulary knows about weights.
                // lint: l8-ok(exact default sentinel: weight is either the literal 1.0 default or user-set, no arithmetic touches it before this check)
                if st.tasks[tid].spec.weight != 1.0 {
                    obs_event!(
                        self.trace,
                        st.now,
                        TaskWeight {
                            task: tid as u64,
                            weight: st.tasks[tid].spec.weight,
                        }
                    );
                }
                for fid in st.tasks[tid].spec.flows.clone() {
                    obs_event!(
                        self.trace,
                        st.now,
                        FlowSpec {
                            flow: fid as u64,
                            task: tid as u64,
                            src: st.flows[fid].spec.src as u64,
                            dst: st.flows[fid].spec.dst as u64,
                            bytes: st.flows[fid].spec.size,
                            deadline: st.flows[fid].spec.deadline,
                        }
                    );
                    let f = &mut st.flows[fid];
                    if f.is_done() {
                        // 0-byte flow: complete at the instant it arrives
                        // (even when deadline == arrival — completion wins
                        // over same-instant expiry for an empty flow).
                        f.retire(FlowStatus::Completed);
                        f.finish = Some(st.now);
                        obs_event!(self.trace, st.now, FlowCompleted { flow: fid as u64 });
                    } else if f.spec.deadline <= st.now + EPS_TIME {
                        // deadline == arrival with bytes to send: the
                        // deadline event was consumed before the flow
                        // existed, so it expires here, before the
                        // scheduler ever sees it live.
                        f.retire(FlowStatus::Missed);
                        f.missed_deadline = true;
                        obs_event!(self.trace, st.now, DeadlineExpired { flow: fid as u64 });
                    } else {
                        f.status = FlowStatus::Admitted;
                        // `Workload::validate` (checked in `new`) makes
                        // ids contiguous in arrival order.
                        debug_assert!(st.live.last() < Some(&fid));
                        st.live.push(fid);
                    }
                }
                let mut ctx = SimCtx {
                    st: &mut st,
                    topo: self.topo,
                };
                sched.on_task_arrival(&mut ctx, tid);
            }

            // ---- reassign rates ----------------------------------------
            for &fid in &senders {
                let f = &mut st.flows[fid];
                if f.status.is_live() {
                    f.rate = 0.0;
                }
            }
            {
                let mut ctx = SimCtx {
                    st: &mut st,
                    topo: self.topo,
                };
                sched.assign_rates(&mut ctx);
            }
            // One pass over the flows in flight: drop the ones that
            // turned terminal during this event from the live list, stall
            // the ones on a dead link, and collect the senders with their
            // earliest completion.
            let degraded = !self.topo.all_up();
            senders.clear();
            t_complete = f64::INFINITY;
            let SimState {
                now, flows, live, ..
            } = &mut st;
            live.retain(|&fid| {
                let f = &mut flows[fid];
                if !f.status.is_live() {
                    return false;
                }
                // Data-plane truth: nothing crosses a dead link, whatever
                // rate the scheduler asked for. The flow stalls
                // (delivering zero bytes) until the scheduler re-routes
                // it or it expires.
                if degraded
                    && f.rate > 0.0
                    && f.route
                        .as_ref()
                        .is_some_and(|r| r.links.iter().any(|l| !self.topo.is_link_up(*l)))
                {
                    f.rate = 0.0;
                }
                if f.rate > 0.0 {
                    senders.push(fid);
                    t_complete = t_complete.min(*now + f.remaining() / f.rate);
                }
                true
            });

            if self.cfg.validate_capacity {
                load_epoch += 1;
                for &fid in &senders {
                    let f = &st.flows[fid];
                    #[expect(
                        clippy::expect_used,
                        reason = "invariant: a flow only gets a positive rate after a route is set"
                    )]
                    let route = f.route.as_ref().expect("sender without route");
                    for l in &route.links {
                        let slot = &mut link_load[l.idx()];
                        if slot.1 != load_epoch {
                            *slot = (0.0, load_epoch);
                        }
                        slot.0 += f.rate;
                        let cap = self.topo.link(*l).capacity;
                        assert!(
                            slot.0 <= cap * (1.0 + 1e-6) + 1e-6,
                            "link {:?} oversubscribed at t={}: {} > {} (flow {})",
                            l,
                            st.now,
                            slot.0,
                            cap,
                            fid
                        );
                    }
                }
            }
        }

        // On a natural finish any still-live flow is a deadline-agnostic
        // (`DeadlineAction::Continue`) flow that ran out of service after
        // missing its deadline — a genuine miss. On truncation, still-live
        // flows keep their non-terminal status: their outcome is
        // *indeterminate*, and the report excludes them from the miss rate
        // instead of counting an artifact of `max_events` as a miss.
        if !truncated {
            for &fid in &st.live {
                let f = &mut st.flows[fid];
                if f.status.is_live() {
                    f.status = FlowStatus::Missed;
                    f.missed_deadline = true;
                }
            }
        }

        self.topo.reset_faults();
        // The report is the run's memory peak; the event lists are dead.
        drop(by_deadline);

        SimReport::build(
            sched.name(),
            self.workload,
            &st.flows,
            &st.tasks,
            events,
            truncated,
            if self.cfg.log_segments {
                Some(segments)
            } else {
                None
            },
            start_wall.elapsed(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FlowId, TaskId};
    use taps_topology::build::{dumbbell, GBPS};
    use taps_topology::paths::PathFinder;

    /// Trivial scheduler: admits everything, routes by first shortest
    /// path, gives every live flow an equal share of the host access link
    /// (which equals the bottleneck in a 1x1 dumbbell).
    struct EqualSplit;

    impl Scheduler for EqualSplit {
        fn name(&self) -> &'static str {
            "equal-split-test"
        }

        fn on_task_arrival(&mut self, ctx: &mut SimCtx<'_>, task: TaskId) {
            for fid in ctx.task_flows(task) {
                let f = ctx.flow(fid);
                let pf = PathFinder::new(ctx.topo());
                let p = pf.paths(ctx.topo().host(f.spec.src), ctx.topo().host(f.spec.dst), 1);
                ctx.set_route(fid, p[0].clone());
            }
        }

        fn assign_rates(&mut self, ctx: &mut SimCtx<'_>) {
            let live: Vec<FlowId> = ctx.live_flow_ids().collect();
            if live.is_empty() {
                return;
            }
            let cap = ctx.topo().uniform_capacity().unwrap();
            let share = cap / live.len() as f64;
            for fid in live {
                ctx.set_rate(fid, share);
            }
        }
    }

    #[test]
    fn single_flow_completes_at_expected_time() {
        let topo = dumbbell(1, 1, GBPS);
        // One 125 MB flow at 1 Gbps takes 1 second.
        let wl = Workload::from_tasks(vec![(0.0, 2.0, vec![(0, 1, GBPS)])]);
        let sim = Simulation::new(&topo, &wl, SimConfig::default());
        let rep = sim.run(&mut EqualSplit);
        assert_eq!(rep.flows_total, 1);
        assert_eq!(rep.flows_on_time, 1);
        assert_eq!(rep.tasks_completed, 1);
        let finish = rep.flow_outcomes[0].finish.unwrap();
        assert!((finish - 1.0).abs() < 1e-6, "finish at {finish}");
    }

    #[test]
    fn equal_split_two_flows_share_bottleneck() {
        let topo = dumbbell(2, 2, GBPS);
        // Two cross flows share the bottleneck; each 0.5 s of traffic at
        // full rate -> 1 s at half rate.
        let wl = Workload::from_tasks(vec![(
            0.0,
            2.0,
            vec![(0, 2, GBPS / 2.0), (1, 3, GBPS / 2.0)],
        )]);
        let sim = Simulation::new(&topo, &wl, SimConfig::default());
        let rep = sim.run(&mut EqualSplit);
        assert_eq!(rep.flows_on_time, 2);
        for o in &rep.flow_outcomes {
            assert!((o.finish.unwrap() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn deadline_miss_stops_flow_and_wastes_bytes() {
        let topo = dumbbell(1, 1, GBPS);
        // Needs 2 s at full rate but deadline is 1 s.
        let wl = Workload::from_tasks(vec![(0.0, 1.0, vec![(0, 1, 2.0 * GBPS)])]);
        let sim = Simulation::new(&topo, &wl, SimConfig::default());
        let rep = sim.run(&mut EqualSplit);
        assert_eq!(rep.flows_on_time, 0);
        assert_eq!(rep.tasks_completed, 0);
        assert_eq!(rep.flow_outcomes[0].status, FlowStatus::Missed);
        // Half the flow was delivered then wasted.
        assert!((rep.bytes_wasted_flow - GBPS).abs() < 1e3);
        assert!(rep.task_completion_ratio() == 0.0);
    }

    #[test]
    fn task_fails_if_any_flow_misses() {
        let topo = dumbbell(2, 2, GBPS);
        // Flow 0 fits its deadline; flow 1 (same task) cannot (needs 2 s
        // at half rate = 4 s > 1.5 s deadline).
        let wl = Workload::from_tasks(vec![(
            0.0,
            1.5,
            vec![(0, 2, GBPS / 4.0), (1, 3, 2.0 * GBPS)],
        )]);
        let sim = Simulation::new(&topo, &wl, SimConfig::default());
        let rep = sim.run(&mut EqualSplit);
        assert_eq!(rep.flows_on_time, 1);
        assert_eq!(rep.tasks_completed, 0);
        // Flow 0's bytes count as wasted at task level but not flow level.
        assert!(rep.bytes_wasted_task > rep.bytes_wasted_flow);
    }

    #[test]
    fn arrivals_are_sequenced() {
        let topo = dumbbell(2, 2, GBPS);
        let wl = Workload::from_tasks(vec![
            (0.0, 10.0, vec![(0, 2, GBPS / 10.0)]),
            (0.5, 10.0, vec![(1, 3, GBPS / 10.0)]),
        ]);
        let sim = Simulation::new(&topo, &wl, SimConfig::default());
        let rep = sim.run(&mut EqualSplit);
        assert_eq!(rep.tasks_completed, 2);
        // First flow alone for 0.5 s at full rate would finish at 0.1 s;
        // it never shares, so finish < 0.5.
        assert!(rep.flow_outcomes[0].finish.unwrap() < 0.5);
    }

    #[test]
    fn zero_byte_flow_completes_at_arrival() {
        let topo = dumbbell(1, 1, GBPS);
        // 0-byte flow with deadline == arrival: completes instantly.
        let mut wl = Workload::from_tasks(vec![(1.0, 1.0, vec![(0, 1, 100.0)])]);
        wl.flows[0].size = 0.0;
        let sim = Simulation::new(&topo, &wl, SimConfig::default());
        let rep = sim.run(&mut EqualSplit);
        assert_eq!(rep.flow_outcomes[0].status, FlowStatus::Completed);
        assert_eq!(rep.flow_outcomes[0].finish, Some(1.0));
        assert!(rep.flow_outcomes[0].on_time);
        assert_eq!(rep.tasks_completed, 1);
    }

    #[test]
    fn deadline_at_arrival_expires_before_transmitting() {
        let topo = dumbbell(1, 1, GBPS);
        // Non-empty flow whose deadline equals its arrival: the expiry
        // wins over the same-instant arrival — it never sends a byte.
        let wl = Workload::from_tasks(vec![(1.0, 1.0, vec![(0, 1, GBPS)])]);
        let sim = Simulation::new(&topo, &wl, SimConfig::default());
        let rep = sim.run(&mut EqualSplit);
        assert_eq!(rep.flow_outcomes[0].status, FlowStatus::Missed);
        assert_eq!(rep.flow_outcomes[0].delivered, 0.0);
        assert_eq!(rep.tasks_completed, 0);
        assert!(!rep.truncated);
    }

    #[test]
    #[should_panic(expected = "invalid workload: task 1 arrivals out of order")]
    fn out_of_order_workload_is_refused() {
        // Checked in release builds too: the live list is only ascending
        // by id if tasks arrive in id order.
        let topo = dumbbell(2, 2, GBPS);
        let mut wl = Workload::from_tasks(vec![
            (0.0, 10.0, vec![(0, 2, GBPS / 10.0)]),
            (0.5, 10.0, vec![(1, 3, GBPS / 10.0)]),
        ]);
        wl.tasks[1].arrival = -1.0;
        wl.flows[1].arrival = -1.0;
        let _ = Simulation::new(&topo, &wl, SimConfig::default());
    }

    #[test]
    fn truncated_run_leaves_outcomes_indeterminate() {
        let topo = dumbbell(1, 1, GBPS);
        let wl = Workload::from_tasks(vec![(0.0, 2.0, vec![(0, 1, GBPS)])]);
        let cfg = SimConfig {
            max_events: 1,
            ..SimConfig::default()
        };
        let sim = Simulation::new(&topo, &wl, cfg);
        let rep = sim.run(&mut EqualSplit);
        assert!(rep.truncated);
        // The in-flight flow is not counted as a deadline miss.
        assert_eq!(rep.flows_indeterminate, 1);
        assert_eq!(rep.tasks_indeterminate, 1);
        assert_eq!(rep.flow_outcomes[0].status, FlowStatus::Admitted);
        assert_eq!(rep.bytes_wasted_flow, 0.0);
    }

    /// The cross-core cable of a 1x1 dumbbell (second hop of the only
    /// path).
    fn cross_cable(topo: &Topology) -> taps_topology::LinkId {
        let pf = PathFinder::new(topo);
        let p = pf.paths(topo.host(0), topo.host(1), 1);
        p[0].links[1]
    }

    #[test]
    fn link_fault_stalls_flow_until_repair() {
        use crate::fault::{FaultEvent, FaultKind};
        let topo = dumbbell(1, 1, GBPS);
        // 1 s of traffic, deadline 2 s; the only path dies during
        // [0.5, 1.0), so completion slips from 1.0 to 1.5 — still on time.
        let wl = Workload::from_tasks(vec![(0.0, 2.0, vec![(0, 1, GBPS)])]);
        let cable = cross_cable(&topo);
        let cfg = SimConfig {
            faults: vec![
                FaultEvent {
                    time: 0.5,
                    kind: FaultKind::LinkDown(cable),
                },
                FaultEvent {
                    time: 1.0,
                    kind: FaultKind::LinkUp(cable),
                },
            ],
            ..SimConfig::default()
        };
        let sim = Simulation::new(&topo, &wl, cfg);
        let rep = sim.run(&mut EqualSplit);
        let finish = rep.flow_outcomes[0].finish.unwrap();
        assert!((finish - 1.5).abs() < 1e-6, "finish at {finish}");
        assert_eq!(rep.flows_on_time, 1);
        // The engine restored the topology on exit.
        assert!(topo.all_up());
    }

    #[test]
    fn unrepaired_link_fault_causes_deadline_miss() {
        use crate::fault::{FaultEvent, FaultKind};
        let topo = dumbbell(1, 1, GBPS);
        let wl = Workload::from_tasks(vec![(0.0, 2.0, vec![(0, 1, GBPS)])]);
        let cfg = SimConfig {
            faults: vec![FaultEvent {
                time: 0.5,
                kind: FaultKind::LinkDown(cross_cable(&topo)),
            }],
            ..SimConfig::default()
        };
        let sim = Simulation::new(&topo, &wl, cfg);
        let rep = sim.run(&mut EqualSplit);
        assert_eq!(rep.flow_outcomes[0].status, FlowStatus::Missed);
        // Half the bytes got through before the cable died, then wasted.
        assert!((rep.flow_outcomes[0].delivered - GBPS / 2.0).abs() < 1e3);
        assert!(!rep.truncated);
        assert!(topo.all_up());
    }

    #[test]
    fn segment_log_accounts_all_bytes() {
        let topo = dumbbell(2, 2, GBPS);
        let wl = Workload::from_tasks(vec![(
            0.0,
            3.0,
            vec![(0, 2, GBPS / 2.0), (1, 3, GBPS / 4.0)],
        )]);
        let cfg = SimConfig {
            log_segments: true,
            ..SimConfig::default()
        };
        let sim = Simulation::new(&topo, &wl, cfg);
        let rep = sim.run(&mut EqualSplit);
        let segs = rep.segments.as_ref().unwrap();
        let total: f64 = segs.iter().map(|s| s.bytes).sum();
        assert!((total - rep.bytes_delivered).abs() < 1.0);
        // Segments are well-formed.
        for s in segs {
            assert!(s.t1 > s.t0);
            assert!(s.bytes > 0.0);
        }
    }
}
