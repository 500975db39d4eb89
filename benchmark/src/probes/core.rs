//! Layers `core::alloc`, `core::delta`, `core::validate` — ladder rungs
//! R3 and R4.
//!
//! R3 re-runs every tentative allocation pass the controller made in
//! rung R2, through `SlotAllocator::allocate_batch_delta`, on the
//! in-flight demand set that R2's verdicts imply. From each pass it
//! re-derives the verdict the controller's reject rule must have
//! reached and compares. R4 runs `check_schedule` on every pass result.

use std::collections::BTreeMap;

use taps_core::validate::check_schedule;
use taps_core::{DeltaCache, FlowAlloc, FlowDemand, SlotAllocator};
use taps_sdn::{ControllerConfig, ProbeHeader};
use taps_service::verdict;
use taps_topology::Topology;

use super::sdn::{probes_of, Call, CallSeq, Replay, WireVerdict};
use super::{mean_us, percentile_us, Metrics};
use crate::inputs::RoundInput;
use crate::trace::{SpanId, Tracer};

#[derive(Clone, Copy, Debug, PartialEq)]
struct Reg {
    task: u64,
    src: usize,
    dst: usize,
    size: f64,
    deadline: f64,
}

/// The controller's registry of unfinished flows, rebuilt from outside.
#[derive(Default)]
pub struct InflightMirror {
    /// flow id → registration, unfinished flows only.
    flows: BTreeMap<u64, Reg>,
}

impl InflightMirror {
    /// Registers a task's flows (the controller does so on every probe).
    pub fn register(&mut self, probes: &[ProbeHeader]) {
        for p in probes {
            self.flows.insert(
                p.flow as u64,
                Reg {
                    task: p.task as u64,
                    src: p.src,
                    dst: p.dst,
                    size: p.size,
                    deadline: p.deadline,
                },
            );
        }
    }

    /// Drops one flow (TERM, or a rejected newcomer's registration).
    pub fn finish_flow(&mut self, flow: u64) {
        self.flows.remove(&flow);
    }

    /// Drops every flow of `task` (preemption, rejection).
    pub fn finish_task(&mut self, task: u64) {
        self.flows.retain(|_, r| r.task != task);
    }

    /// The demand list of a pass: unfinished flows by earliest deadline,
    /// then smallest size, then id — the EDF/SJF order of Alg. 2.
    pub fn demands(&self) -> Vec<FlowDemand> {
        let mut d: Vec<FlowDemand> = self
            .flows
            .iter()
            .map(|(&id, r)| FlowDemand {
                id: id as usize,
                src: r.src,
                dst: r.dst,
                remaining: r.size.max(1.0),
                deadline: r.deadline,
            })
            .collect();
        d.sort_by(|a, b| {
            a.deadline
                .total_cmp(&b.deadline)
                .then_with(|| a.remaining.total_cmp(&b.remaining))
                .then_with(|| a.id.cmp(&b.id))
        });
        d
    }

    /// Tasks with a late flow in `allocs`, in first-seen order.
    pub fn late_tasks(&self, allocs: &[FlowAlloc]) -> Vec<u64> {
        let mut late = Vec::new();
        for al in allocs.iter().filter(|al| !al.on_time) {
            let t = self.flows[&(al.id as u64)].task;
            if !late.contains(&t) {
                late.push(t);
            }
        }
        late
    }
}

/// The paper-policy reject rule on a tentative pass: nobody late →
/// accept; exactly one *other* task late → accept and preempt it;
/// anything else → reject.
pub fn derive_verdict(late: &[u64], newcomer: u64) -> WireVerdict {
    match late {
        [] => (verdict::GRANTED, None),
        [victim] if *victim != newcomer => (verdict::GRANTED_PREEMPTING, Some(*victim)),
        _ => (verdict::REJECTED, None),
    }
}

/// What rungs R3 and R4 measured.
#[derive(Default)]
pub struct CoreReplay {
    /// Duration of each `allocate_batch_delta` call, ns.
    pub pass_ns: Vec<u64>,
    /// Demands per pass.
    pub flows_per_pass: Vec<usize>,
    /// Duration of each `check_schedule` call, ns.
    pub validate_ns: Vec<u64>,
    /// Verdicts re-derived from the passes, in decision order.
    pub verdicts: Vec<(u64, u64, Option<u64>)>,
    /// Failed checks.
    pub violations: Vec<String>,
    /// Sum of `paths_tried` over all passes.
    pub paths_tried: u64,
    /// Sum of `slots_scanned` over all passes.
    pub slots_scanned: u64,
}

/// Called after every pass with the allocator, the demands, the result
/// and the pass number (the timeline probe samples its checkpoints here).
pub type Checkpoint<'a> =
    dyn FnMut(&SlotAllocator<'_>, &[FlowDemand], &[FlowAlloc], u64, usize) + 'a;

struct Rung<'a, 't> {
    topo: &'t Topology,
    cfg: &'a ControllerConfig,
    alloc: SlotAllocator<'t>,
    cache: DeltaCache,
    mirror: InflightMirror,
    out: CoreReplay,
    tracer: &'a mut Tracer,
    checkpoint: &'a mut Checkpoint<'a>,
}

impl Rung<'_, '_> {
    /// One pass: time the allocator, validate the result, account.
    fn pass(&mut self, now: f64, parent: Option<SpanId>, decision: u64) -> Vec<FlowAlloc> {
        let demands = self.mirror.demands();
        let start_slot = self
            .alloc
            .slot_at(now + self.cfg.control_rtt + self.cfg.grant_fence);
        let (alloc, cache) = (&mut self.alloc, &mut self.cache);
        let (res, id) = self
            .tracer
            .time("core.allocate_batch_delta", parent, decision, || {
                alloc.allocate_batch_delta(&demands, start_slot, cache)
            });
        let allocs = res.unwrap_or_else(|e| {
            self.out
                .violations
                .push(format!("pass for task {decision}: {e}"));
            Vec::new()
        });
        self.out.pass_ns.push(self.tracer.dur_ns(id));
        self.out.flows_per_pass.push(demands.len());
        let (topo, slot) = (self.topo, self.cfg.slot);
        let (report, vid) = self
            .tracer
            .time("core.check_schedule", Some(id), decision, || {
                check_schedule(topo, slot, &demands, &allocs, "ladder R4")
            });
        self.out.validate_ns.push(self.tracer.dur_ns(vid));
        if !report.is_clean() {
            self.out.violations.push(format!("{report}"));
        }
        (self.checkpoint)(
            &self.alloc,
            &demands,
            &allocs,
            start_slot,
            self.out.pass_ns.len(),
        );
        allocs
    }

    /// Alg. 1 for one task, as `Controller::handle_probe` runs it.
    fn admit(&mut self, now: f64, parent: Option<SpanId>, probes: &[ProbeHeader]) {
        let task = probes[0].task as u64;
        self.mirror.register(probes);
        let tentative = self.pass(now, parent, task);
        let v = derive_verdict(&self.mirror.late_tasks(&tentative), task);
        // A preemption or a rejection re-packs the survivors.
        match v {
            (verdict::GRANTED, _) => {}
            (verdict::GRANTED_PREEMPTING, Some(victim)) => {
                self.mirror.finish_task(victim);
                self.pass(now, parent, task);
            }
            _ => {
                self.mirror.finish_task(task);
                self.pass(now, parent, task);
            }
        }
        self.out.verdicts.push((task, v.0, v.1));
    }

    /// `Controller::handle_probe_burst`: one pass for the whole burst
    /// when it has more than one task; all on time → all accepted,
    /// otherwise roll back and admit one by one.
    fn admit_burst(&mut self, now: f64, parent: Option<SpanId>, groups: &[Vec<ProbeHeader>]) {
        if groups.len() > 1 {
            for g in groups {
                self.mirror.register(g);
            }
            let allocs = self.pass(now, parent, groups[0][0].task as u64);
            if !allocs.is_empty() && allocs.iter().all(|al| al.on_time) {
                for g in groups {
                    self.out
                        .verdicts
                        .push((g[0].task as u64, verdict::GRANTED, None));
                }
                return;
            }
            for g in groups {
                self.mirror.finish_task(g[0].task as u64);
            }
        }
        for g in groups {
            self.admit(now, parent, g);
        }
    }
}

/// Replays the allocation passes behind `seq`.
pub fn replay<'a>(
    topo: &Topology,
    cfg: &'a ControllerConfig,
    input: &RoundInput,
    seq: &CallSeq,
    r2: &Replay,
    tracer: &'a mut Tracer,
    checkpoint: &'a mut Checkpoint<'a>,
) -> (CoreReplay, DeltaCache) {
    let mut rung = Rung {
        topo,
        cfg,
        alloc: SlotAllocator::new(topo, cfg.slot, cfg.max_candidate_paths),
        cache: DeltaCache::new(),
        mirror: InflightMirror::default(),
        out: CoreReplay::default(),
        tracer,
        checkpoint,
    };
    let _ = rung.alloc.engine_mut().take_counters();
    for (ci, call) in seq.calls.iter().enumerate() {
        let parent = r2.call_span.get(&ci).copied();
        match call {
            Call::Term { flow, .. } => rung.mirror.finish_flow(*flow),
            Call::Probe { now, idx, .. } => rung.admit(*now, parent, &probes_of(input, *idx)),
            Call::Burst { now, idxs, .. } => {
                let groups: Vec<Vec<ProbeHeader>> =
                    idxs.iter().map(|&i| probes_of(input, i)).collect();
                rung.admit_burst(*now, parent, &groups);
            }
        }
    }
    let counters = rung.alloc.engine_mut().take_counters();
    rung.out.paths_tried = counters.paths_tried;
    rung.out.slots_scanned = counters.slots_scanned;
    (rung.out, rung.cache)
}

/// This layer's metrics.
pub fn metrics(r: &CoreReplay, cache: &DeltaCache) -> Metrics {
    let passes = r.pass_ns.len().max(1) as f64;
    let flows: usize = r.flows_per_pass.iter().sum();
    let s = cache.stats();
    let placed = s.reused_flows + s.moved_flows + s.retimed_flows + s.searched_flows;
    let batches = s.delta_batches + s.full_fallbacks;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    vec![
        ("core.pass_us_p50", percentile_us(&r.pass_ns, 0.50)),
        ("core.pass_us_p99", percentile_us(&r.pass_ns, 0.99)),
        ("core.flows_per_pass", flows as f64 / passes),
        ("core.delta_reuse_ratio", ratio(s.reused_flows, placed)),
        ("core.full_fallback_ratio", ratio(s.full_fallbacks, batches)),
        (
            "core.candidates_per_flow",
            ratio(r.paths_tried, flows as u64),
        ),
        ("core.paths_tried_per_pass", r.paths_tried as f64 / passes),
        (
            "core.slots_scanned_per_pass",
            r.slots_scanned as f64 / passes,
        ),
        ("core.validate_us", mean_us(&r.validate_ns)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(task: usize, flow: usize, size: f64, deadline: f64) -> ProbeHeader {
        ProbeHeader {
            task,
            flow,
            src: 0,
            dst: 1,
            size,
            deadline,
        }
    }

    fn ids(m: &InflightMirror) -> Vec<usize> {
        m.demands().iter().map(|d| d.id).collect()
    }

    /// Five tasks by hand: accept, accept, preempt the first, reject,
    /// then a retirement — the in-flight set after each event.
    #[test]
    fn inflight_set_follows_a_five_task_trace() {
        let mut m = InflightMirror::default();
        // t1: two flows, deadline 0.050.
        m.register(&[probe(1, 10, 5e4, 0.050), probe(1, 11, 2e4, 0.050)]);
        // t2: one flow, tighter deadline → sorts first.
        m.register(&[probe(2, 20, 9e4, 0.020)]);
        assert_eq!(ids(&m), vec![20, 11, 10], "EDF, then smaller first");
        // t3 arrives and preempts t1.
        m.register(&[probe(3, 30, 1e4, 0.030)]);
        assert_eq!(
            derive_verdict(&[1], 3),
            (verdict::GRANTED_PREEMPTING, Some(1))
        );
        m.finish_task(1);
        assert_eq!(ids(&m), vec![20, 30]);
        // t4 is rejected: it is late itself.
        m.register(&[probe(4, 40, 1e4, 0.031), probe(4, 41, 1e4, 0.031)]);
        assert_eq!(ids(&m).len(), 4);
        assert_eq!(derive_verdict(&[4], 4), (verdict::REJECTED, None));
        m.finish_task(4);
        // t5 accepted; then t2's flow retires.
        m.register(&[probe(5, 50, 1e4, 0.020)]);
        assert_eq!(derive_verdict(&[], 5), (verdict::GRANTED, None));
        assert_eq!(ids(&m), vec![50, 20, 30], "same deadline: smaller, then id");
        m.finish_flow(20);
        assert_eq!(ids(&m), vec![50, 30]);
        // Two late tasks, or the newcomer among them: reject.
        assert_eq!(derive_verdict(&[3, 5], 6), (verdict::REJECTED, None));
    }
}
