//! Layer `sdn::controller` — ladder rung R2.
//!
//! A bare `taps_sdn::Controller` is fed the exact sequence of
//! `handle_term` / `handle_probe` / `handle_probe_burst` calls, with the
//! same `now` values and task groups, that the service made on its own
//! controller in rung R1. The sequence is rebuilt from what R1 showed
//! from outside: the step times, the burst-mode flag and the decisions
//! the client drained.

use std::collections::BTreeMap;
use std::sync::Arc;

use taps_sdn::{ControlStats, Controller, ControllerConfig, ProbeHeader, TaskVerdict};
use taps_service::{verdict, Request};
use taps_topology::Topology;

use super::{mean_us, percentile_us, Metrics};
use crate::inputs::RoundInput;
use crate::runners::inproc::StepLog;
use crate::stats::mean;
use crate::trace::{SpanId, Tracer};

/// One call the service made on its controller.
#[derive(Clone, Debug, PartialEq)]
pub enum Call {
    /// `handle_term(now, flow)`: the service retired a granted task
    /// whose deadline had passed.
    Term {
        /// Loop time.
        now: f64,
        /// Wire flow id.
        flow: u64,
    },
    /// `handle_probe(now, probes)`: per-task admission.
    Probe {
        /// Loop time.
        now: f64,
        /// Plan index of the task.
        idx: usize,
        /// Index of the R1 step that made the call.
        step: usize,
    },
    /// `handle_probe_burst(now, groups)`: burst admission.
    Burst {
        /// Loop time.
        now: f64,
        /// Plan indices of the burst's tasks, in order.
        idxs: Vec<usize>,
        /// Index of the R1 step that made the call.
        step: usize,
    },
}

/// Verdict and victim of one decision, as wire codes.
pub type WireVerdict = (u64, Option<u64>);

/// The call sequence with the verdicts R1 observed, in decision order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CallSeq {
    /// Calls in the order the service made them.
    pub calls: Vec<Call>,
    /// `(task, verdict, victim)` R1 saw, in decision order.
    pub verdicts: Vec<(u64, u64, Option<u64>)>,
}

/// Rebuilds the controller call sequence of an R1 run.
///
/// Mirrors `ServiceController::step`: first retire every granted task
/// whose deadline is at or before `now` (ascending task id, flows in
/// submit order), then admit — one `handle_probe` in normal mode, one
/// `handle_probe_burst` in burst mode — then book the verdicts (a grant
/// enters the active set, a victim leaves it).
pub fn call_sequence(input: &RoundInput, steps: &[StepLog]) -> CallSeq {
    let mut seq = CallSeq::default();
    // task → (deadline, flow ids)
    let mut active: BTreeMap<u64, (f64, Vec<u64>)> = BTreeMap::new();
    for (step, s) in steps.iter().enumerate() {
        let done: Vec<u64> = active
            .iter()
            .filter(|(_, (deadline, _))| *deadline <= s.now)
            .map(|(&t, _)| t)
            .collect();
        for task in done {
            let (_, flows) = active.remove(&task).expect("key came from the map");
            seq.calls.extend(
                flows
                    .into_iter()
                    .map(|flow| Call::Term { now: s.now, flow }),
            );
        }
        if s.decided.is_empty() {
            continue;
        }
        let idxs: Vec<usize> = s
            .decided
            .iter()
            .map(|b| (b.task - input.id_base) as usize)
            .collect();
        seq.calls.push(if s.batch {
            Call::Burst {
                now: s.now,
                idxs: idxs.clone(),
                step,
            }
        } else {
            assert_eq!(idxs.len(), 1, "normal mode admits one task per step");
            Call::Probe {
                now: s.now,
                idx: idxs[0],
                step,
            }
        });
        for (b, &idx) in s.decided.iter().zip(&idxs) {
            seq.verdicts.push((b.task, b.verdict, b.victim));
            if b.verdict != verdict::REJECTED {
                let ev = input.plan.events[idx];
                let flows = input.submit(idx, ev.deadline).flows;
                active.insert(
                    b.task,
                    (ev.deadline, flows.iter().map(|f| f.flow).collect()),
                );
            }
            if let Some(v) = b.victim {
                active.remove(&v);
            }
        }
    }
    seq
}

/// The probe group of plan event `idx`, through `Submit::probes()`.
pub fn probes_of(input: &RoundInput, idx: usize) -> Vec<ProbeHeader> {
    input.submit(idx, input.plan.events[idx].deadline).probes()
}

fn wire(v: &TaskVerdict) -> WireVerdict {
    match v {
        TaskVerdict::Accepted => (verdict::GRANTED, None),
        TaskVerdict::AcceptedWithPreemption(victim) => {
            (verdict::GRANTED_PREEMPTING, Some(*victim as u64))
        }
        TaskVerdict::Rejected => (verdict::REJECTED, None),
    }
}

/// What one replay of a [`CallSeq`] measured.
#[derive(Default)]
pub struct Replay {
    /// `handle_probe` durations, ns, in call order.
    pub probe_ns: Vec<u64>,
    /// `(handle_probe_burst duration ns, tasks, all accepted)`.
    pub bursts: Vec<(u64, usize, bool)>,
    /// `handle_term` durations, ns.
    pub term_ns: Vec<u64>,
    /// Switch commands returned over all calls.
    pub cmds: u64,
    /// Verdicts in decision order.
    pub verdicts: Vec<(u64, u64, Option<u64>)>,
    /// Span of each admission call, by index into `CallSeq::calls`.
    pub call_span: BTreeMap<usize, SpanId>,
    /// Controller counters at the end.
    pub stats: ControlStats,
}

impl Replay {
    /// Total time in admission calls (probes and bursts), ns.
    pub fn admit_ns(&self) -> u64 {
        self.probe_ns.iter().sum::<u64>() + self.bursts.iter().map(|b| b.0).sum::<u64>()
    }

    /// Median `handle_probe` time, µs. Where a run never leaves burst
    /// mode there are no per-task calls; the validator-on and sink-on
    /// rows then compare whole admission time.
    pub fn admit_p50_us(&self) -> f64 {
        if self.probe_ns.is_empty() {
            self.admit_ns() as f64 / 1e3
        } else {
            percentile_us(&self.probe_ns, 0.50)
        }
    }

    /// Total time in all calls, ns.
    pub fn total_ns(&self) -> u64 {
        self.admit_ns() + self.term_ns.iter().sum::<u64>()
    }
}

/// Replays `seq` on a fresh controller. `step_span` maps an R1 step
/// index to its span, which becomes the parent of the call's span.
pub fn replay(
    topo: &Topology,
    cfg: ControllerConfig,
    sink: Option<Arc<dyn taps_obs::TraceSink>>,
    input: &RoundInput,
    seq: &CallSeq,
    tracer: &mut Tracer,
    step_span: &dyn Fn(usize) -> Option<SpanId>,
) -> Replay {
    // Probe groups are built before the calls are timed: the service
    // builds them from the queued `Submit`, outside the controller.
    let groups: Vec<Vec<Vec<ProbeHeader>>> = seq
        .calls
        .iter()
        .map(|c| match c {
            Call::Term { .. } => Vec::new(),
            Call::Probe { idx, .. } => vec![probes_of(input, *idx)],
            Call::Burst { idxs, .. } => idxs.iter().map(|&i| probes_of(input, i)).collect(),
        })
        .collect();
    let mut ctrl = Controller::new(topo, cfg);
    if let Some(s) = sink {
        ctrl.set_trace_sink(s);
    }
    let mut out = Replay::default();
    for (ci, (call, group)) in seq.calls.iter().zip(&groups).enumerate() {
        match call {
            Call::Term { now, flow } => {
                let (cmds, id) = tracer.time("sdn.handle_term", None, *flow, || {
                    ctrl.handle_term(*now, *flow as usize)
                });
                out.cmds += cmds.len() as u64;
                out.term_ns.push(tracer.dur_ns(id));
            }
            Call::Probe { now, idx, step } => {
                let task = input.task_id(*idx);
                let ((v, _grants, cmds), id) =
                    tracer.time("sdn.handle_probe", step_span(*step), task, || {
                        ctrl.handle_probe(*now, &group[0])
                    });
                out.cmds += cmds.len() as u64;
                out.probe_ns.push(tracer.dur_ns(id));
                let (code, victim) = wire(&v);
                out.verdicts.push((task, code, victim));
                out.call_span.insert(ci, id);
            }
            Call::Burst { now, idxs, step } => {
                let first = input.task_id(idxs[0]);
                let ((results, cmds), id) =
                    tracer.time("sdn.handle_probe_burst", step_span(*step), first, || {
                        ctrl.handle_probe_burst(*now, group)
                    });
                out.cmds += cmds.len() as u64;
                let clean = results
                    .iter()
                    .all(|(v, _)| matches!(v, TaskVerdict::Accepted));
                out.bursts.push((tracer.dur_ns(id), idxs.len(), clean));
                for (&i, (v, _)) in idxs.iter().zip(&results) {
                    let (code, victim) = wire(v);
                    out.verdicts.push((input.task_id(i), code, victim));
                }
                out.call_span.insert(ci, id);
            }
        }
    }
    out.stats = ctrl.stats().clone();
    out
}

/// Mean of the last decile of `ns` over the mean of its first decile:
/// how much a call costs at the end of the run relative to the start.
pub fn history_slope(ns: &[u64]) -> f64 {
    let d = ns.len() / 10;
    if d == 0 {
        return 0.0;
    }
    let as_f = |s: &[u64]| s.iter().map(|&x| x as f64).collect::<Vec<_>>();
    let first = mean(&as_f(&ns[..d]));
    if first == 0.0 {
        0.0
    } else {
        mean(&as_f(&ns[ns.len() - d..])) / first
    }
}

/// This layer's metrics from the plain replay, plus the validator-on
/// row, given the total time rung R3 spent in allocation passes and
/// the number of passes it made.
pub fn metrics(plain: &Replay, validated: &Replay, core_pass_ns: u64, passes: usize) -> Metrics {
    let decisions = plain.verdicts.len().max(1) as f64;
    let burst_tasks: usize = plain.bursts.iter().map(|b| b.1).sum();
    let burst_ns: u64 = plain.bursts.iter().map(|b| b.0).sum();
    let clean = plain.bursts.iter().filter(|b| b.2).count();
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    vec![
        ("sdn.probe_us_p50", percentile_us(&plain.probe_ns, 0.50)),
        ("sdn.probe_us_p99", percentile_us(&plain.probe_ns, 0.99)),
        (
            "sdn.burst_us_per_task",
            ratio(burst_ns as f64 / 1e3, burst_tasks as f64),
        ),
        (
            "sdn.burst_clean_ratio",
            ratio(clean as f64, plain.bursts.len() as f64),
        ),
        ("sdn.term_us", mean_us(&plain.term_ns)),
        ("sdn.passes_per_decision", passes as f64 / decisions),
        ("sdn.cmds_per_decision", plain.cmds as f64 / decisions),
        (
            "sdn.self_us",
            (plain.admit_ns() as f64 - core_pass_ns as f64) / 1e3 / decisions,
        ),
        ("sdn.history_slope", history_slope(&plain.probe_ns)),
        (
            "sdn.validate_on_ratio",
            ratio(validated.admit_p50_us(), plain.admit_p50_us()),
        ),
    ]
}

/// The requests of a round as the client would send them (for the
/// codec and socket probes).
pub fn requests_of(input: &RoundInput) -> Vec<Request> {
    (0..input.plan.events.len())
        .map(|idx| Request::Submit(input.submit(idx, input.plan.events[idx].deadline)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Booked;
    use crate::spec::WORKLOADS;

    fn booked(task: u64, code: u64, victim: Option<u64>) -> Booked {
        Booked {
            task,
            verdict: code,
            victim,
            reason: None,
        }
    }

    #[test]
    fn retirement_precedes_admission_and_follows_task_order() {
        let mut input = crate::inputs::generate_n(&WORKLOADS[0], 3, 0, 4);
        // Every deadline lies after the last arrival and before `late`.
        for e in &mut input.plan.events {
            e.deadline = 100.0;
        }
        let late = 200.0;
        let base = input.id_base;
        let ev = &input.plan.events;
        let step = |now: f64, batch: bool, decided: Vec<Booked>| StepLog {
            now,
            batch,
            decided,
            responses: Vec::new(),
            wall_ns: (0, 0),
        };
        let steps = vec![
            step(ev[0].at, false, vec![booked(base, verdict::GRANTED, None)]),
            // Task 1 preempts task 0; task 2 is rejected in the same burst.
            step(
                ev[2].at,
                true,
                vec![
                    booked(base + 1, verdict::GRANTED_PREEMPTING, Some(base)),
                    booked(base + 2, verdict::REJECTED, None),
                ],
            ),
            step(
                ev[3].at,
                false,
                vec![booked(base + 3, verdict::GRANTED, None)],
            ),
            // Idle step long after every deadline: tasks 1 and 3 retire,
            // task 0 (preempted) and task 2 (rejected) do not.
            step(late, false, vec![]),
        ];
        let seq = call_sequence(&input, &steps);
        let flows = |idx: usize| -> Vec<u64> {
            input
                .submit(idx, 0.0)
                .flows
                .iter()
                .map(|f| f.flow)
                .collect()
        };
        let want = vec![
            Call::Probe {
                now: ev[0].at,
                idx: 0,
                step: 0,
            },
            Call::Burst {
                now: ev[2].at,
                idxs: vec![1, 2],
                step: 1,
            },
            Call::Probe {
                now: ev[3].at,
                idx: 3,
                step: 2,
            },
        ];
        let admits: Vec<Call> = seq
            .calls
            .iter()
            .filter(|c| !matches!(c, Call::Term { .. }))
            .cloned()
            .collect();
        assert_eq!(admits, want);
        // The idle step retires task 1 then task 3 (ascending id, flows
        // in submit order) — never the preempted task 0 or the rejected
        // task 2 — and all of it after the last admission.
        let terms: Vec<Call> = seq.calls[3..].to_vec();
        let expect: Vec<Call> = flows(1)
            .into_iter()
            .chain(flows(3))
            .map(|flow| Call::Term { now: late, flow })
            .collect();
        assert_eq!(terms, expect);
        assert_eq!(seq.verdicts.len(), 4);
    }

    #[test]
    fn slope_compares_last_decile_to_first() {
        let ns: Vec<u64> = (1..=100).collect();
        // first decile mean 5.5, last decile mean 95.5
        assert!((history_slope(&ns) - 95.5 / 5.5).abs() < 1e-12);
        assert_eq!(history_slope(&[1, 2, 3]), 0.0);
    }
}
