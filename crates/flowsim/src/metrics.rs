//! Metrics — the quantities §V-A of the paper reports.

use crate::spec::{FlowId, Workload};
use crate::state::{FlowRt, FlowStatus, TaskRt};

/// One constant-rate transmission interval of one flow, recorded when
/// [`crate::SimConfig::log_segments`] is on.
#[derive(Clone, Debug, PartialEq)]
pub struct RateSegment {
    /// The transmitting flow.
    pub flow: FlowId,
    /// Interval start, seconds.
    pub t0: f64,
    /// Interval end, seconds.
    pub t1: f64,
    /// Bytes delivered during the interval.
    pub bytes: f64,
}

/// Terminal outcome of one flow.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowOutcome {
    /// Flow id.
    pub flow: FlowId,
    /// Terminal status.
    pub status: FlowStatus,
    /// Completion time if the flow finished.
    pub finish: Option<f64>,
    /// Bytes delivered (also for failed flows — that is the waste).
    pub delivered: f64,
    /// Whether the flow completed before its deadline.
    pub on_time: bool,
}

/// Simulation results and the paper's metrics.
///
/// * **task completion ratio** — tasks whose *every* flow finished on time,
///   over all tasks (§V-A; Figs. 6b, 7, 9b, 11, 12);
/// * **flow completion ratio** — on-time flows over all flows (Fig. 10);
/// * **application throughput** — bytes of on-time flows over total bytes
///   (size-weighted; Figs. 6a, 9a);
/// * **wasted bandwidth ratio** — bytes delivered on behalf of flows that
///   missed their deadline, over total bytes (Fig. 8). The task-level
///   variant additionally counts on-time flows inside failed tasks, per the
///   paper's argument that those bytes are wasted too.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// Scheduler name.
    pub scheduler: String,
    /// Number of tasks in the workload.
    pub tasks_total: usize,
    /// Tasks with all flows on time.
    pub tasks_completed: usize,
    /// Tasks whose outcome is unknown because the run was truncated with
    /// flows still in flight (and no flow had failed yet). Excluded from
    /// the completion-ratio denominators — counting them as misses would
    /// bias the miss rate by an amount that depends on `max_events`.
    pub tasks_indeterminate: usize,
    /// Number of flows in the workload.
    pub flows_total: usize,
    /// Flows completed before their deadline.
    pub flows_on_time: usize,
    /// Flows still non-terminal when a truncated run stopped.
    pub flows_indeterminate: usize,
    /// Total workload bytes.
    pub bytes_total: f64,
    /// Bytes of flows that completed on time.
    pub bytes_on_time_flows: f64,
    /// Bytes of flows belonging to fully-successful tasks.
    pub bytes_on_time_tasks: f64,
    /// All bytes delivered (useful or not).
    pub bytes_delivered: f64,
    /// Bytes delivered by flows that did not complete on time.
    pub bytes_wasted_flow: f64,
    /// Bytes delivered by flows whose task failed.
    pub bytes_wasted_task: f64,
    /// Sum of task weights across the workload (each task's
    /// [`crate::spec::TaskSpec::weight`]; all 1.0 in the paper's model).
    pub weight_total: f64,
    /// Sum of weights of tasks whose every flow finished on time.
    pub weight_completed: f64,
    /// Sum of weights of tasks with an indeterminate outcome (truncated
    /// runs only); excluded from the weighted ratio denominators.
    pub weight_indeterminate: f64,
    /// Weight-scaled workload bytes: Σ over flows of `weight × size`.
    pub wbytes_total: f64,
    /// Weight-scaled bytes of flows belonging to fully-successful tasks.
    pub wbytes_on_time_tasks: f64,
    /// Per-flow outcomes (indexable by flow id).
    pub flow_outcomes: Vec<FlowOutcome>,
    /// Per-task success flags (indexable by task id).
    pub task_success: Vec<bool>,
    /// Mean flow completion time over completed flows, seconds (the
    /// metric PDQ's Early Termination is designed to improve — §II cites
    /// a 30% mean-FCT reduction vs D3).
    pub mean_fct: f64,
    /// 99th-percentile flow completion time over completed flows.
    pub p99_fct: f64,
    /// Rate segments if logging was enabled.
    pub segments: Option<Vec<RateSegment>>,
    /// Number of engine iterations.
    pub events: u64,
    /// Whether the run hit the event safety valve.
    pub truncated: bool,
    /// Wall-clock duration of the run.
    pub wall: std::time::Duration,
}

impl SimReport {
    #[expect(
        clippy::too_many_arguments,
        reason = "one call site hands over the engine's end-of-run state piece by piece"
    )]
    pub(crate) fn build(
        scheduler: &str,
        wl: &Workload,
        flows: &[FlowRt],
        tasks: &[TaskRt],
        events: u64,
        truncated: bool,
        segments: Option<Vec<RateSegment>>,
        wall: std::time::Duration,
    ) -> SimReport {
        let flow_outcomes: Vec<FlowOutcome> = flows
            .iter()
            .enumerate()
            .map(|(i, f)| FlowOutcome {
                flow: i,
                status: f.status,
                finish: f.finish,
                delivered: f.delivered,
                on_time: f.on_time(),
            })
            .collect();
        let task_success: Vec<bool> = tasks
            .iter()
            .map(|t| t.spec.flows.clone().all(|fid| flow_outcomes[fid].on_time))
            .collect();
        // A flow is indeterminate when a truncated run stopped with it
        // still in flight. A task is indeterminate when no flow has
        // already failed but at least one flow is indeterminate — its
        // fate was never decided.
        let flow_indet: Vec<bool> = flows.iter().map(|f| !f.status.is_terminal()).collect();
        let task_indet: Vec<bool> = tasks
            .iter()
            .map(|t| {
                let failed = t
                    .spec
                    .flows
                    .clone()
                    .any(|fid| flows[fid].status.is_terminal() && !flow_outcomes[fid].on_time);
                !failed && t.spec.flows.clone().any(|fid| flow_indet[fid])
            })
            .collect();

        let bytes_total = wl.total_bytes();
        let mut bytes_on_time_flows = 0.0;
        let mut bytes_on_time_tasks = 0.0;
        let mut bytes_delivered = 0.0;
        let mut bytes_wasted_flow = 0.0;
        let mut bytes_wasted_task = 0.0;
        let mut wbytes_total = 0.0;
        let mut wbytes_on_time_tasks = 0.0;
        for (i, f) in flows.iter().enumerate() {
            bytes_delivered += f.delivered;
            let ok_flow = flow_outcomes[i].on_time;
            let ok_task = task_success[f.spec.task];
            let w = tasks[f.spec.task].spec.weight;
            wbytes_total += w * f.spec.size;
            if ok_flow {
                bytes_on_time_flows += f.spec.size;
            } else if !flow_indet[i] {
                // Indeterminate flows are neither useful nor waste yet.
                bytes_wasted_flow += f.delivered;
            }
            if ok_task {
                bytes_on_time_tasks += f.spec.size;
                wbytes_on_time_tasks += w * f.spec.size;
            } else if !task_indet[f.spec.task] {
                bytes_wasted_task += f.delivered;
            }
        }
        let mut weight_total = 0.0;
        let mut weight_completed = 0.0;
        let mut weight_indeterminate = 0.0;
        for (i, t) in tasks.iter().enumerate() {
            weight_total += t.spec.weight;
            if task_success[i] {
                weight_completed += t.spec.weight;
            }
            if task_indet[i] {
                weight_indeterminate += t.spec.weight;
            }
        }

        let mut fcts: Vec<f64> = flows
            .iter()
            .filter_map(|f| f.finish.map(|t| t - f.spec.arrival))
            .collect();
        fcts.sort_by(f64::total_cmp);
        let mean_fct = if fcts.is_empty() {
            0.0
        } else {
            fcts.iter().sum::<f64>() / fcts.len() as f64
        };
        let p99_fct = if fcts.is_empty() {
            0.0
        } else {
            fcts[((fcts.len() as f64 * 0.99).ceil() as usize - 1).min(fcts.len() - 1)]
        };

        SimReport {
            scheduler: scheduler.to_string(),
            tasks_total: tasks.len(),
            tasks_completed: task_success.iter().filter(|s| **s).count(),
            tasks_indeterminate: task_indet.iter().filter(|i| **i).count(),
            flows_total: flows.len(),
            flows_on_time: flow_outcomes.iter().filter(|o| o.on_time).count(),
            flows_indeterminate: flow_indet.iter().filter(|i| **i).count(),
            bytes_total,
            bytes_on_time_flows,
            bytes_on_time_tasks,
            bytes_delivered,
            bytes_wasted_flow,
            bytes_wasted_task,
            weight_total,
            weight_completed,
            weight_indeterminate,
            wbytes_total,
            wbytes_on_time_tasks,
            mean_fct,
            p99_fct,
            flow_outcomes,
            task_success,
            segments,
            events,
            truncated,
            wall,
        }
    }

    /// Fraction of tasks fully completed before their deadline, over
    /// tasks with a determinate outcome (all of them unless the run was
    /// [`SimReport::truncated`]).
    pub fn task_completion_ratio(&self) -> f64 {
        ratio(
            self.tasks_completed as f64,
            (self.tasks_total - self.tasks_indeterminate) as f64,
        )
    }

    /// Fraction of flows completed before their deadline, over flows
    /// with a determinate outcome.
    pub fn flow_completion_ratio(&self) -> f64 {
        ratio(
            self.flows_on_time as f64,
            (self.flows_total - self.flows_indeterminate) as f64,
        )
    }

    /// Size-weighted application throughput (flow granularity).
    pub fn app_throughput(&self) -> f64 {
        ratio(self.bytes_on_time_flows, self.bytes_total)
    }

    /// Size-weighted application throughput (task granularity).
    pub fn app_task_throughput(&self) -> f64 {
        ratio(self.bytes_on_time_tasks, self.bytes_total)
    }

    /// Wasted bandwidth ratio, flow granularity (the paper's Fig. 8).
    pub fn wasted_bandwidth_ratio(&self) -> f64 {
        ratio(self.bytes_wasted_flow, self.bytes_total)
    }

    /// Wasted bandwidth ratio, task granularity.
    pub fn wasted_bandwidth_task_ratio(&self) -> f64 {
        ratio(self.bytes_wasted_task, self.bytes_total)
    }

    /// Weight-scaled application goodput: `Σ weight × size` over flows of
    /// fully-successful tasks, as a fraction of the weight-scaled
    /// workload bytes. With every weight at 1.0 this equals
    /// [`SimReport::app_task_throughput`] exactly.
    pub fn weighted_goodput(&self) -> f64 {
        ratio(self.wbytes_on_time_tasks, self.wbytes_total)
    }

    /// Weight-scaled task completion: completed weight over determinate
    /// weight. With every weight at 1.0 this equals
    /// [`SimReport::task_completion_ratio`] exactly.
    pub fn weighted_task_completion_ratio(&self) -> f64 {
        ratio(
            self.weight_completed,
            self.weight_total - self.weight_indeterminate,
        )
    }

    /// Weight-scaled miss ratio: the weight of tasks that decidedly
    /// missed their deadline over the determinate weight (0 on an empty
    /// workload).
    pub fn weighted_miss_ratio(&self) -> f64 {
        let det = self.weight_total - self.weight_indeterminate;
        ratio(det - self.weight_completed, det)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Bins the rate-segment log into an *effective application throughput*
/// time series (the paper's Fig. 14): per bin, the bytes delivered by
/// flows that eventually completed on time, expressed as a fraction of
/// `capacity_bytes_per_sec × bin`.
///
/// Returns `(bin_start_seconds, effective_fraction)` pairs covering
/// `[0, horizon)`.
pub fn effective_throughput_series(
    report: &SimReport,
    bin: f64,
    horizon: f64,
    capacity_bytes_per_sec: f64,
) -> Vec<(f64, f64)> {
    assert!(bin > 0.0 && horizon > 0.0 && capacity_bytes_per_sec > 0.0);
    #[expect(
        clippy::expect_used,
        reason = "documented precondition: caller must enable SimConfig::log_segments"
    )]
    let segments = report
        .segments
        .as_ref()
        .expect("effective_throughput_series requires SimConfig::log_segments");
    let nbins = (horizon / bin).ceil() as usize;
    let mut useful = vec![0.0f64; nbins];
    for s in segments {
        if !report.flow_outcomes[s.flow].on_time {
            continue;
        }
        // Spread the segment's bytes uniformly over its interval.
        let rate = s.bytes / (s.t1 - s.t0);
        let mut t = s.t0;
        while t < s.t1 {
            let b = (t / bin) as usize;
            if b >= nbins {
                break;
            }
            let bin_end = (b as f64 + 1.0) * bin;
            let seg_end = s.t1.min(bin_end);
            useful[b] += rate * (seg_end - t);
            t = seg_end;
        }
    }
    useful
        .iter()
        .enumerate()
        .map(|(i, u)| (i as f64 * bin, u / (capacity_bytes_per_sec * bin)))
        .collect()
}

/// Bins the rate-segment log into a *goodput fraction* time series: per
/// bin, the bytes delivered by flows that eventually completed on time,
/// as a fraction of **all** bytes delivered in that bin (1.0 = every
/// transmitted byte was useful; bins with no traffic report 0). This is
/// the scale-free reading of Fig. 14's "effective application
/// throughput": TAPS pins it at ~1 while Fair Sharing fluctuates.
pub fn goodput_fraction_series(report: &SimReport, bin: f64, horizon: f64) -> Vec<(f64, f64)> {
    assert!(bin > 0.0 && horizon > 0.0);
    #[expect(
        clippy::expect_used,
        reason = "documented precondition: caller must enable SimConfig::log_segments"
    )]
    let segments = report
        .segments
        .as_ref()
        .expect("goodput_fraction_series requires SimConfig::log_segments");
    let nbins = (horizon / bin).ceil() as usize;
    let mut useful = vec![0.0f64; nbins];
    let mut total = vec![0.0f64; nbins];
    for s in segments {
        let rate = s.bytes / (s.t1 - s.t0);
        let good = report.flow_outcomes[s.flow].on_time;
        let mut t = s.t0;
        while t < s.t1 {
            let b = (t / bin) as usize;
            if b >= nbins {
                break;
            }
            let seg_end = s.t1.min((b as f64 + 1.0) * bin);
            let bytes = rate * (seg_end - t);
            total[b] += bytes;
            if good {
                useful[b] += bytes;
            }
            t = seg_end;
        }
    }
    (0..nbins)
        .map(|b| {
            let frac = if total[b] > 0.0 {
                useful[b] / total[b]
            } else {
                0.0
            };
            (b as f64 * bin, frac)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(on_time: bool) -> FlowOutcome {
        FlowOutcome {
            flow: 0,
            status: if on_time {
                FlowStatus::Completed
            } else {
                FlowStatus::Missed
            },
            finish: on_time.then_some(1.0),
            delivered: 100.0,
            on_time,
        }
    }

    #[test]
    fn ratios_handle_zero_denominators() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 2.0), 0.5);
    }

    fn runtime(wl: &Workload) -> (Vec<FlowRt>, Vec<TaskRt>) {
        (
            wl.flows.iter().map(|f| FlowRt::new(f.clone())).collect(),
            wl.tasks.iter().map(|t| TaskRt::new(t.clone())).collect(),
        )
    }

    fn complete(f: &mut FlowRt, at: f64) {
        f.status = FlowStatus::Completed;
        f.finish = Some(at);
        f.delivered = f.spec.size;
    }

    fn miss(f: &mut FlowRt, delivered: f64) {
        f.status = FlowStatus::Missed;
        f.missed_deadline = true;
        f.delivered = delivered;
    }

    #[test]
    fn build_aggregates_mixed_outcomes() {
        // Task 0: one on-time flow + one miss (task fails, and even the
        // on-time flow's bytes count as task-level waste). Task 1: on time.
        let wl = Workload::from_tasks(vec![
            (0.0, 1.0, vec![(0, 1, 100.0), (0, 1, 200.0)]),
            (0.0, 1.0, vec![(1, 0, 300.0)]),
        ]);
        let (mut flows, tasks) = runtime(&wl);
        complete(&mut flows[0], 0.5);
        miss(&mut flows[1], 50.0);
        complete(&mut flows[2], 0.9);
        let rep = SimReport::build(
            "t",
            &wl,
            &flows,
            &tasks,
            10,
            false,
            None,
            std::time::Duration::ZERO,
        );
        assert_eq!(rep.tasks_completed, 1);
        assert_eq!(rep.tasks_indeterminate, 0);
        assert_eq!(rep.flows_on_time, 2);
        assert_eq!(rep.bytes_total, 600.0);
        assert_eq!(rep.bytes_on_time_flows, 400.0);
        assert_eq!(rep.bytes_on_time_tasks, 300.0);
        assert_eq!(rep.bytes_delivered, 450.0);
        assert_eq!(rep.bytes_wasted_flow, 50.0);
        assert_eq!(rep.bytes_wasted_task, 150.0);
        assert!((rep.task_completion_ratio() - 0.5).abs() < 1e-12);
        assert!((rep.flow_completion_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert!((rep.app_throughput() - 400.0 / 600.0).abs() < 1e-12);
        assert!((rep.app_task_throughput() - 0.5).abs() < 1e-12);
        assert!((rep.wasted_bandwidth_ratio() - 50.0 / 600.0).abs() < 1e-12);
        assert!((rep.wasted_bandwidth_task_ratio() - 0.25).abs() < 1e-12);
        assert!((rep.mean_fct - 0.7).abs() < 1e-12);
        assert_eq!(rep.p99_fct, 0.9);
    }

    #[test]
    fn indeterminate_outcomes_are_excluded_from_denominators_and_waste() {
        // Truncated run: flow 1 is still in flight, so task 0's fate was
        // never decided — it must leave every ratio denominator, and its
        // delivered bytes are neither useful nor waste yet.
        let wl = Workload::from_tasks(vec![
            (0.0, 1.0, vec![(0, 1, 100.0), (0, 1, 200.0)]),
            (0.0, 1.0, vec![(1, 0, 300.0)]),
        ]);
        let (mut flows, tasks) = runtime(&wl);
        complete(&mut flows[0], 0.5);
        flows[1].status = FlowStatus::Admitted;
        flows[1].delivered = 50.0;
        miss(&mut flows[2], 120.0);
        let rep = SimReport::build(
            "t",
            &wl,
            &flows,
            &tasks,
            10,
            true,
            None,
            std::time::Duration::ZERO,
        );
        assert_eq!(rep.flows_indeterminate, 1);
        assert_eq!(rep.tasks_indeterminate, 1);
        assert_eq!(rep.tasks_completed, 0);
        assert_eq!(rep.flow_completion_ratio(), 0.5);
        assert_eq!(rep.task_completion_ratio(), 0.0);
        assert_eq!(rep.bytes_on_time_flows, 100.0);
        // Only the decided miss is waste; the in-flight flow and the
        // indeterminate task contribute nothing.
        assert_eq!(rep.bytes_wasted_flow, 120.0);
        assert_eq!(rep.bytes_wasted_task, 120.0);
    }

    #[test]
    fn zero_byte_flows_count_for_ratios_but_not_bytes() {
        let wl = Workload::from_tasks(vec![
            (0.0, 1.0, vec![(0, 1, 0.0)]),
            (0.0, 1.0, vec![(1, 0, 0.0)]),
        ]);
        let (mut flows, tasks) = runtime(&wl);
        complete(&mut flows[0], 0.0);
        miss(&mut flows[1], 0.0);
        let rep = SimReport::build(
            "t",
            &wl,
            &flows,
            &tasks,
            2,
            false,
            None,
            std::time::Duration::ZERO,
        );
        assert_eq!(rep.flows_on_time, 1);
        assert_eq!(rep.tasks_completed, 1);
        assert_eq!(rep.flow_completion_ratio(), 0.5);
        assert_eq!(rep.task_completion_ratio(), 0.5);
        // All byte-weighted ratios fall back to 0 on an empty-byte
        // workload instead of dividing by zero.
        assert_eq!(rep.bytes_total, 0.0);
        assert_eq!(rep.app_throughput(), 0.0);
        assert_eq!(rep.wasted_bandwidth_ratio(), 0.0);
        assert_eq!(rep.wasted_bandwidth_task_ratio(), 0.0);
    }

    #[test]
    fn goodput_fraction_splits_useful_from_waste() {
        let rep = SimReport {
            scheduler: "t".into(),
            tasks_total: 1,
            tasks_completed: 1,
            tasks_indeterminate: 0,
            flows_total: 2,
            flows_on_time: 1,
            flows_indeterminate: 0,
            bytes_total: 200.0,
            bytes_on_time_flows: 100.0,
            bytes_on_time_tasks: 100.0,
            bytes_delivered: 200.0,
            bytes_wasted_flow: 100.0,
            bytes_wasted_task: 100.0,
            weight_total: 1.0,
            weight_completed: 1.0,
            weight_indeterminate: 0.0,
            wbytes_total: 200.0,
            wbytes_on_time_tasks: 100.0,
            mean_fct: 1.0,
            p99_fct: 1.0,
            flow_outcomes: vec![outcome(true), outcome(false)],
            task_success: vec![true],
            segments: Some(vec![
                RateSegment {
                    flow: 0,
                    t0: 0.0,
                    t1: 1.0,
                    bytes: 100.0,
                },
                RateSegment {
                    flow: 1,
                    t0: 0.0,
                    t1: 0.5,
                    bytes: 100.0,
                },
            ]),
            events: 0,
            truncated: false,
            wall: std::time::Duration::ZERO,
        };
        let series = goodput_fraction_series(&rep, 0.5, 1.5);
        // Bin 0: 50 useful + 100 wasted -> 1/3; bin 1: all useful; bin
        // 2: idle -> 0.
        assert!((series[0].1 - 50.0 / 150.0).abs() < 1e-9);
        assert!((series[1].1 - 1.0).abs() < 1e-9);
        assert_eq!(series[2].1, 0.0);
    }

    #[test]
    fn throughput_series_bins_and_filters() {
        let mut rep = SimReport {
            scheduler: "t".into(),
            tasks_total: 1,
            tasks_completed: 1,
            tasks_indeterminate: 0,
            flows_total: 2,
            flows_on_time: 1,
            flows_indeterminate: 0,
            bytes_total: 200.0,
            bytes_on_time_flows: 100.0,
            bytes_on_time_tasks: 100.0,
            bytes_delivered: 200.0,
            bytes_wasted_flow: 100.0,
            bytes_wasted_task: 100.0,
            weight_total: 1.0,
            weight_completed: 1.0,
            weight_indeterminate: 0.0,
            wbytes_total: 200.0,
            wbytes_on_time_tasks: 100.0,
            mean_fct: 1.0,
            p99_fct: 1.0,
            flow_outcomes: vec![outcome(true), outcome(false)],
            task_success: vec![true],
            segments: Some(vec![
                // useful flow: 100 B over [0, 1)
                RateSegment {
                    flow: 0,
                    t0: 0.0,
                    t1: 1.0,
                    bytes: 100.0,
                },
                // wasted flow: should be excluded
                RateSegment {
                    flow: 1,
                    t0: 0.0,
                    t1: 1.0,
                    bytes: 100.0,
                },
            ]),
            events: 0,
            truncated: false,
            wall: std::time::Duration::ZERO,
        };
        let series = effective_throughput_series(&rep, 0.5, 1.0, 200.0);
        assert_eq!(series.len(), 2);
        // 50 useful bytes per 0.5 s bin over a 100-bytes-per-bin capacity.
        assert!((series[0].1 - 0.5).abs() < 1e-9);
        assert!((series[1].1 - 0.5).abs() < 1e-9);

        // A segment spanning bins splits proportionally.
        rep.segments = Some(vec![RateSegment {
            flow: 0,
            t0: 0.25,
            t1: 0.75,
            bytes: 100.0,
        }]);
        let series = effective_throughput_series(&rep, 0.5, 1.0, 200.0);
        assert!((series[0].1 - 0.5).abs() < 1e-9);
        assert!((series[1].1 - 0.5).abs() < 1e-9);
    }
}
