//! Layer `service::controller` — ladder rung R1.
//!
//! `ServiceController::step` over a [`TimedTransport`], on the plan's
//! virtual clock. Each step is a span whose children are the transport
//! calls it made; the deeper rungs hang their spans under it.

use serde_json::Value;
use taps_sdn::ControllerConfig;
use taps_service::{Response, ServiceConfig, ServiceController};
use taps_topology::Topology;

use super::{percentile_us, Metrics};
use crate::inputs::RoundInput;
use crate::runners::inproc::{self, StepLog, Stepping, TimedTransport};
use crate::runners::{service_counter, RoundResult};
use crate::trace::{SpanId, Tracer};

/// What rung R1 produced.
pub struct ServiceRung {
    /// Every step, in order.
    pub steps: Vec<StepLog>,
    /// Span of each step, by step index.
    pub step_span: Vec<SpanId>,
    /// The round, checked like an untraced one.
    pub result: RoundResult,
    /// The service's inner controller counters at the end.
    pub ctrl_stats: taps_sdn::ControlStats,
    /// Deepest pending queue seen.
    pub pending_depth_max: usize,
    /// The decisions the client drained, in order (sheds included).
    pub responses: Vec<Response>,
}

/// Runs the traced rung.
pub fn run(
    topo: &Topology,
    input: &RoundInput,
    stepping: Stepping,
    tracer: &mut Tracer,
) -> ServiceRung {
    let svc_cfg = ServiceConfig::default();
    let mut svc = ServiceController::new(topo, ControllerConfig::default(), svc_cfg);
    let n = input.plan.events.len();
    let mut tr = TimedTransport::new(inproc::transport_for(n), tracer.origin());
    let mut steps = Vec::new();
    let mut step_span = Vec::new();
    let origin = tracer.origin();
    let out = inproc::drive(
        &mut svc,
        &svc_cfg,
        input,
        stepping,
        origin,
        &mut tr,
        |log, tr| {
            let decision = log.decided.first().map_or(0, |b| b.task);
            let id = tracer.record("service.step", log.wall_ns.0, log.wall_ns.1, None, decision);
            for (name, s, e) in tr.calls.drain(..) {
                tracer.record(name, s, e, Some(id), decision);
            }
            step_span.push(id);
            steps.push(log);
        },
    );
    let pending_depth_max = out.pending_depth_max;
    let ctrl_stats = svc.controller().stats().clone();
    let result = inproc::finish(out, &svc, Vec::new(), 0.0);
    let responses = steps
        .iter_mut()
        .flat_map(|s| std::mem::take(&mut s.responses))
        .filter(|r| matches!(r, Response::Decision { .. }))
        .collect();
    ServiceRung {
        steps,
        step_span,
        result,
        ctrl_stats,
        pending_depth_max,
        responses,
    }
}

/// Quantile of a `Stats` histogram, as the upper bound of the bucket the
/// quantile falls in (the overflow bucket reads as the last bound).
pub fn histogram_quantile(stats: &Value, name: &str, q: f64) -> f64 {
    let Some(h) = stats
        .get("service")
        .and_then(|s| s.get("histograms"))
        .and_then(|h| h.get(name))
    else {
        return 0.0;
    };
    let nums = |key: &str| -> Vec<u64> {
        h.get(key)
            .and_then(Value::as_array)
            .map(|a| a.iter().filter_map(Value::as_u64).collect())
            .unwrap_or_default()
    };
    let (bounds, counts) = (nums("bounds"), nums("counts"));
    let total: u64 = counts.iter().sum();
    if total == 0 || bounds.is_empty() {
        return 0.0;
    }
    let rank = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bounds[i.min(bounds.len() - 1)] as f64;
        }
    }
    *bounds.last().expect("checked non-empty") as f64
}

/// This layer's metrics. `stats` is the `Stats` document of the run the
/// workload is about (the daemon's on the socket workloads, this
/// rung's own otherwise); `step_self_ns` is the steps' time outside
/// their transport calls and `sdn_ns` the time rung R2 spent replaying
/// their controller calls.
pub fn metrics(
    rung: &ServiceRung,
    stats: &Value,
    depth_max: f64,
    step_self_ns: u64,
    sdn_ns: u64,
) -> Metrics {
    let busy: Vec<&StepLog> = rung
        .steps
        .iter()
        .filter(|s| !s.decided.is_empty())
        .collect();
    let per_decision_ns: Vec<u64> = busy
        .iter()
        .map(|s| (s.wall_ns.1 - s.wall_ns.0) / s.decided.len() as u64)
        .collect();
    let decisions: usize = busy.iter().map(|s| s.decided.len()).sum();
    let bursts: Vec<usize> = busy
        .iter()
        .filter(|s| s.batch)
        .map(|s| s.decided.len())
        .collect();
    let in_bursts: usize = bursts.iter().sum();
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    vec![
        ("service.step_us_p50", percentile_us(&per_decision_ns, 0.50)),
        ("service.step_us_p99", percentile_us(&per_decision_ns, 0.99)),
        (
            "service.self_us",
            ratio(
                (step_self_ns as f64 - sdn_ns as f64) / 1e3,
                decisions as f64,
            ),
        ),
        (
            "service.queue_wait_ms_p50",
            histogram_quantile(stats, "admission_latency_us", 0.50) / 1e3,
        ),
        (
            "service.queue_wait_ms_p99",
            histogram_quantile(stats, "admission_latency_us", 0.99) / 1e3,
        ),
        ("service.pending_depth_max", depth_max),
        (
            "service.batch_share",
            ratio(in_bursts as f64, decisions as f64),
        ),
        (
            "service.batch_size_mean",
            ratio(in_bursts as f64, bursts.len() as f64),
        ),
        (
            "service.shed_infeasible",
            service_counter(stats, "shed_reason_5") as f64,
        ),
        (
            "service.shed_queue_full",
            service_counter(stats, "shed_reason_4") as f64,
        ),
        (
            "service.notifications_dropped",
            service_counter(stats, "notifications_dropped") as f64,
        ),
        (
            "service.duplicate_submits",
            service_counter(stats, "duplicate_submits") as f64,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_read_bucket_bounds() {
        let doc: Value = serde_json::from_str(
            r#"{"service":{"counters":{},"histograms":{"h":{"bounds":[1,10,100],"counts":[5,4,1,2],"total":12,"sum":0}}}}"#,
        )
        .unwrap();
        assert_eq!(histogram_quantile(&doc, "h", 0.25), 1.0);
        assert_eq!(histogram_quantile(&doc, "h", 0.50), 10.0);
        assert_eq!(histogram_quantile(&doc, "h", 0.80), 100.0);
        // Overflow bucket reads as the last bound.
        assert_eq!(histogram_quantile(&doc, "h", 0.99), 100.0);
        assert_eq!(histogram_quantile(&doc, "missing", 0.5), 0.0);
    }
}
