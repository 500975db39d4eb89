//! Metrics registry: named counters and fixed-bucket histograms.
//!
//! Keys are plain strings with **no floats** (lint L1's spirit: nothing
//! whose formatting could vary); storage is `BTreeMap` so iteration and
//! export order are deterministic. Histograms use fixed integer bucket
//! bounds declared at registration time — observing never allocates or
//! rebuckets, so a registry can sit on a hot path.
//!
//! [`Metrics::from_trace`] derives the standard registry from a recorded
//! event stream: admission outcomes per reject reason, allocator effort,
//! preemption cascade lengths, per-link granted occupancy, control-plane
//! retry counts, and failover recovery latency.

use crate::event::{TraceEvent, TraceRecord};
use serde_json::Value;
use std::collections::BTreeMap;

/// Fixed-bucket integer histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Ascending upper bounds (inclusive); one overflow bucket follows.
    bounds: Vec<u64>,
    /// `counts[i]` = observations `<= bounds[i]`; last = overflow.
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Histogram {
    /// Creates a histogram with the given ascending inclusive upper
    /// bounds (deduplicated and sorted defensively).
    pub fn new(bounds: &[u64]) -> Histogram {
        let mut bounds = bounds.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        let counts = vec![0; bounds.len() + 1];
        Histogram {
            bounds,
            counts,
            total: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// `(upper_bound, count)` pairs; the overflow bucket reports
    /// `u64::MAX` as its bound.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self
            .bounds
            .iter()
            .zip(self.counts.iter())
            .map(|(b, c)| (*b, *c))
            .collect();
        out.push((u64::MAX, self.counts[self.bounds.len()]));
        out
    }

    fn to_value(&self) -> Value {
        let buckets = self
            .bounds
            .iter()
            .map(|b| Value::UInt(*b))
            .collect::<Vec<_>>();
        let counts = self.counts.iter().map(|c| Value::UInt(*c)).collect();
        Value::Object(vec![
            ("bounds".into(), Value::Array(buckets)),
            ("counts".into(), Value::Array(counts)),
            ("total".into(), Value::UInt(self.total)),
            ("sum".into(), Value::UInt(self.sum)),
        ])
    }
}

/// Default bucket bounds for microsecond-scale latencies.
pub const LATENCY_US_BOUNDS: [u64; 12] = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000];

/// Default bucket bounds for small counts (paths, retries, cascades).
pub const COUNT_BOUNDS: [u64; 8] = [0, 1, 2, 4, 8, 16, 32, 64];

/// Default bucket bounds for slot-depth style quantities.
pub const DEPTH_BOUNDS: [u64; 10] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512];

/// Named counters + fixed-bucket histograms with deterministic export.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `n` to counter `key` (creating it at zero). Only a new key
    /// allocates.
    pub fn add(&mut self, key: &str, n: u64) {
        match self.counters.get_mut(key) {
            Some(c) => *c += n,
            None => {
                self.counters.insert(key.to_string(), n);
            }
        }
    }

    /// Increments counter `key` by one.
    pub fn inc(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Reads a counter (zero when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Registers a histogram with fixed bucket `bounds` (idempotent —
    /// an existing histogram keeps its bounds and data).
    pub fn register_hist(&mut self, key: &str, bounds: &[u64]) {
        self.hists
            .entry(key.to_string())
            .or_insert_with(|| Histogram::new(bounds));
    }

    /// Records an observation into histogram `key`, registering it with
    /// `bounds` on first use. Only a new key allocates.
    pub fn observe(&mut self, key: &str, bounds: &[u64], value: u64) {
        if let Some(h) = self.hists.get_mut(key) {
            h.observe(value);
            return;
        }
        let mut h = Histogram::new(bounds);
        h.observe(value);
        self.hists.insert(key.to_string(), h);
    }

    /// Reads a histogram, if registered.
    pub fn hist(&self, key: &str) -> Option<&Histogram> {
        self.hists.get(key)
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Deterministic JSON export (keys sorted by `BTreeMap` order).
    pub fn to_value(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::UInt(*v)))
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|(k, h)| (k.clone(), h.to_value()))
            .collect();
        Value::Object(vec![
            ("counters".into(), Value::Object(counters)),
            ("histograms".into(), Value::Object(hists)),
        ])
    }

    /// Writes the registry to `path` through the shared normalized
    /// report writer.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut doc = self.to_value();
        crate::json::write_report(path, &mut doc)
    }

    /// Derives the standard registry from a recorded trace.
    pub fn from_trace(records: &[TraceRecord]) -> Metrics {
        let mut m = Metrics::new();
        // Preempt events since the last Admit/Reject verdict — measures
        // how deep one admission's preemption cascade went.
        let mut cascade = 0u64;
        // Retries seen per in-flight message id.
        let mut retries: BTreeMap<u64, u64> = BTreeMap::new();
        // Current hop set per flow, for granted-occupancy accounting.
        let mut hops: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut link_busy_us: BTreeMap<u64, u64> = BTreeMap::new();
        // Cumulative dropped-notification high-water mark per client.
        let mut client_dropped: BTreeMap<u64, u64> = BTreeMap::new();
        for rec in records {
            match &rec.ev {
                TraceEvent::TaskArrived { .. } => m.inc("tasks_arrived"),
                TraceEvent::FlowSpec { .. } => m.inc("flows_arrived"),
                TraceEvent::AllocAttempt {
                    paths_tried,
                    slots_scanned,
                    ..
                } => {
                    m.inc("alloc_attempts");
                    m.observe("alloc_paths_tried", &COUNT_BOUNDS, *paths_tried);
                    m.observe("alloc_slots_scanned", &DEPTH_BOUNDS, *slots_scanned);
                }
                TraceEvent::Admit { .. } => {
                    m.inc("tasks_admitted");
                    m.observe("preempt_cascade", &COUNT_BOUNDS, cascade);
                    cascade = 0;
                }
                TraceEvent::Reject { reason, .. } => {
                    m.inc("tasks_rejected");
                    m.inc(&format!("reject_reason_{reason}"));
                    cascade = 0;
                }
                TraceEvent::Preempt { .. } => {
                    m.inc("preemptions");
                    cascade += 1;
                }
                TraceEvent::LinkFault { up, .. } => {
                    m.inc(if *up { "link_repairs" } else { "link_faults" })
                }
                TraceEvent::ControlSend { copies, .. } => {
                    m.inc("control_sends");
                    m.add("control_copies", *copies);
                }
                TraceEvent::ControlAck { msg } => {
                    m.inc("control_acks");
                    let tries = retries.remove(msg).unwrap_or(0);
                    m.observe("control_retries_per_msg", &COUNT_BOUNDS, tries);
                }
                TraceEvent::ControlRetry { msg, .. } => {
                    m.inc("control_retries");
                    *retries.entry(*msg).or_insert(0) += 1;
                }
                TraceEvent::FailoverBegin { .. } => m.inc("failovers"),
                TraceEvent::FailoverEnd { latency, .. } => {
                    let us = (latency.max(0.0) * 1e6).round();
                    let us = if us >= u64::MAX as f64 {
                        u64::MAX
                    } else {
                        us as u64
                    };
                    m.observe("recovery_latency_us", &LATENCY_US_BOUNDS, us);
                }
                TraceEvent::CommitBegin { .. } => m.inc("commits"),
                TraceEvent::GrantIssued { flow, on_time, .. } => {
                    m.inc("grants_issued");
                    if !*on_time {
                        m.inc("grants_degraded");
                    }
                    hops.insert(*flow, Vec::new());
                }
                TraceEvent::GrantHop { flow, link, .. } => {
                    hops.entry(*flow).or_default().push(*link);
                }
                TraceEvent::GrantSlice {
                    flow, start, end, ..
                } => {
                    let dur_us = ((end - start).max(0.0) * 1e6).round();
                    let dur_us = if dur_us >= u64::MAX as f64 {
                        u64::MAX
                    } else {
                        dur_us as u64
                    };
                    for link in hops.get(flow).into_iter().flatten() {
                        *link_busy_us.entry(*link).or_insert(0) += dur_us;
                    }
                }
                TraceEvent::GrantRevoked { .. } => m.inc("grants_revoked"),
                TraceEvent::EntryInstalled { .. } => m.inc("entries_installed"),
                TraceEvent::EntryWithdrawn { .. } => m.inc("entries_withdrawn"),
                TraceEvent::FlowCompleted { .. } => m.inc("flows_completed"),
                TraceEvent::DeadlineExpired { .. } => m.inc("deadlines_expired"),
                TraceEvent::SubmitQueued { depth, .. } => {
                    m.inc("submits_queued");
                    m.observe("pending_depth", &DEPTH_BOUNDS, *depth);
                }
                TraceEvent::SubmitShed { reason, .. } => {
                    m.inc("pending_shed_total");
                    m.inc(&format!("shed_reason_{reason}"));
                }
                TraceEvent::BatchMode { on, .. } => {
                    m.inc(if *on {
                        "batch_mode_enters"
                    } else {
                        "batch_mode_exits"
                    });
                }
                TraceEvent::ClientMarked { client, dropped } => {
                    m.inc("client_marks");
                    // `dropped` is the client's cumulative count; keep the
                    // high-water mark and fold the totals in at the end.
                    let hw = client_dropped.entry(*client).or_insert(0);
                    *hw = (*hw).max(*dropped);
                }
                TraceEvent::TaskWeight { .. } => m.inc("weighted_tasks"),
                TraceEvent::DrainBegin { .. } => m.inc("drains"),
                TraceEvent::DrainEnd { decided, shed } => {
                    m.add("drain_decided", *decided);
                    m.add("drain_shed", *shed);
                }
                TraceEvent::RunMeta { .. } | TraceEvent::CommitEnd { .. } => {}
            }
        }
        for dropped in client_dropped.values() {
            m.add("notifications_dropped", *dropped);
        }
        m.add("links_with_grants", link_busy_us.len() as u64);
        for busy in link_busy_us.values() {
            m.observe(
                "link_granted_occupancy_us",
                &[10, 100, 1_000, 10_000, 100_000, 1_000_000],
                *busy,
            );
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_inclusive_with_overflow() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [0, 10, 11, 100, 101, 5_000] {
            h.observe(v);
        }
        assert_eq!(h.buckets(), vec![(10, 2), (100, 2), (u64::MAX, 2)]);
        assert_eq!(h.total(), 6);
        assert_eq!(h.sum(), 5_222);
    }

    #[test]
    fn counters_export_in_key_order() {
        let mut m = Metrics::new();
        m.inc("zeta");
        m.inc("alpha");
        m.add("alpha", 2);
        let keys: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["alpha", "zeta"]);
        assert_eq!(m.counter("alpha"), 3);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn a_histogram_keeps_the_bounds_of_its_first_observation() {
        let mut m = Metrics::new();
        m.observe("lat", &[10, 100], 5);
        m.observe("lat", &[1], 50);
        let h = m.hist("lat").expect("registered");
        assert_eq!(h.buckets(), vec![(10, 1), (100, 1), (u64::MAX, 0)]);
        assert_eq!(h.sum(), 55);
    }

    #[test]
    fn from_trace_derives_decisions_and_cascades() {
        use crate::event::{TraceEvent as E, TraceRecord as R};
        let mk = |seq, ev| R { seq, t: 0.0, ev };
        let recs = vec![
            mk(
                0,
                E::TaskArrived {
                    task: 0,
                    flows: 1,
                    deadline: 0.1,
                },
            ),
            mk(1, E::Preempt { task: 0, victim: 9 }),
            mk(2, E::Preempt { task: 0, victim: 8 }),
            mk(3, E::Admit { task: 0 }),
            mk(4, E::Reject { task: 1, reason: 2 }),
            mk(5, E::ControlSend { msg: 5, copies: 2 }),
            mk(6, E::ControlRetry { msg: 5, attempt: 1 }),
            mk(7, E::ControlAck { msg: 5 }),
        ];
        let m = Metrics::from_trace(&recs);
        assert_eq!(m.counter("tasks_admitted"), 1);
        assert_eq!(m.counter("preemptions"), 2);
        assert_eq!(m.counter("reject_reason_2"), 1);
        assert_eq!(m.counter("control_copies"), 2);
        let cascade = m.hist("preempt_cascade").expect("registered");
        // One admission with a cascade of exactly 2 victims.
        assert_eq!(cascade.total(), 1);
        assert_eq!(cascade.sum(), 2);
        let per_msg = m.hist("control_retries_per_msg").expect("registered");
        assert_eq!(per_msg.sum(), 1);
    }
}
