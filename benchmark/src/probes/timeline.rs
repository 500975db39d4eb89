//! Layer `timeline` — ladder rung R5.
//!
//! At sampled checkpoints of rung R3 (right after a pass, so the
//! allocator's occupancy is the one the next decision would search)
//! the probe times the two `IntervalSet` primitives an allocation pass
//! is made of: the k-way first-fit sweep over a candidate path's links,
//! and the insertion of a winner's slices into a link's occupancy.

use std::time::Instant;

use taps_core::{FlowAlloc, FlowDemand, SlotAllocator};
use taps_timeline::IntervalSet;
use taps_topology::cache::PathCache;
use taps_topology::Topology;

use super::Metrics;
use crate::stats::{mean, percentile_of};

/// Flows sampled per checkpoint.
const FLOWS_PER_CHECKPOINT: usize = 8;

/// Samples collected over a ladder run.
pub struct TimelineProbe {
    paths: PathCache,
    first_fit_ns: Vec<f64>,
    insert_ns: Vec<f64>,
    intervals_per_link: Vec<f64>,
    /// Occupancy rebuilt from the committed slices differed from the
    /// allocator's own (one line per link).
    pub violations: Vec<String>,
}

impl TimelineProbe {
    /// A probe ranking up to `max_paths` candidates per flow, like the
    /// allocator it shadows.
    pub fn new(max_paths: usize) -> TimelineProbe {
        TimelineProbe {
            paths: PathCache::new(max_paths),
            first_fit_ns: Vec::new(),
            insert_ns: Vec::new(),
            intervals_per_link: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// One checkpoint.
    pub fn sample(
        &mut self,
        topo: &Topology,
        alloc: &SlotAllocator<'_>,
        demands: &[FlowDemand],
        allocs: &[FlowAlloc],
        start_slot: u64,
    ) {
        // First fit: every candidate path of a few evenly spaced flows.
        let stride = (demands.len() / FLOWS_PER_CHECKPOINT).max(1);
        for d in demands.iter().step_by(stride).take(FLOWS_PER_CHECKPOINT) {
            let candidates = self.paths.paths(topo, topo.host(d.src), topo.host(d.dst));
            for path in candidates.iter() {
                let sets: Vec<&IntervalSet> =
                    path.links.iter().map(|l| alloc.occupancy(*l)).collect();
                let slots = alloc.slots_needed(d.remaining, path.bottleneck(topo));
                let t = Instant::now();
                let fit = IntervalSet::first_fit_bound_many(&sets, start_slot, slots, u64::MAX);
                self.first_fit_ns.push(t.elapsed().as_nanos() as f64);
                std::hint::black_box(fit);
            }
        }
        // Insert: rebuild the busiest link's occupancy from the slices
        // the pass committed across it, in commit order.
        let busiest = topo
            .links()
            .map(|(l, _)| l)
            .max_by_key(|l| alloc.occupancy(*l).interval_count());
        if let Some(link) = busiest {
            let mut rebuilt = IntervalSet::new();
            for al in allocs.iter().filter(|al| al.path.links.contains(&link)) {
                let t = Instant::now();
                rebuilt.insert_set(&al.slices);
                self.insert_ns.push(t.elapsed().as_nanos() as f64);
            }
            if rebuilt != *alloc.occupancy(link) {
                self.violations.push(format!(
                    "link {link:?}: occupancy differs from the union of committed slices"
                ));
            }
        }
        self.intervals_per_link.extend(
            topo.links()
                .map(|(l, _)| alloc.occupancy(l).interval_count())
                .filter(|&n| n > 0)
                .map(|n| n as f64),
        );
    }

    /// This layer's metrics.
    pub fn metrics(&mut self) -> Metrics {
        vec![
            ("timeline.first_fit_ns", mean(&self.first_fit_ns)),
            ("timeline.insert_ns", mean(&self.insert_ns)),
            (
                "timeline.intervals_per_link_p50",
                percentile_of(&mut self.intervals_per_link, 0.50),
            ),
            (
                "timeline.intervals_per_link_p99",
                percentile_of(&mut self.intervals_per_link, 0.99),
            ),
        ]
    }
}
