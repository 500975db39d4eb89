//! Schedule introspection: what did the controller actually commit?
//!
//! The paper argues TAPS "makes the most of bandwidth"; this module
//! quantifies that for a committed batch of [`FlowAlloc`]s — per-link
//! utilization over the schedule horizon, makespan, slack statistics,
//! and a Gantt-style rendering for debugging and examples.

use crate::alloc::FlowAlloc;
use taps_timeline::{Clock, IntervalSet};
use taps_topology::{LinkId, Topology};

/// Aggregated view of a committed schedule.
#[derive(Clone, Debug)]
pub struct ScheduleAnalysis {
    /// One past the last occupied slot across all links.
    pub makespan_slot: u64,
    /// Per-link occupancy (sorted descending by busy slots), as
    /// `(link, busy slots)`.
    pub busiest_links: Vec<(LinkId, u64)>,
    /// Mean utilization over links that carry at least one slice,
    /// relative to the makespan.
    pub mean_busy_link_utilization: f64,
    /// Number of distinct links used.
    pub links_used: usize,
    /// Total allocated slot-link pairs (one slot on one link).
    pub total_slot_links: u64,
    /// Per-flow slack: `deadline_slot - completion_slot` (only for
    /// on-time flows), where `deadline_slot` is the last boundary the
    /// deadline reaches ([`Clock::boundary_by`]), so it is never
    /// negative.
    pub slacks: Vec<(usize, i64)>,
}

/// Analyzes a batch of committed allocations against a topology and a
/// slot duration.
pub fn analyze(topo: &Topology, allocs: &[FlowAlloc], slot: f64) -> ScheduleAnalysis {
    let mut per_link: Vec<IntervalSet> = vec![IntervalSet::new(); topo.num_links()];
    let mut makespan = 0u64;
    let mut total_slot_links = 0u64;
    for al in allocs {
        makespan = makespan.max(al.completion_slot);
        for l in &al.path.links {
            per_link[l.idx()].insert_set(&al.slices);
            total_slot_links += al.slices.total_slots();
        }
    }
    let mut busiest: Vec<(LinkId, u64)> = per_link
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_empty())
        .map(|(i, s)| (LinkId::from_idx(i), s.total_slots()))
        .collect();
    busiest.sort_by_key(|&(l, busy)| (std::cmp::Reverse(busy), l));
    let links_used = busiest.len();
    #[expect(
        clippy::as_conversions,
        reason = "slot counts and link counts are far below 2^53"
    )]
    let mean_util = if links_used == 0 || makespan == 0 {
        0.0
    } else {
        busiest.iter().map(|(_, b)| *b as f64).sum::<f64>() / (links_used as f64 * makespan as f64)
    };
    let clock = Clock::new(slot);
    #[expect(
        clippy::as_conversions,
        reason = "slot indices are far below 2^63, so the i64 slack cannot wrap"
    )]
    let slacks = allocs
        .iter()
        .filter(|al| al.on_time)
        .map(|al| {
            let deadline_slot = clock.boundary_by(al.deadline) as i64;
            (al.id, deadline_slot - al.completion_slot as i64)
        })
        .collect::<Vec<_>>();
    ScheduleAnalysis {
        makespan_slot: makespan,
        busiest_links: busiest,
        mean_busy_link_utilization: mean_util,
        links_used,
        total_slot_links,
        slacks,
    }
}

/// Renders a Gantt chart of the schedule on one link: one row per flow
/// that touches the link, `#` for occupied slots.
pub fn gantt_for_link(allocs: &[FlowAlloc], link: LinkId, width: u64) -> String {
    let mut out = String::new();
    for al in allocs {
        if !al.path.links.contains(&link) {
            continue;
        }
        #[expect(clippy::as_conversions, reason = "render width is a small count")]
        let mut row = String::with_capacity(width as usize + 16);
        row.push_str(&format!("flow {:>4} |", al.id));
        for s in 0..width {
            row.push(if al.slices.contains(s) { '#' } else { '.' });
        }
        row.push('\n');
        out.push_str(&row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{FlowDemand, SlotAllocator};
    use taps_topology::build::{dumbbell, GBPS};

    fn batch() -> (taps_topology::Topology, Vec<FlowAlloc>) {
        let topo = dumbbell(2, 2, GBPS);
        let mut a = SlotAllocator::new(&topo, 0.001, 4);
        let allocs = a.allocate_batch(
            &[
                FlowDemand {
                    id: 0,
                    src: 0,
                    dst: 2,
                    remaining: 2.0 * GBPS * 0.001,
                    deadline: 0.01,
                },
                FlowDemand {
                    id: 1,
                    src: 1,
                    dst: 3,
                    remaining: 3.0 * GBPS * 0.001,
                    deadline: 0.01,
                },
            ],
            0,
        );
        (topo, allocs.unwrap())
    }

    #[test]
    fn analysis_counts_are_consistent() {
        let (topo, allocs) = batch();
        let an = analyze(&topo, &allocs, 0.001);
        // Two flows on one shared bottleneck: makespan 5 slots.
        assert_eq!(an.makespan_slot, 5);
        assert!(an.links_used >= 3, "both access links and the bottleneck");
        // The bottleneck carries all 5 slots — it is the busiest link.
        assert_eq!(an.busiest_links[0].1, 5);
        assert!(an.mean_busy_link_utilization > 0.0 && an.mean_busy_link_utilization <= 1.0);
        // slot-links = sum over flows of slots x path length.
        let expect: u64 = allocs
            .iter()
            .map(|al| al.slices.total_slots() * al.path.links.len() as u64)
            .sum();
        assert_eq!(an.total_slot_links, expect);
    }

    #[test]
    fn gantt_renders_rows() {
        let (topo, allocs) = batch();
        let an = analyze(&topo, &allocs, 0.001);
        let busiest = an.busiest_links[0].0;
        let g = gantt_for_link(&allocs, busiest, 6);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 2, "both flows cross the bottleneck");
        assert!(lines[0].contains("##"));
        // Exclusive occupancy shows as disjoint # columns.
        let r0: Vec<char> = lines[0].chars().rev().take(6).collect();
        let r1: Vec<char> = lines[1].chars().rev().take(6).collect();
        for (c0, c1) in r0.iter().zip(&r1) {
            assert!(!(*c0 == '#' && *c1 == '#'), "overlapping slot in gantt");
        }
    }

    /// A flow that completes exactly at its deadline has slack 0, also
    /// where the deadline's double falls just short of the boundary:
    /// `0.3 / 0.1 = 2.9999999999999996`, and `49 · 1e-4 / 1e-4 < 49`.
    #[test]
    fn a_flow_finishing_on_its_deadline_boundary_has_zero_slack() {
        let topo = dumbbell(1, 1, GBPS);
        for (slot, slots) in [(0.1, 3u32), (1e-4, 49), (1e-4, 59), (1e-4, 81)] {
            let mut a = SlotAllocator::new(&topo, slot, 4);
            let demand = FlowDemand {
                id: 0,
                src: 0,
                dst: 1,
                remaining: f64::from(slots) * GBPS * slot,
                deadline: f64::from(slots) * slot,
            };
            let allocs = a.allocate_batch(&[demand], 0).unwrap();
            assert_eq!(allocs[0].completion_slot, u64::from(slots));
            assert!(allocs[0].on_time, "the engine marks it on time");
            let an = analyze(&topo, &allocs, slot);
            assert_eq!(an.slacks, vec![(0, 0)], "slot {slot}, {slots} slots");
        }
    }

    #[test]
    fn empty_schedule_analysis() {
        let topo = dumbbell(1, 1, GBPS);
        let an = analyze(&topo, &[], 0.001);
        assert_eq!(an.makespan_slot, 0);
        assert_eq!(an.links_used, 0);
        assert_eq!(an.mean_busy_link_utilization, 0.0);
    }
}
