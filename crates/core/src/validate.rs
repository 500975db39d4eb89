//! Runtime schedule-invariant validator.
//!
//! TAPS's correctness argument rests on four invariants of every
//! committed schedule (Alg. 1–3): at most one flow occupies a link during
//! any slot, admitted flows finish inside their deadline, a flow is
//! allocated exactly the slots its demand requires, and preempted flows
//! give *all* their slots back. The static lints (`cargo xtask lint`)
//! keep nondeterminism out of the decision paths; this module checks the
//! produced schedules themselves.
//!
//! Time is not re-derived here. The on-time flag and the slot demand
//! are judged by the same [`Clock`] rules the engine applies
//! ([`Clock::reached`], [`Clock::slots_for`]). A private copy of a
//! rounding rule would not make the check independent: it would be a
//! second definition of time, and copies drift apart (the schedule
//! analysis's copy had no tolerance and gave on-time flows negative
//! slack). The Clock is
//! checked once, against the expressions it replaced and against exact
//! rational arithmetic, by `taps-timeline`'s own tests. What the
//! validator checks independently is everything else: which slices the
//! engine placed, on which links, for which demands, and what it left
//! in the occupancy.
//!
//! [`Taps`](crate::Taps) runs these checks automatically after every
//! admission, reject, and preemption when the build has debug assertions
//! (debug/test builds) — release benchmarks pay nothing. The checks are also plain public
//! functions so tests can feed in corrupted schedules and assert the
//! violations are caught.

use crate::alloc::{AllocEngine, FlowAlloc, FlowDemand};
use std::collections::BTreeMap;
use std::fmt;
use taps_timeline::{Clock, IntervalSet};
use taps_topology::{LinkId, Topology};

/// One violated schedule invariant.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// Two flows hold overlapping slices on the same link.
    DoubleBookedLink {
        /// The double-booked link.
        link: LinkId,
        /// Flow already holding the slot.
        first: usize,
        /// Flow whose slices overlap it.
        second: usize,
        /// First overlapping slot index.
        slot: u64,
    },
    /// A flow marked on-time completes after its deadline (or a late
    /// flow is mislabeled on-time).
    SliceAfterDeadline {
        /// The offending flow.
        flow: usize,
        /// Slot index one past the flow's last slice.
        completion_slot: u64,
        /// Completion time, seconds.
        completion_time: f64,
        /// The flow's absolute deadline, seconds.
        deadline: f64,
    },
    /// A flow's allocated slot count differs from what its demand needs.
    DemandMismatch {
        /// The offending flow.
        flow: usize,
        /// Slots the schedule actually grants.
        allocated_slots: u64,
        /// Slots the demand requires at the path bottleneck.
        required_slots: u64,
    },
    /// Link occupancy holds slots no committed allocation accounts for
    /// (e.g. a preempted flow's slices were not fully released).
    LeakedSlots {
        /// The link with orphaned occupancy.
        link: LinkId,
        /// Slots the engine's occupancy records.
        occupied_slots: u64,
        /// Slots committed allocations account for.
        committed_slots: u64,
    },
    /// An allocation references a flow with no matching demand.
    UnknownFlow {
        /// The unmatched flow id.
        flow: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DoubleBookedLink {
                link,
                first,
                second,
                slot,
            } => write!(
                f,
                "link {link:?} double-booked at slot {slot}: flows {first} and {second}"
            ),
            Violation::SliceAfterDeadline {
                flow,
                completion_slot,
                completion_time,
                deadline,
            } => write!(
                f,
                "flow {flow} on-time flag inconsistent: completes slot {completion_slot} \
                 (t={completion_time:.6}s) vs deadline {deadline:.6}s"
            ),
            Violation::DemandMismatch {
                flow,
                allocated_slots,
                required_slots,
            } => write!(
                f,
                "flow {flow} allocated {allocated_slots} slots but its demand needs {required_slots}"
            ),
            Violation::LeakedSlots {
                link,
                occupied_slots,
                committed_slots,
            } => write!(
                f,
                "link {link:?} occupancy leaks: {occupied_slots} slots occupied, \
                 {committed_slots} accounted for by committed allocations"
            ),
            Violation::UnknownFlow { flow } => {
                write!(f, "allocation for flow {flow} has no matching demand")
            }
        }
    }
}

/// A structured report of every invariant violation found in one check.
#[derive(Clone, Debug, Default)]
pub struct ViolationReport {
    /// What was being checked (e.g. `"commit after admission"`).
    pub context: String,
    /// All violations, in detection order.
    pub violations: Vec<Violation>,
}

impl ViolationReport {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Turns the report into a `Result`, for `?`-style consumption.
    pub fn into_result(self) -> Result<(), ViolationReport> {
        if self.is_clean() {
            Ok(())
        } else {
            Err(self)
        }
    }
}

impl fmt::Display for ViolationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule invariant violation(s) [{}]: {}",
            self.context,
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Checks a freshly produced schedule batch against the first three
/// invariants: link-exclusivity, slice-within-deadline consistency, and
/// demand-conservation.
///
/// `demands` and `allocs` are matched by flow id; an allocation without a
/// demand is itself a violation.
pub fn check_schedule(
    topo: &Topology,
    slot: f64,
    demands: &[FlowDemand],
    allocs: &[FlowAlloc],
    context: &str,
) -> ViolationReport {
    let mut report = ViolationReport {
        context: context.to_string(),
        violations: Vec::new(),
    };
    let by_id: BTreeMap<usize, &FlowDemand> = demands.iter().map(|d| (d.id, d)).collect();
    let clock = Clock::new(slot);

    // Link-exclusivity: compare each flow's slices against every prior
    // holder of the link (per-link flow counts are small), flagging the
    // first overlapping slot per offending pair.
    let mut holders: Vec<Vec<(usize, &IntervalSet)>> = vec![Vec::new(); topo.num_links()];
    for al in allocs {
        for l in &al.path.links {
            for &(prior, prior_slices) in &holders[l.idx()] {
                let clash = prior_slices.intersection(&al.slices);
                let first_clash_slot = clash.intervals().next().map(|iv| iv.start);
                if let Some(slot) = first_clash_slot {
                    report.violations.push(Violation::DoubleBookedLink {
                        link: *l,
                        first: prior,
                        second: al.id,
                        slot,
                    });
                }
            }
            holders[l.idx()].push((al.id, &al.slices));
        }
    }

    for al in allocs {
        // Slice-within-deadline: the on_time flag must agree with the
        // actual completion time (checked both directions, so a late
        // slice mislabeled on-time is caught too).
        if al.on_time != clock.reached(al.completion_slot, al.deadline) {
            report.violations.push(Violation::SliceAfterDeadline {
                flow: al.id,
                completion_slot: al.completion_slot,
                completion_time: clock.start(al.completion_slot),
                deadline: al.deadline,
            });
        }

        // Demand-conservation: allocated slots == slots the demand needs
        // at the chosen path's bottleneck.
        match by_id.get(&al.id) {
            Some(d) => {
                let required = clock.slots_for(d.remaining, al.path.bottleneck(topo));
                let allocated = al.slices.total_slots();
                if allocated != required {
                    report.violations.push(Violation::DemandMismatch {
                        flow: al.id,
                        allocated_slots: allocated,
                        required_slots: required,
                    });
                }
            }
            None => report
                .violations
                .push(Violation::UnknownFlow { flow: al.id }),
        }
    }
    report
}

/// Checks the fourth invariant — full slot release — by comparing the
/// engine's per-link occupancy against the union of committed slices:
/// any slot the occupancy holds beyond the committed allocations is a
/// leak (a preempted/released flow that did not give everything back).
pub fn check_occupancy(
    topo: &Topology,
    engine: &AllocEngine,
    allocs: &[FlowAlloc],
    context: &str,
) -> ViolationReport {
    let mut report = ViolationReport {
        context: context.to_string(),
        violations: Vec::new(),
    };
    let mut committed: Vec<IntervalSet> = vec![IntervalSet::new(); topo.num_links()];
    for al in allocs {
        for l in &al.path.links {
            committed[l.idx()].insert_set(&al.slices);
        }
    }
    for (i, committed) in committed.iter().enumerate() {
        let link = LinkId::from_idx(i);
        let occupied = engine.occupancy(link);
        if occupied != committed {
            report.violations.push(Violation::LeakedSlots {
                link,
                occupied_slots: occupied.total_slots(),
                committed_slots: committed.total_slots(),
            });
        }
    }
    report
}
