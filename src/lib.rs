//! # TAPS — Task-level deadline-Aware Preemptive flow Scheduling
//!
//! Umbrella crate for the reproduction of *"TAPS: Software Defined
//! Task-level Deadline-aware Preemptive Flow scheduling in Data Centers"*
//! (Liu, Li, Wu — ICPP 2015). It re-exports the workspace crates under one
//! roof so downstream users can depend on a single crate:
//!
//! * [`timeline`] — slotted interval algebra (link occupancy sets).
//! * [`topology`] — data-center topologies and path enumeration.
//! * [`flowsim`] — the flow-level discrete-event simulator.
//! * [`workload`] — deadline-sensitive workload generation.
//! * [`core`] — the TAPS scheduler itself (Alg. 1–3 + reject rule).
//! * [`baselines`] — Fair Sharing, D3, PDQ, Baraat and Varys.
//! * [`sdn`] — the SDN control-plane substrate (controller, switches with
//!   bounded flow tables, server agents).
//!
//! See the `examples/` directory for runnable entry points and DESIGN.md
//! for the paper-to-module map.
//!
//! ## Example
//!
//! Schedule one 100 kB flow with a 10 ms deadline across a dumbbell and
//! check that TAPS admits and completes it:
//!
//! ```
//! use taps::prelude::*;
//!
//! let topo = dumbbell(2, 2, GBPS);
//! let wl = Workload::from_tasks(vec![(0.0, 0.010, vec![(0, 2, 100_000.0)])]);
//! let mut taps = Taps::new();
//! let report = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut taps);
//! assert_eq!(report.tasks_completed, 1);
//! assert_eq!(report.wasted_bandwidth_ratio(), 0.0);
//! ```

#![forbid(unsafe_code)]
// Rules L3, L6 and marker hygiene, library code only (DESIGN.md §13).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::print_stdout))]
#![cfg_attr(not(test), deny(clippy::print_stderr, clippy::dbg_macro))]
#![cfg_attr(not(test), deny(clippy::allow_attributes))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(unfulfilled_lint_expectations))]

pub mod scenario_matrix;
pub mod trace_scenarios;

pub use taps_baselines as baselines;
pub use taps_core as core;
pub use taps_flowsim as flowsim;
pub use taps_sdn as sdn;
pub use taps_timeline as timeline;
pub use taps_topology as topology;
pub use taps_workload as workload;

/// Convenience prelude bringing the most common types into scope.
pub mod prelude {
    pub use taps_baselines::{Baraat, D2tcp, FairSharing, Pdq, Varys, D3};
    pub use taps_core::{Taps, TapsConfig};
    pub use taps_flowsim::{
        FaultEvent, FaultKind, FlowSpec, Scheduler, SimConfig, SimReport, Simulation, TaskSpec,
        Workload,
    };
    pub use taps_timeline::{Interval, IntervalSet};
    pub use taps_topology::build::{
        dumbbell, fat_tree, fig3_star, partial_fat_tree_testbed, single_rooted, GBPS,
    };
    pub use taps_topology::paths::PathFinder;
    pub use taps_topology::{LinkId, NodeId, Path, Topology};
    pub use taps_workload::{FaultPlan, FaultPlanConfig, WorkloadConfig, WorkloadGen};
}
