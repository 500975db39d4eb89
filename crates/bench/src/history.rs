//! The controller history-independence fixture shared by the
//! `sdn/handle_probe` micro-benchmark and `cargo xtask bench-smoke`:
//! one in-flight set, probed on top of a registry that remembers any
//! number of retired flows. A probe must cost what the in-flight set
//! costs (DESIGN.md §7), so the time per probe may not follow the
//! history.

use std::time::{Duration, Instant};

use taps_sdn::{
    CheckpointFlow, Controller, ControllerCheckpoint, ControllerConfig, ProbeHeader, TaskVerdict,
};
use taps_topology::Topology;

/// Flows per task, retired and in flight alike (the benchmark's mean).
const FLOWS_PER_TASK: usize = 16;

/// Tasks in flight under every timed probe: with the probed task,
/// ≈ the 200 flows `inproc_admit_k16` keeps in flight.
const IN_FLIGHT_TASKS: usize = 12;

/// A controller that has been up for a while: `retired` finished flows
/// in its registry, [`IN_FLIGHT_TASKS`] tasks in flight.
pub struct AgedController<'t> {
    ctrl: Controller<'t>,
    hosts: usize,
    next_task: usize,
}

impl<'t> AgedController<'t> {
    /// Restores a controller from a checkpoint of `retired` finished
    /// flows, admits the in-flight set and runs one untimed
    /// [`probe_and_retire`](Self::probe_and_retire), which warms the
    /// path cache for every later one.
    pub fn new(topo: &'t Topology, retired: usize) -> Self {
        let hosts = topo.num_hosts();
        let history = retired.div_ceil(FLOWS_PER_TASK);
        let ckpt = ControllerCheckpoint {
            epoch: 0,
            gen: 0,
            flows: (0..retired)
                .map(|i| CheckpointFlow {
                    flow: i,
                    task: i / FLOWS_PER_TASK,
                    src: i % hosts,
                    dst: (i + 1) % hosts,
                    size: 1e5,
                    delivered: 1e5,
                    deadline: 0.01,
                    done: true,
                })
                .collect(),
            decided: (0..history).map(|t| (t, TaskVerdict::Accepted)).collect(),
        };
        let mut aged = AgedController {
            ctrl: Controller::restore(topo, ControllerConfig::default(), &ckpt),
            hosts,
            next_task: history,
        };
        for shape in 0..IN_FLIGHT_TASKS {
            let probes = aged.task(shape);
            let (verdict, _, _) = aged.ctrl.handle_probe(0.0, &probes);
            assert_eq!(verdict, TaskVerdict::Accepted, "the fixture is uncontended");
        }
        aged.probe_and_retire();
        assert_eq!(aged.ctrl.in_flight(), IN_FLIGHT_TASKS * FLOWS_PER_TASK);
        aged
    }

    /// The next fresh task: ids continue past the history, endpoints
    /// follow `shape` only.
    fn task(&mut self, shape: usize) -> Vec<ProbeHeader> {
        let task = self.next_task;
        self.next_task += 1;
        (0..FLOWS_PER_TASK)
            .map(|j| {
                let src = (shape * 61 + j * 17) % self.hosts;
                let dst = (src + 1 + (shape * 7 + j * 29) % (self.hosts - 1)) % self.hosts;
                ProbeHeader {
                    task,
                    flow: task * FLOWS_PER_TASK + j,
                    src,
                    dst,
                    size: 100_000.0,
                    deadline: 0.05,
                }
            })
            .collect()
    }

    /// Probes one fresh task against the in-flight set and returns what
    /// the `handle_probe` call took; the task's flows are then TERM'd,
    /// so the next call meets the identical in-flight set.
    pub fn probe_and_retire(&mut self) -> Duration {
        let probes = self.task(IN_FLIGHT_TASKS);
        let start = Instant::now();
        let out = self.ctrl.handle_probe(0.0, &probes);
        let took = start.elapsed();
        assert_eq!(out.0, TaskVerdict::Accepted, "the fixture is uncontended");
        std::hint::black_box(out);
        for p in &probes {
            self.ctrl.handle_term(0.0, p.flow);
        }
        took
    }

    /// Re-runs Alg. 1–3 over the in-flight set, as a failed-over
    /// controller does ([`Controller::reallocate_all`]), and returns what
    /// the call took. Nothing arrived or left since the last pass, so
    /// every flow translates and the commit keeps every route: this times
    /// the kept path of a commit alone.
    pub fn reallocate_all(&mut self) -> Duration {
        let start = Instant::now();
        let out = self.ctrl.reallocate_all(0.0);
        let took = start.elapsed();
        assert!(out.1.is_empty(), "a pure translation keeps every route");
        std::hint::black_box(out);
        took
    }
}
