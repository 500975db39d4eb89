//! The benchmark's definition: the four workloads and the metric names.
//!
//! `BENCHMARK.json` at the repository root lists the same names with
//! their units, directions and regression bounds; a unit test keeps
//! the two in step.

/// Which entry point a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The real `taps-serviced` child over one Unix-socket connection,
    /// open loop on the wall clock.
    Uds,
    /// `ServiceController::step` over `SimTransport` in this process,
    /// closed loop on the plan's virtual clock (`run_load` stepping).
    Inproc,
    /// `taps_flowsim::Simulation::run` with `taps_core::Taps`.
    Sim,
}

/// One workload. A run repeats fixed-size *rounds* (fresh daemon /
/// controller / scheduler each) until `--seconds` is used up: today the
/// cost of a decision grows with the history behind it, so the length
/// of a round is part of the workload's definition.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Entry point.
    pub kind: Kind,
    /// Fat-tree arity.
    pub k: usize,
    /// Tasks per round.
    pub tasks: usize,
    /// Poisson arrival rate, tasks per second (wall clock for `Uds`,
    /// virtual clock otherwise).
    pub rate: f64,
    /// Mean flows per task (sd is a quarter of it).
    pub flows_per_task: f64,
    /// Tasks of the round's prefix the traced ladder replays.
    pub ladder_tasks: usize,
    /// Tasks of the prefix the flowsim rung simulates.
    pub ladder_sim_tasks: usize,
}

/// The four workloads, ordered so that a process that runs them all
/// meets the ones it hosts itself by ascending memory (its own peak
/// resident set is what they report). Sizes were shrunk from the issue's single
/// 12–20 s rounds so that several rounds (and so several set-ups and a
/// median) fit in one `--seconds 20` run; every run still pools far
/// more than 3 000 decisions.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "uds_steady",
        kind: Kind::Uds,
        k: 8,
        tasks: 1_000,
        rate: 300.0,
        flows_per_task: 4.0,
        ladder_tasks: 1_000,
        ladder_sim_tasks: 600,
    },
    WorkloadSpec {
        name: "uds_overload",
        kind: Kind::Uds,
        k: 8,
        tasks: 10_000,
        rate: 2_500.0,
        flows_per_task: 4.0,
        ladder_tasks: 2_500,
        ladder_sim_tasks: 600,
    },
    WorkloadSpec {
        name: "sim_taps_k8",
        kind: Kind::Sim,
        k: 8,
        tasks: 2_000,
        rate: 300.0,
        flows_per_task: 16.0,
        ladder_tasks: 600,
        ladder_sim_tasks: 600,
    },
    WorkloadSpec {
        name: "inproc_admit_k16",
        kind: Kind::Inproc,
        k: 16,
        tasks: 3_000,
        rate: 1_500.0,
        flows_per_task: 6.0,
        ladder_tasks: 1_500,
        ladder_sim_tasks: 300,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("decision_p50_ms", "ms"),
    ("decision_p99_ms", "ms"),
    ("decisions_per_s", "1/s"),
    ("cpu_ms_per_decision", "ms"),
    ("task_success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
/// A metric whose layer a workload does not reach reads 0 there (the
/// socket metrics on the in-process workloads).
pub const PER_LAYER: [(&str, &str); 70] = [
    // service::messages
    ("codec.encode_submit_us", "us"),
    ("codec.decode_submit_us", "us"),
    ("codec.encode_decision_us", "us"),
    ("codec.decode_decision_us", "us"),
    ("codec.submit_bytes", "B"),
    ("codec.decision_bytes", "B"),
    // service::uds
    ("uds.poll_us_per_req", "us"),
    ("uds.empty_poll_us", "us"),
    ("uds.push_us", "us"),
    ("uds.flush_us_per_reply", "us"),
    ("uds.cadence_wait_ms", "ms"),
    // service::controller
    ("service.step_us_p50", "us"),
    ("service.step_us_p99", "us"),
    ("service.self_us", "us"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p99", "ms"),
    ("service.pending_depth_max", "count"),
    ("service.batch_share", "ratio"),
    ("service.batch_size_mean", "count"),
    ("service.shed_infeasible", "count"),
    ("service.shed_queue_full", "count"),
    ("service.notifications_dropped", "count"),
    ("service.duplicate_submits", "count"),
    // sdn::controller
    ("sdn.probe_us_p50", "us"),
    ("sdn.probe_us_p99", "us"),
    ("sdn.burst_us_per_task", "us"),
    ("sdn.burst_clean_ratio", "ratio"),
    ("sdn.term_us", "us"),
    ("sdn.passes_per_decision", "count"),
    ("sdn.cmds_per_decision", "count"),
    ("sdn.self_us", "us"),
    ("sdn.history_slope", "ratio"),
    ("sdn.validate_on_ratio", "ratio"),
    // core::alloc / core::delta / core::validate
    ("core.pass_us_p50", "us"),
    ("core.pass_us_p99", "us"),
    ("core.flows_per_pass", "count"),
    ("core.delta_reuse_ratio", "ratio"),
    ("core.full_fallback_ratio", "ratio"),
    ("core.candidates_per_flow", "count"),
    ("core.paths_tried_per_pass", "count"),
    ("core.slots_scanned_per_pass", "count"),
    ("core.validate_us", "us"),
    // core::scheduler (flowsim adapter)
    ("core.taps_arrival_us_p50", "us"),
    ("core.taps_arrival_us_p99", "us"),
    ("core.taps_rates_us", "us"),
    ("core.taps_history_slope", "ratio"),
    // timeline
    ("timeline.first_fit_ns", "ns"),
    ("timeline.insert_ns", "ns"),
    ("timeline.intervals_per_link_p50", "count"),
    ("timeline.intervals_per_link_p99", "count"),
    // topology
    ("topology.build_s", "s"),
    ("topology.warm_s", "s"),
    ("topology.lookup_ns", "ns"),
    ("topology.enumerations", "count"),
    ("topology.paths_per_pair", "count"),
    // flowsim
    ("flowsim.run_s", "s"),
    ("flowsim.engine_self_s", "s"),
    ("flowsim.events", "count"),
    ("flowsim.events_per_s", "1/s"),
    // obs
    ("obs.events_per_decision", "count"),
    ("obs.sink_overhead_ratio", "ratio"),
    ("obs.ring_dropped", "count"),
    // harness
    ("workload.generate_s", "s"),
    ("workload.plan_digest", "count"),
    ("gen.lag_p99_ms", "ms"),
    ("gen.blocked_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.accounted_ratio", "ratio"),
    ("trace.replay_success_gap", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn names_units(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("array")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_workloads_and_bounds() {
        let doc: Value = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|&(n, u)| (n.into(), u.into())).collect()
        };
        assert_eq!(names_units(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names_units(&doc, "per_layer"), own(&PER_LAYER));
        let listed: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed, ours);
        for (m, (name, bound)) in doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .zip(crate::report::BOUNDS)
        {
            assert_eq!(m.get("name").and_then(Value::as_str), Some(name));
            assert_eq!(m.get("bound").and_then(Value::as_f64), Some(bound));
            let higher = m.get("better").and_then(Value::as_str) == Some("higher");
            assert_eq!(higher, crate::report::higher_is_better(name), "{name}");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn probe_api_names_calls_its_files_make() {
        let doc: Value = serde_json::from_str(include_str!("../probe_api.json")).unwrap();
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        for layer in doc.get("layers").and_then(Value::as_array).unwrap() {
            let strings = |key: &str| -> Vec<&str> {
                layer
                    .get(key)
                    .and_then(Value::as_array)
                    .unwrap()
                    .iter()
                    .filter_map(Value::as_str)
                    .collect()
            };
            let text: String = strings("files")
                .iter()
                .map(|f| {
                    std::fs::read_to_string(root.join(f)).unwrap_or_else(|e| panic!("{f}: {e}"))
                })
                .collect();
            for call in strings("calls") {
                let needle = call.rsplit([':', ' ', '.']).next().unwrap();
                assert!(
                    text.contains(needle),
                    "`{call}` is not used in its probe files"
                );
            }
        }
    }

    #[test]
    fn every_run_pools_three_thousand_decisions() {
        // Even a single round per run supports a windowed p99.
        for w in &WORKLOADS {
            assert!(w.tasks >= crate::run::WINDOW, "{}", w.name);
            assert!(w.ladder_tasks <= w.tasks && w.ladder_sim_tasks <= w.tasks);
        }
    }
}
