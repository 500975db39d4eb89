//! The traced ladder run: one generated request stream replayed at
//! successively deeper public entry points, each rung timed from the
//! harness and cross-checked against the rung above.
//!
//! | rung | entry point | checked against |
//! |---|---|---|
//! | R0 | real `taps-serviced` over its socket (socket workloads only) | ledger |
//! | R1 | `ServiceController::step` over a timed transport | an untraced pass: same digest |
//! | R2 | bare `Controller`: `handle_probe` / `_burst` / `handle_term` | R1's decisions and controller counters |
//! | R3 | `SlotAllocator::allocate_batch_delta` on the in-flight set | verdict re-derived from the pass == R2's |
//! | R4 | `check_schedule` on every R3 pass | clean |
//! | R5 | `IntervalSet` first-fit / insert on R3's occupancy | rebuilt occupancy == allocator's |
//! | R6 | `fat_tree` + `PathCache` | — |
//! | R7 | `Simulation::run` with a timed `Taps` | admission contract |
//!
//! plus the codec and `UdsTransport` micro-probes over the stream's own
//! messages. Any mismatch is a failed operation.

use std::collections::BTreeMap;
use std::time::Instant;

use taps_sdn::ControllerConfig;
use taps_service::{ServiceConfig, ServiceController};
use taps_topology::build::{fat_tree, GBPS};

use crate::inputs::{self, RoundInput};
use crate::probes::{self, controller, core, sdn, timeline::TimelineProbe};
use crate::run::Env;
use crate::runners::inproc::{self, Stepping};
use crate::runners::{sim, uds};
use crate::spec::{Kind, WorkloadSpec, PER_LAYER};
use crate::stats::percentile_of;
use crate::trace::{self, Tracer};

/// Period of the `taps-serviced` loop at this commit: a 1 ms sleep plus
/// the ≈0.15 ms wake-up latency measured on the reference box. Rung R1 steps its
/// virtual clock at this period when it replays a socket workload, so
/// that the in-process replay meets the same burst/overload regime the
/// daemon did. Update it if the daemon's loop cadence changes.
pub const DAEMON_CADENCE_S: f64 = 1.15e-3;

/// Every this-many-th R3 pass is a timeline checkpoint.
const CHECKPOINT_EVERY: usize = 64;

/// Result of a traced run.
pub struct TracedSummary {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// Operations the run attempted (tasks through the primary rung).
    pub attempted: u64,
    /// Failed operations: failed output checks and rung mismatches.
    pub failed: u64,
    /// One line per failure (capped).
    pub violations: Vec<String>,
    /// Every per-layer metric, in `spec::PER_LAYER` order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl TracedSummary {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

struct Collector {
    values: BTreeMap<&'static str, f64>,
    violations: Vec<String>,
}

impl Collector {
    fn add(&mut self, m: probes::Metrics) {
        self.values.extend(m);
    }

    fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    fn fail(&mut self, rung: &str, what: impl IntoIterator<Item = String>) {
        self.violations
            .extend(what.into_iter().map(|w| format!("{rung}: {w}")));
    }

    fn check(&mut self, rung: &str, ok: bool, what: &str) {
        if !ok {
            self.violations.push(format!("{rung}: {what}"));
        }
    }
}

/// An untraced pass of rung R1's stream: decisions per second and the
/// digest the traced pass must reproduce.
fn untraced_service_pass(
    topo: &taps_topology::Topology,
    input: &RoundInput,
    stepping: Stepping,
) -> (f64, u64) {
    let svc_cfg = ServiceConfig::default();
    let mut svc = ServiceController::new(topo, ControllerConfig::default(), svc_cfg);
    let mut tr = inproc::transport_for(input.plan.events.len());
    let out = inproc::drive(
        &mut svc,
        &svc_cfg,
        input,
        stepping,
        Instant::now(),
        &mut tr,
        |_, _| {},
    );
    (out.decision_spans.len() as f64 / out.wall_s, out.digest)
}

/// Runs the ladder for `spec` on round 0 of `seed`.
pub fn run_traced(spec: &WorkloadSpec, env: &Env, seed: u64) -> Result<TracedSummary, String> {
    let mut tracer = Tracer::new();
    let mut c = Collector {
        values: PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect(),
        violations: Vec::new(),
    };
    let full = inputs::generate(spec, seed, 0);
    let ladder_in = inputs::generate_n(spec, seed, 0, spec.ladder_tasks);
    c.set("workload.generate_s", full.generate_s);
    c.set(
        "workload.plan_digest",
        (full.plan.digest() & 0xFFFF_FFFF) as f64,
    );
    let topo = fat_tree(spec.k, GBPS);
    let cfg = ControllerConfig::default();
    let mut attempted = 0u64;
    let mut failed_ops = 0u64;

    // R0 — the real daemon (socket workloads).
    let r0 = if spec.kind == Kind::Uds {
        // Like an untraced run, redo a round whose generator ran late
        // (twice at most); the lag that remains is reported below.
        let mut r = uds::run_round(&env.daemon_bin, &env.socket(), spec.k, &full)?;
        for _ in 0..2 {
            if r.invalid.is_none() {
                break;
            }
            r = uds::run_round(&env.daemon_bin, &env.socket(), spec.k, &full)?;
        }
        for &(task, start, end) in &r.decision_spans {
            tracer.record(
                "client.submit_to_decision",
                (start * 1e9) as u64,
                (end * 1e9) as u64,
                None,
                task,
            );
        }
        let mut lag = r.gen_lag_ms.clone();
        c.set("gen.lag_p99_ms", percentile_of(&mut lag, 0.99));
        c.set(
            "gen.blocked_share",
            r.blocked_sends as f64 / r.submitted as f64,
        );
        c.fail("R0", r.violations.iter().cloned());
        attempted += r.submitted;
        failed_ops += r.failed_ops - r.violations.len() as u64;
        Some(r)
    } else {
        None
    };

    // R1 — the service loop, untraced then traced.
    let stepping = match spec.kind {
        Kind::Uds => Stepping::Cadence(DAEMON_CADENCE_S),
        _ => Stepping::RunLoad,
    };
    let (untraced_dps, untraced_digest) = untraced_service_pass(&topo, &ladder_in, stepping);
    let rung = controller::run(&topo, &ladder_in, stepping, &mut tracer);
    c.check(
        "R1",
        rung.result.digest == untraced_digest,
        "traced and untraced passes disagree (digest)",
    );
    c.fail("R1", rung.result.violations.iter().cloned());
    if spec.kind == Kind::Inproc {
        attempted += rung.result.submitted;
        failed_ops += rung.result.failed_ops - rung.result.violations.len() as u64;
    }
    let traced_dps = rung.result.decisions as f64 / rung.result.wall_s;

    // R2 — the bare controller, fed R1's call sequence.
    let seq = sdn::call_sequence(&ladder_in, &rung.steps);
    let step_span = |step: usize| rung.step_span.get(step).copied();
    let r2 = sdn::replay(
        &topo,
        cfg.clone(),
        None,
        &ladder_in,
        &seq,
        &mut tracer,
        &step_span,
    );
    c.check(
        "R2",
        r2.verdicts == seq.verdicts,
        "verdicts differ from R1's decisions",
    );
    c.check(
        "R2",
        r2.stats == rung.ctrl_stats,
        "controller counters differ from the service's inner controller",
    );
    // The validator-on and sink-on rows replay R2 twice more; their
    // spans stay out of the trace.
    let validated = sdn::replay(
        &topo,
        ControllerConfig {
            force_validate: true,
            ..cfg.clone()
        },
        None,
        &ladder_in,
        &seq,
        &mut Tracer::new(),
        &|_| None,
    );
    c.check(
        "R2",
        validated.verdicts == r2.verdicts,
        "validator-on replay changed a verdict",
    );
    let (obs_metrics, with_sink) = probes::obs::probe(&topo, &ladder_in, &seq, &r2);
    c.check(
        "obs",
        with_sink.verdicts == r2.verdicts,
        "an attached sink changed a verdict",
    );
    c.add(obs_metrics);

    // R3/R4 — allocation passes and the validator, with R5's timeline
    // checkpoints taken between passes.
    let mut tl = TimelineProbe::new(cfg.max_candidate_paths);
    let (r3, cache) = {
        let mut checkpoint = |alloc: &taps_core::SlotAllocator<'_>,
                              demands: &[taps_core::FlowDemand],
                              allocs: &[taps_core::FlowAlloc],
                              start_slot: u64,
                              pass: usize| {
            if pass.is_multiple_of(CHECKPOINT_EVERY) {
                tl.sample(&topo, alloc, demands, allocs, start_slot);
            }
        };
        core::replay(
            &topo,
            &cfg,
            &ladder_in,
            &seq,
            &r2,
            &mut tracer,
            &mut checkpoint,
        )
    };
    c.check(
        "R3",
        r3.verdicts == r2.verdicts,
        "verdicts re-derived from the passes differ from R2's",
    );
    c.fail("R3/R4", r3.violations.iter().cloned());
    c.fail("R5", tl.violations.iter().cloned());
    c.add(core::metrics(&r3, &cache));
    c.add(tl.metrics());
    let core_ns: u64 = r3.pass_ns.iter().sum();
    c.add(sdn::metrics(&r2, &validated, core_ns, r3.pass_ns.len()));

    // Service metrics come from the run the workload is about.
    let stats = r0
        .as_ref()
        .map_or(&rung.result, |r| r)
        .final_stats
        .clone()
        .ok_or("service run carries no Stats document")?;
    let depth_max = if r0.is_some() {
        controller::histogram_quantile(&stats, "pending_depth", 1.0)
    } else {
        rung.pending_depth_max as f64
    };
    // Self time of the steps: their spans minus the transport calls
    // under them. (The deeper rungs' spans also name a step as parent,
    // but were recorded later, outside its interval, and so are left to
    // the matched subtraction.)
    let self_ns = trace::self_times_ns(tracer.spans());
    let (step_ns, step_self_ns) = rung.step_span.iter().fold((0u64, 0u64), |(dur, own), &id| {
        (dur + tracer.dur_ns(id), own + self_ns[id as usize])
    });
    c.add(controller::metrics(
        &rung,
        &stats,
        depth_max,
        step_self_ns,
        r2.total_ns(),
    ));
    c.set(
        "trace.accounted_ratio",
        (step_ns - step_self_ns + r2.total_ns()) as f64 / step_ns.max(1) as f64,
    );

    // R6 and the codec / socket micro-probes.
    c.add(probes::topology::probe(
        spec.k,
        cfg.max_candidate_paths,
        &ladder_in,
    ));
    let requests = sdn::requests_of(&ladder_in);
    let (codec, req_lines, resp_lines, bad) = probes::messages::probe(&requests, &rung.responses);
    c.fail("codec", bad);
    c.add(codec);
    let probe_socket = env.out_dir.join(format!("p{}.sock", std::process::id()));
    let (uds_metrics, bad) = probes::uds::probe(
        &probe_socket,
        &requests,
        &req_lines,
        &rung.responses,
        &resp_lines,
    )?;
    c.fail("uds", bad);
    c.add(uds_metrics);

    // R7 — flowsim with the timed scheduler.
    let sim_traced = if spec.kind == Kind::Sim {
        let untraced = sim::simulate(&topo, &full.wl, false);
        let traced = sim::simulate(&topo, &full.wl, true);
        c.check(
            "R7",
            sim::report_digest(&untraced.report) == sim::report_digest(&traced.report),
            "traced and untraced simulations disagree (digest)",
        );
        let dps = |o: &sim::SimOutcome| o.sched.decision_spans.len() as f64 / o.run_s;
        c.set("trace.overhead_ratio", dps(&traced) / dps(&untraced));
        let bad = sim::check_report(&full.wl, traced.sched.inner(), &traced.report);
        attempted += full.wl.num_tasks() as u64;
        c.fail("R7", bad);
        traced
    } else {
        c.set("trace.overhead_ratio", traced_dps / untraced_dps);
        let prefix = inputs::generate_n(spec, seed, 0, spec.ladder_sim_tasks);
        let traced = sim::simulate(&topo, &prefix.wl, true);
        let bad = sim::check_report(&prefix.wl, traced.sched.inner(), &traced.report);
        c.fail("R7", bad);
        traced
    };
    let shift = sim_traced
        .sched
        .origin()
        .duration_since(tracer.origin())
        .as_nanos() as u64;
    for &(name, s, e, task) in sim_traced.sched.callback_log.iter().flatten() {
        tracer.record(
            name,
            shift + (s * 1e9) as u64,
            shift + (e * 1e9) as u64,
            None,
            task,
        );
    }
    c.add(probes::scheduler::metrics(&sim_traced));
    c.add(probes::flowsim::metrics(&sim_traced));

    // What the request or its reply waits for the daemon's loop:
    // latency minus everything a layer was busy for.
    if let Some(r0) = &r0 {
        let mut lat: Vec<f64> = r0.latencies_ms().collect();
        let busy_us = c.get("sdn.probe_us_p50")
            + c.get("codec.decode_submit_us")
            + c.get("codec.encode_decision_us")
            + c.get("uds.poll_us_per_req")
            + c.get("uds.push_us")
            + c.get("uds.flush_us_per_reply");
        c.set(
            "uds.cadence_wait_ms",
            percentile_of(&mut lat, 0.50) - c.get("service.queue_wait_ms_p50") - busy_us / 1e3,
        );
        let ratio = |r: &crate::runners::RoundResult| r.succeeded as f64 / r.submitted as f64;
        c.set(
            "trace.replay_success_gap",
            (ratio(r0) - ratio(&rung.result)).abs(),
        );
    }

    c.set("trace.spans", tracer.spans().len() as f64);
    let path = env.out_dir.join(format!("trace_{}.jsonl", spec.name));
    trace::write_jsonl(&path, tracer.spans()).map_err(|e| format!("{}: {e}", path.display()))?;

    let failed = failed_ops + c.violations.len() as u64;
    c.violations.truncate(20);
    Ok(TracedSummary {
        workload: spec.name.to_string(),
        seed,
        attempted: attempted.max(1),
        failed,
        violations: c.violations,
        metrics: PER_LAYER.iter().map(|&(n, _)| (n, c.values[n])).collect(),
    })
}
