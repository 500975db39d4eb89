//! In-process entry point: `ServiceController::step` over
//! `SimTransport`, closed loop on a virtual clock, timed on the wall
//! clock. No socket, no JSONL, no sleep.

use std::time::Instant;

use taps_sdn::ControllerConfig;
use taps_service::{
    ClientId, PushError, Request, Response, ServiceConfig, ServiceController, SimTransport,
    Transport,
};
use taps_topology::build::{fat_tree, GBPS};

use super::{RoundResult, SETUPS_PER_ROUND};
use crate::inputs::RoundInput;
use crate::ledger::{Booked, Ledger};
use crate::procstat;
use crate::spec::WorkloadSpec;

/// The one client every in-process round submits as.
const CLIENT: ClientId = 0;

/// How the virtual clock advances between `step` calls.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Stepping {
    /// `taps_service::run_load`'s rule: a step that left work behind
    /// costs `ServiceConfig::decision_cost`; an idle loop jumps to the
    /// next arrival.
    RunLoad,
    /// One step every so many seconds, busy or idle — the shape of the
    /// `taps-serviced` loop, which sleeps 1 ms per iteration. The traced
    /// ladder uses it to replay a socket workload in process.
    Cadence(f64),
}

/// A transport the driver can also act on as the client.
pub trait LoopTransport: Transport {
    /// The in-process channel underneath.
    fn sim(&mut self) -> &mut SimTransport;
}

impl LoopTransport for SimTransport {
    fn sim(&mut self) -> &mut SimTransport {
        self
    }
}

/// `SimTransport` with every `poll`/`push` call timed (ladder rung R1).
pub struct TimedTransport {
    inner: SimTransport,
    origin: Instant,
    /// `(call name, start ns, end ns)` since the last drain.
    pub calls: Vec<(&'static str, u64, u64)>,
}

impl TimedTransport {
    /// Wraps `inner`; times are nanoseconds since `origin`.
    pub fn new(inner: SimTransport, origin: Instant) -> TimedTransport {
        TimedTransport {
            inner,
            origin,
            calls: Vec::new(),
        }
    }
}

impl Transport for TimedTransport {
    fn poll(&mut self) -> Vec<(ClientId, Request)> {
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = self.inner.poll();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.calls.push(("transport.poll", start, end));
        out
    }

    fn push(&mut self, client: ClientId, resp: Response) -> Result<(), PushError> {
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = self.inner.push(client, resp);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.calls.push(("transport.push", start, end));
        out
    }
}

impl LoopTransport for TimedTransport {
    fn sim(&mut self) -> &mut SimTransport {
        &mut self.inner
    }
}

/// One `step` call, as seen from outside the service.
#[derive(Clone, Debug, PartialEq)]
pub struct StepLog {
    /// Virtual time passed to `step`.
    pub now: f64,
    /// Whether the step admitted in burst mode.
    pub batch: bool,
    /// Controller decisions this step's admission produced, in order
    /// (sheds never reach the controller and are left out).
    pub decided: Vec<Booked>,
    /// Everything the client drained after the step.
    pub responses: Vec<Response>,
    /// Wall-clock `(start, end)` of the call, ns since the origin
    /// passed to [`drive`].
    pub wall_ns: (u64, u64),
}

/// What [`drive`] hands back.
pub struct DriveOutcome {
    /// `(task, submit, decision drained)` per decision, seconds.
    pub decision_spans: Vec<(u64, f64, f64)>,
    /// The books.
    pub ledger: Ledger,
    /// Wall time of the loop, seconds.
    pub wall_s: f64,
    /// Deepest pending queue seen after a step.
    pub pending_depth_max: usize,
    /// FNV-1a over every decision in order — task (relative to the
    /// round's id base), verdict, victim, reason. `ServiceController::
    /// digest` hashes raw task ids, which differ between a round and
    /// its replay; this one must not.
    pub digest: u64,
}

/// Replays `input` into `svc` the way `taps_service::run_load` does,
/// with wall-clock stamps relative to `origin`. `on_step` sees every
/// step (the untraced rounds pass a no-op).
pub fn drive<T: LoopTransport>(
    svc: &mut ServiceController<'_>,
    svc_cfg: &ServiceConfig,
    input: &RoundInput,
    stepping: Stepping,
    origin: Instant,
    tr: &mut T,
    mut on_step: impl FnMut(StepLog, &mut T),
) -> DriveOutcome {
    let events = &input.plan.events;
    let n = events.len();
    let mut ledger = Ledger::new();
    // Requests are built before the clock starts: constructing them is
    // the client's work, not the service's.
    let mut requests: Vec<Option<Request>> = (0..n)
        .map(|idx| {
            let s = input.submit(idx, events[idx].deadline);
            ledger.on_submit(&s);
            Some(Request::Submit(s))
        })
        .collect();
    let mut submit_at = vec![0.0f64; n];
    let mut decision_spans = Vec::with_capacity(n);
    let mut pending_depth_max = 0usize;
    let mut digest_words: Vec<u64> = Vec::with_capacity(4 * n);
    let mut idx = 0usize;
    let mut now = events.first().map_or(0.0, |e| e.at);
    let began = origin.elapsed();
    loop {
        while idx < n && events[idx].at <= now + 1e-15 {
            let req = requests[idx].take().expect("each request is sent once");
            submit_at[idx] = origin.elapsed().as_secs_f64();
            if tr.sim().submit(CLIENT, req).is_err() {
                ledger
                    .violations
                    .push(format!("transport inbox overflow at plan event {idx}"));
            }
            idx += 1;
        }
        let start = origin.elapsed();
        let worked = svc.step(now, tr);
        let end = origin.elapsed();
        let drained = end.as_secs_f64();
        let mut decided = Vec::with_capacity(worked);
        let responses = tr.sim().drain_client(CLIENT);
        for resp in &responses {
            if let Some(b) = ledger.on_response(resp) {
                let i = (b.task - input.id_base) as usize;
                decision_spans.push((b.task, submit_at[i], drained));
                digest_words.extend([
                    i as u64,
                    b.verdict,
                    b.victim.map_or(u64::MAX, |v| v - input.id_base),
                    b.reason.unwrap_or(u64::MAX),
                ]);
                if !b.is_shed() {
                    decided.push(b);
                }
            }
        }
        if decided.len() != worked {
            ledger.violations.push(format!(
                "step at t={now} reported {worked} decisions, the client drained {}",
                decided.len()
            ));
        }
        pending_depth_max = pending_depth_max.max(svc.pending_depth());
        if svc.pending_depth() > svc_cfg.queue_cap {
            ledger.violations.push(format!(
                "pending depth {} exceeds the cap at t={now}",
                svc.pending_depth()
            ));
        }
        on_step(
            StepLog {
                now,
                batch: svc.is_batch_mode(),
                decided,
                responses,
                wall_ns: (start.as_nanos() as u64, end.as_nanos() as u64),
            },
            tr,
        );
        let backlog = svc.pending_depth() > 0 || tr.sim().inbox_depth() > 0;
        if idx >= n && !backlog {
            break;
        }
        now = match stepping {
            Stepping::RunLoad if worked > 0 || backlog => now + svc_cfg.decision_cost,
            Stepping::RunLoad => now.max(events[idx].at),
            Stepping::Cadence(period) => now + period,
        };
    }
    DriveOutcome {
        decision_spans,
        ledger,
        wall_s: (origin.elapsed() - began).as_secs_f64(),
        pending_depth_max,
        digest: super::fnv1a(digest_words),
    }
}

/// The transport `run_load` would build for a plan of `n` events: the
/// driver drains the outbox after every step, so neither bound binds.
pub fn transport_for(n: usize) -> SimTransport {
    SimTransport::with_caps(n.max(16), n.max(16))
}

/// Turns a finished drive into the round's result.
pub fn finish(
    mut out: DriveOutcome,
    svc: &ServiceController<'_>,
    setups_s: Vec<f64>,
    cpu_s: f64,
) -> RoundResult {
    let stats = svc.stats_value();
    let dup = super::service_counter(&stats, "duplicate_submits");
    if dup != 0 {
        out.ledger
            .violations
            .push(format!("service counted {dup} duplicate submits"));
    }
    if svc.shed_total() != out.ledger.shed_total() {
        out.ledger.violations.push(format!(
            "service shed {} tasks, the client saw {}",
            svc.shed_total(),
            out.ledger.shed_total()
        ));
    }
    let failed_ops = out.ledger.close();
    RoundResult {
        submitted: out.ledger.submitted(),
        decisions: out.decision_spans.len() as u64,
        succeeded: out.ledger.succeeded(),
        decision_spans: out.decision_spans,
        wall_s: out.wall_s,
        cpu_s,
        peak_rss_mb: procstat::peak_rss_mb(std::process::id()).unwrap_or(0.0),
        setups_s,
        failed_ops,
        violations: std::mem::take(&mut out.ledger.violations),
        digest: out.digest,
        final_stats: Some(stats),
        ..RoundResult::default()
    }
}

/// One untraced round: set-up (topology, generator, service,
/// transport), then the timed closed loop.
pub fn run_round(spec: &WorkloadSpec, seed: u64, round: usize) -> RoundResult {
    // The process under test is this one: count its peak from here, not
    // from whatever ran in it before.
    procstat::reset_own_peak_rss();
    let svc_cfg = ServiceConfig::default();
    let mut setups_s = Vec::with_capacity(SETUPS_PER_ROUND);
    for _ in 1..SETUPS_PER_ROUND {
        let setup = Instant::now();
        let topo = fat_tree(spec.k, GBPS);
        let input = crate::inputs::generate(spec, seed, round);
        let svc = ServiceController::new(&topo, ControllerConfig::default(), svc_cfg);
        std::hint::black_box((&svc, transport_for(input.plan.events.len())));
        setups_s.push(setup.elapsed().as_secs_f64());
    }
    let setup = Instant::now();
    let topo = fat_tree(spec.k, GBPS);
    let input = crate::inputs::generate(spec, seed, round);
    let mut svc = ServiceController::new(&topo, ControllerConfig::default(), svc_cfg);
    let mut tr = transport_for(input.plan.events.len());
    setups_s.push(setup.elapsed().as_secs_f64());

    let pid = std::process::id();
    let cpu0 = procstat::cpu_seconds(pid).unwrap_or(0.0);
    let out = drive(
        &mut svc,
        &svc_cfg,
        &input,
        Stepping::RunLoad,
        Instant::now(),
        &mut tr,
        |_, _| {},
    );
    let cpu_s = procstat::cpu_seconds(pid).unwrap_or(0.0) - cpu0;
    finish(out, &svc, setups_s, cpu_s)
}
