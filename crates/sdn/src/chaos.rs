//! Chaos harness: the closed-loop testbed of [`crate::testbed`] re-run
//! with every control-plane message carried over seeded lossy channels
//! ([`crate::channel`]), plus controller crash/failover injection.
//!
//! Per slot the harness executes a fixed phase order (the determinism
//! contract — same config, same seed ⇒ bit-identical run):
//!
//! 1. **faults** due this slot are applied (link/switch outages reach the
//!    controller as [`LinkEvent`]s; `ControllerDown`/`ControllerUp` kill
//!    and restore the controller);
//! 2. **servers send**: probes for arriving tasks, queued TERMs, and a
//!    progress report, then the server-side retry sweep;
//! 3. **controller**: polls its channels (processing order: ACKs, TERMs,
//!    progress, resyncs, probes), finishes a pending failover once every
//!    host resynced (or the wait timed out), re-broadcasts grants and
//!    revokes whenever its `(epoch, gen)` stamp moved, heartbeats, runs
//!    its retry sweeps and takes periodic checkpoints;
//! 4. **switches** poll their command channel and flush on silence;
//! 5. **servers** poll the grant channel (grants, revokes, heartbeats,
//!    resync requests);
//! 6. **audit**: dead-path stall marking, then mid-slot invariants — no
//!    transmission without a live granted slice, exclusive per-link
//!    occupancy across all transmitting flows;
//! 7. **transmit** one slot; TERMs are queued for the next slot's phase 2.
//!
//! Safety rests on the lease/fence pair (DESIGN.md §10): servers fail
//! closed when heartbeats stop matching their grant stamp, and every
//! commit's first slice sits behind [`ControllerConfig::grant_fence`],
//! past the point where any stale lease can still be live.

use crate::channel::{
    ChannelConfig, ChannelStats, ControlChannel, ReliableSender, RetryPolicy, RetryStats,
};
use crate::controller::{
    ControlStats, Controller, ControllerCheckpoint, ControllerConfig, TaskVerdict,
};
use crate::messages::{CtrlMsg, LinkEvent, ProbeHeader, ServerMsg, SwitchCmd, SwitchMsg};
use crate::server::ServerAgent;
use crate::switch::SwitchAgent;
use crate::testbed::header_for;
use std::collections::{BTreeMap, BTreeSet};
use taps_flowsim::{FaultEvent, FaultKind, Workload};
use taps_obs::{obs_event, obs_id};
use taps_topology::{NodeId, Topology};

/// One server's answer to a resync request, as delivered to the
/// controller: `(host, envelope id to ack, live flows as
/// (original header, remaining bytes))`.
type ResyncReply = (usize, u64, Vec<(ProbeHeader, f64)>);

/// Envelope id used for fire-and-forget sends (progress, heartbeats,
/// ACKs): receivers never acknowledge it.
const UNRELIABLE: u64 = u64::MAX;

/// Logical-key flow slot marking a per-peer singleton message (resync
/// request/reply, sweep) rather than a per-flow one.
const SINGLETON: u64 = u64::MAX;

/// Configuration of a chaos run.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Controller configuration (the harness honours `slot`,
    /// `grant_fence` and `force_validate` as given — use the
    /// constructors to derive safe values).
    pub controller: ControllerConfig,
    /// Loss/delay/duplication/reorder model shared by all four channels
    /// (each channel draws from its own seeded RNG).
    pub channel: ChannelConfig,
    /// Retry policy for every reliable sender.
    pub retry: RetryPolicy,
    /// Master seed; the four channel RNGs are derived from it.
    pub seed: u64,
    /// Fault plan: link/switch outages plus controller crash/recovery
    /// events (sorted by time; same-instant duplicates are dropped).
    pub faults: Vec<FaultEvent>,
    /// Server-side grant lease, seconds: a grant whose lease is not
    /// refreshed by a matching-stamp heartbeat for this long stops
    /// transmitting (fail closed).
    pub lease: f64,
    /// Switch-side silence timeout, seconds: a switch hearing nothing
    /// from the controller for this long withdraws all entries.
    pub silence_timeout: f64,
    /// Checkpoint cadence in slots (0 = only the initial checkpoint).
    pub checkpoint_every: usize,
    /// How long a freshly restored controller waits for missing server
    /// resync reports before re-running the allocation anyway, seconds.
    pub resync_wait: f64,
    /// Simulated horizon, seconds.
    pub horizon: f64,
}

impl ChaosConfig {
    /// A perfectly reliable, zero-delay control plane with no faults:
    /// `run_chaos` under this config reproduces [`crate::run_testbed`]
    /// slot for slot (leases never expire, no retries fire).
    pub fn reliable(controller: ControllerConfig, horizon: f64) -> Self {
        ChaosConfig {
            controller,
            channel: ChannelConfig::reliable(),
            retry: RetryPolicy::default(),
            seed: 0,
            faults: Vec::new(),
            lease: f64::INFINITY,
            silence_timeout: f64::INFINITY,
            checkpoint_every: 0,
            resync_wait: 0.0,
            horizon,
        }
    }

    /// Derives a safe configuration for a lossy control plane: the lease
    /// covers several heartbeat intervals plus worst-case delivery
    /// delay, and the grant fence guarantees every stale lease lapses
    /// (with a slot of margin — leases are checked at slot granularity)
    /// before any newly committed slice activates.
    pub fn unreliable(
        mut controller: ControllerConfig,
        channel: ChannelConfig,
        seed: u64,
        horizon: f64,
    ) -> Self {
        let slot = controller.slot;
        let mtd = channel.max_total_delay();
        let lease = 4.0 * slot + 2.0 * mtd;
        controller.grant_fence = lease + mtd + 2.0 * slot;
        controller.force_validate = true;
        let base_timeout = slot + 2.0 * mtd;
        ChaosConfig {
            controller,
            channel,
            retry: RetryPolicy {
                max_attempts: 8,
                base_timeout,
                backoff: 2.0,
                max_timeout: 8.0 * base_timeout,
                jitter: 0.0,
            },
            seed,
            faults: Vec::new(),
            lease,
            silence_timeout: lease,
            checkpoint_every: 8,
            resync_wait: 4.0 * (slot + mtd),
            horizon,
        }
    }
}

/// Result of a chaos run.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Total flows in the workload.
    pub flows_total: usize,
    /// Flows that delivered all bytes within their deadline.
    pub flows_on_time: usize,
    /// Flows of rejected tasks.
    pub flows_rejected: usize,
    /// Flows that neither finished on time nor were rejected (missed,
    /// preempted, or stranded by faults).
    pub flows_missed: usize,
    /// Admission verdicts in decision order (one entry per task that got
    /// a verdict; tasks whose probes never got through are absent).
    pub verdicts: Vec<(usize, TaskVerdict)>,
    /// Per-flow completion times (server-side TERM emission).
    pub finished: Vec<Option<f64>>,
    /// Per-flow bytes delivered (high-water mark).
    pub delivered: Vec<f64>,
    /// Mid-slot audits where two flows occupied the same link (must be 0).
    pub occupancy_violations: usize,
    /// Mid-slot audits where a flow transmitted without a live granted
    /// slice (must be 0 — the lease rule fails closed first).
    pub grantless_transmissions: usize,
    /// Slots in which a transmitting flow crossed a switch without a
    /// matching flow-table entry (delivered via default routes; a
    /// liveness smell, not a safety violation).
    pub default_routed_slots: usize,
    /// Slots a granted flow lost to a dead path link (stalled).
    pub stalled_slots: usize,
    /// Recovery latency of each completed controller failover, seconds
    /// (crash to reconciliation finished).
    pub failovers: Vec<f64>,
    /// Final controller's control-plane counters.
    pub controller_stats: ControlStats,
    /// Channel counters: server→controller, controller→server,
    /// controller→switch, switch→controller.
    pub channel_stats: [ChannelStats; 4],
    /// Retry counters: server, controller→server, controller→switch.
    pub retry_stats: [RetryStats; 3],
    /// FNV-1a digest over verdicts (in task-id order, so the digest is a
    /// function of the verdict set, not of decision order), completion
    /// times, delivered bytes and violation counters — two runs of the
    /// same config must match bit for bit.
    pub digest: u64,
}

impl ChaosReport {
    /// Safety violations (must be zero under any fault plan).
    pub fn violations(&self) -> usize {
        self.occupancy_violations + self.grantless_transmissions
    }
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Runs a workload through the SDN control plane with message-level
/// fault injection. See the module docs for the phase structure.
pub fn run_chaos(topo: &Topology, wl: &Workload, cfg: &ChaosConfig) -> ChaosReport {
    run_inner(topo, wl, cfg, None)
}

/// [`run_chaos`] with control-plane messaging, failovers, and flow
/// lifecycle events recorded into `sink` (DESIGN.md §11).
pub fn run_chaos_traced(
    topo: &Topology,
    wl: &Workload,
    cfg: &ChaosConfig,
    sink: std::sync::Arc<dyn taps_obs::TraceSink>,
) -> ChaosReport {
    run_inner(topo, wl, cfg, Some(sink))
}

/// How long after its task's deadline a copy of a probe can still reach
/// the controller under `cfg`, seconds (DESIGN.md §10, "Forgetting
/// finished work"). The first send waits for the next slot after the
/// arrival, which is before the deadline. Then come the server's
/// retransmissions, each up to a slot after its timeout because the
/// sender ticks once per slot; one delivery, polled on the next slot;
/// and a takeover's deferral of the probes that land during it. A
/// lossless channel with no controller crash delivers every probe once,
/// in the slot it is sent.
pub fn probe_lifetime(cfg: &ChaosConfig) -> f64 {
    let crashes = cfg
        .faults
        .iter()
        .any(|f| matches!(f.kind, FaultKind::ControllerDown));
    if cfg.channel == ChannelConfig::reliable() && !crashes {
        return 0.0;
    }
    let slots = f64::from(cfg.retry.max_attempts) + 3.0;
    cfg.retry.span() + slots * cfg.controller.slot + cfg.channel.max_total_delay() + cfg.resync_wait
}

fn run_inner(
    topo: &Topology,
    wl: &Workload,
    cfg: &ChaosConfig,
    trace: Option<std::sync::Arc<dyn taps_obs::TraceSink>>,
) -> ChaosReport {
    let slot = cfg.controller.slot;
    // The controller forgets a decided task at its deadline + horizon; a
    // probe copy arriving later would be admitted afresh.
    let (lifetime, horizon) = (probe_lifetime(cfg), cfg.controller.horizon());
    assert!(
        lifetime.total_cmp(&horizon).is_le(),
        "a probe can reach the controller {lifetime} s past its deadline, beyond the {horizon} s horizon"
    );
    #[expect(
        clippy::expect_used,
        reason = "harness precondition: the testbed topologies are built with uniform capacity"
    )]
    let line_rate = topo
        .uniform_capacity()
        .expect("chaos harness wants uniform links");
    let num_hosts = topo.num_hosts();
    topo.reset_faults();

    let mut faults = cfg.faults.clone();
    taps_flowsim::dedup_fault_plan(&mut faults);
    let mut fault_ptr = 0usize;

    // Channels, each with its own RNG stream derived from the master seed.
    let chan_seed = |k: u64| cfg.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut s2c: ControlChannel<(usize, ServerMsg)> =
        ControlChannel::new(cfg.channel, chan_seed(1));
    let mut c2s: ControlChannel<(usize, CtrlMsg)> = ControlChannel::new(cfg.channel, chan_seed(2));
    let mut c2sw: ControlChannel<(u32, SwitchMsg)> = ControlChannel::new(cfg.channel, chan_seed(3));
    let mut sw2c: ControlChannel<(u32, u64)> = ControlChannel::new(cfg.channel, chan_seed(4));
    let mut srv_tx: ReliableSender<(usize, ServerMsg)> = ReliableSender::new(cfg.retry);
    let mut ctl_tx: ReliableSender<(usize, CtrlMsg)> = ReliableSender::new(cfg.retry);
    let mut sw_tx: ReliableSender<(u32, SwitchMsg)> = ReliableSender::new(cfg.retry);
    if let Some(s) = &trace {
        srv_tx.set_trace_sink(s.clone());
        ctl_tx.set_trace_sink(s.clone());
        sw_tx.set_trace_sink(s.clone());
    }
    obs_event!(
        &trace,
        0.0,
        RunMeta {
            hosts: obs_id(num_hosts),
            links: obs_id(topo.num_links()),
            slot
        }
    );

    let mut controller: Option<Controller> = Some(Controller::new(topo, cfg.controller.clone()));
    if let (Some(s), Some(c)) = (&trace, controller.as_mut()) {
        c.set_trace_sink(s.clone());
    }
    let mut last_stats = ControlStats::default();
    #[expect(clippy::expect_used, reason = "controller was just constructed")]
    let mut ckpt: ControllerCheckpoint = controller.as_ref().expect("live").checkpoint();
    let mut down_since: Option<f64> = None;
    // `Some((takeover start, hosts still to resync))` while a standby
    // reconciles; `controller` is live but deciding nothing yet.
    let mut resync: Option<(f64, BTreeSet<usize>)> = None;

    let mut agents: Vec<ServerAgent> = (0..num_hosts)
        .map(|h| {
            let mut a = ServerAgent::new(h, slot);
            a.set_lease_duration(cfg.lease);
            a
        })
        .collect();
    // lint: l8-ok(exact equality of a copied constant: slot passes through ServerAgent::new unmodified)
    debug_assert!(agents.iter().all(|a| a.slot() == slot));
    let mut switches: BTreeMap<u32, SwitchAgent> = (0..topo.num_nodes())
        .map(|n| NodeId(n as u32))
        .filter(|&n| topo.node(n).kind.is_switch())
        .map(|n| {
            (
                n.0,
                SwitchAgent::new(
                    n,
                    cfg.controller.table_capacity,
                    cfg.controller.table_budget,
                ),
            )
        })
        .collect();

    let nf = wl.num_flows();
    let mut verdicts: Vec<(usize, TaskVerdict)> = Vec::new();
    let mut verdict_seen: BTreeSet<usize> = BTreeSet::new();
    let mut rejected_flows = vec![false; nf];
    let mut finished: Vec<Option<f64>> = vec![None; nf];
    let mut delivered = vec![0.0f64; nf];
    let mut granted: BTreeSet<usize> = BTreeSet::new();
    let mut outbox: Vec<Vec<ServerMsg>> = vec![Vec::new(); num_hosts];
    let mut deferred: Vec<(usize, Vec<ProbeHeader>)> = Vec::new();
    let mut last_broadcast: (u64, u64) = (0, 0);
    let mut next_task = 0usize;
    let mut failovers: Vec<f64> = Vec::new();
    let mut occupancy_violations = 0usize;
    let mut grantless_transmissions = 0usize;
    let mut default_routed_slots = 0usize;
    let mut stalled_slots = 0usize;

    let nslots = (cfg.horizon / slot).ceil() as usize;
    for s in 0..nslots {
        let now = s as f64 * slot;

        // ---- phase 1: faults due this slot ---------------------------
        while fault_ptr < faults.len() && faults[fault_ptr].time <= now + 1e-9 {
            let ev = faults[fault_ptr];
            fault_ptr += 1;
            match ev.kind {
                FaultKind::LinkDown(l) => match (&mut controller, &resync) {
                    (Some(c), None) => {
                        // handle_link_event applies the topology change
                        // itself, then repacks.
                        let (_grants, cmds) =
                            c.handle_link_event(now, LinkEvent::LinkDown { link: l });
                        send_cmds(now, c, cmds, &mut sw_tx, &mut c2sw);
                    }
                    _ => ev.apply(topo), // the recovery repack will see it
                },
                FaultKind::LinkUp(l) => match (&mut controller, &resync) {
                    (Some(c), None) => {
                        let (_grants, cmds) =
                            c.handle_link_event(now, LinkEvent::LinkUp { link: l });
                        send_cmds(now, c, cmds, &mut sw_tx, &mut c2sw);
                    }
                    _ => ev.apply(topo),
                },
                FaultKind::SwitchDown(_) => ev.apply(topo),
                FaultKind::SwitchUp(_) => {
                    ev.apply(topo);
                    if let (Some(c), None) = (&mut controller, &resync) {
                        let (_grants, cmds) = c.reallocate_all(now);
                        send_cmds(now, c, cmds, &mut sw_tx, &mut c2sw);
                    }
                }
                FaultKind::ControllerDown => {
                    if let Some(c) = controller.take() {
                        last_stats = c.stats().clone();
                    }
                    down_since = Some(now);
                    resync = None;
                    // The primary's retransmission queue dies with it.
                    ctl_tx.clear_pending();
                    sw_tx.clear_pending();
                }
                FaultKind::ControllerUp => {
                    if controller.is_none() {
                        let mut c = Controller::restore(topo, cfg.controller.clone(), &ckpt);
                        if let Some(s) = &trace {
                            c.set_trace_sink(s.clone());
                        }
                        let epoch = c.epoch();
                        obs_event!(&trace, now, FailoverBegin { epoch });
                        controller = Some(c);
                        resync = Some((now, (0..num_hosts).collect()));
                        for host in 0..num_hosts {
                            ctl_tx.send(
                                now,
                                Some((host as u64, SINGLETON)),
                                (host, CtrlMsg::ResyncRequest { epoch }),
                                &mut c2s,
                            );
                        }
                    }
                }
            }
        }

        // ---- phase 2: servers send -----------------------------------
        while next_task < wl.num_tasks() && wl.tasks[next_task].arrival <= now + 1e-9 {
            let t = &wl.tasks[next_task];
            next_task += 1;
            let probes: Vec<ProbeHeader> = t.flows.clone().map(|fid| header_for(wl, fid)).collect();
            obs_event!(
                &trace,
                now,
                TaskArrived {
                    task: obs_id(t.id),
                    flows: obs_id(probes.len()),
                    deadline: t.deadline
                }
            );
            for p in &probes {
                obs_event!(
                    &trace,
                    now,
                    FlowSpec {
                        flow: obs_id(p.flow),
                        task: obs_id(p.task),
                        src: obs_id(p.src),
                        dst: obs_id(p.dst),
                        bytes: p.size,
                        deadline: p.deadline
                    }
                );
            }
            let host = wl.flows[t.flows.start].src;
            srv_tx.send(now, None, (host, ServerMsg::Probe(probes)), &mut s2c);
        }
        for (host, pending) in outbox.iter_mut().enumerate() {
            for m in pending.drain(..) {
                srv_tx.send(now, None, (host, m), &mut s2c);
            }
        }
        for a in &agents {
            let report = a.progress_report();
            if !report.is_empty() {
                s2c.send(now, UNRELIABLE, (a.host(), ServerMsg::Progress(report)));
            }
        }
        srv_tx.tick(now, &mut s2c);

        // ---- phase 3: controller -------------------------------------
        if let Some(c) = controller.as_mut() {
            // Classify this slot's deliveries so the processing order is
            // fixed (ACKs, TERMs, progress, resyncs, probes) regardless
            // of arrival interleaving.
            let mut terms: Vec<(usize, u64, usize)> = Vec::new();
            let mut progress: Vec<Vec<(usize, f64)>> = Vec::new();
            let mut resyncs: Vec<ResyncReply> = Vec::new();
            let mut probes: Vec<(usize, Option<u64>, Vec<ProbeHeader>)> = Vec::new();
            for env in s2c.poll(now) {
                let (host, msg) = env.payload;
                match msg {
                    ServerMsg::Ack { msg_id } => ctl_tx.ack(now, msg_id),
                    ServerMsg::Term { flow } => terms.push((host, env.id, flow)),
                    ServerMsg::Progress(p) => progress.push(p),
                    ServerMsg::Resync(p) => resyncs.push((host, env.id, p)),
                    ServerMsg::Probe(p) => probes.push((host, Some(env.id), p)),
                }
            }
            for env in sw2c.poll(now) {
                sw_tx.ack(now, env.payload.1);
            }
            for (host, env_id, flow) in terms {
                let cmds = c.handle_term(now, flow);
                send_cmds(now, c, cmds, &mut sw_tx, &mut c2sw);
                c2s.send(now, UNRELIABLE, (host, CtrlMsg::Ack { msg_id: env_id }));
            }
            for report in progress {
                for (fid, bytes) in report {
                    c.note_progress(fid, bytes);
                }
            }
            for (host, env_id, report) in resyncs {
                c2s.send(now, UNRELIABLE, (host, CtrlMsg::Ack { msg_id: env_id }));
                if let Some((_, waiting)) = resync.as_mut() {
                    c.resync(host, &report);
                    waiting.remove(&host);
                }
                // A resync reply landing outside a takeover window is
                // acked but ignored: absorbing it could mark flows
                // granted since the window closed as finished.
            }
            if let Some((since, waiting)) = &resync {
                if waiting.is_empty() || now - since >= cfg.resync_wait {
                    // Reconcile: re-run Alg. 1–3 from the merged
                    // checkpoint + resync state, replace every switch's
                    // entries wholesale, then resume normal operation.
                    let (_grants, _cmds) = c.reallocate_all(now);
                    let epoch = c.epoch();
                    let gen = c.generation();
                    for (node, entries) in c.sweep() {
                        sw_tx.send(
                            now,
                            Some((node.0 as u64, SINGLETON)),
                            (
                                node.0,
                                SwitchMsg::Sweep {
                                    epoch,
                                    gen,
                                    entries,
                                },
                            ),
                            &mut c2sw,
                        );
                    }
                    #[expect(
                        clippy::expect_used,
                        reason = "resync is only entered from ControllerUp, which records down_since"
                    )]
                    let latency = now - down_since.expect("takeover after crash");
                    obs_event!(&trace, now, FailoverEnd { epoch, latency });
                    failovers.push(latency);
                    resync = None;
                    // Tasks that arrived but never got a verdict re-probe
                    // (their probe or its ACK died with the primary).
                    for t in wl.tasks.iter().take(next_task) {
                        if !verdict_seen.contains(&t.id) {
                            let hdrs: Vec<ProbeHeader> =
                                t.flows.clone().map(|fid| header_for(wl, fid)).collect();
                            let host = wl.flows[t.flows.start].src;
                            srv_tx.send(now, None, (host, ServerMsg::Probe(hdrs)), &mut s2c);
                        }
                    }
                }
            }
            if resync.is_none() {
                // Deferred probes (received mid-takeover) first, oldest
                // first, then this slot's.
                let all_probes: Vec<(usize, Option<u64>, Vec<ProbeHeader>)> = deferred
                    .drain(..)
                    .map(|(h, p)| (h, None, p))
                    .chain(probes)
                    .collect();
                for (host, env_id, hdrs) in all_probes {
                    if let Some(id) = env_id {
                        c2s.send(now, UNRELIABLE, (host, CtrlMsg::Ack { msg_id: id }));
                    }
                    if hdrs.is_empty() {
                        continue;
                    }
                    let task = hdrs[0].task;
                    let (verdict, _grants, cmds) = c.handle_probe(now, &hdrs);
                    send_cmds(now, c, cmds, &mut sw_tx, &mut c2sw);
                    if matches!(verdict, TaskVerdict::Rejected) {
                        for h in &hdrs {
                            rejected_flows[h.flow] = true;
                        }
                    }
                    if verdict_seen.insert(task) {
                        verdicts.push((task, verdict));
                    }
                }
            } else {
                for (host, env_id, hdrs) in probes {
                    if let Some(id) = env_id {
                        c2s.send(now, UNRELIABLE, (host, CtrlMsg::Ack { msg_id: id }));
                    }
                    deferred.push((host, hdrs));
                }
            }
            // Grant/revoke broadcast: whenever the stamp moved, re-issue
            // every scheduled flow's grant under the current stamp (so
            // heartbeats keep refreshing its lease) and revoke flows
            // that fell out of the schedule (preempted or failed).
            if resync.is_none() {
                let stamp = (c.epoch(), c.generation());
                if stamp != last_broadcast {
                    last_broadcast = stamp;
                    for fid in 0..nf {
                        if finished[fid].is_some() || rejected_flows[fid] {
                            continue;
                        }
                        let host = wl.flows[fid].src;
                        match c.grant_of(fid) {
                            Some(g) => {
                                granted.insert(fid);
                                ctl_tx.send(
                                    now,
                                    Some((host as u64, fid as u64)),
                                    (host, CtrlMsg::Grant(g)),
                                    &mut c2s,
                                );
                            }
                            None if granted.remove(&fid) => {
                                ctl_tx.send(
                                    now,
                                    Some((host as u64, fid as u64)),
                                    (
                                        host,
                                        CtrlMsg::Revoke {
                                            flow: fid,
                                            epoch: stamp.0,
                                            gen: stamp.1,
                                        },
                                    ),
                                    &mut c2s,
                                );
                            }
                            None => {}
                        }
                    }
                }
                let (epoch, gen) = stamp;
                for host in 0..num_hosts {
                    c2s.send(now, UNRELIABLE, (host, CtrlMsg::Heartbeat { epoch, gen }));
                }
                for &node in switches.keys() {
                    c2sw.send(now, UNRELIABLE, (node, SwitchMsg::Heartbeat { epoch, gen }));
                }
            }
            ctl_tx.tick(now, &mut c2s);
            sw_tx.tick(now, &mut c2sw);
            let ckpt_due = s == 0 || (cfg.checkpoint_every > 0 && s % cfg.checkpoint_every == 0);
            if resync.is_none() && ckpt_due {
                ckpt = c.checkpoint();
            }
        } else {
            // Dead box: deliveries addressed to it are lost.
            let _ = s2c.poll(now);
            let _ = sw2c.poll(now);
        }

        // ---- phase 4: switches poll ----------------------------------
        for env in c2sw.poll(now) {
            let (node, msg) = env.payload;
            let Some(agent) = switches.get_mut(&node) else {
                continue;
            };
            match msg {
                SwitchMsg::Cmd { epoch, gen, cmd } => {
                    agent.apply(now, epoch, gen, &cmd);
                    sw2c.send(now, UNRELIABLE, (node, env.id));
                }
                SwitchMsg::Sweep {
                    epoch,
                    gen,
                    entries,
                } => {
                    agent.reconcile(now, epoch, gen, &entries);
                    sw2c.send(now, UNRELIABLE, (node, env.id));
                }
                SwitchMsg::Heartbeat { .. } => agent.note_contact(now),
            }
        }
        for agent in switches.values_mut() {
            agent.silence_flush(now, cfg.silence_timeout);
        }

        // ---- phase 5: servers poll -----------------------------------
        for env in c2s.poll(now) {
            let (host, msg) = env.payload;
            match msg {
                CtrlMsg::Grant(g) => {
                    let h = header_for(wl, g.flow);
                    agents[host].accept_grant(now, &h, g, line_rate);
                    s2c.send(now, UNRELIABLE, (host, ServerMsg::Ack { msg_id: env.id }));
                }
                CtrlMsg::Revoke { flow, epoch, gen } => {
                    let stale = agents[host]
                        .grant_stamp(flow)
                        .is_some_and(|stamp| stamp > (epoch, gen));
                    if !stale {
                        if agents[host].grant_of(flow).is_some() {
                            let got = wl.flows[flow].size - agents[host].remaining(flow);
                            delivered[flow] = delivered[flow].max(got.max(0.0));
                        }
                        agents[host].drop_flow(flow);
                    }
                    s2c.send(now, UNRELIABLE, (host, ServerMsg::Ack { msg_id: env.id }));
                }
                CtrlMsg::Heartbeat { epoch, gen } => agents[host].on_heartbeat(now, epoch, gen),
                CtrlMsg::ResyncRequest { .. } => {
                    let report = agents[host].resync_probes();
                    srv_tx.send(
                        now,
                        Some(((host as u64) << 1 | 1, SINGLETON)),
                        (host, ServerMsg::Resync(report)),
                        &mut s2c,
                    );
                    s2c.send(now, UNRELIABLE, (host, ServerMsg::Ack { msg_id: env.id }));
                }
                CtrlMsg::Ack { msg_id } => srv_tx.ack(now, msg_id),
            }
        }

        // ---- phase 6: stall marking + mid-slot audit -----------------
        let mid = now + slot / 2.0;
        let mut busy = vec![usize::MAX; topo.num_links()];
        for (fid, dv) in delivered.iter_mut().enumerate() {
            let host = wl.flows[fid].src;
            let Some(g) = agents[host].grant_of(fid).cloned() else {
                continue;
            };
            let rem = agents[host].remaining(fid);
            *dv = dv.max((wl.flows[fid].size - rem).max(0.0));
            if rem <= 0.0 {
                continue;
            }
            let path_dead = g.path.links.iter().any(|l| !topo.is_link_up(*l));
            agents[host].set_stalled(fid, path_dead);
            if path_dead {
                if g.slices.contains(s as u64) && agents[host].lease_live(fid, mid) {
                    stalled_slots += 1;
                }
                continue;
            }
            if agents[host].rate_at(fid, mid) <= 0.0 {
                continue;
            }
            // Invariant: a transmitting flow holds a live granted slice.
            if !agents[host].lease_live(fid, mid) || !g.slices.contains(s as u64) {
                grantless_transmissions += 1;
            }
            // Invariant: exclusive per-link occupancy.
            for l in &g.path.links {
                if busy[l.idx()] != usize::MAX && busy[l.idx()] != fid {
                    occupancy_violations += 1;
                }
                busy[l.idx()] = fid;
            }
            // Forwarding check: a missing entry means the packets ride
            // the default routes (liveness smell, not a safety failure).
            let mut defaulted = false;
            for l in &g.path.links {
                let node = topo.link(*l).src;
                if !topo.node(node).kind.is_switch() {
                    continue;
                }
                let entry = switches.get(&node.0).and_then(|sw| sw.table().forward(fid));
                if entry != Some(*l) {
                    defaulted = true;
                }
            }
            if defaulted {
                default_routed_slots += 1;
            }
        }

        // ---- phase 7: transmit one slot ------------------------------
        for a in agents.iter_mut() {
            let host = a.host();
            for m in a.advance(now, slot) {
                if let ServerMsg::Term { flow } = m {
                    finished[flow] = Some(now + slot);
                    delivered[flow] = delivered[flow].max(wl.flows[flow].size);
                    obs_event!(&trace, now + slot, FlowCompleted { flow: obs_id(flow) });
                    outbox[host].push(m);
                }
            }
        }
    }

    // ---- classification + digest -------------------------------------
    let mut flows_on_time = 0usize;
    let mut flows_rejected = 0usize;
    let mut flows_missed = 0usize;
    for fid in 0..nf {
        if rejected_flows[fid] {
            flows_rejected += 1;
        } else if finished[fid].is_some_and(|t| t <= wl.flows[fid].deadline + 1e-9) {
            flows_on_time += 1;
        } else {
            flows_missed += 1;
            if finished[fid].is_none() {
                obs_event!(
                    &trace,
                    nslots as f64 * slot,
                    DeadlineExpired { flow: obs_id(fid) }
                );
            }
        }
    }

    let controller_stats = match &controller {
        Some(c) => c.stats().clone(),
        None => last_stats,
    };
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    // The digest folds verdicts in task-id order, not decision order:
    // which probe gets through the lossy channel first decides the
    // order, while the verdict *set* is what a run is pinned on. The
    // per-flow and counter folds below are already order-free (dense id
    // iteration).
    let mut merged: Vec<&(usize, TaskVerdict)> = verdicts.iter().collect();
    merged.sort_by_key(|p| p.0);
    for (task, v) in merged {
        fnv(&mut digest, &(*task as u64).to_le_bytes());
        let tag: u64 = match v {
            TaskVerdict::Accepted => 1,
            TaskVerdict::AcceptedWithPreemption(victim) => 2 | ((*victim as u64) << 8),
            TaskVerdict::Rejected => 3,
        };
        fnv(&mut digest, &tag.to_le_bytes());
    }
    for fid in 0..nf {
        let t = finished[fid].map_or(u64::MAX, f64::to_bits);
        fnv(&mut digest, &t.to_le_bytes());
        fnv(&mut digest, &delivered[fid].to_bits().to_le_bytes());
    }
    for n in [
        occupancy_violations,
        grantless_transmissions,
        default_routed_slots,
        stalled_slots,
        failovers.len(),
    ] {
        fnv(&mut digest, &(n as u64).to_le_bytes());
    }

    ChaosReport {
        flows_total: nf,
        flows_on_time,
        flows_rejected,
        flows_missed,
        verdicts,
        finished,
        delivered,
        occupancy_violations,
        grantless_transmissions,
        default_routed_slots,
        stalled_slots,
        failovers,
        controller_stats,
        channel_stats: [
            s2c.stats().clone(),
            c2s.stats().clone(),
            c2sw.stats().clone(),
            sw2c.stats().clone(),
        ],
        retry_stats: [
            srv_tx.stats().clone(),
            ctl_tx.stats().clone(),
            sw_tx.stats().clone(),
        ],
        digest,
    }
}

/// Sends stamped switch commands (the per-flow diff of the last commit)
/// through the reliable controller→switch sender.
fn send_cmds(
    now: f64,
    c: &Controller,
    cmds: Vec<SwitchCmd>,
    sw_tx: &mut ReliableSender<(u32, SwitchMsg)>,
    c2sw: &mut ControlChannel<(u32, SwitchMsg)>,
) {
    let epoch = c.epoch();
    let gen = c.generation();
    for cmd in cmds {
        let (node, flow) = match &cmd {
            SwitchCmd::Install { node, flow, .. } | SwitchCmd::Withdraw { node, flow } => {
                (*node, *flow)
            }
        };
        sw_tx.send(
            now,
            Some((node.0 as u64, flow as u64)),
            (node.0, SwitchMsg::Cmd { epoch, gen, cmd }),
            c2sw,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::run_testbed;
    use taps_topology::build::{partial_fat_tree_testbed, GBPS};
    use taps_workload::{FaultPlan, WorkloadConfig};

    fn workload(seed: u64, tasks: usize) -> Workload {
        WorkloadConfig {
            num_tasks: tasks,
            mean_flows_per_task: 2.0,
            sd_flows_per_task: 0.0,
            mean_flow_size: 100_000.0,
            sd_flow_size: 25_000.0,
            min_flow_size: 1_000.0,
            mean_deadline: 0.040,
            min_deadline: 0.002,
            arrival_rate: 500.0,
            num_hosts: 8,
            seed,
            size_dist: taps_workload::SizeDist::Normal,
        }
        .generate()
    }

    #[test]
    fn reliable_chaos_reproduces_the_testbed() {
        let topo = partial_fat_tree_testbed(GBPS);
        let wl = workload(5, 20);
        let horizon = wl.tasks.last().unwrap().deadline + 0.05;
        let tb = run_testbed(&topo, &wl, ControllerConfig::default(), horizon);
        let ch = run_chaos(
            &topo,
            &wl,
            &ChaosConfig::reliable(ControllerConfig::default(), horizon),
        );
        assert_eq!(ch.verdicts, tb.verdicts);
        assert_eq!(ch.flows_on_time, tb.flows_on_time);
        assert_eq!(ch.flows_rejected, tb.flows_rejected);
        assert_eq!(ch.flows_missed, tb.flows_missed);
        assert_eq!(ch.violations(), 0);
        assert!(ch.failovers.is_empty());
    }

    #[test]
    fn lossy_run_with_failover_is_safe_and_deterministic() {
        let topo = partial_fat_tree_testbed(GBPS);
        let wl = workload(11, 16);
        let horizon = wl.tasks.last().unwrap().deadline + 0.08;
        let mut cfg = ChaosConfig::unreliable(
            ControllerConfig::default(),
            ChannelConfig::lossy(0.2, 0.0002),
            42,
            horizon,
        );
        cfg.faults = FaultPlan::controller_outage(0.005, 0.010).events;
        let a = run_chaos(&topo, &wl, &cfg);
        let b = run_chaos(&topo, &wl, &cfg);
        assert_eq!(a.digest, b.digest, "double run must be bit-identical");
        assert_eq!(a.violations(), 0, "safety invariants under chaos");
        assert_eq!(a.failovers.len(), 1, "one crash, one recovery");
        assert!(a.failovers[0] > 0.0);
        assert!(a.flows_on_time > 0, "the plane still makes progress");
    }
}
