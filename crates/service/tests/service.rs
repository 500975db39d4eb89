//! End-to-end tests of the live service loop: backpressure, shedding,
//! hysteresis, slow consumers, drain/restart (satellite of DESIGN.md
//! §15), and the UDS transport.

use taps_obs::reason;
use taps_sdn::{ControllerConfig, ProbeHeader};
use taps_service::{
    run_load, verdict, LoadConfig, Request, Response, ServiceConfig, ServiceController,
    ServiceState, SimTransport, Submit, SubmitFlow,
};
use taps_topology::build::{dumbbell, fat_tree, GBPS};
use taps_workload::{BurstPhase, ReplayConfig, ReplayPlan, WorkloadConfig};

fn submit(task: u64, flow: u64, src: u64, dst: u64, size: f64, deadline: f64) -> Request {
    Request::Submit(Submit {
        task,
        deadline,
        flows: vec![SubmitFlow {
            flow,
            src,
            dst,
            size,
        }],
    })
}

fn decisions_of(responses: &[Response]) -> Vec<(u64, u64, Option<u64>, Option<f64>)> {
    responses
        .iter()
        .filter_map(|r| match r {
            Response::Decision {
                task,
                verdict,
                reason,
                retry_after,
                ..
            } => Some((*task, *verdict, *reason, *retry_after)),
            _ => None,
        })
        .collect()
}

#[test]
fn queue_full_sheds_with_retry_hint() {
    let topo = dumbbell(4, 4, GBPS);
    let cfg = ServiceConfig {
        queue_cap: 2,
        ..ServiceConfig::default()
    };
    let mut svc = ServiceController::new(&topo, ControllerConfig::default(), cfg);
    let mut tr = SimTransport::new();
    for i in 0..5u64 {
        tr.submit(0, submit(i, i, i % 4, 4 + i % 4, 1e5, 10.0))
            .unwrap();
    }
    svc.step(0.0, &mut tr);
    let dec = decisions_of(&tr.drain_client(0));
    let sheds: Vec<_> = dec
        .iter()
        .filter(|(_, v, r, _)| *v == verdict::REJECTED && *r == Some(reason::SHED_QUEUE_FULL))
        .collect();
    assert_eq!(sheds.len(), 3, "three submissions overflow the cap of 2");
    for (_, _, _, retry) in &sheds {
        let hint = retry.expect("queue-full shed carries a retry-after hint");
        assert!(hint > 0.0);
    }
    assert_eq!(svc.shed_total(), 3);
    assert_eq!(svc.metrics().counter("pending_shed_total"), 3);
    // A queue-full shed is not terminal: once the queue drains, the
    // same task can be resubmitted and admitted.
    while svc.pending_depth() > 0 {
        svc.step(0.001, &mut tr);
    }
    tr.submit(0, submit(2, 2, 2, 6, 1e5, 10.0)).unwrap();
    svc.step(0.002, &mut tr);
    let dec = decisions_of(&tr.drain_client(0));
    assert_eq!(dec.last().map(|d| (d.0, d.1)), Some((2, verdict::GRANTED)));
}

#[test]
fn infeasible_sheds_cheapest_first_above_watermark() {
    let topo = dumbbell(4, 4, GBPS);
    let cfg = ServiceConfig {
        queue_cap: 64,
        shed_watermark: 2,
        batch_enter: 32,
        batch_exit: 8,
        decision_cost: 0.01,
        ..ServiceConfig::default()
    };
    let mut svc = ServiceController::new(&topo, ControllerConfig::default(), cfg);
    let rec = std::sync::Arc::new(taps_obs::RingRecorder::new());
    svc.set_trace_sink(rec.clone());
    let mut tr = SimTransport::new();
    // Three feasible tasks with two between them that cannot survive
    // the queue delay: 11 is smaller than 10, so it is shed first
    // (cheapest-to-lose).
    tr.submit(0, submit(0, 0, 0, 4, 1e5, 100.0)).unwrap();
    tr.submit(0, submit(10, 10, 3, 7, 2e5, 0.001)).unwrap();
    tr.submit(0, submit(1, 1, 1, 5, 1e5, 100.0)).unwrap();
    tr.submit(0, submit(11, 11, 0, 5, 1e5, 0.001)).unwrap();
    tr.submit(0, submit(2, 2, 2, 6, 1e5, 100.0)).unwrap();
    svc.step(0.0, &mut tr);
    let shed: Vec<_> = svc.shed_log().to_vec();
    assert_eq!(shed.len(), 2);
    assert!(shed.iter().all(|s| s.reason == reason::SHED_INFEASIBLE));
    assert_eq!(shed[0].task, 11, "fewest bytes is shed first");
    assert_eq!(shed[1].task, 10);
    // Projected from each task's queue position: 11 was fourth, 10 second.
    assert_eq!((shed[0].projected, shed[1].projected), (0.04, 0.02));
    for s in &shed {
        assert!(s.at + s.projected >= s.deadline, "audit record is honest");
    }
    // Each shed reports the depth left after it.
    let depths: Vec<(u64, u64)> = rec
        .drain()
        .into_iter()
        .filter_map(|r| match r.ev {
            taps_obs::TraceEvent::SubmitShed { task, depth, .. } => Some((task, depth)),
            _ => None,
        })
        .collect();
    assert_eq!(depths, vec![(11, 4), (10, 3)]);
    let dec = decisions_of(&tr.drain_client(0));
    assert!(dec
        .iter()
        .filter(|(t, ..)| *t >= 10)
        .all(|(_, v, r, retry)| {
            *v == verdict::REJECTED && *r == Some(reason::SHED_INFEASIBLE) && retry.is_none()
        }));
    // The feasible tasks keep their queue order and are decided
    // normally over the next steps.
    let mut now = 0.0;
    while svc.pending_depth() > 0 {
        now += 0.01;
        svc.step(now, &mut tr);
    }
    let dec = decisions_of(&tr.drain_client(0));
    assert!(dec.iter().all(|(_, v, ..)| *v == verdict::GRANTED));
    let decided: Vec<u64> = svc.decision_log().iter().map(|&(t, _)| t).collect();
    assert_eq!(decided, vec![0, 1, 2]);
}

#[test]
fn slow_consumer_is_marked_not_blocking() {
    let topo = dumbbell(4, 4, GBPS);
    let cfg = ServiceConfig::default();
    let mut svc = ServiceController::new(&topo, ControllerConfig::default(), cfg);
    // Outbox bound of 1: the second notification in a step must drop.
    let mut tr = SimTransport::with_caps(64, 1);
    for i in 0..4u64 {
        tr.submit(7, submit(i, i, i % 4, 4 + i % 4, 1e5, 10.0))
            .unwrap();
    }
    let mut now = 0.0;
    for _ in 0..8 {
        svc.step(now, &mut tr);
        now += 1e-4;
        // The consumer never reads: tr.drain_client(7) is not called.
    }
    assert_eq!(svc.decided_total(), 4, "the loop kept deciding");
    assert!(
        svc.metrics().counter("notifications_dropped") >= 3,
        "drops were marked: {}",
        svc.metrics().counter("notifications_dropped")
    );
    assert_eq!(tr.outbox_depth(7), 1, "the bounded outbox never grew");
}

#[test]
fn batch_mode_enters_and_exits_with_hysteresis() {
    let topo = dumbbell(4, 4, GBPS);
    let cfg = ServiceConfig {
        batch_enter: 4,
        batch_exit: 1,
        max_batch: 16,
        ..ServiceConfig::default()
    };
    let mut svc = ServiceController::new(&topo, ControllerConfig::default(), cfg);
    let mut tr = SimTransport::new();
    for i in 0..6u64 {
        tr.submit(0, submit(i, i, i % 4, 4 + i % 4, 1e4, 10.0))
            .unwrap();
    }
    assert!(!svc.is_batch_mode());
    let decided = svc.step(0.0, &mut tr);
    assert!(svc.is_batch_mode(), "depth 6 >= enter watermark 4");
    assert_eq!(decided, 6, "one burst decided the whole backlog");
    svc.step(0.001, &mut tr);
    assert!(!svc.is_batch_mode(), "empty queue <= exit watermark 1");
    assert_eq!(svc.metrics().counter("batch_mode_enters"), 1);
    assert_eq!(svc.metrics().counter("batch_mode_exits"), 1);
    let dec = decisions_of(&tr.drain_client(0));
    assert_eq!(dec.len(), 6);
    assert!(dec.iter().all(|(_, v, ..)| *v == verdict::GRANTED));
}

#[test]
fn drain_rejects_new_work_and_decides_backlog() {
    let topo = dumbbell(4, 4, GBPS);
    let cfg = ServiceConfig::default();
    let mut svc = ServiceController::new(&topo, ControllerConfig::default(), cfg);
    let mut tr = SimTransport::new();
    for i in 0..3u64 {
        tr.submit(0, submit(i, i, i % 4, 4 + i % 4, 1e5, 10.0))
            .unwrap();
    }
    svc.step(0.0, &mut tr);
    tr.submit(1, Request::Drain).unwrap();
    svc.step(1e-4, &mut tr);
    assert_eq!(svc.state(), ServiceState::Draining);
    assert!(tr
        .drain_client(1)
        .iter()
        .any(|r| matches!(r, Response::DrainStarted { .. })));
    // A submission landing mid-drain gets a terminal reject.
    tr.submit(0, submit(9, 9, 0, 4, 1e5, 10.0)).unwrap();
    svc.step(2e-4, &mut tr);
    let dec = decisions_of(&tr.drain_client(0));
    assert!(dec.iter().any(|(t, v, r, _)| *t == 9
        && *v == verdict::REJECTED
        && *r == Some(reason::SHED_DRAINING)));
    let (ckpt, _end) = svc.drain(3e-4, &mut tr);
    assert_eq!(svc.state(), ServiceState::Drained);
    assert_eq!(svc.pending_depth(), 0);
    assert_eq!(svc.decided_total(), 3, "the whole backlog was decided");
    assert!(!ckpt.flows.is_empty(), "checkpoint captured admitted flows");
}

/// Satellite: drain under load, checkpoint, restart, resync — every
/// decision made before the drain is byte-identical to the
/// uninterrupted run's.
#[test]
fn drain_under_chaos_reproduces_predrain_decisions() {
    let topo = fat_tree(4, GBPS);
    let mut wcfg = WorkloadConfig::paper_single_rooted(topo.num_hosts(), 42);
    wcfg.num_tasks = 80;
    wcfg.mean_flows_per_task = 2.0;
    wcfg.sd_flows_per_task = 0.5;
    let wl = wcfg.generate();
    let plan = ReplayPlan::build(
        &wl,
        &ReplayConfig {
            rate_scale: 500.0,
            burst: Some(BurstPhase {
                start: 20,
                len: 30,
                rate_scale: 50.0,
            }),
        },
    );
    let svc_cfg = ServiceConfig {
        queue_cap: 256,
        shed_watermark: 16,
        batch_enter: 8,
        batch_exit: 2,
        ..ServiceConfig::default()
    };

    // Run A: uninterrupted reference.
    let mut svc_a = ServiceController::new(&topo, ControllerConfig::default(), svc_cfg);
    let rep_a = run_load(
        &mut svc_a,
        &svc_cfg,
        &wl,
        &plan,
        &LoadConfig {
            clients: 2,
            slo_p99: 1.0,
        },
    );
    assert!(rep_a.violations.is_empty(), "{:?}", rep_a.violations);

    // Run B: same inputs, but a drain lands mid-run, under slow-consumer
    // chaos (tiny outboxes drop notifications — decisions must not care).
    let mut svc_b = ServiceController::new(&topo, ControllerConfig::default(), svc_cfg);
    let mut tr = SimTransport::with_caps(4096, 2);
    let cut = plan.events.len() / 2;
    let mut now = plan.events[0].at;
    let mut idx = 0;
    while idx < cut || svc_b.pending_depth() > 0 {
        while idx < cut && plan.events[idx].at <= now + 1e-15 {
            let ev = plan.events[idx];
            let s = taps_service::load::submit_for_task(&wl, ev.task, ev.deadline);
            tr.submit(ev.task as u64 % 2, Request::Submit(s)).unwrap();
            idx += 1;
        }
        let worked = svc_b.step(now, &mut tr);
        if idx >= cut && svc_b.pending_depth() == 0 && tr.inbox_depth() == 0 {
            break;
        }
        if worked > 0 || svc_b.pending_depth() > 0 || tr.inbox_depth() > 0 {
            now += svc_cfg.decision_cost;
        } else {
            now = now.max(plan.events[idx].at);
        }
    }
    let predrain = svc_b.decision_log().len();
    let (ckpt, end) = svc_b.drain(now, &mut tr);

    // Everything decided before the drain matches the uninterrupted run
    // bit for bit (same digest over the common prefix).
    assert!(predrain > 0);
    assert_eq!(
        &svc_b.decision_log()[..predrain],
        &rep_a.decisions[..predrain],
        "pre-drain decisions must reproduce the no-shutdown run"
    );

    // Restart from the checkpoint and resync like a standby takeover:
    // servers re-report their in-flight flows with the bytes they have
    // left to send.
    let mut svc_c = ServiceController::restore(&topo, ControllerConfig::default(), svc_cfg, &ckpt);
    let mut by_host: std::collections::BTreeMap<usize, Vec<(ProbeHeader, f64)>> =
        std::collections::BTreeMap::new();
    for f in &ckpt.flows {
        if f.done {
            continue;
        }
        by_host.entry(f.src).or_default().push((
            ProbeHeader {
                task: f.task,
                flow: f.flow,
                src: f.src,
                dst: f.dst,
                size: f.size,
                deadline: f.deadline,
            },
            f.size - f.delivered,
        ));
    }
    for (host, probes) in &by_host {
        svc_c.resync(*host, probes);
    }
    assert!(svc_c.controller().epoch() > 0, "restore bumps the epoch");
    // The resync reported exactly the checkpointed progress, so every
    // in-flight flow keeps its delivered bytes.
    let resynced = svc_c.controller().checkpoint();
    let mut in_flight = 0;
    for f in ckpt.flows.iter().filter(|f| !f.done) {
        let r = resynced.flows.iter().find(|r| r.flow == f.flow);
        let r = r.unwrap_or_else(|| panic!("flow {} lost by the resync", f.flow));
        assert_eq!(
            r.delivered.to_bits(),
            f.delivered.to_bits(),
            "flow {}: delivered bytes after the resync",
            f.flow
        );
        in_flight += 1;
    }
    assert!(in_flight > 0, "the drain must leave flows in flight");

    // The restarted daemon serves the rest of the plan.
    let mut tr2 = SimTransport::new();
    let mut now2 = end.max(plan.events[cut].at);
    let mut idx2 = cut;
    while idx2 < plan.events.len() || svc_c.pending_depth() > 0 {
        while idx2 < plan.events.len() && plan.events[idx2].at <= now2 + 1e-15 {
            let ev = plan.events[idx2];
            let s = taps_service::load::submit_for_task(&wl, ev.task, ev.deadline);
            tr2.submit(0, Request::Submit(s)).unwrap();
            idx2 += 1;
        }
        let worked = svc_c.step(now2, &mut tr2);
        if idx2 >= plan.events.len() && svc_c.pending_depth() == 0 && tr2.inbox_depth() == 0 {
            break;
        }
        if worked > 0 || svc_c.pending_depth() > 0 || tr2.inbox_depth() > 0 {
            now2 += svc_cfg.decision_cost;
        } else {
            now2 = now2.max(plan.events[idx2].at);
        }
    }
    assert!(
        svc_c.decided_total() + svc_c.shed_total() >= (plan.events.len() - cut) as u64,
        "the restarted daemon decided the remaining submissions"
    );
}

/// A flow a checkpoint restores in flight, or a resync registers, is
/// retired at its task's deadline, as the uninterrupted service retires
/// it: it leaves F_tmp, so no later admission re-packs it.
#[test]
fn restored_and_resynced_flows_retire_at_their_deadline() {
    let topo = dumbbell(4, 4, GBPS);
    let cfg = ServiceConfig::default();
    let ctrl_cfg = ControllerConfig::default;
    let mut live = ServiceController::new(&topo, ctrl_cfg(), cfg);
    let empty = live.controller().checkpoint();
    let mut tr = SimTransport::new();
    tr.submit(0, submit(1, 1, 0, 4, 1e5, 1.0)).unwrap();
    live.step(0.0, &mut tr);
    assert_eq!(live.controller().in_flight(), 1);

    let mut drained = ServiceController::new(&topo, ctrl_cfg(), cfg);
    tr.submit(0, submit(1, 1, 0, 4, 1e5, 1.0)).unwrap();
    drained.step(0.0, &mut tr);
    let (ckpt, _) = drained.drain(1e-3, &mut tr);
    let mut restored = ServiceController::restore(&topo, ctrl_cfg(), cfg, &ckpt);
    assert_eq!(restored.controller().in_flight(), 1);

    // A standby whose checkpoint predates the task learns the flow from
    // its sender's resync report.
    let mut resynced = ServiceController::restore(&topo, ctrl_cfg(), cfg, &empty);
    let header = ProbeHeader {
        task: 1,
        flow: 1,
        src: 0,
        dst: 4,
        size: 1e5,
        deadline: 1.0,
    };
    resynced.resync(0, &[(header, 1e5)]);
    assert_eq!(resynced.controller().in_flight(), 1);

    for svc in [&mut live, &mut restored, &mut resynced] {
        svc.step(2.0, &mut SimTransport::new());
        assert_eq!(svc.controller().in_flight(), 0);
    }
}

/// A duplicate of a task decided before a drain is replayed after the
/// restore, as the uninterrupted service replays it: the restored
/// controller's decision cache answers it, and nothing is decided or
/// probed again.
#[test]
fn a_duplicate_after_a_restore_replays_the_drained_decision() {
    let topo = dumbbell(4, 4, GBPS);
    let cfg = ServiceConfig::default();
    let mut svc = ServiceController::new(&topo, ControllerConfig::default(), cfg);
    let mut tr = SimTransport::new();
    tr.submit(0, submit(1, 1, 0, 4, 1e5, 1.0)).unwrap();
    svc.step(0.0, &mut tr);
    let first = decisions_of(&tr.drain_client(0));
    assert_eq!(first, vec![(1, verdict::GRANTED, None, None)]);
    let (ckpt, end) = svc.drain(1e-3, &mut tr);

    let mut restored = ServiceController::restore(&topo, ControllerConfig::default(), cfg, &ckpt);
    tr.submit(0, submit(1, 1, 0, 4, 1e5, 1.0)).unwrap();
    restored.step(end, &mut tr);
    assert_eq!(
        decisions_of(&tr.drain_client(0)),
        first,
        "the duplicate replays the drained decision"
    );
    assert_eq!(restored.metrics().counter("duplicate_submits"), 1);
    assert_eq!(restored.decision_log(), &[] as &[(u64, u64)]);
    assert_eq!(restored.decided_total(), 0);
    assert_eq!(restored.controller().stats().duplicate_probes, 0);
}

/// A task shed while draining stays rejected after the restore: its
/// resubmission replays the terminal reject instead of being admitted.
#[test]
fn a_task_shed_while_draining_stays_rejected_after_a_restore() {
    let topo = dumbbell(4, 4, GBPS);
    let cfg = ServiceConfig::default();
    let mut svc = ServiceController::new(&topo, ControllerConfig::default(), cfg);
    let mut tr = SimTransport::new();
    svc.begin_drain(0.0);
    tr.submit(0, submit(1, 1, 0, 4, 1e5, 1.0)).unwrap();
    svc.step(0.0, &mut tr);
    assert_eq!(
        decisions_of(&tr.drain_client(0)),
        vec![(1, verdict::REJECTED, Some(reason::SHED_DRAINING), None)]
    );
    let (ckpt, end) = svc.drain(1e-3, &mut tr);

    let mut restored = ServiceController::restore(&topo, ControllerConfig::default(), cfg, &ckpt);
    tr.submit(0, submit(1, 1, 0, 4, 1e5, 1.0)).unwrap();
    restored.step(end, &mut tr);
    assert_eq!(
        decisions_of(&tr.drain_client(0)),
        vec![(1, verdict::REJECTED, None, None)],
        "a replay of the shed, not a new decision"
    );
    assert_eq!(restored.metrics().counter("duplicate_submits"), 1);
    assert_eq!(restored.decided_total(), 0);
}

#[test]
fn duplicate_submit_replays_the_decision() {
    let topo = dumbbell(4, 4, GBPS);
    let cfg = ServiceConfig::default();
    let mut svc = ServiceController::new(&topo, ControllerConfig::default(), cfg);
    let mut tr = SimTransport::new();
    tr.submit(0, submit(5, 50, 0, 4, 1e5, 10.0)).unwrap();
    svc.step(0.0, &mut tr);
    let first = decisions_of(&tr.drain_client(0));
    assert_eq!(first.len(), 1);
    tr.submit(0, submit(5, 50, 0, 4, 1e5, 10.0)).unwrap();
    svc.step(1e-3, &mut tr);
    let replay = decisions_of(&tr.drain_client(0));
    assert_eq!(replay.len(), 1);
    assert_eq!(replay[0].0, 5);
    assert_eq!(replay[0].1, first[0].1, "replayed verdict matches");
    assert_eq!(svc.metrics().counter("duplicate_submits"), 1);
    assert_eq!(svc.decided_total(), 1, "no double decision");
}

/// Outside input the controller or the topology would have panicked on
/// (host indices out of range, `src == dst` — both asserts are live in
/// release, one line from any UDS client took the daemon down), input
/// that was quietly granted nonsense (a negative size got one slot), and
/// a fresh task claiming a flow id another task holds (its record was
/// replaced, the first task's grant orphaned): each is answered with one
/// `Error` naming the field, registers nothing, and leaves every other
/// task's grant alone.
#[test]
fn malformed_and_colliding_submissions_get_one_error_and_change_nothing() {
    let topo = dumbbell(4, 4, GBPS);
    let mut svc =
        ServiceController::new(&topo, ControllerConfig::default(), ServiceConfig::default());
    let mut tr = SimTransport::new();
    // Task 3 holds flow 9.
    tr.submit(0, submit(3, 9, 0, 4, 1e5, 10.0)).unwrap();
    svc.step(0.0, &mut tr);
    let dec = decisions_of(&tr.drain_client(0));
    assert_eq!(dec, vec![(3, verdict::GRANTED, None, None)]);
    let held = svc.controller().grant_of(9).expect("task 3 was granted");
    let table_images =
        |svc: &ServiceController<'_>| (svc.controller().sweep(), svc.controller().in_flight());
    let before = table_images(&svc);

    let bad: Vec<(&str, Request, &str)> = vec![
        (
            "dst out of range",
            submit(10, 100, 0, 100_000, 1e5, 10.0),
            "dst 100000",
        ),
        (
            "src out of range",
            submit(11, 101, 8, 4, 1e5, 10.0),
            "src 8",
        ),
        (
            "src == dst",
            submit(12, 102, 2, 2, 1e5, 10.0),
            "src and dst",
        ),
        ("negative size", submit(13, 103, 1, 5, -1e5, 10.0), "size"),
        ("zero size", submit(14, 104, 1, 5, 0.0, 10.0), "size"),
        ("NaN size", submit(15, 105, 1, 5, f64::NAN, 10.0), "size"),
        (
            "infinite deadline",
            submit(16, 106, 1, 5, 1e5, f64::INFINITY),
            "deadline",
        ),
        (
            "flow id held by task 3",
            submit(4, 9, 1, 5, 1e5, 10.0),
            "already belongs to task 3",
        ),
    ];
    let mut now = 0.0;
    for (what, request, needle) in bad {
        now += 1e-3;
        tr.submit(0, request).unwrap();
        assert_eq!(svc.step(now, &mut tr), 0, "{what}: no decision");
        let responses = tr.drain_client(0);
        match responses.as_slice() {
            [Response::Error { msg }] => {
                assert!(
                    msg.contains(needle),
                    "{what}: {msg:?} should name {needle:?}"
                )
            }
            other => panic!("{what}: expected exactly one Error, got {other:?}"),
        }
        assert_eq!(svc.pending_depth(), 0, "{what}");
        assert_eq!(table_images(&svc), before, "{what}: tables or F_tmp moved");
        let grant = svc
            .controller()
            .grant_of(9)
            .expect("task 3 keeps its grant");
        assert_eq!(
            (grant.slices, grant.path),
            (held.slices.clone(), held.path.clone()),
            "{what}"
        );
    }

    // The daemon is still serving: the refused task may come back under
    // a fresh flow id, and a retry of task 3 replays its verdict.
    tr.submit(0, submit(4, 10, 1, 5, 1e5, 10.0)).unwrap();
    svc.step(now + 1e-3, &mut tr);
    tr.submit(0, submit(3, 9, 0, 4, 1e5, 10.0)).unwrap();
    svc.step(now + 2e-3, &mut tr);
    let dec = decisions_of(&tr.drain_client(0));
    assert_eq!(
        dec,
        vec![
            (4, verdict::GRANTED, None, None),
            (3, verdict::GRANTED, None, None)
        ]
    );
    assert_eq!(svc.controller().in_flight(), 2);
}

/// Two tasks of one burst claiming the same flow id: the registry holds
/// neither yet, so the burst itself has to notice. The first keeps the
/// id, the second gets the `Error`.
#[test]
fn a_burst_refuses_the_second_claim_on_a_flow_id() {
    let topo = dumbbell(4, 4, GBPS);
    let cfg = ServiceConfig {
        batch_enter: 2,
        batch_exit: 0,
        ..ServiceConfig::default()
    };
    let mut svc = ServiceController::new(&topo, ControllerConfig::default(), cfg);
    let mut tr = SimTransport::new();
    tr.submit(0, submit(20, 50, 0, 4, 1e5, 10.0)).unwrap();
    tr.submit(0, submit(21, 50, 1, 5, 1e5, 10.0)).unwrap();
    tr.submit(0, submit(22, 51, 2, 6, 1e5, 10.0)).unwrap();
    assert_eq!(svc.step(0.0, &mut tr), 2);
    assert!(svc.is_batch_mode());
    let responses = tr.drain_client(0);
    assert_eq!(
        decisions_of(&responses),
        vec![
            (20, verdict::GRANTED, None, None),
            (22, verdict::GRANTED, None, None)
        ]
    );
    let errors: Vec<&String> = responses
        .iter()
        .filter_map(|r| match r {
            Response::Error { msg } => Some(msg),
            _ => None,
        })
        .collect();
    assert_eq!(errors.len(), 1);
    assert!(errors[0].contains("task 21"), "{errors:?}");
    assert_eq!(svc.controller().task_of(50), Some(20));
    assert_eq!(svc.controller().in_flight(), 2);
}

/// A task granted and then preempted by a later task of the same burst
/// is answered with its grant summaries as they stood when it was
/// decided, then told it was preempted.
#[test]
fn a_task_preempted_inside_its_own_burst_still_gets_its_grants() {
    let topo = dumbbell(2, 2, GBPS);
    let ctrl_cfg = ControllerConfig {
        slot: 1.0,
        ..ControllerConfig::default()
    };
    let cfg = ServiceConfig {
        batch_enter: 2,
        batch_exit: 0,
        ..ServiceConfig::default()
    };
    let mut svc = ServiceController::new(&topo, ctrl_cfg, cfg);
    let mut tr = SimTransport::new();
    // Task 0 barely fits (4 units due 4.5); task 1 (1 unit due 3.0)
    // goes first under EDF and pushes it past its deadline.
    tr.submit(0, submit(0, 0, 0, 2, 4.0 * GBPS, 4.5)).unwrap();
    tr.submit(0, submit(1, 1, 1, 3, GBPS, 3.0)).unwrap();
    assert_eq!(svc.step(0.0, &mut tr), 2);
    assert!(svc.is_batch_mode());
    let responses = tr.drain_client(0);
    let decision_of_0 = responses.iter().position(|r| {
        matches!(r, Response::Decision { task: 0, verdict: v, grants, .. }
            if *v == verdict::GRANTED && grants.len() == 1)
    });
    let preempted_0 = responses
        .iter()
        .position(|r| matches!(r, Response::Preempted { task: 0 }));
    assert!(
        matches!((decision_of_0, preempted_0), (Some(d), Some(p)) if d < p),
        "{responses:?}"
    );
}

#[test]
fn stats_snapshot_is_self_describing() {
    let topo = dumbbell(4, 4, GBPS);
    let cfg = ServiceConfig::default();
    let mut svc = ServiceController::new(&topo, ControllerConfig::default(), cfg);
    let mut tr = SimTransport::new();
    tr.submit(3, submit(0, 0, 0, 4, 1e5, 10.0)).unwrap();
    tr.submit(3, Request::Stats).unwrap();
    svc.step(0.0, &mut tr);
    let resp = tr.drain_client(3);
    let stats = resp
        .iter()
        .find_map(|r| match r {
            Response::Stats { metrics } => Some(metrics.clone()),
            _ => None,
        })
        .expect("stats response");
    assert!(stats.get("service").is_some());
    assert!(stats.get("controller").is_some());
    assert!(stats.get("pending_depth").is_some());
    assert_eq!(
        stats.get("state").and_then(|v| v.as_str()),
        Some("accepting")
    );
    // The snapshot round-trips through the JSONL framing.
    let line = taps_service::encode_line(&Response::Stats { metrics: stats });
    let back: Response = taps_service::decode_line(&line).unwrap();
    assert!(matches!(back, Response::Stats { .. }));
}

#[cfg(unix)]
#[test]
fn uds_transport_serves_the_jsonl_protocol() {
    use std::io::{ErrorKind, Read, Write};
    use std::os::unix::net::UnixStream;
    use taps_service::{Transport, UdsTransport};

    let path = std::env::temp_dir().join(format!("taps-svc-test-{}.sock", std::process::id()));
    let topo = dumbbell(4, 4, GBPS);
    let cfg = ServiceConfig::default();
    let mut svc = ServiceController::new(&topo, ControllerConfig::default(), cfg);
    let mut tr = UdsTransport::bind(&path).expect("bind test socket");

    let mut client = UnixStream::connect(&path).expect("connect");
    client.set_nonblocking(true).unwrap();
    client
        .write_all(taps_service::encode_line(&submit(1, 1, 0, 4, 1e5, 10.0)).as_bytes())
        .unwrap();
    client
        .write_all(taps_service::encode_line(&Request::Stats).as_bytes())
        .unwrap();
    client.write_all(b"this is not json\n").unwrap();

    let mut buf = Vec::new();
    let mut tmp = [0u8; 4096];
    let mut now = 0.0;
    for _ in 0..200 {
        svc.step(now, &mut tr);
        tr.poll(); // retries whatever a full socket refused
        now += 1e-3;
        match client.read(&mut tmp) {
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => panic!("client read: {e}"),
        }
        if buf.iter().filter(|&&b| b == b'\n').count() >= 3 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let text = String::from_utf8_lossy(&buf).into_owned();
    let responses: Vec<Response> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| taps_service::decode_line(l).expect("decodable response"))
        .collect();
    assert!(responses
        .iter()
        .any(|r| matches!(r, Response::Decision { task: 1, .. })));
    assert!(responses
        .iter()
        .any(|r| matches!(r, Response::Stats { .. })));
    assert!(responses
        .iter()
        .any(|r| matches!(r, Response::Error { .. })));
    let _ = std::fs::remove_file(&path);
}

/// A reply leaves in the iteration that decided it: after one `step` —
/// and no further `poll()` — the `Decision` line is on the client's
/// socket.
#[cfg(unix)]
#[test]
fn uds_reply_is_written_by_the_step_that_decided_it() {
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;
    use taps_service::UdsTransport;

    let path = std::env::temp_dir().join(format!("taps-svc-reply-{}.sock", std::process::id()));
    let topo = dumbbell(4, 4, GBPS);
    let mut svc =
        ServiceController::new(&topo, ControllerConfig::default(), ServiceConfig::default());
    let mut tr = UdsTransport::bind(&path).expect("bind test socket");

    let mut client = UnixStream::connect(&path).expect("connect");
    client
        .write_all(taps_service::encode_line(&submit(1, 1, 0, 4, 1e5, 10.0)).as_bytes())
        .unwrap();
    // The step's own poll accepts the connection and reads the submit.
    assert_eq!(svc.step(0.0, &mut tr), 1);

    client.set_nonblocking(true).unwrap();
    let mut buf = [0u8; 4096];
    let n = client
        .read(&mut buf)
        .expect("the decision is readable without a second poll");
    let text = String::from_utf8_lossy(&buf[..n]).into_owned();
    let line = text.lines().next().expect("one reply line");
    assert!(matches!(
        taps_service::decode_line::<Response>(line),
        Ok(Response::Decision { task: 1, .. })
    ));
    let _ = std::fs::remove_file(&path);
}

/// A bound `UdsTransport` with one accepted, blocking client stream.
#[cfg(unix)]
fn uds_with_client(
    name: &str,
) -> (
    taps_service::UdsTransport,
    std::os::unix::net::UnixStream,
    std::path::PathBuf,
) {
    use taps_service::{Transport, UdsTransport};
    let path = std::env::temp_dir().join(format!("taps-wait-{name}-{}.sock", std::process::id()));
    let mut tr = UdsTransport::bind(&path).expect("bind test socket");
    let client = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    assert!(tr.poll().is_empty());
    assert_eq!(tr.num_clients(), 1);
    (tr, client, path)
}

/// A request written while the loop is parked ends the wait at once,
/// long before its limit, and the next `poll()` returns it.
#[cfg(unix)]
#[test]
fn uds_wait_wakes_on_the_parked_clients_request() {
    use std::io::Write;
    use std::time::{Duration, Instant};
    use taps_service::Transport;

    let (mut tr, mut client, path) = uds_with_client("wake");
    let req = submit(1, 1, 0, 4, 1e5, 10.0);
    let line = taps_service::encode_line(&req);
    let writer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        client.write_all(line.as_bytes()).expect("client write");
        client
    });
    let t = Instant::now();
    tr.wait(Duration::from_secs(5));
    let waited = t.elapsed();
    let _client = writer.join().expect("writer thread");
    assert!(
        waited < Duration::from_millis(2_500),
        "the request ended the wait ({waited:?})"
    );
    assert_eq!(tr.poll(), vec![(0, req)]);
    let _ = std::fs::remove_file(&path);
}

/// With nothing sent, `wait` times out and leaves nothing behind: the
/// next `poll()` is empty and the client stays connected. (No lower
/// bound: the kernel rounds the read timeout to scheduler ticks.)
#[cfg(unix)]
#[test]
fn uds_wait_without_data_times_out_and_consumes_nothing() {
    use std::io::Write;
    use std::time::{Duration, Instant};
    use taps_service::Transport;

    let (mut tr, mut client, path) = uds_with_client("idle");
    let t = Instant::now();
    tr.wait(Duration::from_millis(20));
    let waited = t.elapsed();
    assert!(
        waited < Duration::from_secs(2),
        "waited {waited:?} for a 20 ms limit"
    );
    assert!(tr.poll().is_empty());
    assert_eq!(tr.num_clients(), 1);
    client
        .write_all(taps_service::encode_line(&Request::Stats).as_bytes())
        .unwrap();
    assert_eq!(tr.poll(), vec![(0, Request::Stats)]);
    let _ = std::fs::remove_file(&path);
}

/// A request line whose head `wait` reads and whose tail arrives later
/// reaches `poll()` intact.
#[cfg(unix)]
#[test]
fn uds_wait_keeps_a_split_line_for_poll_to_frame() {
    use std::io::Write;
    use std::time::Duration;
    use taps_service::Transport;

    let (mut tr, mut client, path) = uds_with_client("split");
    let req = submit(7, 70, 1, 5, 2e5, 10.0);
    let line = taps_service::encode_line(&req);
    let (head, tail) = line.split_at(line.len() / 2);
    client.write_all(head.as_bytes()).unwrap();
    tr.wait(Duration::from_secs(5));
    // The socket is nonblocking again: with nothing more sent, `poll()`
    // returns instead of sitting out the 5 s read timeout.
    let t = std::time::Instant::now();
    assert!(tr.poll().is_empty(), "half a line is not a request");
    assert!(t.elapsed() < Duration::from_millis(2_500));
    client.write_all(tail.as_bytes()).unwrap();
    tr.wait(Duration::from_secs(5));
    assert_eq!(tr.poll(), vec![(0, req)]);
    let _ = std::fs::remove_file(&path);
}

/// A peer that hangs up while the loop is parked on it ends the wait,
/// and the next `poll()` reaps the connection.
#[cfg(unix)]
#[test]
fn uds_wait_sees_a_parked_peer_close_and_poll_reaps_it() {
    use std::time::{Duration, Instant};
    use taps_service::Transport;

    let (mut tr, client, path) = uds_with_client("close");
    let closer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        drop(client);
    });
    let t = Instant::now();
    tr.wait(Duration::from_secs(5));
    let waited = t.elapsed();
    closer.join().expect("closer thread");
    assert!(
        waited < Duration::from_millis(2_500),
        "EOF ended the wait ({waited:?})"
    );
    assert!(tr.poll().is_empty());
    assert_eq!(tr.num_clients(), 0);
    let _ = std::fs::remove_file(&path);
}

/// With two connections `wait` parks on neither: a request already
/// waiting on one of them does not end it, and both are served by the
/// next `poll()`.
#[cfg(unix)]
#[test]
fn uds_wait_with_two_clients_sleeps_its_limit() {
    use std::io::Write;
    use std::time::{Duration, Instant};
    use taps_service::Transport;

    let (mut tr, mut a, path) = uds_with_client("two");
    let mut b = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    assert!(tr.poll().is_empty());
    assert_eq!(tr.num_clients(), 2);
    a.write_all(taps_service::encode_line(&Request::Stats).as_bytes())
        .unwrap();
    b.write_all(taps_service::encode_line(&Request::Stats).as_bytes())
        .unwrap();
    let t = Instant::now();
    tr.wait(Duration::from_millis(50));
    assert!(t.elapsed() >= Duration::from_millis(50), "wait slept");
    assert_eq!(tr.poll(), vec![(0, Request::Stats), (1, Request::Stats)]);
    let _ = std::fs::remove_file(&path);
}

/// With no accepted connection `wait` sleeps its limit — it accepts
/// nothing — and the next `poll()` accepts the waiting client.
#[cfg(unix)]
#[test]
fn uds_wait_without_clients_sleeps_and_poll_accepts() {
    use std::time::{Duration, Instant};
    use taps_service::{Transport, UdsTransport};

    let path = std::env::temp_dir().join(format!("taps-wait-none-{}.sock", std::process::id()));
    let mut tr = UdsTransport::bind(&path).expect("bind test socket");
    let _client = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    let t = Instant::now();
    tr.wait(Duration::from_millis(20));
    assert!(t.elapsed() >= Duration::from_millis(15));
    assert_eq!(tr.num_clients(), 0, "wait accepts nothing");
    assert!(tr.poll().is_empty());
    assert_eq!(tr.num_clients(), 1);
    let _ = std::fs::remove_file(&path);
}

/// Requests that arrive together are framed in one pass: 500 submits
/// written at once come back from one `poll()` in order, and a trailing
/// half line waits for its tail and completes on the next `poll()`.
#[cfg(unix)]
#[test]
fn uds_poll_frames_a_backlog_in_order_and_keeps_a_trailing_half_line() {
    use std::io::Write;
    use taps_service::Transport;

    let (mut tr, mut client, path) = uds_with_client("frame");
    let reqs: Vec<Request> = (0..500u64)
        .map(|i| submit(i, i, i % 4, 4 + i % 4, 1e5 + i as f64, 10.0))
        .collect();
    let last = submit(500, 500, 1, 5, 2e5, 10.0);
    let last_line = taps_service::encode_line(&last);
    let (head, tail) = last_line.split_at(last_line.len() / 2);
    let mut bytes: String = reqs.iter().map(taps_service::encode_line).collect();
    bytes.push_str(head);
    client.write_all(bytes.as_bytes()).unwrap();

    let got: Vec<Request> = tr.poll().into_iter().map(|(_, r)| r).collect();
    assert_eq!(got, reqs);
    client.write_all(tail.as_bytes()).unwrap();
    assert_eq!(tr.poll(), vec![(0, last)]);
    let _ = std::fs::remove_file(&path);
}

/// A client that stops reading fills its socket and then its outbox,
/// and `push` refuses at the outbox cap. Once the client reads again,
/// `poll()` writes out what the socket refused: every line `push`
/// accepted arrives whole, in push order, and none of them twice — a
/// line the socket took only in part included.
#[cfg(unix)]
#[test]
fn uds_full_socket_delivers_every_accepted_line_whole_once_and_in_order() {
    use std::io::{ErrorKind, Read};
    use std::time::{Duration, Instant};
    use taps_service::{PushError, Transport};

    const CAP: usize = 8;
    let (mut tr, mut client, path) = uds_with_client("full");
    tr.set_outbox_cap(CAP);
    // A Unix stream socket takes a short write whole or not at all; a
    // line longer than half the send buffer (≈208 KiB by default on
    // Linux) is taken in parts, so the socket fills mid-line.
    let pad = "x".repeat(256 * 1024 + 7);
    let line_of = |i: u64| Response::Error {
        msg: format!("{i} {pad}"),
    };
    let mut accepted = 0u64;
    let refused = loop {
        match tr.push(0, line_of(accepted)) {
            Ok(()) => accepted += 1,
            Err(e) => break e,
        }
        assert!(accepted < 100_000, "push never reported a full outbox");
    };
    assert_eq!(refused, PushError::Full);
    assert!(accepted >= CAP as u64, "{accepted} accepted");

    client.set_nonblocking(true).unwrap();
    // Reads whatever the socket holds.
    let read_some = |client: &mut std::os::unix::net::UnixStream, got: &mut Vec<u8>| {
        let mut buf = [0u8; 4096];
        loop {
            match client.read(&mut buf) {
                Ok(0) => panic!("the transport closed the connection"),
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) => panic!("client read: {e}"),
            }
        }
    };
    let mut got = Vec::new();
    let give_up = Instant::now() + Duration::from_secs(10);
    while got.iter().filter(|&&b| b == b'\n').count() < accepted as usize {
        assert!(Instant::now() < give_up, "accepted lines never arrived");
        read_some(&mut client, &mut got);
        assert!(tr.poll().is_empty());
    }
    // Nothing more is on its way.
    assert!(tr.poll().is_empty());
    read_some(&mut client, &mut got);

    let text = String::from_utf8(got).expect("whole UTF-8 lines");
    let lines: Vec<Response> = text
        .lines()
        .map(|l| taps_service::decode_line(l).expect("a whole line"))
        .collect();
    let want: Vec<Response> = (0..accepted).map(line_of).collect();
    assert_eq!(lines, want);
    // The queue is empty again, so pushes succeed.
    assert_eq!(tr.push(0, line_of(accepted)), Ok(()));
    let _ = std::fs::remove_file(&path);
}

/// A retained count (`owners`, or the controller's `decided`), from the
/// stats snapshot.
fn retained(svc: &ServiceController<'_>, key: &str) -> u64 {
    svc.stats_value()
        .get("retained")
        .and_then(|r| r.get(key))
        .and_then(|v| v.as_u64())
        .expect("stats report retained counts")
}

/// A duplicate submit inside the task's deadline + horizon replays the
/// first decision; one past it is a fresh, already-late submission that
/// the reject rule rejects, and nothing of the first is left.
#[test]
fn a_duplicate_past_the_horizon_is_rejected_as_late() {
    let topo = dumbbell(4, 4, GBPS);
    let mut svc =
        ServiceController::new(&topo, ControllerConfig::default(), ServiceConfig::default());
    let horizon = svc.controller().config().horizon();
    assert!(horizon > 0.0);
    let deadline = 0.01;
    let mut tr = SimTransport::new();
    tr.submit(0, submit(5, 50, 0, 4, 1e5, deadline)).unwrap();
    svc.step(0.0, &mut tr);
    assert_eq!(
        decisions_of(&tr.drain_client(0)),
        vec![(5, verdict::GRANTED, None, None)]
    );

    // Retired at its deadline, still remembered within the horizon.
    tr.submit(0, submit(5, 50, 0, 4, 1e5, deadline)).unwrap();
    svc.step(deadline + horizon / 2.0, &mut tr);
    assert_eq!(
        decisions_of(&tr.drain_client(0)),
        vec![(5, verdict::GRANTED, None, None)],
        "replayed inside the horizon"
    );
    assert_eq!(svc.metrics().counter("duplicate_submits"), 1);
    assert_eq!(svc.controller().task_of(50), Some(5));

    // Past it the task is forgotten: the retry is decided afresh, late.
    tr.submit(0, submit(5, 50, 0, 4, 1e5, deadline)).unwrap();
    svc.step(deadline + 2.0 * horizon, &mut tr);
    assert_eq!(
        decisions_of(&tr.drain_client(0)),
        vec![(5, verdict::REJECTED, Some(reason::INFEASIBLE), None)],
        "rejected as already late past the horizon"
    );
    assert_eq!(svc.metrics().counter("duplicate_submits"), 1);
    assert_eq!(svc.decided_total(), 2);
    assert_eq!(svc.controller().task_of(50), None);
    assert_eq!(svc.controller().in_flight(), 0);
}

/// A task leaves `owners` when it turns terminal: rejected, shed,
/// retired, or preempted (after its `Preempted` notice). Only queued and
/// granted tasks keep an entry.
#[test]
fn owners_holds_only_queued_and_granted_tasks() {
    let topo = dumbbell(2, 2, GBPS);
    let ctrl_cfg = ControllerConfig {
        slot: 1.0,
        ..ControllerConfig::default()
    };
    let cfg = ServiceConfig {
        batch_enter: 2,
        batch_exit: 0,
        ..ServiceConfig::default()
    };
    let mut svc = ServiceController::new(&topo, ctrl_cfg, cfg);
    let mut tr = SimTransport::new();
    // Task 1 preempts task 0 (as in the burst test above); task 2 is
    // then rejected behind task 1 on the bottleneck.
    tr.submit(0, submit(0, 0, 0, 2, 4.0 * GBPS, 4.5)).unwrap();
    tr.submit(0, submit(1, 1, 1, 3, GBPS, 3.0)).unwrap();
    tr.submit(1, submit(2, 2, 1, 3, 3.0 * GBPS, 3.0)).unwrap();
    svc.step(0.0, &mut tr);
    let responses = tr.drain_client(0);
    assert!(responses
        .iter()
        .any(|r| matches!(r, Response::Preempted { task: 0 })));
    assert_eq!(
        decisions_of(&tr.drain_client(1)),
        vec![(2, verdict::REJECTED, Some(reason::INFEASIBLE), None)]
    );
    assert_eq!(retained(&svc, "owners"), 1, "task 1, granted");

    // Draining: a new submission is shed as terminal.
    svc.begin_drain(0.5);
    tr.submit(1, submit(3, 3, 0, 2, GBPS, 9.0)).unwrap();
    svc.step(1.0, &mut tr);
    assert_eq!(
        decisions_of(&tr.drain_client(1)),
        vec![(3, verdict::REJECTED, Some(reason::SHED_DRAINING), None)]
    );
    assert_eq!(retained(&svc, "owners"), 1);

    // Task 1 retires at its deadline.
    svc.step(3.0, &mut tr);
    assert_eq!(retained(&svc, "owners"), 0);
    assert_eq!(retained(&svc, "decided"), 4);
}
