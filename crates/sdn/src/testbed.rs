//! A closed-loop testbed harness: the §VI experiment end to end through
//! the control plane.
//!
//! Time advances slot by slot. When a task arrives, its senders probe
//! the controller; grants are pushed to the server agents (including
//! re-issued grants for in-flight flows the re-allocation moved);
//! agents transmit exactly inside their slices; TERMs flow back and the
//! controller withdraws forwarding entries; a preempted task's senders
//! discard its flows (Fig. 4 step 5). At every slot the harness *audits
//! the data plane*: each transmitting flow's packets are walked hop by
//! hop, along the grant its sender holds, through the installed flow
//! tables, and per-link exclusive occupancy is asserted.

use crate::controller::{Controller, ControllerConfig, TaskVerdict};
use crate::messages::{ProbeHeader, ServerMsg};
use crate::server::ServerAgent;
use taps_flowsim::Workload;
use taps_obs::{obs_event, obs_id};
use taps_topology::Topology;

/// Result of a testbed run.
#[derive(Clone, Debug)]
pub struct TestbedReport {
    /// Flows that delivered all bytes within their deadline.
    pub flows_on_time: usize,
    /// Flows of rejected tasks (never transmitted).
    pub flows_rejected: usize,
    /// Flows that missed their deadline.
    pub flows_missed: usize,
    /// Total flows.
    pub flows_total: usize,
    /// Per-slot bytes delivered by flows that eventually finished on
    /// time (the Fig. 14 "effective" numerator), indexed by slot.
    pub useful_bytes_per_slot: Vec<f64>,
    /// Forwarding audits that failed (must be 0).
    pub forwarding_violations: usize,
    /// Link-exclusivity audits that failed (must be 0).
    pub occupancy_violations: usize,
    /// Admission verdicts in arrival order.
    pub verdicts: Vec<(usize, TaskVerdict)>,
}

/// Runs a workload through the SDN control plane on `topo`.
pub fn run_testbed(
    topo: &Topology,
    wl: &Workload,
    cfg: ControllerConfig,
    horizon: f64,
) -> TestbedReport {
    run_inner(topo, wl, cfg, horizon, None)
}

/// [`run_testbed`] with every control-plane decision, commit, and flow
/// lifecycle event recorded into `sink` (DESIGN.md §11).
pub fn run_testbed_traced(
    topo: &Topology,
    wl: &Workload,
    cfg: ControllerConfig,
    horizon: f64,
    sink: std::sync::Arc<dyn taps_obs::TraceSink>,
) -> TestbedReport {
    run_inner(topo, wl, cfg, horizon, Some(sink))
}

fn run_inner(
    topo: &Topology,
    wl: &Workload,
    cfg: ControllerConfig,
    horizon: f64,
    trace: Option<std::sync::Arc<dyn taps_obs::TraceSink>>,
) -> TestbedReport {
    let slot = cfg.slot;
    #[expect(
        clippy::expect_used,
        reason = "harness precondition: the testbed topologies are built with uniform capacity"
    )]
    let line_rate = topo
        .uniform_capacity()
        .expect("testbed wants uniform links");
    let mut controller = Controller::new(topo, cfg);
    if let Some(s) = &trace {
        controller.set_trace_sink(s.clone());
    }
    obs_event!(
        &trace,
        0.0,
        RunMeta {
            hosts: obs_id(topo.num_hosts()),
            links: obs_id(topo.num_links()),
            slot
        }
    );
    let mut agents: Vec<ServerAgent> = (0..topo.num_hosts())
        .map(|h| ServerAgent::new(h, slot))
        .collect();
    // Handshake: the slot duration is a shared deployment constant, not
    // carried per grant — assert the two sides agree.
    // lint: l8-ok(exact equality of a copied constant: slot passes through ServerAgent::new unmodified)
    debug_assert!(agents.iter().all(|a| a.slot() == slot));

    let mut verdicts = Vec::new();
    let mut rejected_flows: Vec<bool> = vec![false; wl.num_flows()];
    let mut finished: Vec<Option<f64>> = vec![None; wl.num_flows()];
    let mut next_task = 0usize;
    let nslots = (horizon / slot).ceil() as usize;
    let mut useful = vec![0.0f64; nslots];
    let mut delivered_by_slot: Vec<Vec<(usize, f64)>> = vec![Vec::new(); nslots];
    let mut forwarding_violations = 0usize;
    let mut occupancy_violations = 0usize;

    #[expect(
        clippy::needless_range_loop,
        reason = "`s` also stamps `now` and delivered_by_slot"
    )]
    for s in 0..nslots {
        let now = s as f64 * slot;

        // --- control plane: probes for tasks arriving by `now` --------
        while next_task < wl.num_tasks() && wl.tasks[next_task].arrival <= now + 1e-9 {
            let t = &wl.tasks[next_task];
            next_task += 1;
            // Senders report progress so the controller re-packs with
            // true remaining sizes.
            for (fid, agent_delivered) in progress(&agents, wl) {
                controller.note_progress(fid, agent_delivered);
            }
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
            let (verdict, grants, _cmds) = controller.handle_probe(now, &probes);
            if let TaskVerdict::AcceptedWithPreemption(victim) = verdict {
                for fid in wl.tasks[victim].flows.clone() {
                    agents[wl.flows[fid].src].drop_flow(fid);
                }
            }
            if matches!(verdict, TaskVerdict::Rejected) {
                for fid in t.flows.clone() {
                    rejected_flows[fid] = true;
                }
            } else {
                for g in grants {
                    let f = &wl.flows[g.flow];
                    let h = header_for(wl, g.flow);
                    agents[f.src].accept_grant(now, &h, g, line_rate);
                }
            }
            // Re-issue grants for every in-flight flow the re-allocation
            // may have moved (the agent keeps its remaining byte count on
            // a re-grant).
            for fid in 0..wl.num_flows() {
                if finished[fid].is_some() || rejected_flows[fid] {
                    continue;
                }
                if let Some(g) = controller.grant_of(fid) {
                    let f = &wl.flows[fid];
                    let h = header_for(wl, fid);
                    agents[f.src].accept_grant(now, &h, g, line_rate);
                }
            }
            verdicts.push((t.id, verdict));
        }

        // --- data-plane audit -----------------------------------------
        let mut busy = vec![usize::MAX; topo.num_links()];
        for fid in 0..wl.num_flows() {
            let f = &wl.flows[fid];
            if agents[f.src].rate_at(fid, now + slot / 2.0) <= 0.0 {
                continue;
            }
            let Some(grant) = agents[f.src].grant_of(fid) else {
                continue;
            };
            // Exclusive per-link occupancy within the slot.
            for l in &grant.path.links {
                if busy[l.idx()] != usize::MAX && busy[l.idx()] != fid {
                    occupancy_violations += 1;
                }
                busy[l.idx()] = fid;
            }
            // Walk the installed entries from the first switch to the
            // destination host.
            let mut ok = true;
            for l in &grant.path.links {
                let node = topo.link(*l).src;
                if !topo.node(node).kind.is_switch() {
                    continue; // the sending host needs no entry
                }
                if controller.table(node).forward(fid) != Some(*l) {
                    ok = false;
                }
            }
            if !ok {
                forwarding_violations += 1;
            }
        }

        // --- transmit one slot ------------------------------------------
        for a in agents.iter_mut() {
            let before: Vec<(usize, f64)> = (0..wl.num_flows())
                .filter(|&fid| wl.flows[fid].src == a.host())
                .map(|fid| (fid, a.remaining(fid)))
                .collect();
            let msgs = a.advance(now, slot);
            for (fid, rem_before) in before {
                let delta = rem_before - a.remaining(fid);
                if delta > 0.0 {
                    delivered_by_slot[s].push((fid, delta));
                }
            }
            for m in msgs {
                if let ServerMsg::Term { flow } = m {
                    finished[flow] = Some(now + slot);
                    obs_event!(&trace, now + slot, FlowCompleted { flow: obs_id(flow) });
                    controller.handle_term(now + slot, flow);
                }
            }
        }
    }

    // Classify flows and build the useful-bytes series.
    let mut flows_on_time = 0usize;
    let mut flows_rejected = 0usize;
    let mut flows_missed = 0usize;
    let on_time: Vec<bool> = (0..wl.num_flows())
        .map(|fid| finished[fid].is_some_and(|t| t <= wl.flows[fid].deadline + 1e-9))
        .collect();
    for fid in 0..wl.num_flows() {
        if rejected_flows[fid] {
            flows_rejected += 1;
        } else if on_time[fid] {
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
    for (slot_bytes, entries) in useful.iter_mut().zip(&delivered_by_slot) {
        for (fid, bytes) in entries {
            if on_time[*fid] {
                *slot_bytes += bytes;
            }
        }
    }

    TestbedReport {
        flows_on_time,
        flows_rejected,
        flows_missed,
        flows_total: wl.num_flows(),
        useful_bytes_per_slot: useful,
        forwarding_violations,
        occupancy_violations,
        verdicts,
    }
}

/// Rebuilds the scheduling header of a workload flow: what its sender's
/// probe carried (the server knows its local flows' specs from the
/// application layer).
pub(crate) fn header_for(wl: &Workload, fid: usize) -> ProbeHeader {
    let f = &wl.flows[fid];
    ProbeHeader {
        task: f.task,
        flow: fid,
        src: f.src,
        dst: f.dst,
        size: f.size,
        deadline: f.deadline,
    }
}

fn progress(agents: &[ServerAgent], wl: &Workload) -> Vec<(usize, f64)> {
    (0..wl.num_flows())
        .map(|fid| {
            let f = &wl.flows[fid];
            let rem = agents[f.src].remaining(fid);
            let delivered = if rem > 0.0 { f.size - rem } else { 0.0 };
            (fid, delivered.max(0.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use taps_topology::build::{partial_fat_tree_testbed, GBPS};
    use taps_workload::WorkloadConfig;

    fn testbed_workload(seed: u64, tasks: usize) -> Workload {
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
    fn testbed_loop_is_consistent() {
        let topo = partial_fat_tree_testbed(GBPS);
        let wl = testbed_workload(5, 20);
        let horizon = wl.tasks.last().unwrap().deadline + 0.05;
        let rep = run_testbed(&topo, &wl, ControllerConfig::default(), horizon);
        assert_eq!(
            rep.forwarding_violations, 0,
            "installed entries must match grants"
        );
        assert_eq!(rep.occupancy_violations, 0, "one flow per link per slot");
        assert_eq!(
            rep.flows_on_time + rep.flows_rejected + rep.flows_missed,
            rep.flows_total
        );
        // The controller's admission keeps misses near zero: granted
        // flows finish inside their slices (slot-boundary admission can
        // strand at most the tail).
        assert!(
            rep.flows_missed <= rep.flows_total / 10,
            "granted flows should rarely miss: {} of {}",
            rep.flows_missed,
            rep.flows_total
        );
        assert!(rep.flows_on_time > 0);
    }

    #[test]
    fn rejected_tasks_never_transmit_in_testbed() {
        let topo = partial_fat_tree_testbed(GBPS);
        // Overload: large flows under tight deadlines arriving in a
        // burst, so the reject rule must fire.
        let wl = WorkloadConfig {
            num_tasks: 40,
            mean_flows_per_task: 2.0,
            sd_flows_per_task: 0.0,
            mean_flow_size: 1_000_000.0,
            sd_flow_size: 200_000.0,
            min_flow_size: 100_000.0,
            mean_deadline: 0.010,
            min_deadline: 0.002,
            arrival_rate: 3000.0,
            num_hosts: 8,
            seed: 9,
            size_dist: taps_workload::SizeDist::Normal,
        }
        .generate();
        let horizon = wl.tasks.last().unwrap().deadline + 0.05;
        let rep = run_testbed(&topo, &wl, ControllerConfig::default(), horizon);
        assert!(rep.flows_rejected > 0, "overload should cause rejections");
        assert_eq!(rep.occupancy_violations, 0);
        // Useful series is bounded by aggregate capacity per slot.
        let cap_per_slot = GBPS * 0.0001 * topo.num_hosts() as f64;
        for (s, u) in rep.useful_bytes_per_slot.iter().enumerate() {
            assert!(*u <= cap_per_slot + 1.0, "slot {s} over capacity: {u}");
        }
    }

    #[test]
    fn testbed_agrees_with_flowsim_on_task_verdicts() {
        use taps_core::{RejectDecision, Taps};
        use taps_flowsim::{SimConfig, Simulation};
        // The same workload through (a) the SDN control plane and
        // (b) the in-simulator TAPS must produce the same accept/reject
        // pattern (both run Alg. 1 on the same allocator).
        let topo = partial_fat_tree_testbed(GBPS);
        let wl = testbed_workload(13, 15);
        let horizon = wl.tasks.last().unwrap().deadline + 0.05;
        let rep = run_testbed(&topo, &wl, ControllerConfig::default(), horizon);

        let mut taps = Taps::new();
        let _sim = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut taps);
        let sim_rejected: Vec<usize> = taps
            .decisions()
            .iter()
            .filter(|(_, d)| matches!(d, RejectDecision::Reject))
            .map(|(t, _)| *t)
            .collect();
        let tb_rejected: Vec<usize> = rep
            .verdicts
            .iter()
            .filter(|(_, v)| matches!(v, TaskVerdict::Rejected))
            .map(|(t, _)| *t)
            .collect();
        assert_eq!(
            sim_rejected, tb_rejected,
            "control plane and simulator disagree"
        );
    }
}
