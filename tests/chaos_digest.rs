//! The `cargo xtask chaos` gate in Tier-1.
//!
//! One seed of it: a lossy control channel (20 % drop, deliveries
//! delayed up to two slots), a controller crash with checkpoint
//! failover, and a mid-run outage of a fabric cable. The outage and the failover are what make the controller
//! re-pack (`Arbiter::repack`) and absorb a fault epoch into its delta
//! cache, which the golden chaos trace (no link fault) does not reach.
//! The digest is the one the gate prints since senders transmit in the
//! slot index their driver passes instead of re-deriving it from
//! seconds; the safety audit must stay clean.
//!
//! Its baseline is the reliable control plane, the §VI testbed: through
//! a preemption its audit must stay clean, and the per-slot byte series
//! Fig. 14 plots must conserve bytes.

use taps::trace_scenarios::testbed_workload;
use taps_flowsim::Workload;
use taps_sdn::{run_chaos, ChannelConfig, ChaosConfig, ControllerConfig, TaskVerdict};
use taps_topology::build::{partial_fat_tree_testbed, GBPS};
use taps_topology::Topology;
use taps_workload::{FaultPlan, SizeDist, WorkloadConfig};

#[test]
fn a_chaos_seed_with_a_link_outage_is_pinned() {
    // `cargo xtask chaos`, seed 0, spelled out.
    let seed = 0;
    let topo = partial_fat_tree_testbed(GBPS);
    let wl = testbed_workload(1000 + seed, 16);
    let horizon = wl.tasks.last().expect("non-empty workload").deadline + 0.08;
    let mut cfg = ChaosConfig::unreliable(
        ControllerConfig::default(),
        ChannelConfig::lossy(0.2, 0.0002),
        seed,
        horizon,
    );
    let (cable, _) = topo
        .links()
        .find(|(_, l)| topo.node(l.src).kind.is_switch() && topo.node(l.dst).kind.is_switch())
        .expect("the testbed has a switch-to-switch cable");
    cfg.faults = FaultPlan::controller_outage(0.005, 0.010)
        .merge(FaultPlan::link_outage(cable, 0.015, 0.022))
        .events;

    let rep = run_chaos(&topo, &wl, &cfg);
    topo.reset_faults();
    assert_eq!(rep.violations(), 0, "chaos safety invariants");
    assert_eq!(rep.failovers.len(), 1, "the planned crash must fail over");
    assert_eq!(format!("{:#018x}", rep.digest), "0xea062208e8b34cf7");
}

/// Overload: large flows under tight deadlines arriving in a burst,
/// so the reject rule fires and, once, preempts.
fn overload_workload() -> Workload {
    WorkloadConfig {
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
        size_dist: SizeDist::Normal,
    }
    .generate()
}

#[test]
fn reliable_chaos_is_clean_through_a_preemption() {
    let topo = partial_fat_tree_testbed(GBPS);
    let wl = overload_workload();
    let horizon = wl.tasks.last().expect("non-empty workload").deadline + 0.05;
    let rep = run_chaos(
        &topo,
        &wl,
        &ChaosConfig::reliable(ControllerConfig::default(), horizon),
    );

    assert!(
        rep.verdicts
            .iter()
            .any(|(_, v)| matches!(v, TaskVerdict::AcceptedWithPreemption(_))),
        "the workload must preempt"
    );
    // A preempted task's senders discard its flows on the revoke: no
    // grantless transmission, no shared link, no packet on a default
    // route because its entries were withdrawn under it.
    assert_eq!(rep.violations(), 0);
    assert_eq!(rep.default_routed_slots, 0);
    assert_eq!((rep.stalled_slots, rep.failovers.len()), (0, 0));
    // A rejected task never sends a byte, and what is sent fits the
    // hosts' line rate.
    assert!(rep.flows_rejected > 0, "the workload must reject");
    let line = GBPS * ControllerConfig::default().slot * topo.num_hosts() as f64;
    assert!(rep
        .transmitted_bytes_per_slot
        .iter()
        .all(|t| *t <= line * (1.0 + 1e-12)));
    for (task, v) in &rep.verdicts {
        if matches!(v, TaskVerdict::Rejected) {
            for f in wl.tasks[*task].flows.clone() {
                assert_eq!(rep.delivered[f], 0.0, "rejected flow {f} sent");
            }
        }
    }
}

/// Fig. 14's series conserve bytes: per slot, useful ≤ transmitted ≤
/// what the hosts' links carry in a slot; all useful bytes are exactly
/// the on-time flows' sizes; all transmitted bytes are what the flows
/// delivered. Every admitted flow of Fig. 14's workload finishes on
/// time, so there every byte sent is useful; the overload workload of
/// `reliable_chaos_is_clean_through_a_preemption` misses flows, so
/// there both kinds of bytes occur.
#[test]
fn fig14_byte_series_conserve_bytes() {
    let topo = partial_fat_tree_testbed(GBPS);
    let wl = WorkloadConfig::fig14(topo.num_hosts(), 50, 1).generate();
    let (sent, useful) = conserved_series(&topo, &wl);
    assert_eq!(sent, useful, "every byte Fig. 14 sends is useful");

    let (sent, useful) = conserved_series(&topo, &overload_workload());
    assert!(sent > useful, "missed flows' bytes are not useful");
}

/// Runs `wl` through reliable chaos until 20 ms past its last deadline,
/// checks its byte series conserve bytes, and returns the bytes sent and
/// the useful ones.
fn conserved_series(topo: &Topology, wl: &Workload) -> (f64, f64) {
    let last = wl.tasks.iter().map(|t| t.deadline).fold(0.0, f64::max);
    let horizon = last + 0.02;
    let cfg = ChaosConfig::reliable(ControllerConfig::default(), horizon);
    let rep = run_chaos(topo, wl, &cfg);
    assert_eq!(rep.violations() + rep.default_routed_slots, 0);
    assert!(rep.flows_on_time > 0);

    let line = GBPS * cfg.controller.slot * topo.num_hosts() as f64;
    let nslots = rep.transmitted_bytes_per_slot.len();
    assert_eq!(rep.useful_bytes_per_slot.len(), nslots);
    for (s, (u, t)) in rep
        .useful_bytes_per_slot
        .iter()
        .zip(&rep.transmitted_bytes_per_slot)
        .enumerate()
    {
        assert!(
            *u <= *t && *t <= line * (1.0 + 1e-12),
            "slot {s}: {u} useful, {t} sent, {line} line"
        );
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.max(1.0);
    let useful: f64 = rep.useful_bytes_per_slot.iter().sum();
    let on_time: f64 = (0..wl.num_flows())
        .filter(|&f| rep.finished[f].is_some_and(|t| t <= wl.flows[f].deadline + 1e-9))
        .map(|f| wl.flows[f].size)
        .sum();
    assert!(
        close(useful, on_time),
        "{useful} useful bytes, {on_time} on time"
    );
    let sent: f64 = rep.transmitted_bytes_per_slot.iter().sum();
    let delivered: f64 = rep.delivered.iter().sum();
    assert!(close(sent, delivered), "{sent} sent, {delivered} delivered");
    (sent, useful)
}
