//! Property tests for the unreliable control plane (DESIGN.md §10).
//!
//! The core protocol claim is *delivery-order independence*: every
//! controller-originated update carries an `(epoch, gen)` stamp and the
//! receiving agents apply last-writer-wins, so as long as every message
//! is delivered at least once (the reliable sender's job), it does not
//! matter in which order, how late, or how many times the lossy channel
//! delivers them — server grant state and switch flow tables converge to
//! exactly the state of an in-order, lossless run. The sweep floor
//! extends this across a failover: stale pre-sweep commands can never
//! resurrect reconciled-away entries. On top of the agent-level
//! properties, the end-to-end harness must be bit-identically
//! reproducible for *any* channel configuration and seed.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taps_flowsim::{FaultEvent, FaultKind};
use taps_sdn::{
    probe_lifetime, run_chaos, ChannelConfig, ChaosConfig, Controller, ControllerConfig, FlowEntry,
    FlowGrant, ProbeHeader, ServerAgent, SwitchAgent, SwitchCmd, TaskVerdict,
};
use taps_timeline::IntervalSet;
use taps_topology::build::{partial_fat_tree_testbed, GBPS};
use taps_topology::{LinkId, NodeId, Path};
use taps_workload::{SizeDist, WorkloadConfig};

/// In-order send sequence → a delivery schedule with duplicates and an
/// arbitrary permutation, but every message present at least once.
/// Mirrors what `ControlChannel` can do to reliably-retransmitted
/// traffic (drops are compensated by retransmission, so "delivered at
/// least once" is the channel+retry contract).
fn scramble<T: Clone>(msgs: &[T], seed: u64, dup_budget: usize) -> Vec<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..msgs.len()).collect();
    for _ in 0..dup_budget {
        let pick = rng.gen_range(0..msgs.len());
        order.push(pick);
    }
    // Fisher-Yates over the index list.
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        order.swap(i, j);
    }
    order.into_iter().map(|i| msgs[i].clone()).collect()
}

fn header(flow: usize) -> ProbeHeader {
    ProbeHeader {
        task: 0,
        flow,
        src: 0,
        dst: 1,
        size: 10_000.0,
        deadline: 1.0,
    }
}

fn grant(flow: usize, epoch: u64, gen: u64, slot: u64) -> FlowGrant {
    FlowGrant {
        flow,
        slices: IntervalSet::from_range(slot, slot + 2),
        path: Path {
            links: vec![LinkId(flow as u32)],
        },
        epoch,
        gen,
    }
}

/// Final per-flow grant view of a server: `(stamp, slices)` per flow.
fn server_state(a: &ServerAgent, flows: &[usize]) -> Vec<Option<((u64, u64), IntervalSet)>> {
    flows
        .iter()
        .map(|&f| a.grant_of(f).map(|g| (g.stamp(), g.slices.clone())))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any permutation + duplication of a set of stamped grants leaves a
    /// server in exactly the in-order lossless state.
    #[test]
    fn server_grants_converge_under_any_interleaving(
        seed in any::<u64>(),
        dup_budget in 0usize..12,
        gens_per_flow in 1u64..4,
    ) {
        let flows = [1usize, 2, 3, 4];
        // The controller's send order: generations strictly increase.
        let mut msgs = Vec::new();
        let mut gen = 0u64;
        for g in 0..gens_per_flow {
            for &f in &flows {
                gen += 1;
                msgs.push(grant(f, 0, gen, 10 * g + f as u64));
            }
        }

        let mut reference = ServerAgent::new(0, 0.001);
        for m in &msgs {
            reference.accept_grant(0.0, &header(m.flow), m.clone(), 1e9);
        }

        let mut scrambled = ServerAgent::new(0, 0.001);
        for m in scramble(&msgs, seed, dup_budget) {
            scrambled.accept_grant(0.0, &header(m.flow), m, 1e9);
        }

        prop_assert_eq!(
            server_state(&scrambled, &flows),
            server_state(&reference, &flows)
        );
        for &f in &flows {
            prop_assert_eq!(scrambled.remaining(f), reference.remaining(f));
        }
    }

    /// Any permutation + duplication of a set of stamped switch commands
    /// leaves the flow table in exactly the in-order lossless state.
    #[test]
    fn switch_commands_converge_under_any_interleaving(
        seed in any::<u64>(),
        dup_budget in 0usize..12,
        rounds in 1u64..5,
    ) {
        let node = NodeId(9);
        let flows = [1usize, 2, 3];
        // Send order: per round, withdraw-then-install for each flow
        // (what a commit emits), generations strictly increasing.
        let mut msgs: Vec<(u64, u64, SwitchCmd)> = Vec::new();
        let mut script = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A);
        for r in 0..rounds {
            let gen = r + 1;
            for &f in &flows {
                if script.gen_bool(0.3) {
                    msgs.push((0, gen, SwitchCmd::Withdraw { node, flow: f }));
                } else {
                    msgs.push((0, gen, SwitchCmd::Install {
                        node,
                        flow: f,
                        out_link: LinkId((10 * r + f as u64) as u32),
                    }));
                }
            }
        }

        let mut reference = SwitchAgent::new(node, 64, 64);
        for (e, g, cmd) in &msgs {
            reference.apply(0.0, *e, *g, cmd);
        }

        let mut scrambled = SwitchAgent::new(node, 64, 64);
        for (e, g, cmd) in scramble(&msgs, seed, dup_budget) {
            scrambled.apply(0.0, e, g, &cmd);
        }

        prop_assert_eq!(
            scrambled.table().entries_sorted(),
            reference.table().entries_sorted()
        );
    }

    /// The reconciliation floor: after a sweep, *any* interleaving of
    /// stale pre-sweep commands (including installs for flows the sweep
    /// did not list) leaves the table exactly as the sweep wrote it.
    #[test]
    fn stale_commands_cannot_resurrect_swept_entries(
        seed in any::<u64>(),
        dup_budget in 0usize..12,
    ) {
        let node = NodeId(3);
        let mut pre: Vec<(u64, u64, SwitchCmd)> = Vec::new();
        for f in 1usize..=5 {
            pre.push((0, f as u64, SwitchCmd::Install {
                node,
                flow: f,
                out_link: LinkId(f as u32),
            }));
        }

        // The failed-over controller keeps only flows 2 and 4.
        let kept = vec![
            FlowEntry { flow: 2, out_link: LinkId(20) },
            FlowEntry { flow: 4, out_link: LinkId(40) },
        ];

        let mut agent = SwitchAgent::new(node, 64, 64);
        agent.reconcile(0.0, 1, 0, &kept);
        for (e, g, cmd) in scramble(&pre, seed, dup_budget) {
            prop_assert!(!agent.apply(0.0, e, g, &cmd), "stale command must be dropped");
        }
        prop_assert_eq!(agent.table().entries_sorted(), kept.clone());
    }
}

proptest! {
    // End-to-end runs are expensive; fewer, fatter cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any channel configuration and seed, a chaos run is
    /// bit-identically reproducible and never violates the safety
    /// invariants (no grantless transmission, no link-slot conflicts).
    #[test]
    fn chaos_outcome_is_reproducible_for_any_channel(
        seed in any::<u64>(),
        drop_pm in 0u64..300,
        delay_us in 0u64..300,
    ) {
        let topo = partial_fat_tree_testbed(GBPS);
        let wl = WorkloadConfig {
            num_tasks: 8,
            mean_flows_per_task: 2.0,
            sd_flows_per_task: 0.0,
            mean_flow_size: 100_000.0,
            sd_flow_size: 25_000.0,
            min_flow_size: 1_000.0,
            mean_deadline: 0.040,
            min_deadline: 0.002,
            arrival_rate: 500.0,
            num_hosts: 8,
            seed: seed ^ 0xC0FF_EE00,
            size_dist: SizeDist::Normal,
        }
        .generate();
        let horizon = wl.tasks.last().map(|t| t.deadline).unwrap_or(0.05) + 0.05;
        let channel = ChannelConfig::lossy(drop_pm as f64 / 1000.0, delay_us as f64 * 1e-6);
        let cfg = ChaosConfig::unreliable(ControllerConfig::default(), channel, seed, horizon);

        let a = run_chaos(&topo, &wl, &cfg);
        let b = run_chaos(&topo, &wl, &cfg);
        prop_assert_eq!(a.digest, b.digest, "double run must be bit-identical");
        prop_assert_eq!(a.violations(), 0, "safety invariants must hold");
    }

    /// Delta re-allocation under a lossy control plane with mid-run
    /// faults (DESIGN.md §12): the controller serves every admission and
    /// recovery pass through its persistent `DeltaCache`, and in debug
    /// builds `allocate_batch_delta` cross-checks each delta batch
    /// against a fresh full pass (panicking on any divergence) — so this
    /// test failing-by-panic is the delta/full equivalence assertion.
    /// On top of that, the run must stay bit-identically reproducible
    /// and safety-clean even though loss, delay and the fault epoch all
    /// interleave with the cache's translate/probe/fallback ladder.
    #[test]
    fn delta_allocation_survives_lossy_control_plane_with_faults(
        seed in any::<u64>(),
        drop_pm in 0u64..200,
        delay_us in 0u64..200,
        uplink in 0usize..2,
    ) {
        let topo = partial_fat_tree_testbed(GBPS);
        // One edge→aggregation uplink of host 0's rack; every edge
        // switch has two, so the fault degrades but never disconnects.
        let (tor, _) = topo.neighbors(topo.host(0))[0];
        let dead = topo
            .neighbors(tor)
            .iter()
            .filter(|(n, _)| topo.node(*n).level > topo.node(tor).level)
            .map(|(_, l)| *l)
            .nth(uplink)
            .unwrap();
        let wl = WorkloadConfig {
            num_tasks: 8,
            mean_flows_per_task: 2.0,
            sd_flows_per_task: 0.0,
            mean_flow_size: 100_000.0,
            sd_flow_size: 25_000.0,
            min_flow_size: 1_000.0,
            mean_deadline: 0.040,
            min_deadline: 0.002,
            arrival_rate: 500.0,
            num_hosts: 8,
            seed: seed ^ 0xDE17_A000,
            size_dist: SizeDist::Normal,
        }
        .generate();
        let horizon = wl.tasks.last().map(|t| t.deadline).unwrap_or(0.05) + 0.05;
        let channel = ChannelConfig::lossy(drop_pm as f64 / 1000.0, delay_us as f64 * 1e-6);
        let mut cfg = ChaosConfig::unreliable(ControllerConfig::default(), channel, seed, horizon);
        cfg.faults = vec![
            FaultEvent { time: horizon * 0.3, kind: FaultKind::LinkDown(dead) },
            FaultEvent { time: horizon * 0.6, kind: FaultKind::LinkUp(dead) },
        ];

        let a = run_chaos(&topo, &wl, &cfg);
        let b = run_chaos(&topo, &wl, &cfg);
        prop_assert_eq!(a.digest, b.digest, "double run must be bit-identical");
        prop_assert_eq!(a.violations(), 0, "safety invariants must hold");
    }

    /// Forgetting finished work (DESIGN.md §10): a task's probe copies,
    /// however the lossy plane delays, duplicates or retries them, land
    /// within its deadline + horizon and replay the cached verdict. Past
    /// the horizon the task and its finished flows are forgotten, and
    /// then a late resync report listing the flows (a server that never
    /// heard their TERM acknowledged) registers nothing — on the live
    /// controller or on a standby restored from its checkpoint — and a
    /// late duplicate probe is a fresh, already-late task that the
    /// reject rule rejects: nothing forgotten comes back in flight.
    #[test]
    fn no_forgotten_flow_or_task_comes_back(
        seed in any::<u64>(),
        drop_pm in 0u64..300,
        delay_us in 0u64..300,
        deadline_ms in 2u64..40,
        copy_at in 0.0f64..1.0,
        past in 0.0f64..1.0,
    ) {
        let topo = partial_fat_tree_testbed(GBPS);
        let channel = ChannelConfig::lossy(drop_pm as f64 / 1000.0, delay_us as f64 * 1e-6);
        let chaos = ChaosConfig::unreliable(ControllerConfig::default(), channel, seed, 1.0);
        let horizon = chaos.controller.horizon();
        let lifetime = probe_lifetime(&chaos);
        prop_assert!(lifetime <= horizon, "probe lifetime {lifetime} past horizon {horizon}");

        let deadline = deadline_ms as f64 * 1e-3;
        let probes: Vec<ProbeHeader> = (0..2)
            .map(|j| ProbeHeader {
                task: 7,
                flow: 70 + j,
                src: j,
                dst: 4 + j,
                size: 10_000.0,
                deadline,
            })
            .collect();
        let mut c = Controller::new(&topo, chaos.controller.clone());
        let (verdict, _, _) = c.handle_probe(0.0, &probes);
        prop_assert_eq!(verdict.clone(), TaskVerdict::Accepted);
        for p in &probes {
            c.handle_term(deadline, p.flow);
        }

        // Any copy of the probe the harness can still deliver replays.
        let dup_at = copy_at * (deadline + lifetime);
        let (replayed, grants, _) = c.handle_probe(dup_at.max(deadline), &probes);
        prop_assert_eq!(replayed, verdict);
        prop_assert!(grants.is_empty(), "finished flows hold no grant");
        prop_assert_eq!(c.stats().duplicate_probes, 1);

        // Past the horizon, another task's TERM forgets task 7.
        let late = deadline + horizon + (1.0 + past) * chaos.controller.slot;
        c.handle_term(late, 999);
        let ckpt = c.checkpoint();
        prop_assert!(ckpt.flows.is_empty(), "{:?}", ckpt.flows);
        prop_assert!(ckpt.decided.is_empty(), "{:?}", ckpt.decided);

        let report: Vec<(ProbeHeader, f64)> = probes.iter().map(|p| (p.clone(), p.size)).collect();
        let mut standby = Controller::restore(&topo, chaos.controller.clone(), &ckpt);
        for ctrl in [&mut c, &mut standby] {
            for p in &probes {
                ctrl.resync(p.src, &report[p.src..=p.src]);
            }
            prop_assert_eq!(ctrl.in_flight(), 0, "a resync re-registered a forgotten flow");
            prop_assert!(probes.iter().all(|p| ctrl.task_of(p.flow).is_none()));
            let (verdict, grants, _) = ctrl.handle_probe(late, &probes);
            prop_assert_eq!(verdict, TaskVerdict::Rejected, "a forgotten task was re-admitted");
            prop_assert!(grants.is_empty());
            prop_assert_eq!(ctrl.in_flight(), 0);
        }
    }
}
