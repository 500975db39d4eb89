//! Fig. 14 — the §VI testbed experiment: effective application
//! throughput over time, TAPS vs Fair Sharing, on the 8-host partial
//! fat-tree (Fig. 13), 100 flows of mean size 100 kB, mean deadline
//! 40 ms, random endpoints.
//!
//! The physical testbed (Desktops + H3C switches + Iperf) is substituted
//! twice. The control-plane columns run TAPS through the SDN control
//! plane (`taps_sdn::run_chaos` on a reliable channel): senders probe,
//! the controller decides and installs entries, senders transmit at line
//! rate inside their granted slots and report TERM. The flowsim columns
//! run TAPS and Fair Sharing in the fluid simulator the rest of the
//! evaluation uses.
//!
//! Usage: `fig14_testbed [--seed S] [--flows N] [--bin-ms B]`

use taps_baselines::FairSharing;
use taps_bench::Args;
use taps_core::{RejectDecision, Taps};
use taps_flowsim::{
    effective_throughput_series, goodput_fraction_series, Scheduler, SimConfig, Simulation,
};
use taps_sdn::{run_chaos, ChaosConfig, ControllerConfig, TaskVerdict};
use taps_topology::build::{partial_fat_tree_testbed, GBPS};
use taps_workload::WorkloadConfig;

fn main() {
    let args = Args::parse();
    let seed = args.get_usize("seed", 1) as u64;
    let nflows = args.get_usize("flows", 100);
    let bin_ms = args.get_f64("bin-ms", 1.0);

    let topo = partial_fat_tree_testbed(GBPS);
    // 100 flows as 50 tasks of 2 flows, mirroring §VI's Iperf setup with
    // task-level semantics.
    let wl = WorkloadConfig::fig14(topo.num_hosts(), nflows / 2, seed).generate();
    let horizon = wl.tasks.last().unwrap().deadline + 0.02;
    let bin = bin_ms / 1000.0;
    // Effective throughput is normalized by the testbed's aggregate host
    // access capacity, as the paper normalizes to 100%.
    let capacity = GBPS * topo.num_hosts() as f64;

    // Control plane: the closed loop on a reliable channel, its per-slot
    // bytes summed into the flowsim columns' bins.
    let cfg = ChaosConfig::reliable(ControllerConfig::default(), horizon);
    let cp = run_chaos(&topo, &wl, &cfg);
    assert_eq!(cp.violations() + cp.default_routed_slots, 0, "audit failed");
    let nbins = (horizon / bin).ceil() as usize;
    let (mut cp_useful, mut cp_sent) = (vec![0.0f64; nbins], vec![0.0f64; nbins]);
    let slot = cfg.controller.slot;
    for (s, (u, t)) in cp
        .useful_bytes_per_slot
        .iter()
        .zip(&cp.transmitted_bytes_per_slot)
        .enumerate()
    {
        let b = ((s as f64 + 0.5) * slot / bin) as usize;
        if let (Some(bu), Some(bt)) = (cp_useful.get_mut(b), cp_sent.get_mut(b)) {
            *bu += u;
            *bt += t;
        }
    }

    // Data plane: run TAPS and Fair Sharing with the segment log on.
    let sim_cfg = SimConfig {
        log_segments: true,
        validate_capacity: false,
        ..SimConfig::default()
    };
    let mut taps = Taps::new();
    let rep_taps = Simulation::new(&topo, &wl, sim_cfg.clone()).run(&mut taps);
    let mut fair: Box<dyn Scheduler> = Box::new(FairSharing::new());
    let rep_fair = Simulation::new(&topo, &wl, sim_cfg).run(fair.as_mut());

    // The paper's y-axis: how much of the transmitted traffic is
    // *effective* (belongs to flows that finish on time). TAPS pins this
    // near 100%; Fair Sharing fluctuates well below.
    println!("Fig. 14 — effective application throughput over time");
    println!("  (useful bytes / transmitted bytes per bin; aggregate utilization as reference)");
    println!("  CP = TAPS through the SDN control plane; TAPS, Fair = flowsim");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "t/ms", "CP eff%", "TAPS eff%", "Fair eff%", "CP util", "TAPS util", "Fair util"
    );
    let g_taps = goodput_fraction_series(&rep_taps, bin, horizon);
    let g_fair = goodput_fraction_series(&rep_fair, bin, horizon);
    let u_taps = effective_throughput_series(&rep_taps, bin, horizon, capacity);
    let u_fair = effective_throughput_series(&rep_fair, bin, horizon, capacity);
    for (i, (t, g)) in g_taps.iter().enumerate() {
        let gf = g_fair.get(i).map(|(_, v)| *v).unwrap_or(0.0);
        let ut = u_taps.get(i).map(|(_, v)| *v).unwrap_or(0.0);
        let uf = u_fair.get(i).map(|(_, v)| *v).unwrap_or(0.0);
        let (cu, cs) = (cp_useful[i], cp_sent[i]);
        // Stop printing once every column goes idle.
        if ut == 0.0 && uf == 0.0 && cs == 0.0 && i > 0 {
            continue;
        }
        let ce = if cs > 0.0 { cu / cs } else { 0.0 };
        println!(
            "{:>8.1} {:>10.1} {:>10.1} {:>10.1} {:>9.4} {:>9.4} {:>9.4}",
            t * 1000.0,
            ce * 100.0,
            g * 100.0,
            gf * 100.0,
            cu / (capacity * bin),
            ut,
            uf
        );
    }
    let (useful, sent): (f64, f64) = (cp_useful.iter().sum(), cp_sent.iter().sum());
    let st = &cp.controller_stats;
    println!(
        "\nsummary: CP flows {} / {} on time, {} rejected, {} missed (effective share {:.3}; \
         {} probes, {} installs, {} rejected tasks, {} preempted)",
        cp.flows_on_time,
        cp.flows_total,
        cp.flows_rejected,
        cp.flows_missed,
        useful / sent,
        st.probes,
        st.installs,
        st.rejected_tasks,
        st.preempted_tasks
    );
    println!(
        "summary: TAPS tasks {} / {} (app throughput {:.3}), FairSharing tasks {} / {} (app throughput {:.3})",
        rep_taps.tasks_completed,
        rep_taps.tasks_total,
        rep_taps.app_throughput(),
        rep_fair.tasks_completed,
        rep_fair.tasks_total,
        rep_fair.app_throughput()
    );
    // Where the two TAPS columns differ: which tasks Alg. 1 rejected, and
    // which admitted flows sent bytes yet missed (a CP miss is measured
    // in slots of line rate still owed at the end).
    let cp_rejected: Vec<usize> = cp
        .verdicts
        .iter()
        .filter(|(_, v)| matches!(v, TaskVerdict::Rejected))
        .map(|(t, _)| *t)
        .collect();
    let sim_rejected: Vec<usize> = taps
        .decisions()
        .iter()
        .filter(|(_, d)| matches!(d, RejectDecision::Reject))
        .map(|(t, _)| *t)
        .collect();
    let cp_short: Vec<f64> = (0..wl.num_flows())
        .filter(|&f| {
            cp.delivered[f] > 0.0
                && !cp.finished[f].is_some_and(|t| t <= wl.flows[f].deadline + 1e-9)
        })
        .map(|f| (wl.flows[f].size - cp.delivered[f]) / (GBPS * slot))
        .collect();
    let sim_missed = rep_taps
        .flow_outcomes
        .iter()
        .filter(|o| !o.on_time && o.delivered > 0.0)
        .count();
    println!(
        "CP vs flowsim TAPS: rejected tasks {cp_rejected:?} vs {sim_rejected:?}; \
         {} admitted flows send and miss ({:.2} slots short at most) vs {sim_missed}",
        cp_short.len(),
        cp_short.iter().fold(0.0f64, |a, b| a.max(*b))
    );
    println!("paper: TAPS sustains ~100% effective utilization of the busy links; Fair Sharing fluctuates around ~60%");
}
