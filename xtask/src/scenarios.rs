//! `cargo xtask scenarios [--update]` — the golden scenario-matrix gate
//! (DESIGN.md §16).
//!
//! Every scenario family (weighted admission, close-to-deadline stress,
//! websearch/data-mining trace-shaped sizes, incast fan-in, stragglers,
//! diurnal ramp) is generated at two fixed seeds and driven through the
//! full seven-scheduler comparison (TAPS plus the six baselines) on the
//! 16-host single-rooted tree with the capacity validator armed. The
//! gate asserts, per matrix cell:
//!
//! * **double-run determinism** — re-running the cell produces a
//!   bit-identical outcome digest (statuses, finish times, delivered
//!   bytes, weighted aggregates);
//! * **digest pinning** — the digest matches the checked-in manifest
//!   `tests/goldens/scenario_matrix.json` (refresh intentional drift
//!   with `cargo xtask scenarios --update`);
//! * **weight-neutrality** — the weighted family re-run with every
//!   weight forced to 1.0 is bit-identical to the plain unweighted
//!   constructor's run under TAPS;
//! * **chaos survival** — the incast family also runs through the SDN
//!   chaos harness (lossy channel + controller crash/failover) with
//!   zero safety violations and a bit-identical double run.

use std::collections::BTreeMap;
use std::path::Path;

use taps::prelude::*;
use taps::scenario_matrix::{self, presets, Fnv, SEEDS};
use taps_flowsim::Scheduler;
use taps_sdn::{run_chaos, ChannelConfig, ChaosConfig, ControllerConfig};
use taps_topology::build::partial_fat_tree_testbed;
use taps_workload::ScenarioConfig;

/// One failed matrix check.
pub struct ScenarioFailure {
    /// `family/seed[/scheduler]` cell label.
    pub cell: String,
    pub what: String,
}

type SchedulerFactory = fn() -> Box<dyn Scheduler>;

/// TAPS plus the six baselines, in fixed comparison order.
fn schedulers() -> [(&'static str, SchedulerFactory); 7] {
    [
        ("taps", || Box::new(Taps::new())),
        ("fair", || Box::new(FairSharing::new())),
        ("d3", || Box::new(D3::new())),
        ("pdq", || Box::new(Pdq::new())),
        ("baraat", || Box::new(Baraat::new())),
        ("varys", || Box::new(Varys::new())),
        ("d2tcp", || Box::new(D2tcp::new())),
    ]
}

/// Runs one scheduler over one workload and digests the full outcome.
fn outcome_digest(topo: &Topology, wl: &Workload, mk: SchedulerFactory) -> u64 {
    let mut s = mk();
    scenario_matrix::outcome_digest(
        &Simulation::new(topo, wl, SimConfig::default()).run(s.as_mut()),
    )
}

/// The weighted family with every weight forced to 1.0 must be
/// bit-identical to the plain unweighted constructor's run.
fn weight_neutrality_check(topo: &Topology, wl: &Workload, failures: &mut Vec<ScenarioFailure>) {
    let plain: Vec<_> = wl
        .tasks
        .iter()
        .map(|t| {
            let flows: Vec<_> = t
                .flows
                .clone()
                .map(|fid| {
                    let f = &wl.flows[fid];
                    (f.src, f.dst, f.size)
                })
                .collect();
            (t.arrival, t.deadline, flows)
        })
        .collect();
    let weighted: Vec<_> = plain
        .iter()
        .cloned()
        .map(|(a, d, f)| (a, d, f, 1.0))
        .collect();
    let a = outcome_digest(topo, &Workload::from_tasks(plain), || Box::new(Taps::new()));
    let b = outcome_digest(topo, &Workload::from_weighted_tasks(weighted), || {
        Box::new(Taps::new())
    });
    if a != b {
        failures.push(ScenarioFailure {
            cell: "weighted/unit".into(),
            what: format!(
                "weight 1.0 is not a no-op: unweighted digest {a:#018x} vs weighted {b:#018x}"
            ),
        });
    }
}

/// Runs the incast family through the SDN chaos harness: lossy control
/// channel, controller crash + failover, zero violations, bit-identical
/// double run.
fn chaos_check(seed: u64, failures: &mut Vec<ScenarioFailure>) -> String {
    let cell = format!("incast/{seed}/chaos");
    let topo = partial_fat_tree_testbed(GBPS);
    let wl = match ScenarioConfig::incast(8, 12, seed).generate() {
        Ok(wl) => wl,
        Err(e) => {
            failures.push(ScenarioFailure {
                cell: cell.clone(),
                what: format!("incast chaos workload failed to generate: {e}"),
            });
            return format!("{cell}: generation failed");
        }
    };
    let horizon = match wl.tasks.last() {
        Some(t) => t.deadline + 0.08,
        None => {
            failures.push(ScenarioFailure {
                cell: cell.clone(),
                what: "empty incast workload".into(),
            });
            return format!("{cell}: empty workload");
        }
    };
    let mut cfg = ChaosConfig::unreliable(
        ControllerConfig::default(),
        ChannelConfig::lossy(0.2, 0.0002),
        seed,
        horizon,
    );
    cfg.faults = taps_workload::FaultPlan::controller_outage(0.005, 0.010).events;
    let a = run_chaos(&topo, &wl, &cfg);
    let b = run_chaos(&topo, &wl, &cfg);
    if a.violations() != 0 {
        failures.push(ScenarioFailure {
            cell: cell.clone(),
            what: format!("{} safety violation(s) under chaos", a.violations()),
        });
    }
    if a.digest != b.digest {
        failures.push(ScenarioFailure {
            cell: cell.clone(),
            what: format!(
                "chaos double run diverged (digest {:#018x} vs {:#018x})",
                a.digest, b.digest
            ),
        });
    }
    if a.failovers.len() != 1 {
        failures.push(ScenarioFailure {
            cell: cell.clone(),
            what: format!(
                "expected 1 controller recovery, observed {}",
                a.failovers.len()
            ),
        });
    }
    format!(
        "{cell}: {} flows ({} on time), 1 crash, digest {:#018x}",
        a.flows_total, a.flows_on_time, a.digest
    )
}

/// Prints the EXPERIMENTS.md markdown table: per family (seed 3), each
/// scheduler's task miss ratio and weighted goodput.
pub fn print_table() {
    let topo = scenario_matrix::topology();
    let mut header = String::from("| scenario |");
    let mut rule = String::from("|---|");
    for (name, _) in schedulers() {
        header.push_str(&format!(" {name} |"));
        rule.push_str("---|");
    }
    println!("{header}\n{rule}");
    for (family, cfg) in presets(SEEDS[0]) {
        let wl = match cfg.generate() {
            Ok(wl) => wl,
            Err(e) => {
                eprintln!("{family}: generation failed: {e}");
                continue;
            }
        };
        let mut row = format!("| {family} |");
        for (_, mk) in schedulers() {
            let mut s = mk();
            let rep = Simulation::new(&topo, &wl, SimConfig::default()).run(s.as_mut());
            row.push_str(&format!(
                " {:.2} / {:.2} |",
                rep.weighted_miss_ratio(),
                rep.weighted_goodput()
            ));
        }
        println!("{row}");
    }
}

fn manifest_path(root: &Path) -> std::path::PathBuf {
    root.join("tests/goldens/scenario_matrix.json")
}

fn read_manifest(root: &Path) -> Option<BTreeMap<String, String>> {
    let text = std::fs::read_to_string(manifest_path(root)).ok()?;
    let v: serde_json::Value = serde_json::from_str(&text).ok()?;
    let serde_json::Value::Object(members) = v else {
        return None;
    };
    let mut m = BTreeMap::new();
    for (k, val) in members {
        m.insert(k, val.as_str()?.to_string());
    }
    Some(m)
}

fn write_manifest(root: &Path, digests: &BTreeMap<String, String>) -> std::io::Result<()> {
    let obj = serde_json::Value::Object(
        digests
            .iter()
            .map(|(k, v)| (k.clone(), serde_json::Value::Str(v.clone())))
            .collect(),
    );
    let path = manifest_path(root);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = serde_json::to_string_pretty(&obj).map_err(std::io::Error::other)?;
    text.push('\n');
    std::fs::write(path, text)
}

/// Entry point for `cargo xtask scenarios [--update]`. Returns progress
/// lines and failures (empty failures = gate passes).
pub fn run(root: &Path, update: bool) -> (Vec<String>, Vec<ScenarioFailure>) {
    let topo = scenario_matrix::topology();
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    let mut digests: BTreeMap<String, String> = BTreeMap::new();

    for seed in SEEDS {
        for (family, cfg) in presets(seed) {
            let wl = match cfg.generate() {
                Ok(wl) => wl,
                Err(e) => {
                    failures.push(ScenarioFailure {
                        cell: format!("{family}/{seed}"),
                        what: format!("generation failed: {e}"),
                    });
                    continue;
                }
            };
            if let Err(e) = wl.validate() {
                failures.push(ScenarioFailure {
                    cell: format!("{family}/{seed}"),
                    what: format!("generated workload invalid: {e}"),
                });
                continue;
            }
            let mut cell_digest = Fnv::new();
            for (sched, mk) in schedulers() {
                let a = outcome_digest(&topo, &wl, mk);
                let b = outcome_digest(&topo, &wl, mk);
                if a != b {
                    failures.push(ScenarioFailure {
                        cell: format!("{family}/{seed}/{sched}"),
                        what: format!("double run diverged (digest {a:#018x} vs {b:#018x})"),
                    });
                }
                digests.insert(format!("{family}/{seed}/{sched}"), format!("{a:#018x}"));
                cell_digest.mix(a);
            }
            lines.push(format!(
                "{family}/{seed}: {} tasks, {} flows, cell digest {:#018x}",
                wl.num_tasks(),
                wl.num_flows(),
                cell_digest.0
            ));
            if family == "weighted" {
                weight_neutrality_check(&topo, &wl, &mut failures);
            }
        }
        lines.push(chaos_check(seed, &mut failures));
    }

    if update {
        match write_manifest(root, &digests) {
            Ok(()) => lines.push(format!(
                "wrote {} digest(s) to {}",
                digests.len(),
                manifest_path(root).display()
            )),
            Err(e) => failures.push(ScenarioFailure {
                cell: "manifest".into(),
                what: format!("failed to write manifest: {e}"),
            }),
        }
        return (lines, failures);
    }

    match read_manifest(root) {
        None => failures.push(ScenarioFailure {
            cell: "manifest".into(),
            what: format!(
                "missing or unreadable manifest {}; run `cargo xtask scenarios --update`",
                manifest_path(root).display()
            ),
        }),
        Some(pinned) => {
            for (cell, digest) in &digests {
                match pinned.get(cell) {
                    None => failures.push(ScenarioFailure {
                        cell: cell.clone(),
                        what: "cell missing from the pinned manifest; --update to refresh".into(),
                    }),
                    Some(p) if p != digest => failures.push(ScenarioFailure {
                        cell: cell.clone(),
                        what: format!(
                            "digest drifted: got {digest}, pinned {p}; \
                             --update if the change is intentional"
                        ),
                    }),
                    Some(_) => {}
                }
            }
            for cell in pinned.keys() {
                if !digests.contains_key(cell) {
                    failures.push(ScenarioFailure {
                        cell: cell.clone(),
                        what: "pinned cell no longer produced by the matrix".into(),
                    });
                }
            }
        }
    }
    (lines, failures)
}
