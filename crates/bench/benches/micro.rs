//! Criterion micro-benchmarks for the hot paths of the reproduction:
//! the interval algebra, the max-min water-filling, TAPS admission
//! (Alg. 1–3), path enumeration, end-to-end simulation runs and one
//! controller probe on top of a growing history. These quantify the
//! controller-side cost the paper argues is affordable.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use taps_baselines::max_min_rates;
use taps_bench::history::AgedController;
use taps_core::oracle::naive_batch;
use taps_core::{DeltaCache, FlowDemand, SlotAllocator, Taps, TapsConfig};
use taps_flowsim::{SimConfig, Simulation};
use taps_timeline::IntervalSet;
use taps_topology::build::{fat_tree, single_rooted, GBPS};
use taps_topology::cache::PathCache;
use taps_topology::paths::PathFinder;
use taps_workload::WorkloadConfig;

fn bench_interval_set(c: &mut Criterion) {
    let mut g = c.benchmark_group("interval_set");
    for n in [64u64, 1024, 16384] {
        // A fragmented busy set: every other slot occupied.
        let busy = IntervalSet::from_intervals(
            (0..n).map(|i| taps_timeline::Interval::new(2 * i, 2 * i + 1)),
        );
        g.bench_with_input(
            BenchmarkId::new("allocate_first_free", n),
            &busy,
            |b, busy| {
                b.iter(|| black_box(busy.allocate_first_free(black_box(3), 64)));
            },
        );
        let other = IntervalSet::from_range(n / 2, n * 3 / 2);
        g.bench_with_input(BenchmarkId::new("union", n), &busy, |b, busy| {
            b.iter(|| black_box(busy.union(&other)));
        });
    }
    g.finish();
}

fn bench_max_min(c: &mut Criterion) {
    let mut g = c.benchmark_group("max_min_rates");
    let topo = single_rooted(4, 4, 4, GBPS);
    let pf = PathFinder::new(&topo);
    for flows in [64usize, 512, 2048] {
        let paths: Vec<_> = (0..flows)
            .map(|i| {
                let a = i % topo.num_hosts();
                let b = (i * 7 + 13) % topo.num_hosts();
                let b = if a == b {
                    (b + 1) % topo.num_hosts()
                } else {
                    b
                };
                pf.paths(topo.host(a), topo.host(b), 1)[0].clone()
            })
            .collect();
        let input: Vec<(usize, &taps_topology::Path)> = paths.iter().enumerate().collect();
        g.bench_with_input(BenchmarkId::from_parameter(flows), &input, |b, input| {
            b.iter(|| black_box(max_min_rates(&topo, input)));
        });
    }
    g.finish();
}

fn bench_taps_admission(c: &mut Criterion) {
    let mut g = c.benchmark_group("taps_admission");
    g.sample_size(10);
    let topo = single_rooted(4, 4, 4, GBPS);
    for flows in [64usize, 256, 1024] {
        // One batch allocation of `flows` demands — the controller work
        // per task arrival (Alg. 1's dominant cost).
        let demands: Vec<FlowDemand> = (0..flows)
            .map(|i| {
                let src = i % topo.num_hosts();
                let dst = (i * 11 + 3) % topo.num_hosts();
                let dst = if src == dst {
                    (dst + 1) % topo.num_hosts()
                } else {
                    dst
                };
                FlowDemand {
                    id: i,
                    src,
                    dst,
                    remaining: 200_000.0,
                    deadline: 0.040,
                }
            })
            .collect();
        g.bench_with_input(
            BenchmarkId::from_parameter(flows),
            &demands,
            |b, demands| {
                b.iter(|| {
                    let mut alloc = SlotAllocator::new(&topo, 0.0001, 4);
                    black_box(alloc.allocate_batch(demands, 0))
                });
            },
        );
    }
    g.finish();
}

/// The paper-naive reference (per-flow path enumeration, allocating
/// interval folds) vs the allocation engine (path cache, scratch buffers,
/// bound-pruned candidate ranking) on a fat-tree where the candidate
/// budget is large enough for the differences to matter.
fn bench_admission(c: &mut Criterion) {
    let mut g = c.benchmark_group("admission");
    g.sample_size(10);
    let topo = fat_tree(8, GBPS);
    let hosts = topo.num_hosts();
    let demands: Vec<FlowDemand> = (0..256usize)
        .map(|i| {
            let src = i % hosts;
            let dst = (i * 11 + 3) % hosts;
            let dst = if src == dst { (dst + 1) % hosts } else { dst };
            FlowDemand {
                id: i,
                src,
                dst,
                remaining: 200_000.0,
                deadline: 0.040,
            }
        })
        .collect();
    g.bench_with_input(
        BenchmarkId::new("naive_batch", demands.len()),
        &demands,
        |b, demands| b.iter(|| black_box(naive_batch(&topo, 0.0001, 64, demands, 0))),
    );
    g.bench_with_input(
        BenchmarkId::new("allocate_batch", demands.len()),
        &demands,
        |b, demands| {
            // Persistent allocator: the path cache warms on the first
            // batch and is reused across iterations, exactly as the
            // controller reuses it across task arrivals.
            let mut alloc = SlotAllocator::new(&topo, 0.0001, 64);
            b.iter(|| {
                alloc.reset();
                black_box(alloc.allocate_batch(demands, 0))
            });
        },
    );
    g.finish();
}

/// One flow leaves a ≈200-flow `fat_tree(16)` batch and comes back, at
/// the same start slot: two delta passes per iteration, with the flow at
/// the first, middle or last rank. A departure is dirt only for the flows
/// ranked after it, so the cost should fall as its rank gets later.
fn bench_delta_departure(c: &mut Criterion) {
    let mut g = c.benchmark_group("admission/delta_departure");
    g.sample_size(10);
    let topo = fat_tree(16, GBPS);
    // Four pods' worth of hosts, so flows share ToR uplinks and cores.
    let hosts = 256;
    let demands: Vec<FlowDemand> = (0..200usize)
        .map(|i| {
            let src = (i * 37) % hosts;
            let dst = (i * 101 + 64) % hosts;
            let dst = if src == dst { (dst + 1) % hosts } else { dst };
            FlowDemand {
                id: i,
                src,
                dst,
                remaining: 200_000.0,
                deadline: 0.010 + i as f64 * 1e-5,
            }
        })
        .collect();
    let n = demands.len();
    for (name, rank) in [("first", 0), ("middle", n / 2), ("last", n - 1)] {
        let mut without = demands.clone();
        without.remove(rank);
        g.bench_with_input(BenchmarkId::from_parameter(name), &without, |b, without| {
            let mut alloc = SlotAllocator::new(&topo, 0.0001, 16);
            let mut cache = DeltaCache::new();
            alloc
                .allocate_batch_delta(&demands, 0, &mut cache)
                .expect("fat_tree(16) is connected");
            b.iter(|| {
                for batch in [without, &demands] {
                    black_box(alloc.allocate_batch_delta(batch, 0, &mut cache))
                        .expect("fat_tree(16) is connected");
                }
            });
        });
    }
    g.finish();
}

fn bench_path_enumeration(c: &mut Criterion) {
    let mut g = c.benchmark_group("path_enumeration");
    for k in [4usize, 8, 16] {
        let topo = fat_tree(k, GBPS);
        let pf = PathFinder::new(&topo);
        let (a, b) = (topo.host(0), topo.host(topo.num_hosts() - 1));
        g.bench_with_input(BenchmarkId::new("interpod_all", k), &topo, |bch, _| {
            bch.iter(|| black_box(pf.paths(a, b, 4096).len()));
        });
        g.bench_with_input(BenchmarkId::new("ecmp_pick", k), &topo, |bch, _| {
            bch.iter(|| black_box(pf.ecmp(a, b, 42)));
        });
    }
    // What the first flow between two racks pays: an empty cache, so both
    // ToR walk tables, the join and the 16 kept candidates.
    for k in [8usize, 16] {
        let topo = fat_tree(k, GBPS);
        let (a, b) = (topo.host(0), topo.host(topo.num_hosts() - 1));
        g.bench_with_input(BenchmarkId::new("cold_lookup", k), &topo, |bch, topo| {
            bch.iter(|| black_box(PathCache::new(16).paths(topo, a, b)));
        });
    }
    g.finish();
}

fn bench_end_to_end_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end_sim");
    g.sample_size(10);
    let topo = single_rooted(3, 3, 4, GBPS);
    let cfg = WorkloadConfig {
        num_tasks: 10,
        mean_flows_per_task: 12.0,
        sd_flows_per_task: 3.0,
        ..WorkloadConfig::paper_single_rooted(topo.num_hosts(), 7)
    };
    let wl = cfg.generate();
    for name in ["FairSharing", "PDQ", "TAPS"] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, name| {
            b.iter(|| {
                let mut s = taps_bench::make_scheduler(name);
                let cfg = SimConfig {
                    validate_capacity: false,
                    ..SimConfig::default()
                };
                black_box(Simulation::new(&topo, &wl, cfg).run(s.as_mut()))
            });
        });
    }
    g.finish();
}

fn bench_taps_full_run_slot_sensitivity(c: &mut Criterion) {
    let mut g = c.benchmark_group("taps_slot_cost");
    g.sample_size(10);
    let topo = single_rooted(3, 3, 4, GBPS);
    let cfg = WorkloadConfig {
        num_tasks: 8,
        mean_flows_per_task: 12.0,
        sd_flows_per_task: 0.0,
        ..WorkloadConfig::paper_single_rooted(topo.num_hosts(), 3)
    };
    let wl = cfg.generate();
    for slot_us in [50u64, 100, 400] {
        g.bench_with_input(
            BenchmarkId::from_parameter(slot_us),
            &slot_us,
            |b, &slot_us| {
                b.iter(|| {
                    let mut taps = Taps::with_config(TapsConfig {
                        slot: slot_us as f64 / 1e6,
                        ..TapsConfig::default()
                    });
                    let cfg = SimConfig {
                        validate_capacity: false,
                        ..SimConfig::default()
                    };
                    black_box(Simulation::new(&topo, &wl, cfg).run(&mut taps))
                });
            },
        );
    }
    g.finish();
}

/// One `Taps` round of the benchmark's `sim_taps_k8` shape at growing
/// round lengths: time per task must stay flat, since the engine's
/// per-event cost follows the flows in flight, not the workload.
fn bench_flowsim_round(c: &mut Criterion) {
    let mut g = c.benchmark_group("flowsim/round");
    g.sample_size(10);
    let topo = fat_tree(8, GBPS);
    for tasks in [500usize, 1_000, 2_000] {
        let wl = WorkloadConfig {
            num_tasks: tasks,
            mean_flows_per_task: 16.0,
            sd_flows_per_task: 4.0,
            arrival_rate: 300.0,
            ..WorkloadConfig::paper_multi_rooted(topo.num_hosts(), 1)
        }
        .generate();
        g.bench_with_input(BenchmarkId::from_parameter(tasks), &wl, |b, wl| {
            b.iter(|| {
                black_box(Simulation::new(&topo, wl, SimConfig::default()).run(&mut Taps::new()))
            });
        });
    }
    g.finish();
}

/// One controller probe against the same ≈200 flows in flight, on top
/// of a registry that remembers 0, 5 000 or 20 000 retired flows (an
/// iteration is the probe plus the TERMs that restore the in-flight
/// set): time must stay flat, since the probe path iterates the
/// in-flight index only. `reallocate_all` re-packs the same in-flight
/// set with nothing changed: a pure-translation pass whose commit keeps
/// every flow, so it isolates what a kept flow costs.
fn bench_sdn_handle_probe(c: &mut Criterion) {
    let mut g = c.benchmark_group("sdn/handle_probe");
    g.sample_size(10);
    let topo = fat_tree(16, GBPS);
    for retired in [0usize, 5_000, 20_000] {
        g.bench_with_input(BenchmarkId::new("history", retired), &retired, |b, &n| {
            let mut aged = AgedController::new(&topo, n);
            b.iter(|| black_box(aged.probe_and_retire()));
        });
    }
    g.bench_with_input(BenchmarkId::new("reallocate_all", 0), &0, |b, &n| {
        let mut aged = AgedController::new(&topo, n);
        b.iter(|| black_box(aged.reallocate_all()));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_interval_set,
    bench_max_min,
    bench_taps_admission,
    bench_admission,
    bench_delta_departure,
    bench_path_enumeration,
    bench_end_to_end_sim,
    bench_taps_full_run_slot_sensitivity,
    bench_flowsim_round,
    bench_sdn_handle_probe
);
criterion_main!(benches);
