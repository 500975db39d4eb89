//! Admission-latency benchmark for the fast + delta re-allocation
//! engines.
//!
//! Replays a Poisson stream of task arrivals against a persistent
//! allocator: each arrival adds a task's flows to the active set and
//! triggers the full re-allocation TAPS performs per arrival (Alg. 1).
//! Wall-clock latency of every re-allocation is recorded for the
//! paper-naive reference (`taps_core::oracle::naive_batch`: per-flow path
//! enumeration, allocating interval folds), the engine's full pass (path
//! cache, scratch buffers, bound-pruned candidate ranking) and its delta
//! pass (cross-arrival reuse: undisturbed flows are translated instead
//! of re-searched), on fat-trees k=8, 16 and 24. All runs replay the
//! same stream and must produce bit-identical schedules — the binary
//! asserts this before reporting.
//!
//! Emits `BENCH_admission.json` with p50/p95 admission latency,
//! sustainable arrivals/sec and the fast- and delta-vs-legacy speedups
//! (normalized: no machine-local paths or timestamps), plus a
//! `results/METRICS_admission.json` latency-histogram registry.
//!
//! Usage: `bench_admission [--arrivals N] [--window W] [--flows F]
//!         [--lambda PER_SEC] [--max-paths P] [--seed S] [--out PATH]
//!         [--metrics-out PATH] [--ks K,K,...]`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::Instant;
use taps_bench::Args;
use taps_core::oracle::naive_batch;
use taps_core::{DeltaCache, FlowDemand, SlotAllocator};
use taps_topology::build::{fat_tree, GBPS};
use taps_topology::Topology;

/// Which allocation entry point a replay exercises.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RunMode {
    /// The paper-naive reference (`naive_batch`) per arrival.
    Legacy,
    /// The engine's full pass (`reset` + `allocate_batch`) per arrival.
    Fast,
    /// `allocate_batch_delta` with a persistent cross-arrival cache.
    Delta,
}

/// Latency distribution of one (topology, mode) run plus a schedule
/// fingerprint used to check fast/legacy agreement.
struct RunStats {
    p50_us: f64,
    p95_us: f64,
    mean_us: f64,
    arrivals_per_sec: f64,
    fingerprint: Vec<(u64, bool)>,
    latencies_us: Vec<f64>,
    /// Delta-engine reuse statistics (`RunMode::Delta` only).
    delta_stats: Option<taps_core::DeltaStats>,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

struct Config {
    arrivals: usize,
    window: usize,
    flows_per_task: usize,
    lambda: f64,
    max_paths: usize,
    seed: u64,
}

/// One Poisson replay. The arrival stream is derived from `cfg.seed`
/// only, so legacy, fast and delta runs see identical demands.
fn replay(topo: &Topology, mode: RunMode, cfg: &Config) -> RunStats {
    const WARMUP: usize = 4;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut alloc = SlotAllocator::new(topo, 1e-4, cfg.max_paths);
    if !matches!(mode, RunMode::Legacy) {
        // Bring-up: install the path tables before traffic arrives, as
        // an SDN controller would. The naive baseline never touches the
        // engine (the paper re-enumerates on every arrival), and warm vs
        // cold cache changes no allocation result — only where the
        // enumeration cost is paid.
        alloc.warm_paths();
    }
    // Persistent cross-arrival cache; alive for the whole replay so every
    // arrival after the first can translate undisturbed flows.
    let mut cache = DeltaCache::new();
    let hosts = topo.num_hosts();
    let mut active: VecDeque<Vec<FlowDemand>> = VecDeque::new();
    let mut flat: Vec<FlowDemand> = Vec::new();
    let mut now = 0.0f64;
    let mut next_id = 0usize;
    let mut latencies_us = Vec::with_capacity(cfg.arrivals);
    let mut fingerprint = Vec::new();
    for arrival in 0..WARMUP + cfg.arrivals {
        // Exponential inter-arrival time — a Poisson process of rate λ.
        now += -(1.0 - rng.gen::<f64>()).ln() / cfg.lambda;
        let task: Vec<FlowDemand> = (0..cfg.flows_per_task)
            .map(|_| {
                let src = rng.gen_range(0..hosts);
                let mut dst = rng.gen_range(0..hosts);
                if dst == src {
                    dst = (dst + 1) % hosts;
                }
                let id = next_id;
                next_id += 1;
                FlowDemand {
                    id,
                    src,
                    dst,
                    remaining: rng.gen_range(50_000..500_000) as f64,
                    deadline: now + rng.gen_range(0.02..0.10),
                }
            })
            .collect();
        active.push_back(task);
        if active.len() > cfg.window {
            active.pop_front();
        }
        flat.clear();
        flat.extend(active.iter().flatten().cloned());
        let start_slot = alloc.slot_at(now);
        let t0 = Instant::now();
        let allocs = match mode {
            RunMode::Delta => alloc.allocate_batch_delta(&flat, start_slot, &mut cache),
            RunMode::Fast => {
                alloc.reset();
                alloc.allocate_batch(&flat, start_slot)
            }
            RunMode::Legacy => naive_batch(topo, 1e-4, cfg.max_paths, &flat, start_slot),
        }
        .expect("generated host pairs are connected");
        let dt = t0.elapsed();
        if arrival >= WARMUP {
            latencies_us.push(dt.as_secs_f64() * 1e6);
        }
        fingerprint.extend(allocs.iter().map(|a| (a.completion_slot, a.on_time)));
        std::hint::black_box(allocs);
    }
    latencies_us.sort_by(f64::total_cmp);
    let mean_us = latencies_us.iter().sum::<f64>() / latencies_us.len() as f64;
    RunStats {
        p50_us: percentile(&latencies_us, 0.50),
        p95_us: percentile(&latencies_us, 0.95),
        mean_us,
        arrivals_per_sec: 1e6 / mean_us,
        fingerprint,
        latencies_us,
        delta_stats: (mode == RunMode::Delta).then(|| cache.stats()),
    }
}

fn stats_value(s: &RunStats) -> serde_json::Value {
    serde_json::Value::Object(vec![
        ("p50_us".into(), serde_json::Value::Float(s.p50_us)),
        ("p95_us".into(), serde_json::Value::Float(s.p95_us)),
        ("mean_us".into(), serde_json::Value::Float(s.mean_us)),
        (
            "arrivals_per_sec".into(),
            serde_json::Value::Float(s.arrivals_per_sec),
        ),
    ])
}

fn main() {
    let args = Args::parse();
    let cfg = Config {
        arrivals: args.get_usize("arrivals", 40),
        window: args.get_usize("window", 12),
        flows_per_task: args.get_usize("flows", 6),
        lambda: args.get_f64("lambda", 200.0),
        max_paths: args.get_usize("max-paths", 64),
        seed: args.get_usize("seed", 1) as u64,
    };
    assert!(cfg.arrivals > 0, "--arrivals must be at least 1");
    let ks: Vec<usize> = args
        .get("ks")
        .map(|s| {
            s.split(',')
                .map(|t| t.trim().parse().expect("--ks: comma-separated integers"))
                .collect()
        })
        .unwrap_or_else(|| vec![8, 16, 24]);
    assert!(!ks.is_empty(), "--ks must name at least one fat-tree size");
    let out = args
        .get("out")
        .unwrap_or_else(|| "BENCH_admission.json".into());
    let metrics_out = args
        .get("metrics-out")
        .unwrap_or_else(|| "results/METRICS_admission.json".into());
    let mut metrics = taps_obs::Metrics::new();
    let mut results = Vec::new();
    println!(
        "admission latency: {} Poisson arrivals (λ={}/s), window {} tasks × {} flows, \
         {} candidate paths",
        cfg.arrivals, cfg.lambda, cfg.window, cfg.flows_per_task, cfg.max_paths
    );
    for &k in &ks {
        let topo = fat_tree(k, GBPS);
        let legacy = replay(&topo, RunMode::Legacy, &cfg);
        let fast = replay(&topo, RunMode::Fast, &cfg);
        let delta = replay(&topo, RunMode::Delta, &cfg);
        assert_eq!(
            legacy.fingerprint, fast.fingerprint,
            "fat_tree({k}): the engine's full pass diverged from the naive reference"
        );
        assert_eq!(
            legacy.fingerprint, delta.fingerprint,
            "fat_tree({k}): the engine's delta pass diverged from the naive reference"
        );
        let speedup_p50 = legacy.p50_us / fast.p50_us;
        let speedup_mean = legacy.mean_us / fast.mean_us;
        let speedup_p50_delta = legacy.p50_us / delta.p50_us;
        let speedup_mean_delta = legacy.mean_us / delta.mean_us;
        for (mode, stats) in [("legacy", &legacy), ("fast", &fast), ("delta", &delta)] {
            let key = format!("admission_latency_us/fat{k}/{mode}");
            metrics.add(
                &format!("arrivals/fat{k}/{mode}"),
                stats.latencies_us.len() as u64,
            );
            for us in &stats.latencies_us {
                metrics.observe(&key, &taps_obs::LATENCY_US_BOUNDS, us.round() as u64);
            }
        }
        println!(
            "  fat_tree({k:>2}): legacy p50 {:>9.1}us | fast p50 {:>8.1}us ({:>5.1}x) | \
             delta p50 {:>7.1}us ({:>5.1}x), {:.0} arrivals/s",
            legacy.p50_us,
            fast.p50_us,
            speedup_p50,
            delta.p50_us,
            speedup_p50_delta,
            delta.arrivals_per_sec
        );
        // RunMode::Delta always records stats.
        let ds = delta.delta_stats.expect("delta replay records stats");
        results.push(serde_json::Value::Object(vec![
            ("k".into(), serde_json::Value::UInt(k as u64)),
            (
                "hosts".into(),
                serde_json::Value::UInt(topo.num_hosts() as u64),
            ),
            ("before_legacy".into(), stats_value(&legacy)),
            ("after_fast".into(), stats_value(&fast)),
            ("after_delta".into(), stats_value(&delta)),
            ("speedup_p50".into(), serde_json::Value::Float(speedup_p50)),
            (
                "speedup_mean".into(),
                serde_json::Value::Float(speedup_mean),
            ),
            (
                "speedup_p50_delta".into(),
                serde_json::Value::Float(speedup_p50_delta),
            ),
            (
                "speedup_mean_delta".into(),
                serde_json::Value::Float(speedup_mean_delta),
            ),
            (
                "delta_stats".into(),
                serde_json::Value::Object(vec![
                    (
                        "delta_batches".into(),
                        serde_json::Value::UInt(ds.delta_batches),
                    ),
                    (
                        "full_fallbacks".into(),
                        serde_json::Value::UInt(ds.full_fallbacks),
                    ),
                    (
                        "reused_flows".into(),
                        serde_json::Value::UInt(ds.reused_flows),
                    ),
                    (
                        "moved_flows".into(),
                        serde_json::Value::UInt(ds.moved_flows),
                    ),
                    (
                        "retimed_flows".into(),
                        serde_json::Value::UInt(ds.retimed_flows),
                    ),
                    (
                        "searched_flows".into(),
                        serde_json::Value::UInt(ds.searched_flows),
                    ),
                    (
                        "probed_candidates".into(),
                        serde_json::Value::UInt(ds.probed_candidates),
                    ),
                    (
                        "threshold_degrades".into(),
                        serde_json::Value::UInt(ds.threshold_degrades),
                    ),
                ]),
            ),
            ("schedules_identical".into(), serde_json::Value::Bool(true)),
        ]));
    }
    let mut doc = serde_json::Value::Object(vec![
        ("bench".into(), serde_json::Value::Str("admission".into())),
        (
            "config".into(),
            serde_json::Value::Object(vec![
                (
                    "arrivals".into(),
                    serde_json::Value::UInt(cfg.arrivals as u64),
                ),
                (
                    "window_tasks".into(),
                    serde_json::Value::UInt(cfg.window as u64),
                ),
                (
                    "flows_per_task".into(),
                    serde_json::Value::UInt(cfg.flows_per_task as u64),
                ),
                (
                    "lambda_per_sec".into(),
                    serde_json::Value::Float(cfg.lambda),
                ),
                ("slot_seconds".into(), serde_json::Value::Float(1e-4)),
                (
                    "max_paths".into(),
                    serde_json::Value::UInt(cfg.max_paths as u64),
                ),
                ("seed".into(), serde_json::Value::UInt(cfg.seed)),
                (
                    "ks".into(),
                    serde_json::Value::Array(
                        ks.iter()
                            .map(|&k| serde_json::Value::UInt(k as u64))
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("results".into(), serde_json::Value::Array(results)),
    ]);
    // Route the report through the normalizing writer shared with the
    // trace exporter: machine-local keys (timestamps, hostnames) are
    // stripped and cwd-prefixed paths relativized, so two runs of the
    // same binary on different machines emit identical artifacts.
    taps_obs::json::write_report(std::path::Path::new(&out), &mut doc)
        .unwrap_or_else(|e| panic!("writing {out}: {e}"));
    eprintln!("wrote {out}");
    metrics
        .write(std::path::Path::new(&metrics_out))
        .unwrap_or_else(|e| panic!("writing {metrics_out}: {e}"));
    eprintln!("wrote {metrics_out}");
}
