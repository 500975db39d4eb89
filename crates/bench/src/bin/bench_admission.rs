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
use taps_core::{DeltaCache, FlowDemand, ShardedAllocator, SlotAllocator};
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

/// FNV-1a fold of one word into a running schedule fingerprint.
fn fnv_word(h: &mut u64, w: u64) {
    for b in w.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
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

/// Result of the paper-scale sharded replay: per-burst latency stats
/// for three admission strategies over the identical arrival stream.
struct ShardedRun {
    /// Per-task sequential admission of the burst (one delta pass per
    /// arriving task, the canonical Alg. 1 loop) — total per burst.
    sequential_mean_us: f64,
    /// Whole burst in one monolithic delta pass.
    batched_mean_us: f64,
    /// Whole burst in one sharded pass (per-pod shard controllers).
    sharded_mean_us: f64,
    sharded_p50_us: f64,
    /// Burst admission speedup: sequential / batched.
    speedup_batched_vs_sequential: f64,
    /// End-to-end speedup of the sharded batched pass over per-task
    /// sequential admission — the before/after of this regime.
    speedup_sharded_vs_sequential: f64,
    /// Sharded vs monolithic batched pass. On a single-core machine the
    /// shards run inline, so this hovers near 1.0 by construction.
    speedup_sharded_vs_batched: f64,
    /// Flow allocations committed per second of sharded wall-clock:
    /// every pass re-admits the entire in-flight window (TAPS
    /// re-allocates all live flows on each arrival batch), so the rate
    /// is `window flows / pass latency`, averaged over rounds.
    admissions_per_sec: f64,
    /// In-flight window size (flows) once the sliding window is full.
    window_flows: usize,
    rounds: usize,
    /// FNV-1a over every measured round's sharded schedule (flow ids,
    /// path links, slices, completion slots, verdicts). A pure function
    /// of the seeded workload — two runs of the same configuration must
    /// produce the same value on any machine and any core count, which
    /// is exactly what the bench-smoke shard-determinism gate checks.
    schedule_fingerprint: u64,
}

/// Paper-scale regime (fat-tree k=32, 8 192 hosts): pod-local Poisson
/// bursts admitted batch-at-a-time, sharded per pod. Three strategies
/// replay the identical stream — per-task sequential admission (the
/// canonical Alg. 1 loop: one re-allocation per arriving task), one
/// monolithic batched delta pass per burst, and one sharded pass per
/// burst — and the final schedules are asserted bit-identical before
/// any number is reported. The naive reference is deliberately absent
/// here — a full per-arrival path enumeration over 8 192 hosts is
/// exactly the bottleneck the k≤24 rows above already quantify.
fn replay_sharded(topo: &Topology, cfg: &ShardedConfig) -> ShardedRun {
    const WARMUP: usize = 2;
    let per_pod = topo.num_hosts() / cfg.pods;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut sharded = ShardedAllocator::new(topo, 1e-4, cfg.max_paths);
    // Pod-scoped warm-up all around: every allocator pre-enumerates
    // exactly the intra-pod ToR pairs the pod-local workload can touch,
    // so no strategy pays enumeration inside the timed region and the
    // comparison is cache-fair. (An all-pairs warm at k=32 would
    // enumerate 512×511 ToR pairs and dominate the run for nothing —
    // cross-pod pairs never occur here.)
    sharded.warm(topo);
    let pods = taps_topology::pods::PodMap::new(topo);
    let mut unsharded = SlotAllocator::new(topo, 1e-4, cfg.max_paths);
    let mut cache = DeltaCache::new();
    let mut seq_alloc = SlotAllocator::new(topo, 1e-4, cfg.max_paths);
    let mut seq_cache = DeltaCache::new();
    for p in 0..pods.num_pods() {
        let p = u32::try_from(p).expect("pod count fits u32");
        unsharded.engine_mut().warm_paths_pod(topo, &pods, p);
        seq_alloc.engine_mut().warm_paths_pod(topo, &pods, p);
    }
    let mut active: VecDeque<Vec<FlowDemand>> = VecDeque::new();
    let mut flat: Vec<FlowDemand> = Vec::new();
    let mut next_id = 0usize;
    let mut start_slot = 0u64;
    let mut sequential_us = Vec::with_capacity(cfg.rounds);
    let mut batched_us = Vec::with_capacity(cfg.rounds);
    let mut sharded_us = Vec::with_capacity(cfg.rounds);
    let mut admissions_per_sec = Vec::with_capacity(cfg.rounds);
    let mut window_flows = 0usize;
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    for round in 0..WARMUP + cfg.rounds {
        // One Poisson burst: `batch` tasks of pod-local flows arriving
        // inside the same admission window.
        let burst: Vec<FlowDemand> = (0..cfg.batch * cfg.flows_per_task)
            .map(|_| {
                let pod = rng.gen_range(0..cfg.pods);
                let src = rng.gen_range(0..per_pod);
                let mut dst = rng.gen_range(0..per_pod);
                if dst == src {
                    dst = (dst + 1) % per_pod;
                }
                let id = next_id;
                next_id += 1;
                FlowDemand {
                    id,
                    src: pod * per_pod + src,
                    dst: pod * per_pod + dst,
                    remaining: rng.gen_range(50_000..500_000) as f64,
                    deadline: (start_slot + rng.gen_range(200u64..1_000)) as f64 * 1e-4,
                }
            })
            .collect();
        active.push_back(burst.clone());
        while active.len() > cfg.window_batches {
            active.pop_front();
        }
        // Sequential baseline: admit the burst one task at a time, each
        // arrival re-allocating incumbents + the prefix admitted so far
        // (the per-task Alg. 1 loop batching replaces).
        flat.clear();
        flat.extend(active.iter().take(active.len() - 1).flatten().cloned());
        let t0 = Instant::now();
        let mut seq_last = Vec::new();
        for task_flows in burst.chunks(cfg.flows_per_task) {
            flat.extend_from_slice(task_flows);
            seq_last = seq_alloc
                .allocate_batch_delta(&flat, start_slot, &mut seq_cache)
                // lint: panic-ok(bench harness: generated pod-local pairs are connected)
                .expect("pod-local pairs are connected");
        }
        let t_sequential = t0.elapsed();
        // `flat` now holds the full window; the batched passes see the
        // exact demand set the sequential loop ended on.
        let t1 = Instant::now();
        let want = unsharded
            .allocate_batch_delta(&flat, start_slot, &mut cache)
            // lint: panic-ok(bench harness: generated pod-local pairs are connected)
            .expect("pod-local pairs are connected");
        let t_batched = t1.elapsed();
        let t2 = Instant::now();
        let got = sharded
            .allocate_batch_sharded(topo, &flat, start_slot)
            // lint: panic-ok(bench harness: generated pod-local pairs are connected)
            .expect("pod-local pairs are connected");
        let t_sharded = t2.elapsed();
        // Bit-identity gates before any timing is trusted: batched ==
        // sequential's final pass (batching exactness) and sharded ==
        // batched (shard determinism).
        assert_eq!(
            want.len(),
            seq_last.len(),
            "round {round}: seq batch length"
        );
        assert_eq!(want.len(), got.len(), "round {round}: sharded batch length");
        for ((w, s), g) in want.iter().zip(&seq_last).zip(&got) {
            assert!(
                w.id == s.id && w.path == s.path && w.slices == s.slices && w.on_time == s.on_time,
                "round {round}: batched schedule diverged from sequential at flow {}",
                w.id
            );
            assert!(
                w.id == g.id && w.path == g.path && w.slices == g.slices && w.on_time == g.on_time,
                "round {round}: sharded schedule diverged at flow {}",
                w.id
            );
        }
        if round >= WARMUP {
            sequential_us.push(t_sequential.as_secs_f64() * 1e6);
            batched_us.push(t_batched.as_secs_f64() * 1e6);
            sharded_us.push(t_sharded.as_secs_f64() * 1e6);
            admissions_per_sec.push(flat.len() as f64 / t_sharded.as_secs_f64());
            window_flows = window_flows.max(flat.len());
            for a in &got {
                fnv_word(&mut fingerprint, a.id as u64); // lint: cast-ok(flow ids are small indices)
                for l in &a.path.links {
                    fnv_word(&mut fingerprint, u64::from(l.0));
                }
                for iv in a.slices.intervals() {
                    fnv_word(&mut fingerprint, iv.start);
                    fnv_word(&mut fingerprint, iv.end);
                }
                fnv_word(&mut fingerprint, a.completion_slot);
                fnv_word(&mut fingerprint, u64::from(a.on_time));
            }
        }
        std::hint::black_box((want, got, seq_last));
        start_slot += rng.gen_range(4u64..12);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let sequential_mean_us = mean(&sequential_us);
    let batched_mean_us = mean(&batched_us);
    let sharded_mean_us = mean(&sharded_us);
    sharded_us.sort_by(f64::total_cmp);
    ShardedRun {
        sequential_mean_us,
        batched_mean_us,
        sharded_mean_us,
        sharded_p50_us: percentile(&sharded_us, 0.50),
        speedup_batched_vs_sequential: sequential_mean_us / batched_mean_us,
        speedup_sharded_vs_sequential: sequential_mean_us / sharded_mean_us,
        speedup_sharded_vs_batched: batched_mean_us / sharded_mean_us,
        admissions_per_sec: mean(&admissions_per_sec),
        window_flows,
        rounds: cfg.rounds,
        schedule_fingerprint: fingerprint,
    }
}

struct ShardedConfig {
    pods: usize,
    batch: usize,
    flows_per_task: usize,
    window_batches: usize,
    rounds: usize,
    max_paths: usize,
    seed: u64,
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
        // lint: panic-ok(bench harness: RunMode::Delta always records stats)
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
    // Paper-scale sharded regime: fat-tree k=32 (8 192 hosts) with
    // pod-local Poisson bursts admitted batch-at-a-time. `--sharded-k 0`
    // disables the section (it builds a 9 472-node topology).
    let sharded_k = args.get_usize("sharded-k", 32);
    let sharded_row = if sharded_k > 0 {
        let scfg = ShardedConfig {
            pods: sharded_k,
            batch: args.get_usize("sharded-batch", 64),
            flows_per_task: cfg.flows_per_task,
            window_batches: args.get_usize("sharded-window", 4),
            rounds: args.get_usize("sharded-rounds", 10),
            max_paths: cfg.max_paths,
            seed: cfg.seed,
        };
        let topo = fat_tree(sharded_k, GBPS);
        let run = replay_sharded(&topo, &scfg);
        println!(
            "  fat_tree({sharded_k:>2}) sharded: sequential {:>9.1}us | batched {:>8.1}us \
             ({:>4.1}x) | sharded {:>8.1}us ({:>4.1}x vs seq) | {:.0} admissions/s over {} rounds",
            run.sequential_mean_us,
            run.batched_mean_us,
            run.speedup_batched_vs_sequential,
            run.sharded_mean_us,
            run.speedup_sharded_vs_sequential,
            run.admissions_per_sec,
            run.rounds
        );
        Some(serde_json::Value::Object(vec![
            ("k".into(), serde_json::Value::UInt(sharded_k as u64)),
            (
                "hosts".into(),
                serde_json::Value::UInt(topo.num_hosts() as u64),
            ),
            (
                "batch_tasks".into(),
                serde_json::Value::UInt(scfg.batch as u64),
            ),
            (
                "window_batches".into(),
                serde_json::Value::UInt(scfg.window_batches as u64),
            ),
            (
                "window_flows".into(),
                serde_json::Value::UInt(run.window_flows as u64),
            ),
            ("rounds".into(), serde_json::Value::UInt(scfg.rounds as u64)),
            (
                "sequential_mean_us".into(),
                serde_json::Value::Float(run.sequential_mean_us),
            ),
            (
                "batched_mean_us".into(),
                serde_json::Value::Float(run.batched_mean_us),
            ),
            (
                "sharded_mean_us".into(),
                serde_json::Value::Float(run.sharded_mean_us),
            ),
            (
                "sharded_p50_us".into(),
                serde_json::Value::Float(run.sharded_p50_us),
            ),
            (
                "speedup_batched_vs_sequential".into(),
                serde_json::Value::Float(run.speedup_batched_vs_sequential),
            ),
            (
                "speedup_sharded_vs_sequential".into(),
                serde_json::Value::Float(run.speedup_sharded_vs_sequential),
            ),
            (
                "speedup_sharded_vs_batched".into(),
                serde_json::Value::Float(run.speedup_sharded_vs_batched),
            ),
            (
                "admissions_per_sec_batched".into(),
                serde_json::Value::Float(run.admissions_per_sec),
            ),
            (
                "schedule_fingerprint".into(),
                serde_json::Value::UInt(run.schedule_fingerprint),
            ),
            ("schedules_identical".into(), serde_json::Value::Bool(true)),
        ]))
    } else {
        None
    };
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
    if let (serde_json::Value::Object(members), Some(row)) = (&mut doc, sharded_row) {
        members.push(("sharded".into(), row));
    }
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
