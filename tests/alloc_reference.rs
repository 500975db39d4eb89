//! Tier-1 guard on the single Alg. 2/3 engine: over one seeded history of
//! arrivals, departures, transmission progress and an absorbed link
//! fault, the engine's delta pass, its full pass and the paper-naive
//! reference (`taps_core::oracle::naive_batch`) must produce the same
//! schedule for every batch — once with a budget that holds every
//! inter-pod path of the fabric, once with a budget that even sampling has
//! to cut them down to. A third test does the same one level up: the
//! arbiter's admit sequence and recovery re-pack (`taps_core::Arbiter`)
//! against Alg. 1 written out literally over the naive reference.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use taps_core::arbiter::{Arbiter, InFlight, Standing};
use taps_core::oracle::naive_batch;
use taps_core::validate::check_schedule;
use taps_core::{DeltaCache, FlowAlloc, FlowDemand, RejectDecision, RejectPolicy, SlotAllocator};
use taps_topology::build::{fat_tree, GBPS};
use taps_topology::Topology;

const SLOT: f64 = 1e-4;

fn assert_same(batch: usize, pass: &str, want: &[FlowAlloc], got: &[FlowAlloc]) {
    assert_eq!(want.len(), got.len(), "batch {batch}: {pass} length");
    for (w, g) in want.iter().zip(got) {
        assert!(
            (w.id, &w.path, &w.slices, w.completion_slot, w.on_time)
                == (g.id, &g.path, &g.slices, g.completion_slot, g.on_time),
            "batch {batch}: {pass} diverged from the naive reference at flow {}",
            w.id
        );
    }
}

/// `fat_tree(8)` has (k/2)² = 16 paths between pods: a budget of 16 never
/// samples.
#[test]
fn engine_matches_the_naive_reference_on_every_batch() {
    replay_history(16);
}

/// A budget of 4 keeps every fourth inter-pod path (intra-pod pairs have
/// exactly four): the engine's candidates are the path cache's sampled
/// middles, the reference's come from `PathFinder::paths`.
#[test]
fn engine_matches_the_naive_reference_under_even_sampling() {
    replay_history(4);
}

fn replay_history(max_paths: usize) {
    let topo = fat_tree(8, GBPS);
    let hosts = topo.num_hosts();
    let mut rng = StdRng::seed_from_u64(13);
    let mut full = SlotAllocator::new(&topo, SLOT, max_paths);
    let mut delta = SlotAllocator::new(&topo, SLOT, max_paths);
    let mut cache = DeltaCache::new();
    // In-flight flows in priority order (arrival order, so survivors keep
    // their relative rank and the delta gate stays open).
    let mut live: Vec<FlowDemand> = Vec::new();
    let mut want: Vec<FlowAlloc> = Vec::new();
    let mut start = 0u64;
    let mut next_id = 0usize;
    for batch in 0..12 {
        live.retain(|_| rng.gen_range(0..5) != 0);
        for d in live.iter_mut().filter(|d| d.id % 3 == 0) {
            d.remaining = (d.remaining - 40_000.0).max(1_000.0);
        }
        for _ in 0..10 {
            let src = rng.gen_range(0..hosts);
            live.push(FlowDemand {
                id: next_id,
                src,
                dst: (src + rng.gen_range(1..hosts)) % hosts,
                remaining: rng.gen_range(50_000..500_000) as f64,
                deadline: (start + rng.gen_range(40u64..400)) as f64 * SLOT,
            });
            next_id += 1;
        }
        if batch == 6 {
            // ToR -> aggregation hop of a multi-hop flow: the fat-tree
            // routes around it, so every pair stays connected.
            let dead = want.iter().find(|a| a.path.links.len() >= 4).unwrap();
            topo.fail_link(dead.path.links[1]);
            assert!(delta.engine_mut().absorb_fault_epoch(&topo, &mut cache));
        }
        want = naive_batch(&topo, SLOT, max_paths, &live, start).unwrap();
        full.reset();
        let got = full.allocate_batch(&live, start).unwrap();
        assert_same(batch, "allocate_batch", &want, &got);
        let got = delta
            .allocate_batch_delta(&live, start, &mut cache)
            .unwrap();
        assert_same(batch, "allocate_batch_delta", &want, &got);
        start += rng.gen_range(2u64..10);
    }
    let s = cache.stats();
    assert_eq!(s.full_fallbacks, 1, "only the cold first batch: {s:?}");
    assert_eq!(s.absorbed_epochs, 1, "{s:?}");
    assert!(s.reused_flows > 0 && s.searched_flows > 0, "{s:?}");
}

/// Deadlines that are exact products `k · SLOT` at the indices where
/// `floor(k · SLOT / SLOT)` is `k − 1` (49, 59, 81): a flow completing at
/// boundary `k` is on time, one completing at `k + 1` is late, and the
/// full pass, the delta pass, the naive reference and the validator all
/// agree on both.
#[test]
fn deadlines_on_mis_rounding_boundaries_agree_everywhere() {
    let topo = fat_tree(4, GBPS);
    let hosts = topo.num_hosts();
    let slots = |n: u64| n as f64 * GBPS * SLOT;
    let mut live = Vec::new();
    for (i, k) in [49u64, 59, 81].into_iter().enumerate() {
        assert_eq!((k as f64 * SLOT / SLOT).floor() as u64, k - 1);
        let deadline = k as f64 * SLOT;
        let (src, dst) = (2 * i, hosts - 1 - 2 * i);
        // Ends exactly on boundary k; then a one-slot flow behind it on
        // the same access link, one slot late.
        for (id, remaining) in [(10 * i, slots(k)), (10 * i + 1, slots(1))] {
            live.push(FlowDemand {
                id,
                src,
                dst,
                remaining,
                deadline,
            });
        }
        // A one-slot flow ahead of a (k − 1)-slot one: also ends on k.
        for (id, remaining) in [(10 * i + 2, slots(1)), (10 * i + 3, slots(k - 1))] {
            live.push(FlowDemand {
                id,
                src: src + 1,
                dst: dst - 1,
                remaining,
                deadline,
            });
        }
    }
    let mut full = SlotAllocator::new(&topo, SLOT, 4);
    let mut delta = SlotAllocator::new(&topo, SLOT, 4);
    let mut cache = DeltaCache::new();
    for batch in 0..2 {
        if batch == 1 {
            // A departure ahead of everything: the delta pass reuses the
            // rest instead of falling back.
            live.remove(0);
        }
        let want = naive_batch(&topo, SLOT, 4, &live, 0).unwrap();
        full.reset();
        assert_same(
            batch,
            "allocate_batch",
            &want,
            &full.allocate_batch(&live, 0).unwrap(),
        );
        let got = delta.allocate_batch_delta(&live, 0, &mut cache).unwrap();
        assert_same(batch, "allocate_batch_delta", &want, &got);
        let report = check_schedule(&topo, SLOT, &live, &want, "mis-rounding boundaries");
        assert!(report.is_clean(), "{report}");
        for (d, al) in live.iter().zip(&want) {
            let k = (d.deadline / SLOT).round() as u64;
            let expect = match d.id % 10 {
                // Flow 1's predecessor departs in batch 1.
                1 if d.id == batch => (1, true),
                1 => (k + 1, false),
                2 => (1, true),
                _ => (k, true),
            };
            assert_eq!((al.completion_slot, al.on_time), expect, "flow {}", d.id);
        }
    }
    assert_eq!(cache.stats().full_fallbacks, 1, "{:?}", cache.stats());
}

/// What Rule 3 needs to know about a task beyond the tentative pass.
#[derive(Clone, Copy)]
struct TaskFacts {
    weight: f64,
    flows: usize,
    completed: usize,
}

/// One pass by the book: sort F_tmp EDF → SJF → id, then the naive
/// Alg. 2/3 over it.
fn naive_pass(
    topo: &Topology,
    max_paths: usize,
    live: &mut [InFlight],
    start: u64,
) -> Vec<FlowAlloc> {
    live.sort_by(|a, b| {
        a.deadline
            .total_cmp(&b.deadline)
            .then(a.remaining.total_cmp(&b.remaining))
            .then(a.id.cmp(&b.id))
    });
    let demands: Vec<FlowDemand> = live
        .iter()
        .map(|e| FlowDemand {
            id: e.id,
            src: e.src,
            dst: e.dst,
            remaining: e.remaining.max(1.0),
            deadline: e.deadline,
        })
        .collect();
    naive_batch(topo, SLOT, max_paths, &demands, start).unwrap()
}

/// The distinct tasks owning a late flow of `allocs`, one pass over `live`.
fn late_tasks(allocs: &[FlowAlloc], live: &[InFlight]) -> Vec<usize> {
    let mut late: Vec<usize> = Vec::new();
    for (al, e) in allocs.iter().zip(live) {
        if !al.on_time && !late.contains(&e.task) {
            late.push(e.task);
        }
    }
    late
}

/// Alg. 1 by the book, sharing nothing with the arbiter: one naive pass
/// over F_tmp, the reject rule spelled out, a second naive pass without
/// whichever task lost. `live` is F_tmp with the newcomer's flows
/// already in it; the loser's flows are removed.
fn admit_by_the_book(
    topo: &Topology,
    max_paths: usize,
    live: &mut Vec<InFlight>,
    facts: &BTreeMap<usize, TaskFacts>,
    newcomer: usize,
    start: u64,
) -> (&'static str, RejectDecision, Vec<FlowAlloc>) {
    let tentative = naive_pass(topo, max_paths, live, start);
    let late = late_tasks(&tentative, live);
    // weight × (flows complete or on time under the tentative schedule)
    // / (all flows of the task).
    let value = |task: usize| {
        let on_time = tentative
            .iter()
            .zip(live.iter())
            .filter(|(al, e)| e.task == task && al.on_time)
            .count();
        let f = facts[&task];
        f.weight * ((f.completed + on_time) as f64 / f.flows as f64)
    };
    let (rule, decision) = if late.is_empty() {
        ("nobody late", RejectDecision::Accept)
    } else if late.len() > 1 {
        ("rule 1: more than one task harmed", RejectDecision::Reject)
    } else if late[0] == newcomer {
        ("rule 2: the newcomer is late", RejectDecision::Reject)
    } else if value(late[0]) >= value(newcomer) {
        (
            "rule 3: the victim is worth as much",
            RejectDecision::Reject,
        )
    } else {
        (
            "rule 3: the victim is worth less",
            RejectDecision::AcceptWithPreemption(late[0]),
        )
    };
    let loser = match decision {
        RejectDecision::Accept => return (rule, decision, tentative),
        RejectDecision::AcceptWithPreemption(victim) => victim,
        RejectDecision::Reject => newcomer,
    };
    live.retain(|e| e.task != loser);
    (rule, decision, naive_pass(topo, max_paths, live, start))
}

/// The arbiter's admit sequence and recovery re-pack, over the engine's
/// delta passes and an incrementally kept F_tmp, must take the same
/// decisions and land on the same schedules as Alg. 1 by the book over
/// the naive reference — through arrivals into a few hot receivers
/// (so all three decisions occur, Rule 3 with unequal weights included),
/// departures, transmission progress and a link fault.
#[test]
fn arbiter_admissions_match_alg1_by_the_book() {
    const MAX_PATHS: usize = 16;
    let topo = fat_tree(8, GBPS);
    let hosts = topo.num_hosts();
    let mut rng = StdRng::seed_from_u64(13);
    let mut arbiter = Arbiter::new(SLOT, MAX_PATHS, RejectPolicy::Paper);
    let mut live: Vec<InFlight> = Vec::new();
    let mut facts: BTreeMap<usize, TaskFacts> = BTreeMap::new();
    let mut committed: Vec<FlowAlloc> = Vec::new();
    let mut start = 0u64;
    let mut next_flow = 0usize;
    let mut reached: BTreeMap<&str, usize> = BTreeMap::new();
    for task in 0..60 {
        // Departures and progress, applied to both sides.
        for e in live.clone() {
            if rng.gen_range(0..6) == 0 {
                arbiter.ftmp.remove(&e);
                live.retain(|x| x.id != e.id);
                facts.get_mut(&e.task).unwrap().completed += 1;
            } else if e.id % 3 == 0 {
                let mut moved = e.clone();
                moved.remaining = (e.remaining - 40_000.0).max(1_000.0);
                arbiter.ftmp.rekey(&e, moved.clone());
                *live.iter_mut().find(|x| x.id == e.id).unwrap() = moved;
            }
        }
        if task == 30 {
            // A fabric cable under a committed flow goes down and the
            // controller takes 40 slots to hear of it: recovery re-pack
            // on both sides, doomed tasks dropped until the rest fits.
            let dead = committed
                .iter()
                .find(|a| a.path.links.len() >= 4)
                .unwrap()
                .path
                .links[1];
            topo.fail_link(dead);
            start += 40;
            let (got, dropped) = arbiter.repack(&topo, start);
            let want = loop {
                let allocs = naive_pass(&topo, MAX_PATHS, &mut live, start);
                let late = late_tasks(&allocs, &live);
                if late.is_empty() {
                    break allocs;
                }
                live.retain(|e| !late.contains(&e.task));
            };
            assert_same(task, "repack", &want, &got);
            *reached.entry("recovery: doomed tasks").or_default() += dropped.len();
        }
        // One arrival: a task of 2–8 flows into one of four receivers.
        let flows = rng.gen_range(2usize..9);
        let dst = rng.gen_range(0usize..4) * 31;
        let deadline = (start + rng.gen_range(30u64..200)) as f64 * SLOT;
        facts.insert(
            task,
            TaskFacts {
                weight: [0.5, 1.0, 1.0, 2.0, 4.0][rng.gen_range(0usize..5)],
                flows,
                completed: 0,
            },
        );
        for _ in 0..flows {
            let e = InFlight {
                id: next_flow,
                task,
                src: (dst + rng.gen_range(1..hosts)) % hosts,
                dst,
                remaining: rng.gen_range(50_000..400_000) as f64,
                deadline,
            };
            next_flow += 1;
            arbiter.ftmp.insert(e.clone());
            live.push(e);
        }
        let (rule, want_decision, want) =
            admit_by_the_book(&topo, MAX_PATHS, &mut live, &facts, task, start);
        let got = arbiter.admit(&topo, start as f64 * SLOT, start, task, |t| {
            // Every flow of a task that left F_tmp without its task
            // being dropped completed.
            let f = facts[&t];
            Standing {
                weight: f.weight,
                flows_total: f.completed,
                flows_made: f.completed,
            }
        });
        assert_eq!(got.decision, want_decision, "task {task}");
        assert_same(task, "admit", &want, &got.allocs);
        let in_flight: Vec<usize> = arbiter.ftmp.entries().iter().map(|e| e.id).collect();
        assert!(
            in_flight.iter().eq(live.iter().map(|e| &e.id)),
            "task {task}: F_tmp diverged"
        );
        if let RejectDecision::AcceptWithPreemption(victim) = got.decision {
            assert_eq!(got.dropped.len(), 1);
            assert_eq!(got.dropped[0].task, victim);
        }
        *reached.entry(rule).or_default() += 1;
        committed = got.allocs;
        start += rng.gen_range(2u64..10);
    }
    topo.reset_faults();
    // Five ways through the rule plus the recovery loop's drop.
    assert!(
        reached.len() == 6 && reached.values().all(|&n| n > 0),
        "the history must reach every rule: {reached:?}"
    );
}
