//! Sharded (per-pod) admission at paper scale.
//!
//! The paper evaluates TAPS on a 32-pod fat-tree (8 192 hosts); a single
//! monolithic allocation pass over every in-flight flow is the
//! bottleneck there. This module splits the work along the topology's
//! pod structure ([`taps_topology::pods::PodMap`]):
//!
//! * **Pod-local flows** (both endpoints in one pod) can only ever use
//!   links inside that pod — valley-free candidate paths between two
//!   hosts of the same pod never climb to the core. Flows of different
//!   pods therefore touch disjoint link sets and *commute*: allocating
//!   them per pod, in each pod's own [`AllocEngine`]/[`DeltaCache`]
//!   pair, yields slices, completion slots **and work counters**
//!   bit-identical to the monolithic pass (each flow's first-fit result
//!   depends only on its same-pod predecessors; counter sums commute).
//!   Shards run in parallel — one OS thread per non-empty pod — and the
//!   merge happens in pod order, so results are independent of thread
//!   scheduling.
//! * **Cross-pod flows** (core links plus both pods' agg timelines) are
//!   serialized by a core-layer *coordinator*: after the shards commit,
//!   the coordinator replays every pod-local allocation into its own
//!   occupancy (stable pod-major order) and then runs the ordinary
//!   Alg. 2/3 search for each cross-pod flow in priority order. The
//!   coordinator deliberately ranks cross-pod flows after pod-local
//!   ones — pods stay autonomous, the core serializes only what it must
//!   — so mixed workloads are *deterministic and exclusive* but not
//!   bit-identical to the monolithic order (pure pod-local workloads
//!   are; the proptests in `tests/shard_equivalence.rs` pin both).
//!
//! Arrival batching composes naturally: a whole Poisson burst lands in
//! one `allocate_batch_sharded` call and each pod pays one delta pass.

use crate::alloc::{AllocCounters, AllocEngine, AllocError, FlowAlloc, FlowDemand};
use crate::delta::{DeltaCache, DeltaStats};
use taps_topology::pods::PodMap;
use taps_topology::Topology;

/// One per-pod shard: its own engine (occupancy + path cache scoped to
/// the pod's traffic) and cross-batch delta cache.
struct Shard {
    engine: AllocEngine,
    delta: DeltaCache,
}

/// A deterministic sharded allocator over one topology. See the module
/// docs for the ownership and determinism argument.
pub struct ShardedAllocator {
    pods: PodMap,
    shards: Vec<Shard>,
    /// Core-layer coordinator: owns the cross-pod search and the merged
    /// occupancy image used for commit-time occupancy validation.
    coordinator: AllocEngine,
    topo_name: String,
    /// Scratch: per-pod demand partitions and their original positions.
    part_demands: Vec<Vec<FlowDemand>>,
    part_slots: Vec<Vec<usize>>,
    /// Run shards on the caller's thread: single-core machines gain
    /// nothing from spawning (results are bit-identical either way —
    /// the merge is in pod order regardless of execution order).
    inline_only: bool,
}

impl ShardedAllocator {
    /// Builds one shard per pod of `topo` plus the coordinator.
    pub fn new(topo: &Topology, slot: f64, max_paths: usize) -> Self {
        let pods = PodMap::new(topo);
        let shards = (0..pods.num_pods())
            .map(|_| {
                let mut engine = AllocEngine::new(slot, max_paths);
                engine.ensure_topology(topo);
                Shard {
                    engine,
                    delta: DeltaCache::new(),
                }
            })
            .collect();
        let mut coordinator = AllocEngine::new(slot, max_paths);
        coordinator.ensure_topology(topo);
        ShardedAllocator {
            part_demands: vec![Vec::new(); pods.num_pods()],
            part_slots: vec![Vec::new(); pods.num_pods()],
            pods,
            shards,
            coordinator,
            topo_name: topo.name.clone(),
            inline_only: std::thread::available_parallelism().map_or(1, |n| n.get()) <= 1,
        }
    }

    /// The pod partition the shards were built over.
    #[inline]
    pub fn pods(&self) -> &PodMap {
        &self.pods
    }

    /// Number of shards (= pods).
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Warms every shard's path cache with its own pod's ToR pairs, in
    /// parallel (bring-up work; results are bit-identical either way).
    /// The coordinator's cross-pod pairs stay lazy — they are the
    /// dominant cost at k=32 and only materialize if cross-pod traffic
    /// actually arrives.
    pub fn warm(&mut self, topo: &Topology) {
        let pods = &self.pods;
        std::thread::scope(|s| {
            for (pod, shard) in self.shards.iter_mut().enumerate() {
                // lint: panic-ok(pod count fits u32 by PodMap construction)
                let pod = u32::try_from(pod).expect("pod count fits u32");
                s.spawn(move || shard.engine.warm_paths_pod(topo, pods, pod));
            }
        });
    }

    /// Absorbs a fault-epoch change into every shard's delta cache (see
    /// [`AllocEngine::absorb_fault_epoch`]): recovery after a link fault
    /// re-searches only the flows the fault touched, per pod.
    pub fn absorb_fault_epoch(&mut self, topo: &Topology) {
        for shard in &mut self.shards {
            shard.engine.absorb_fault_epoch(topo, &mut shard.delta);
        }
    }

    /// Drains and sums the work counters of every shard plus the
    /// coordinator. For a pure pod-local batch the sum is bit-identical
    /// to the monolithic pass's counters (per-flow work is identical and
    /// `u64` addition commutes; summation runs in pod order regardless).
    pub fn take_counters(&mut self) -> AllocCounters {
        let mut total = self.coordinator.take_counters();
        for shard in &mut self.shards {
            let c = shard.engine.take_counters();
            total.paths_tried += c.paths_tried;
            total.slots_scanned += c.slots_scanned;
        }
        total
    }

    /// Sums the delta-cache statistics across shards.
    pub fn delta_stats(&self) -> DeltaStats {
        let mut out = DeltaStats::default();
        for shard in &self.shards {
            let s = shard.delta.stats();
            out.delta_batches += s.delta_batches;
            out.full_fallbacks += s.full_fallbacks;
            out.reused_flows += s.reused_flows;
            out.moved_flows += s.moved_flows;
            out.retimed_flows += s.retimed_flows;
            out.searched_flows += s.searched_flows;
            out.probed_candidates += s.probed_candidates;
            out.threshold_degrades += s.threshold_degrades;
            out.absorbed_epochs += s.absorbed_epochs;
            out.absorbed_dropped += s.absorbed_dropped;
        }
        out
    }

    /// Allocates one priority-ordered batch: pod-local flows in parallel
    /// per shard (delta reuse across batches), cross-pod flows serially
    /// at the coordinator, results merged back into demand order. On a
    /// disconnection the error reported is the one the monolithic pass
    /// would hit first (smallest demand position) — deterministic and,
    /// for pod-local workloads, identical to the unsharded engine.
    pub fn allocate_batch_sharded(
        &mut self,
        topo: &Topology,
        demands: &[FlowDemand],
        start_slot: u64,
    ) -> Result<Vec<FlowAlloc>, AllocError> {
        assert_eq!(
            self.topo_name, topo.name,
            "sharded allocator bound to a different topology"
        );
        // Partition, preserving relative (priority) order per pod.
        for (d, s) in self.part_demands.iter_mut().zip(&mut self.part_slots) {
            d.clear();
            s.clear();
        }
        let mut cross: Vec<FlowDemand> = Vec::new();
        let mut cross_slots: Vec<usize> = Vec::new();
        for (i, d) in demands.iter().enumerate() {
            if self.pods.is_pod_local(d.src, d.dst) {
                // lint: cast-ok(pod ids are u32 by construction; widening to usize is lossless)
                let pod = self.pods.host_pod(d.src) as usize;
                self.part_demands[pod].push(d.clone());
                self.part_slots[pod].push(i);
            } else {
                cross.push(d.clone());
                cross_slots.push(i);
            }
        }

        // Pod-local shards in parallel (deterministic: disjoint link
        // sets, merge in pod order). A single busy shard runs inline.
        let busy = self.part_demands.iter().filter(|p| !p.is_empty()).count();
        let mut results: Vec<Option<Result<Vec<FlowAlloc>, AllocError>>> =
            (0..self.shards.len()).map(|_| None).collect();
        if busy <= 1 || self.inline_only {
            for (pod, shard) in self.shards.iter_mut().enumerate() {
                if !self.part_demands[pod].is_empty() {
                    results[pod] = Some(shard.engine.allocate_batch_delta(
                        topo,
                        &self.part_demands[pod],
                        start_slot,
                        &mut shard.delta,
                    ));
                }
            }
        } else {
            let parts = &self.part_demands;
            std::thread::scope(|s| {
                let mut handles = Vec::with_capacity(busy);
                for (pod, shard) in self.shards.iter_mut().enumerate() {
                    if parts[pod].is_empty() {
                        continue;
                    }
                    let part = &parts[pod];
                    handles.push((
                        pod,
                        s.spawn(move || {
                            shard.engine.allocate_batch_delta(
                                topo,
                                part,
                                start_slot,
                                &mut shard.delta,
                            )
                        }),
                    ));
                }
                for (pod, h) in handles {
                    match h.join() {
                        Ok(r) => results[pod] = Some(r),
                        Err(e) => std::panic::resume_unwind(e),
                    }
                }
            });
        }

        // Deterministic error selection: the earliest demand position
        // whose shard reported a disconnection (what the monolithic,
        // in-order pass would have hit first for pod-local workloads).
        let mut first_err: Option<(usize, AllocError)> = None;
        for (pod, r) in results.iter().enumerate() {
            if let Some(Err(e)) = r {
                let AllocError::Disconnected { flow } = *e;
                let pos = self.part_demands[pod]
                    .iter()
                    .position(|d| d.id == flow)
                    .map(|j| self.part_slots[pod][j])
                    .unwrap_or(usize::MAX);
                if first_err.as_ref().is_none_or(|(p, _)| pos < *p) {
                    first_err = Some((pos, e.clone()));
                }
            }
        }
        if let Some((_, e)) = first_err {
            return Err(e);
        }

        let mut merged: Vec<Option<FlowAlloc>> = (0..demands.len()).map(|_| None).collect();
        for (pod, r) in results.into_iter().enumerate() {
            if let Some(Ok(allocs)) = r {
                for (j, al) in allocs.into_iter().enumerate() {
                    merged[self.part_slots[pod][j]] = Some(al);
                }
            }
        }

        // Cross-pod flows: serialize at the coordinator against the full
        // merged occupancy. The replay is skipped when there is nothing
        // cross-pod to place (the common case for pod-local workloads) —
        // shard occupancies already hold the truth.
        if !cross.is_empty() {
            self.coordinator.reset();
            for al in merged.iter().flatten() {
                self.coordinator.commit_slices(&al.path.links, &al.slices);
            }
            for (d, &pos) in cross.iter().zip(&cross_slots) {
                let (_, _, al) = self
                    .coordinator
                    .search_and_commit(topo, d, start_slot, None, None)?;
                merged[pos] = Some(al);
            }
        }

        let out: Vec<FlowAlloc> = merged
            .into_iter()
            // lint: panic-ok(invariant: every demand position was filled by its shard or the coordinator above)
            .map(|al| al.expect("merged batch is complete"))
            .collect();

        // Debug/validate cross-check: the merged schedule must satisfy
        // the invariants (link exclusivity across shard boundaries is
        // the point of the coordinator), and for pure pod-local batches
        // it must be bit-identical to the monolithic pass.
        #[cfg(feature = "validate")]
        if cfg!(debug_assertions) {
            let report = crate::validate::check_schedule(
                topo,
                self.coordinator.slot_duration(),
                demands,
                &out,
                "sharded batch: schedule",
            );
            assert!(report.is_clean(), "{report}");
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::SlotAllocator;
    use taps_topology::build::{fat_tree, GBPS};

    fn demand(id: usize, src: usize, dst: usize, remaining: f64, deadline: f64) -> FlowDemand {
        FlowDemand {
            id,
            src,
            dst,
            remaining,
            deadline,
        }
    }

    /// Pod-local demand mix: src and dst always share a pod.
    fn pod_local_mix(n: usize, k: usize, salt: usize) -> Vec<FlowDemand> {
        let per_pod = k * k / 4;
        let pods = k;
        (0..n)
            .map(|i| {
                let pod = (i * 7 + salt) % pods;
                let src = (i * 13 + salt * 3) % per_pod;
                let mut dst = (i * 5 + salt * 11 + 1) % per_pod;
                if dst == src {
                    dst = (dst + 1) % per_pod;
                }
                demand(
                    i,
                    pod * per_pod + src,
                    pod * per_pod + dst,
                    ((i % 5) + 1) as f64 * 90_000.0,
                    0.004 + i as f64 * 1e-4,
                )
            })
            .collect()
    }

    #[test]
    fn pod_local_batches_match_unsharded_bit_for_bit() {
        let topo = fat_tree(4, GBPS);
        let mut sharded = ShardedAllocator::new(&topo, 0.0001, 16);
        let mut unsharded = SlotAllocator::new(&topo, 0.0001, 16);
        let mut cache = DeltaCache::new();
        for step in 0..4u64 {
            let demands = pod_local_mix(14 + step as usize, 4, 1);
            let want = unsharded
                .allocate_batch_delta(&demands, step * 3, &mut cache)
                .unwrap();
            let got = sharded
                .allocate_batch_sharded(&topo, &demands, step * 3)
                .unwrap();
            assert_eq!(want.len(), got.len());
            for (w, g) in want.iter().zip(&got) {
                assert_eq!(w.id, g.id);
                assert_eq!(w.path, g.path, "flow {}", w.id);
                assert_eq!(w.slices, g.slices, "flow {}", w.id);
                assert_eq!(w.completion_slot, g.completion_slot, "flow {}", w.id);
                assert_eq!(w.on_time, g.on_time, "flow {}", w.id);
            }
            // Work counters are bit-identical too (summed in pod order).
            assert_eq!(
                unsharded.engine_mut().take_counters(),
                sharded.take_counters(),
                "step {step}"
            );
        }
        assert!(sharded.delta_stats().reused_flows > 0, "delta reuse active");
    }

    #[test]
    fn cross_pod_flows_serialize_exclusively() {
        let topo = fat_tree(4, GBPS);
        let mut sharded = ShardedAllocator::new(&topo, 0.0001, 16);
        // Half pod-local, half cross-pod, interleaved.
        let mut demands = pod_local_mix(8, 4, 2);
        for i in 0..6 {
            demands.push(demand(
                100 + i,
                i % 16,
                (i * 3 + 7) % 16,
                120_000.0,
                0.006 + i as f64 * 1e-4,
            ));
        }
        demands.retain(|d| d.src != d.dst);
        let out = sharded.allocate_batch_sharded(&topo, &demands, 0).unwrap();
        assert_eq!(out.len(), demands.len());
        // The merged schedule holds link exclusivity and conservation
        // (also re-proved by the in-module debug validate block).
        let report =
            crate::validate::check_schedule(&topo, 0.0001, &demands, &out, "cross-pod test");
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn warm_is_pure_memoization() {
        let topo = fat_tree(4, GBPS);
        let demands = pod_local_mix(10, 4, 3);
        let mut cold = ShardedAllocator::new(&topo, 0.0001, 16);
        let mut warm = ShardedAllocator::new(&topo, 0.0001, 16);
        warm.warm(&topo);
        let a = cold.allocate_batch_sharded(&topo, &demands, 0).unwrap();
        let b = warm.allocate_batch_sharded(&topo, &demands, 0).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.path, y.path);
            assert_eq!(x.slices, y.slices);
        }
    }

    #[test]
    fn disconnection_reports_the_earliest_position() {
        let topo = fat_tree(4, GBPS);
        let mut sharded = ShardedAllocator::new(&topo, 0.0001, 16);
        let demands = pod_local_mix(10, 4, 4);
        let first = sharded.allocate_batch_sharded(&topo, &demands, 0).unwrap();
        // Kill the access link of the earliest flow in the batch.
        let access = first[0].path.links[0];
        topo.fail_link(access);
        sharded.absorb_fault_epoch(&topo);
        let err = sharded
            .allocate_batch_sharded(&topo, &demands, 2)
            .unwrap_err();
        assert_eq!(
            err,
            AllocError::Disconnected {
                flow: demands[0].id
            }
        );
        topo.reset_faults();
    }
}
