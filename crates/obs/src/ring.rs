//! Bounded trace recorder.
//!
//! [`RingRecorder`] is a fixed-capacity `Vec` of typed records behind a
//! `Mutex`. The system is single-threaded by construction (one
//! controller decides one arrival at a time), so the lock is never
//! contended on a request path; it exists because `crates/bench` runs
//! independent schedulers on scoped worker threads and every caller
//! holds the recorder as an `Arc<dyn TraceSink>`. The buffer is
//! reserved up front, so emission never allocates. When it is full, new
//! events are **dropped** (drop-newest) and counted, never silently
//! lost: the golden-trace suite and `cargo xtask trace` assert
//! `dropped() == 0`, so capacity problems surface as test failures
//! instead of truncated artifacts.

use crate::event::{TraceEvent, TraceRecord};
use crate::TraceSink;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Default capacity (events) of a recorder.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

struct Inner {
    /// Recorded events in emission order; `seq` is the index.
    events: Vec<TraceRecord>,
    dropped: u64,
}

/// Fixed-capacity, drop-newest trace recorder (see module docs).
pub struct RingRecorder {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl RingRecorder {
    /// Creates a recorder holding up to `capacity` events.
    pub fn with_capacity(capacity: usize) -> RingRecorder {
        let capacity = capacity.max(1);
        RingRecorder {
            inner: Mutex::new(Inner {
                events: Vec::with_capacity(capacity),
                dropped: 0,
            }),
            capacity,
        }
    }

    /// Creates a recorder with [`DEFAULT_CAPACITY`].
    pub fn new() -> RingRecorder {
        RingRecorder::with_capacity(DEFAULT_CAPACITY)
    }

    /// The state is two plain values that every critical section leaves
    /// consistent, so a lock poisoned by a panicking emitter is still
    /// good to use.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of events recorded (excluding dropped ones).
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Drains all recorded events in sequence order and resets the
    /// recorder (sequence numbers and the dropped counter) for reuse.
    pub fn drain(&self) -> Vec<TraceRecord> {
        self.take().0
    }

    /// The recorded events and the drop count, taken and reset in one
    /// critical section so an emitter racing a drain is counted once.
    fn take(&self) -> (Vec<TraceRecord>, u64) {
        let mut inner = self.lock();
        let dropped = std::mem::take(&mut inner.dropped);
        (inner.events.drain(..).collect(), dropped)
    }
}

impl Default for RingRecorder {
    fn default() -> RingRecorder {
        RingRecorder::new()
    }
}

impl TraceSink for RingRecorder {
    fn emit(&self, t: f64, ev: &TraceEvent) {
        let mut inner = self.lock();
        if inner.events.len() >= self.capacity {
            inner.dropped += 1;
            return;
        }
        let seq = inner.events.len() as u64;
        inner.events.push(TraceRecord {
            seq,
            t,
            ev: ev.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_in_sequence_order() {
        let ring = RingRecorder::with_capacity(16);
        for i in 0..5u64 {
            ring.emit(i as f64 * 0.5, &TraceEvent::Admit { task: i });
        }
        assert_eq!(ring.len(), 5);
        let recs = ring.drain();
        assert_eq!(recs.len(), 5);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert_eq!(r.t, i as f64 * 0.5);
            assert_eq!(r.ev, TraceEvent::Admit { task: i as u64 });
        }
        assert!(ring.is_empty());
    }

    #[test]
    fn overflow_drops_newest_and_counts() {
        let ring = RingRecorder::with_capacity(3);
        for i in 0..5u64 {
            ring.emit(0.0, &TraceEvent::Admit { task: i });
        }
        assert_eq!(ring.dropped(), 2);
        let recs = ring.drain();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[2].ev, TraceEvent::Admit { task: 2 });
        // Drain resets both the buffer and the dropped counter.
        assert_eq!(ring.dropped(), 0);
        ring.emit(1.0, &TraceEvent::Admit { task: 9 });
        let recs = ring.drain();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].ev, TraceEvent::Admit { task: 9 });
    }

    #[test]
    fn concurrent_emission_loses_nothing() {
        let ring = Arc::new(RingRecorder::with_capacity(4096));
        std::thread::scope(|scope| {
            for thread in 0..4u64 {
                let ring = Arc::clone(&ring);
                scope.spawn(move || {
                    for i in 0..256u64 {
                        ring.emit(
                            0.0,
                            &TraceEvent::Admit {
                                task: thread * 1000 + i,
                            },
                        );
                    }
                });
            }
        });
        let recs = ring.drain();
        assert_eq!(recs.len(), 1024);
        assert_eq!(ring.dropped(), 0);
        // Sequence numbers are unique and dense.
        let mut seqs: Vec<u64> = recs.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..1024).collect::<Vec<u64>>());
    }

    #[test]
    fn overflow_race_counts_every_drop() {
        let ring = RingRecorder::with_capacity(100);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for thread in 0..4u64 {
                let (ring, start) = (&ring, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..256u64 {
                        ring.emit(
                            0.0,
                            &TraceEvent::Admit {
                                task: thread * 1000 + i,
                            },
                        );
                    }
                });
            }
        });
        assert_eq!(ring.len(), 100);
        assert_eq!(ring.dropped(), 924);
        let seqs: Vec<u64> = ring.drain().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn drain_while_emitting_accounts_for_every_event() {
        const EMITTED: u64 = 100_000;
        let ring = RingRecorder::with_capacity(64);
        let start = std::sync::Barrier::new(2);
        let (mut drained, mut dropped) = (0u64, 0u64);
        std::thread::scope(|scope| {
            let emitter = scope.spawn(|| {
                start.wait();
                for i in 0..EMITTED {
                    ring.emit(0.0, &TraceEvent::Admit { task: i });
                }
            });
            start.wait();
            while !emitter.is_finished() {
                let (recs, lost) = ring.take();
                // Within one drain, `seq` is dense from 0: no duplicates.
                for (i, r) in recs.iter().enumerate() {
                    assert_eq!(r.seq, i as u64);
                }
                drained += recs.len() as u64;
                dropped += lost;
            }
        });
        let (recs, lost) = ring.take();
        assert_eq!(drained + recs.len() as u64 + dropped + lost, EMITTED);
    }
}
