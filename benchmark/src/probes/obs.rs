//! Layer `obs` — the cost of an attached trace sink. `taps-serviced`
//! always attaches a `RingRecorder`; the in-process entry points attach
//! none. The rung-R2 replay is run once more with one attached.

use std::sync::Arc;

use taps_obs::RingRecorder;
use taps_sdn::ControllerConfig;
use taps_topology::Topology;

use super::sdn::{self, CallSeq, Replay};
use super::Metrics;
use crate::inputs::RoundInput;
use crate::trace::Tracer;

/// Replays `seq` with a `RingRecorder` attached. Returns the metrics
/// and the replay (its verdicts must match the sink-less one).
pub fn probe(
    topo: &Topology,
    input: &RoundInput,
    seq: &CallSeq,
    plain: &Replay,
) -> (Metrics, Replay) {
    let ring = Arc::new(RingRecorder::new());
    // This replay's spans are not part of the ladder trace.
    let mut scratch = Tracer::new();
    let with_sink = sdn::replay(
        topo,
        ControllerConfig::default(),
        Some(ring.clone()),
        input,
        seq,
        &mut scratch,
        &|_| None,
    );
    let decisions = plain.verdicts.len().max(1) as f64;
    let base = plain.admit_p50_us();
    let metrics = vec![
        (
            "obs.events_per_decision",
            (ring.len() as u64 + ring.dropped()) as f64 / decisions,
        ),
        (
            "obs.sink_overhead_ratio",
            if base == 0.0 {
                0.0
            } else {
                with_sink.admit_p50_us() / base
            },
        ),
        ("obs.ring_dropped", ring.dropped() as f64),
    ];
    (metrics, with_sink)
}
