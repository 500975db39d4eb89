//! In-memory span recorder for the traced ladder run.
//!
//! Spans are recorded from the harness's own code, around the calls
//! into each layer, kept in memory and written out as JSONL when the
//! run ends. Spans of one decision share its task id; a span's
//! `parent` is the span that caused it — the enclosing call on the same
//! rung, or the span of the rung above that the replay reproduces.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `sdn.handle_probe`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Task id of the decision this span belongs to.
    pub decision: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span store with a monotonic origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The instant all span times are relative to.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        decision: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            decision,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        decision: u64,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (out, self.record(name, start, end, parent, decision))
    }

    /// Duration of a recorded span, ns.
    pub fn dur_ns(&self, id: SpanId) -> u64 {
        self.spans[id as usize].dur_ns()
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its own
/// interval that its child spans cover. Children may overlap each other
/// and may stick out of the parent; the covered part is the union of
/// the child intervals clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Writes spans as JSON lines: `{name, start, end, parent, decision_id}`
/// with times in nanoseconds and `parent` an index into the same file
/// (or null).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"decision_id\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.decision
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            start_ns: start,
            end_ns: end,
            parent,
            decision: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) > a [10,40) > a1 [20,30); root > b [50,70)
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(20, 30, Some(1)),
            span(50, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children [10,60) and [40,80) overlap on [40,60); a third one
        // [90,130) sticks out of the parent; a fourth lies outside.
        let spans = vec![
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(40, 80, Some(0)),
            span(90, 130, Some(0)),
            span(200, 300, Some(0)),
        ];
        // Covered: [10,80) ∪ [90,100) = 80.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn tracer_records_in_order() {
        let mut t = Tracer::new();
        let (v, root) = t.time("outer", None, 7, || 41 + 1);
        assert_eq!(v, 42);
        let child = t.record("inner", 1, 2, Some(root), 7);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[child as usize].parent, Some(root));
        assert!(t.spans()[0].end_ns >= t.spans()[0].start_ns);
    }
}
