//! The typed trace event vocabulary and its JSONL codec.
//!
//! Every event has a fixed name and a fixed field list of `u64` / `f64`
//! / `bool` scalars. The recorder stores the typed value as is; the one
//! serialized representation is **JSONL** — one object per line with
//! the field names spelled out — used by the exporter and the
//! golden-trace corpus.
//!
//! It round-trips exactly: floats are rendered with Rust's shortest
//! round-trip formatting (see `compat/serde_json`), so
//! `from_json(to_json(r)) == r` bit-for-bit. That exactness is what
//! makes a trace a testable artifact: the replay validator re-derives
//! schedule invariants from the decoded stream alone.

use serde_json::Value;

/// One recorded event: monotonic sequence number, simulation time stamp,
/// and the typed payload.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Monotonic per-sink sequence number (emission order).
    pub seq: u64,
    /// Simulation time at emission, seconds.
    pub t: f64,
    /// The typed event payload.
    pub ev: TraceEvent,
}

/// Field scalar codec of the JSON encoding.
trait Scalar: Sized + Copy {
    fn to_json(self) -> Value;
    fn from_json(v: &Value) -> Option<Self>;
}

impl Scalar for u64 {
    fn to_json(self) -> Value {
        Value::UInt(self)
    }
    fn from_json(v: &Value) -> Option<u64> {
        v.as_u64()
    }
}

impl Scalar for f64 {
    fn to_json(self) -> Value {
        Value::Float(self)
    }
    fn from_json(v: &Value) -> Option<f64> {
        v.as_f64()
    }
}

impl Scalar for bool {
    fn to_json(self) -> Value {
        Value::Bool(self)
    }
    fn from_json(v: &Value) -> Option<bool> {
        v.as_bool()
    }
}

/// Defines [`TraceEvent`] plus its codec from one declaration, so the
/// enum and the JSONL field names cannot drift apart.
macro_rules! events {
    ($( $(#[$doc:meta])* $name:ident { $( $(#[$fdoc:meta])* $field:ident : $ty:ty ),* $(,)? } ),* $(,)?) => {
        /// A typed scheduling/control-plane event (see DESIGN.md §11 for
        /// the taxonomy and the determinism contract).
        #[derive(Clone, Debug, PartialEq)]
        pub enum TraceEvent {
            $( $(#[$doc])* $name { $( $(#[$fdoc])* $field: $ty ),* } ),*
        }

        /// Every event name, in declaration order.
        #[cfg(test)]
        const NAMES: &[&str] = &[ $( stringify!($name) ),* ];

        impl TraceEvent {
            /// Stable event name (JSONL `"ev"` field).
            pub fn name(&self) -> &'static str {
                match self {
                    $( TraceEvent::$name { .. } => stringify!($name) ),*
                }
            }

            /// Named fields in declaration order (JSONL encoding).
            pub fn fields(&self) -> Vec<(&'static str, Value)> {
                match self {
                    $( TraceEvent::$name { $( $field ),* } => {
                        vec![ $( (stringify!($field), Scalar::to_json(*$field)) ),* ]
                    } ),*
                }
            }

            /// Inverse of [`TraceEvent::fields`]: rebuilds the event from
            /// its JSONL object. `None` on unknown name or missing field.
            pub fn from_fields(name: &str, obj: &Value) -> Option<TraceEvent> {
                match name {
                    $( stringify!($name) => {
                        $( let $field = Scalar::from_json(obj.get(stringify!($field))?)?; )*
                        Some(TraceEvent::$name { $( $field ),* })
                    } ),*
                    _ => None,
                }
            }
        }
    };
}

events! {
    /// Run preamble: topology shape and the scheduler slot length.
    RunMeta {
        /// Number of hosts in the topology.
        hosts: u64,
        /// Number of directed links in the topology.
        links: u64,
        /// Scheduler slot length, seconds.
        slot: f64,
    },
    /// A task entered the system.
    TaskArrived {
        /// Task id.
        task: u64,
        /// Number of flows in the task.
        flows: u64,
        /// Task deadline, absolute seconds.
        deadline: f64,
    },
    /// Static description of one flow of an arrived task.
    FlowSpec {
        /// Flow id.
        flow: u64,
        /// Owning task id.
        task: u64,
        /// Source host.
        src: u64,
        /// Destination host.
        dst: u64,
        /// Flow size, bytes.
        bytes: f64,
        /// Flow deadline, absolute seconds.
        deadline: f64,
    },
    /// One admission attempt's allocator work (Alg. 1 tentative
    /// re-allocation). `slots_scanned` is the slot depth of the chosen
    /// schedule past the batch start — a deterministic proxy for scan
    /// effort that is identical across allocator modes.
    AllocAttempt {
        /// Task whose admission triggered the attempt.
        task: u64,
        /// Candidate paths evaluated across the batch.
        paths_tried: u64,
        /// Slot depth of the chosen allocations past the batch start.
        slots_scanned: u64,
    },
    /// The reject rule admitted the task (Alg. 3 verdict).
    Admit {
        /// Admitted task id.
        task: u64,
    },
    /// The reject rule rejected the task; see [`crate::reason`].
    Reject {
        /// Rejected task id.
        task: u64,
        /// Machine-readable reason code ([`crate::reason`]).
        reason: u64,
    },
    /// Admission preempted a lower-priority task (Alg. 2 order).
    Preempt {
        /// The admitted (preempting) task.
        task: u64,
        /// The preempted victim task.
        victim: u64,
    },
    /// A link changed state (fault injection or repair).
    LinkFault {
        /// Link id.
        link: u64,
        /// `true` when the link came back up, `false` when it failed.
        up: bool,
    },
    /// A reliable control message entered the channel.
    ControlSend {
        /// Reliable-sender message id.
        msg: u64,
        /// Copies produced by the lossy channel (duplication).
        copies: u64,
    },
    /// A reliable control message was acknowledged.
    ControlAck {
        /// Reliable-sender message id.
        msg: u64,
    },
    /// A reliable control message timed out and was re-sent.
    ControlRetry {
        /// Reliable-sender message id.
        msg: u64,
        /// Retry attempt number (1 = first re-send).
        attempt: u64,
    },
    /// The active controller went down; failover begins.
    FailoverBegin {
        /// Epoch of the failed controller.
        epoch: u64,
    },
    /// A standby finished taking over from a checkpoint.
    FailoverEnd {
        /// Epoch of the recovered controller.
        epoch: u64,
        /// Outage duration (down to reconciled), seconds.
        latency: f64,
    },
    /// A schedule commit starts; grant bursts follow until
    /// [`TraceEvent::CommitEnd`].
    CommitBegin {
        /// Commit generation number.
        gen: u64,
        /// Number of flows granted in this commit.
        flows: u64,
    },
    /// Header of one flow's grant; followed by `hops` × GrantHop and
    /// `slices` × GrantSlice. Replaces any earlier grant for the flow.
    GrantIssued {
        /// Flow id.
        flow: u64,
        /// Controller epoch stamped on the grant.
        epoch: u64,
        /// Commit generation stamped on the grant.
        gen: u64,
        /// Number of GrantHop events that follow.
        hops: u64,
        /// Number of GrantSlice events that follow.
        slices: u64,
        /// Whether the allocation meets the flow deadline (degraded
        /// best-effort allocations set this to `false`).
        on_time: bool,
    },
    /// One link of a granted flow's path, in path order.
    GrantHop {
        /// Flow id.
        flow: u64,
        /// Hop index along the path (0 = source uplink).
        idx: u64,
        /// Link id.
        link: u64,
    },
    /// One allocated time slice of a granted flow.
    GrantSlice {
        /// Flow id.
        flow: u64,
        /// Slice index.
        idx: u64,
        /// Slice start, absolute seconds.
        start: f64,
        /// Slice end, absolute seconds.
        end: f64,
    },
    /// A flow's grant was revoked (preemption, task failure, rejection
    /// after a degraded admission, or controller withdrawal).
    GrantRevoked {
        /// Flow id.
        flow: u64,
    },
    /// A forwarding entry was installed on a switch.
    EntryInstalled {
        /// Switch node id.
        node: u64,
        /// Flow id.
        flow: u64,
        /// Outgoing link id.
        link: u64,
    },
    /// A forwarding entry was withdrawn from a switch.
    EntryWithdrawn {
        /// Switch node id.
        node: u64,
        /// Flow id.
        flow: u64,
    },
    /// The commit that started with the matching
    /// [`TraceEvent::CommitBegin`] is fully described.
    CommitEnd {
        /// Commit generation number.
        gen: u64,
    },
    /// A flow finished transferring all its bytes.
    FlowCompleted {
        /// Flow id.
        flow: u64,
    },
    /// A flow missed its deadline and was expired.
    DeadlineExpired {
        /// Flow id.
        flow: u64,
    },
    /// A task submission was accepted into the service pending queue.
    SubmitQueued {
        /// Task id.
        task: u64,
        /// Pending-queue depth after the enqueue.
        depth: u64,
    },
    /// A task submission was shed by the service layer before admission
    /// (backpressure, deadline-infeasibility, or drain); see
    /// [`crate::reason`] codes 4–6.
    SubmitShed {
        /// Task id.
        task: u64,
        /// Machine-readable reason code ([`crate::reason`]).
        reason: u64,
        /// Pending-queue depth at shed time.
        depth: u64,
    },
    /// The service event loop crossed a batching watermark and switched
    /// admission mode (hysteresis: enter and exit depths differ).
    BatchMode {
        /// `true` when burst batching was entered, `false` on exit.
        on: bool,
        /// Pending-queue depth at the switch.
        depth: u64,
    },
    /// A slow consumer's bounded outbound buffer overflowed; the
    /// notification was dropped and the client marked (drop-and-mark).
    ClientMarked {
        /// Client id.
        client: u64,
        /// Notifications dropped for this client so far.
        dropped: u64,
    },
    /// Graceful drain started: the service stops accepting submissions.
    DrainBegin {
        /// Submissions still pending when the drain began.
        pending: u64,
    },
    /// Graceful drain finished: pending work decided or shed, state
    /// checkpointed.
    DrainEnd {
        /// Pending submissions decided (admitted or rejected) during the
        /// drain.
        decided: u64,
        /// Pending submissions shed with a terminal status.
        shed: u64,
    },
    /// An arrived task carries a non-default admission weight
    /// (DCoflow-style σ-order value). Emitted right after
    /// [`TraceEvent::TaskArrived`], and only when the weight differs
    /// from 1.0 — unweighted workloads produce byte-identical traces
    /// with or without this event in the vocabulary.
    TaskWeight {
        /// Task id.
        task: u64,
        /// The task's admission weight (finite, positive, ≠ 1.0).
        weight: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunMeta {
                hosts: 8,
                links: 20,
                slot: 1e-4,
            },
            TraceEvent::TaskArrived {
                task: 3,
                flows: 2,
                deadline: 0.04,
            },
            TraceEvent::FlowSpec {
                flow: 7,
                task: 3,
                src: 0,
                dst: 5,
                bytes: 100_000.0,
                deadline: 0.04,
            },
            TraceEvent::AllocAttempt {
                task: 3,
                paths_tried: 12,
                slots_scanned: 40,
            },
            TraceEvent::Admit { task: 3 },
            TraceEvent::Reject { task: 4, reason: 1 },
            TraceEvent::Preempt { task: 5, victim: 3 },
            TraceEvent::LinkFault { link: 9, up: false },
            TraceEvent::ControlSend { msg: 11, copies: 2 },
            TraceEvent::ControlAck { msg: 11 },
            TraceEvent::ControlRetry {
                msg: 11,
                attempt: 1,
            },
            TraceEvent::FailoverBegin { epoch: 1 },
            TraceEvent::FailoverEnd {
                epoch: 2,
                latency: 0.0123,
            },
            TraceEvent::CommitBegin { gen: 4, flows: 1 },
            TraceEvent::GrantIssued {
                flow: 7,
                epoch: 2,
                gen: 4,
                hops: 3,
                slices: 2,
                on_time: true,
            },
            TraceEvent::GrantHop {
                flow: 7,
                idx: 0,
                link: 1,
            },
            TraceEvent::GrantSlice {
                flow: 7,
                idx: 0,
                start: 0.001,
                end: 0.0015,
            },
            TraceEvent::GrantRevoked { flow: 7 },
            TraceEvent::EntryInstalled {
                node: 8,
                flow: 7,
                link: 2,
            },
            TraceEvent::EntryWithdrawn { node: 8, flow: 7 },
            TraceEvent::CommitEnd { gen: 4 },
            TraceEvent::FlowCompleted { flow: 7 },
            TraceEvent::DeadlineExpired { flow: 8 },
            TraceEvent::SubmitQueued { task: 9, depth: 3 },
            TraceEvent::SubmitShed {
                task: 10,
                reason: 5,
                depth: 64,
            },
            TraceEvent::BatchMode {
                on: true,
                depth: 48,
            },
            TraceEvent::ClientMarked {
                client: 2,
                dropped: 7,
            },
            TraceEvent::DrainBegin { pending: 12 },
            TraceEvent::DrainEnd {
                decided: 10,
                shed: 2,
            },
            TraceEvent::TaskWeight {
                task: 3,
                weight: 2.5,
            },
        ]
    }

    #[test]
    fn json_codec_round_trips_every_event() {
        let names: Vec<&str> = samples().iter().map(TraceEvent::name).collect();
        assert_eq!(names, NAMES, "samples() must cover every variant");
        for ev in samples() {
            let obj = Value::Object(
                ev.fields()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            );
            assert_eq!(TraceEvent::from_fields(ev.name(), &obj), Some(ev));
        }
    }

    #[test]
    fn unknown_name_parses_to_none() {
        assert_eq!(TraceEvent::from_fields("Bogus", &Value::Null), None);
    }
}
