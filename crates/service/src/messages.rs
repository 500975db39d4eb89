//! Wire protocol of the live service (DESIGN.md §15).
//!
//! Requests flow client → daemon, responses daemon → client. Both are
//! encoded as externally-tagged JSON objects, one per line (JSONL), via
//! the offline `serde_json` shim — the same framing the golden-trace
//! suite uses, so a captured session is diff-able text.
//!
//! The submit payload mirrors [`taps_sdn::ProbeHeader`] (§IV-D's probe
//! packet): the daemon converts one [`Submit`] into one probe group and
//! feeds it to the wrapped controller.

use serde_json::{Deserialize, Error, Serialize, Value};
use taps_sdn::ProbeHeader;

/// Client identity assigned by the transport (connection order for the
/// UDS listener, caller-chosen for the in-process transport).
pub type ClientId = u64;

/// One flow inside a submitted task.
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitFlow {
    /// Globally unique flow id (client-assigned, like the probe header).
    pub flow: u64,
    /// Source host index.
    pub src: u64,
    /// Destination host index.
    pub dst: u64,
    /// Flow size in bytes.
    pub size: f64,
}

/// A task submission: all flows share the task's absolute deadline.
#[derive(Clone, Debug, PartialEq)]
pub struct Submit {
    /// Task id (client-assigned, globally unique).
    pub task: u64,
    /// Absolute deadline, seconds.
    pub deadline: f64,
    /// The task's flows (non-empty).
    pub flows: Vec<SubmitFlow>,
}

/// The controller's id of wire task id `task`: what its probes carry
/// and its decision-cache entry is keyed by.
pub(crate) fn task_id(task: u64) -> usize {
    usize::try_from(task).unwrap_or(usize::MAX)
}

impl Submit {
    /// Converts the submission into the controller's probe group.
    pub fn probes(&self) -> Vec<ProbeHeader> {
        self.flows
            .iter()
            .map(|f| ProbeHeader {
                task: task_id(self.task),
                flow: usize::try_from(f.flow).unwrap_or(usize::MAX),
                src: usize::try_from(f.src).unwrap_or(usize::MAX),
                dst: usize::try_from(f.dst).unwrap_or(usize::MAX),
                size: f.size,
                deadline: self.deadline,
            })
            .collect()
    }

    /// Total bytes across the task's flows (the shed cost metric).
    pub fn bytes(&self) -> f64 {
        self.flows.iter().map(|f| f.size).sum()
    }
}

/// Client → daemon messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit a task for admission.
    Submit(Submit),
    /// Ask for a metrics snapshot ([`Response::Stats`]).
    Stats,
    /// Begin a graceful drain (stop accepting, decide the backlog,
    /// checkpoint).
    Drain,
}

/// Terminal admission outcome codes carried by [`Response::Decision`].
pub mod verdict {
    /// Admitted; grants were issued.
    pub const GRANTED: u64 = 0;
    /// Admitted after preempting another task (named in the response).
    pub const GRANTED_PREEMPTING: u64 = 1;
    /// Rejected by the paper's reject rule or shed by the service; the
    /// `reason` field carries a [`taps_obs::reason`] code.
    pub const REJECTED: u64 = 2;
}

/// Summary of one flow's grant (slot count, not the full slice list —
/// servers get slices through the control channel; service clients only
/// need the admission outcome).
#[derive(Clone, Debug, PartialEq)]
pub struct GrantSummary {
    /// Flow id.
    pub flow: u64,
    /// Number of allocated slots.
    pub slots: u64,
}

/// Daemon → client messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Terminal decision for a submitted task.
    Decision {
        /// Task id from the submission.
        task: u64,
        /// One of the [`verdict`] codes.
        verdict: u64,
        /// Task preempted to admit this one (verdict
        /// [`verdict::GRANTED_PREEMPTING`]).
        victim: Option<u64>,
        /// [`taps_obs::reason`] code for rejections/sheds.
        reason: Option<u64>,
        /// Backpressure hint, seconds: retry after this delay. Only set
        /// for queue-full sheds — deadline-infeasible and drain sheds
        /// are terminal.
        retry_after: Option<f64>,
        /// Per-flow grant summaries (empty on rejection).
        grants: Vec<GrantSummary>,
    },
    /// A previously granted task was preempted by a later admission;
    /// sent to the owner of the victim.
    Preempted {
        /// The discarded task.
        task: u64,
    },
    /// Metrics snapshot (the `taps-obs` registry plus controller
    /// counters), scx_stats-style: one self-describing JSON object.
    Stats {
        /// The snapshot document.
        metrics: Value,
    },
    /// Drain acknowledged; the backlog is being decided.
    DrainStarted {
        /// Queue depth at the moment the drain began.
        pending: u64,
    },
    /// Drain finished; the daemon persisted its checkpoint and stops.
    Drained {
        /// Tasks decided during the drain.
        decided: u64,
        /// Tasks shed during the drain.
        shed: u64,
    },
    /// Malformed or inapplicable request.
    Error {
        /// Human-readable cause.
        msg: String,
    },
}

fn field<T: Deserialize>(v: &Value, key: &str) -> Result<T, Error> {
    v.get(key)
        .ok_or_else(|| Error::msg(format!("missing field `{key}`")))
        .and_then(T::from_value)
}

fn opt_field<T: Deserialize>(v: &Value, key: &str) -> Result<Option<T>, Error> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(inner) => T::from_value(inner).map(Some),
    }
}

impl Serialize for SubmitFlow {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("flow".into(), self.flow.to_value()),
            ("src".into(), self.src.to_value()),
            ("dst".into(), self.dst.to_value()),
            ("size".into(), self.size.to_value()),
        ])
    }
}

impl Deserialize for SubmitFlow {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(SubmitFlow {
            flow: field(v, "flow")?,
            src: field(v, "src")?,
            dst: field(v, "dst")?,
            size: field(v, "size")?,
        })
    }
}

impl Serialize for Submit {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("task".into(), self.task.to_value()),
            ("deadline".into(), self.deadline.to_value()),
            ("flows".into(), self.flows.to_value()),
        ])
    }
}

impl Deserialize for Submit {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Submit {
            task: field(v, "task")?,
            deadline: field(v, "deadline")?,
            flows: field(v, "flows")?,
        })
    }
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        // Externally tagged, matching serde's default enum encoding.
        match self {
            Request::Submit(s) => Value::Object(vec![("Submit".into(), s.to_value())]),
            Request::Stats => Value::Str("Stats".into()),
            Request::Drain => Value::Str("Drain".into()),
        }
    }
}

impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, Error> {
        if let Some(body) = v.get("Submit") {
            return Ok(Request::Submit(Submit::from_value(body)?));
        }
        match v.as_str() {
            Some("Stats") => Ok(Request::Stats),
            Some("Drain") => Ok(Request::Drain),
            _ => Err(Error::msg("unknown Request variant")),
        }
    }
}

impl Serialize for GrantSummary {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("flow".into(), self.flow.to_value()),
            ("slots".into(), self.slots.to_value()),
        ])
    }
}

impl Deserialize for GrantSummary {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(GrantSummary {
            flow: field(v, "flow")?,
            slots: field(v, "slots")?,
        })
    }
}

impl Serialize for Response {
    fn to_value(&self) -> Value {
        match self {
            Response::Decision {
                task,
                verdict,
                victim,
                reason,
                retry_after,
                grants,
            } => Value::Object(vec![(
                "Decision".into(),
                Value::Object(vec![
                    ("task".into(), task.to_value()),
                    ("verdict".into(), verdict.to_value()),
                    ("victim".into(), victim.to_value()),
                    ("reason".into(), reason.to_value()),
                    ("retry_after".into(), retry_after.to_value()),
                    ("grants".into(), grants.to_value()),
                ]),
            )]),
            Response::Preempted { task } => Value::Object(vec![(
                "Preempted".into(),
                Value::Object(vec![("task".into(), task.to_value())]),
            )]),
            Response::Stats { metrics } => Value::Object(vec![(
                "Stats".into(),
                Value::Object(vec![("metrics".into(), metrics.clone())]),
            )]),
            Response::DrainStarted { pending } => Value::Object(vec![(
                "DrainStarted".into(),
                Value::Object(vec![("pending".into(), pending.to_value())]),
            )]),
            Response::Drained { decided, shed } => Value::Object(vec![(
                "Drained".into(),
                Value::Object(vec![
                    ("decided".into(), decided.to_value()),
                    ("shed".into(), shed.to_value()),
                ]),
            )]),
            Response::Error { msg } => Value::Object(vec![(
                "Error".into(),
                Value::Object(vec![("msg".into(), msg.to_value())]),
            )]),
        }
    }
}

impl Deserialize for Response {
    fn from_value(v: &Value) -> Result<Self, Error> {
        if let Some(body) = v.get("Decision") {
            Ok(Response::Decision {
                task: field(body, "task")?,
                verdict: field(body, "verdict")?,
                victim: opt_field(body, "victim")?,
                reason: opt_field(body, "reason")?,
                retry_after: opt_field(body, "retry_after")?,
                grants: field(body, "grants")?,
            })
        } else if let Some(body) = v.get("Preempted") {
            Ok(Response::Preempted {
                task: field(body, "task")?,
            })
        } else if let Some(body) = v.get("Stats") {
            Ok(Response::Stats {
                metrics: body
                    .get("metrics")
                    .cloned()
                    .ok_or_else(|| Error::msg("missing field `metrics`"))?,
            })
        } else if let Some(body) = v.get("DrainStarted") {
            Ok(Response::DrainStarted {
                pending: field(body, "pending")?,
            })
        } else if let Some(body) = v.get("Drained") {
            Ok(Response::Drained {
                decided: field(body, "decided")?,
                shed: field(body, "shed")?,
            })
        } else if let Some(body) = v.get("Error") {
            Ok(Response::Error {
                msg: field(body, "msg")?,
            })
        } else {
            Err(Error::msg("unknown Response variant"))
        }
    }
}

/// Encodes a message as one JSONL frame (newline-terminated).
pub fn encode_line<T: Serialize>(msg: &T) -> String {
    let mut s = serde_json::to_string(msg).unwrap_or_else(|_| "null".into());
    s.push('\n');
    s
}

/// Decodes one JSONL frame (the line must not contain the newline).
pub fn decode_line<T: Deserialize>(line: &str) -> Result<T, Error> {
    serde_json::from_str(line.trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_submit() -> Submit {
        Submit {
            task: 7,
            deadline: 0.04,
            flows: vec![
                SubmitFlow {
                    flow: 70,
                    src: 1,
                    dst: 2,
                    size: 2e5,
                },
                SubmitFlow {
                    flow: 71,
                    src: 3,
                    dst: 4,
                    size: 1e5,
                },
            ],
        }
    }

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::Submit(sample_submit()),
            Request::Stats,
            Request::Drain,
        ] {
            let line = encode_line(&req);
            assert!(line.ends_with('\n'));
            let back: Request = decode_line(&line).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let msgs = vec![
            Response::Decision {
                task: 7,
                verdict: verdict::GRANTED,
                victim: None,
                reason: None,
                retry_after: None,
                grants: vec![GrantSummary {
                    flow: 70,
                    slots: 16,
                }],
            },
            Response::Decision {
                task: 8,
                verdict: verdict::REJECTED,
                victim: None,
                reason: Some(taps_obs::reason::SHED_QUEUE_FULL),
                retry_after: Some(0.002),
                grants: Vec::new(),
            },
            Response::Decision {
                task: 9,
                verdict: verdict::GRANTED_PREEMPTING,
                victim: Some(3),
                reason: None,
                retry_after: None,
                grants: Vec::new(),
            },
            Response::Preempted { task: 3 },
            Response::DrainStarted { pending: 12 },
            Response::Drained {
                decided: 10,
                shed: 2,
            },
            Response::Error { msg: "bad".into() },
        ];
        for msg in msgs {
            let back: Response = decode_line(&encode_line(&msg)).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn submit_converts_to_probe_group() {
        let s = sample_submit();
        let probes = s.probes();
        assert_eq!(probes.len(), 2);
        assert!(probes.iter().all(|p| p.task == 7));
        assert!(probes.iter().all(|p| (p.deadline - 0.04).abs() < 1e-12));
        assert_eq!(probes[1].src, 3);
        assert!((s.bytes() - 3e5).abs() < 1e-9);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_line::<Request>("{\"Nope\":1}").is_err());
        assert!(decode_line::<Response>("not json").is_err());
    }
}
