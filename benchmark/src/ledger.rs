//! Output checking for the service workloads: every response is
//! booked against the submission it answers.
//!
//! Checks: each submit gets exactly one terminal `Decision`; a grant
//! carries one summary per flow with the slot count the flow's size
//! demands (or none at all when the task is preempted again within the
//! same admission burst — the daemon summarises grants after the whole
//! burst, by when the victim's slices are gone — in which case the
//! preemption notice must follow); a rejection carries none; every
//! `Preempted` (and every victim a decision names) is a task that was
//! granted before; no `Error` line arrives;
//! `granted + rejected + shed == submitted`.

use std::collections::BTreeMap;

use taps_obs::reason;
use taps_service::{verdict, Response, Submit};

use crate::inputs::expected_slots;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Waiting,
    Granted,
    Refused,
}

struct Entry {
    state: State,
    /// `(flow id, expected slots)` in submit order.
    flows: Vec<(u64, u64)>,
    preempted: bool,
    /// Granted without grant summaries: must end up preempted.
    grantless: bool,
}

/// A terminal decision, as the ledger booked it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Booked {
    /// Task the decision answers.
    pub task: u64,
    /// Verdict code ([`verdict`]).
    pub verdict: u64,
    /// Task preempted to make room, if any.
    pub victim: Option<u64>,
    /// Reason code of a rejection or shed.
    pub reason: Option<u64>,
}

impl Booked {
    /// Whether the service shed the task before admission (queue full,
    /// deadline-infeasible or draining) instead of asking the controller.
    pub fn is_shed(&self) -> bool {
        self.reason.is_some_and(|r| r != reason::INFEASIBLE)
    }
}

/// Books responses against submissions.
#[derive(Default)]
pub struct Ledger {
    tasks: BTreeMap<u64, Entry>,
    /// Tasks granted outright.
    pub granted: u64,
    /// Tasks granted after preempting a victim.
    pub granted_preempting: u64,
    /// Tasks turned away by the reject rule.
    pub rejected: u64,
    /// Tasks shed by the service, by reason code.
    pub shed: BTreeMap<u64, u64>,
    /// Granted tasks later preempted.
    pub preempted: u64,
    /// Check failures, one line each.
    pub violations: Vec<String>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Ledger {
        Ledger::default()
    }

    /// Books a submission about to be sent.
    pub fn on_submit(&mut self, s: &Submit) {
        let flows = s
            .flows
            .iter()
            .map(|f| (f.flow, expected_slots(f.size)))
            .collect();
        let entry = Entry {
            state: State::Waiting,
            flows,
            preempted: false,
            grantless: false,
        };
        if self.tasks.insert(s.task, entry).is_some() {
            self.violations
                .push(format!("task {} submitted twice", s.task));
        }
    }

    fn preempt(&mut self, victim: u64, by: &str) {
        match self.tasks.get_mut(&victim) {
            Some(e) if e.state == State::Granted => {
                if !e.preempted {
                    e.preempted = true;
                    self.preempted += 1;
                }
            }
            _ => self
                .violations
                .push(format!("{by} names task {victim}, which was never granted")),
        }
    }

    /// Books one response. Returns the decision when `resp` was the
    /// terminal answer to a known, still-waiting submission.
    pub fn on_response(&mut self, resp: &Response) -> Option<Booked> {
        match resp {
            Response::Decision {
                task,
                verdict: code,
                victim,
                reason: why,
                grants,
                ..
            } => {
                let Some(entry) = self.tasks.get_mut(task) else {
                    self.violations
                        .push(format!("decision for unknown task {task}"));
                    return None;
                };
                if entry.state != State::Waiting {
                    self.violations
                        .push(format!("task {task} decided more than once"));
                    return None;
                }
                let granted = matches!(*code, verdict::GRANTED | verdict::GRANTED_PREEMPTING);
                entry.state = if granted {
                    State::Granted
                } else {
                    State::Refused
                };
                if granted {
                    let got: Vec<(u64, u64)> = grants.iter().map(|g| (g.flow, g.slots)).collect();
                    entry.grantless = got.is_empty();
                    if !entry.grantless && got != entry.flows {
                        self.violations.push(format!(
                            "task {task}: grants {got:?} do not match the demand {:?}",
                            entry.flows
                        ));
                    }
                } else if !grants.is_empty() {
                    self.violations
                        .push(format!("task {task}: rejection carries grants"));
                }
                match *code {
                    verdict::GRANTED => self.granted += 1,
                    verdict::GRANTED_PREEMPTING => self.granted_preempting += 1,
                    verdict::REJECTED => match why {
                        None | Some(reason::INFEASIBLE) => self.rejected += 1,
                        Some(r) => *self.shed.entry(*r).or_insert(0) += 1,
                    },
                    other => self
                        .violations
                        .push(format!("task {task}: unknown verdict code {other}")),
                }
                match (*code, victim) {
                    (verdict::GRANTED_PREEMPTING, Some(v)) => {
                        self.preempt(*v, &format!("decision {task}'s victim"))
                    }
                    (verdict::GRANTED_PREEMPTING, None) => self
                        .violations
                        .push(format!("task {task}: preempting grant names no victim")),
                    (_, Some(_)) => self
                        .violations
                        .push(format!("task {task}: victim on a non-preempting verdict")),
                    _ => {}
                }
                Some(Booked {
                    task: *task,
                    verdict: *code,
                    victim: *victim,
                    reason: *why,
                })
            }
            Response::Preempted { task } => {
                self.preempt(*task, "Preempted");
                None
            }
            Response::Error { msg } => {
                self.violations.push(format!("daemon error line: {msg}"));
                None
            }
            _ => None,
        }
    }

    /// Submissions booked.
    pub fn submitted(&self) -> u64 {
        self.tasks.len() as u64
    }

    /// Submissions with a terminal decision.
    pub fn decided(&self) -> u64 {
        self.tasks
            .values()
            .filter(|e| e.state != State::Waiting)
            .count() as u64
    }

    /// Total sheds over all reasons.
    pub fn shed_total(&self) -> u64 {
        self.shed.values().sum()
    }

    /// Tasks granted and never preempted.
    pub fn succeeded(&self) -> u64 {
        self.tasks
            .values()
            .filter(|e| e.state == State::Granted && !e.preempted)
            .count() as u64
    }

    /// Closes the books: flags submissions left without a decision and
    /// a broken `granted + rejected + shed == submitted` balance.
    /// Returns the number of failed operations (missing decisions,
    /// error lines and check failures).
    pub fn close(&mut self) -> u64 {
        let missing = self.submitted() - self.decided();
        for (task, e) in &self.tasks {
            if e.grantless && !e.preempted {
                self.violations.push(format!(
                    "task {task} was granted without grants and never preempted"
                ));
            }
        }
        let booked = self.granted + self.granted_preempting + self.rejected + self.shed_total();
        if booked + missing != self.submitted() {
            self.violations.push(format!(
                "accounting: {booked} booked + {missing} missing != {} submitted",
                self.submitted()
            ));
        }
        // Error lines are among the violations.
        missing + self.violations.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taps_service::{GrantSummary, SubmitFlow};

    fn submit(task: u64, flows: &[(u64, f64)]) -> Submit {
        Submit {
            task,
            deadline: 1.0,
            flows: flows
                .iter()
                .map(|&(flow, size)| SubmitFlow {
                    flow,
                    src: 0,
                    dst: 1,
                    size,
                })
                .collect(),
        }
    }

    fn decision(
        task: u64,
        code: u64,
        victim: Option<u64>,
        why: Option<u64>,
        grants: &[(u64, u64)],
    ) -> Response {
        Response::Decision {
            task,
            verdict: code,
            victim,
            reason: why,
            retry_after: None,
            grants: grants
                .iter()
                .map(|&(flow, slots)| GrantSummary { flow, slots })
                .collect(),
        }
    }

    #[test]
    fn grant_and_preemption_inside_one_burst_balance() {
        let mut l = Ledger::new();
        l.on_submit(&submit(5, &[(50, 25_000.0)]));
        l.on_submit(&submit(6, &[(60, 25_000.0)]));
        // The daemon summarises grants after the burst: task 5's are gone.
        l.on_response(&decision(5, verdict::GRANTED, None, None, &[]));
        l.on_response(&decision(
            6,
            verdict::GRANTED_PREEMPTING,
            Some(5),
            None,
            &[(60, 2)],
        ));
        assert_eq!(l.close(), 0, "{:?}", l.violations);
        assert_eq!((l.granted, l.granted_preempting, l.preempted), (1, 1, 1));
        assert_eq!(l.succeeded(), 1);
    }

    #[test]
    fn grantless_grant_must_be_preempted() {
        let mut l = Ledger::new();
        l.on_submit(&submit(1, &[(10, 25_000.0)]));
        l.on_response(&decision(1, verdict::GRANTED, None, None, &[]));
        assert_eq!(l.close(), 1);
    }

    #[test]
    fn clean_run_counts() {
        let mut l = Ledger::new();
        l.on_submit(&submit(1, &[(10, 200_000.0), (11, 12_500.0)]));
        l.on_submit(&submit(2, &[(20, 25_000.0)]));
        l.on_submit(&submit(3, &[(30, 25_000.0)]));
        l.on_submit(&submit(4, &[(40, 25_000.0)]));
        l.on_response(&decision(
            1,
            verdict::GRANTED,
            None,
            None,
            &[(10, 16), (11, 1)],
        ));
        l.on_response(&decision(
            2,
            verdict::GRANTED_PREEMPTING,
            Some(1),
            None,
            &[(20, 2)],
        ));
        l.on_response(&Response::Preempted { task: 1 });
        l.on_response(&decision(
            3,
            verdict::REJECTED,
            None,
            Some(reason::INFEASIBLE),
            &[],
        ));
        l.on_response(&decision(
            4,
            verdict::REJECTED,
            None,
            Some(reason::SHED_INFEASIBLE),
            &[],
        ));
        assert_eq!(l.close(), 0, "{:?}", l.violations);
        assert_eq!((l.granted, l.granted_preempting, l.rejected), (1, 1, 1));
        assert_eq!(l.shed.get(&reason::SHED_INFEASIBLE), Some(&1));
        assert_eq!(l.preempted, 1, "victim + Preempted line count once");
        assert_eq!(l.succeeded(), 1);
    }

    #[test]
    fn every_kind_of_bad_output_is_counted() {
        let mut l = Ledger::new();
        l.on_submit(&submit(1, &[(10, 200_000.0)]));
        l.on_submit(&submit(2, &[(20, 200_000.0)]));
        l.on_submit(&submit(3, &[(30, 200_000.0)]));
        // Wrong slot count.
        l.on_response(&decision(1, verdict::GRANTED, None, None, &[(10, 15)]));
        // Decided twice.
        assert!(l
            .on_response(&decision(1, verdict::GRANTED, None, None, &[(10, 16)]))
            .is_none());
        // Unknown task, preemption of a never-granted task, error line.
        l.on_response(&decision(99, verdict::REJECTED, None, None, &[]));
        l.on_response(&Response::Preempted { task: 2 });
        l.on_response(&Response::Error { msg: "boom".into() });
        // Task 2 and 3 never answered.
        assert_eq!(l.violations.len(), 5, "{:?}", l.violations);
        assert_eq!(l.close(), 2 + 5);
    }
}
