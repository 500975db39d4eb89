//! Open-loop client against a real `taps-serviced` child.
//!
//! One thread, one nonblocking connection. Every submit has a *due*
//! time fixed before the round starts; latency is measured from the due
//! time, not from the moment the bytes left, so a stall of the client
//! or the daemon is charged to every request it delayed.
//!
//! The client never sleeps: between due times it polls the socket and
//! yields. A sleeping client was tried (sender asleep until the next
//! due time, receiver asleep in `read`): on the reference sandbox a
//! timer or socket wake-up from idle is late by 3–6 ms at p99, which is
//! larger than the latency being measured. Polling costs one of the two
//! cores but stamps sends and receipts to the microsecond.

use std::io::{ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

use taps_service::{encode_line, Request};

use super::{service_counter, RoundResult, SETUPS_PER_ROUND};
use crate::daemon::Daemon;
use crate::inputs::RoundInput;
use crate::ledger::Ledger;
use crate::procstat;
use crate::stats::percentile_of;

/// A round whose generator ran later than this at p99 does not count.
pub const MAX_GEN_LAG_P99_MS: f64 = 2.0;

/// After the last due time, wait this long for missing decisions.
const STRAGGLER_WAIT_S: f64 = 5.0;

/// The sending half of the client.
struct Generator {
    lines: Vec<Vec<u8>>,
    due: Vec<f64>,
    /// Requests noticed as due.
    seen: usize,
    /// Next line to start sending.
    next: usize,
    /// Bytes of `lines[next]` already written.
    partial: usize,
    lag_ms: Vec<f64>,
    /// Requests that were due but had to wait for room in the socket,
    /// and the index up to which they have been counted.
    blocked: u64,
    blocked_mark: usize,
}

impl Generator {
    /// Notices what is due at `now` and writes as much of it as the
    /// socket takes. Generator lag is how late a due request is
    /// noticed. A full socket buffer (the daemon is busy and not
    /// reading) delays the bytes further, but that wait is the daemon's
    /// and is in the latency, which runs from the due time either way.
    fn pump(&mut self, stream: &mut UnixStream, now: f64) -> Result<(), String> {
        while self.seen < self.due.len() && self.due[self.seen] <= now {
            self.lag_ms.push((now - self.due[self.seen]) * 1e3);
            self.seen += 1;
        }
        while self.next < self.seen {
            match stream.write(&self.lines[self.next][self.partial..]) {
                Ok(w) => {
                    self.partial += w;
                    if self.partial == self.lines[self.next].len() {
                        self.next += 1;
                        self.partial = 0;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let from = self.next.max(self.blocked_mark);
                    if self.seen > from {
                        self.blocked += (self.seen - from) as u64;
                        self.blocked_mark = self.seen;
                    }
                    break;
                }
                Err(e) => return Err(format!("write to daemon: {e}")),
            }
        }
        Ok(())
    }
}

/// Runs one open-loop round of `input` against a fresh daemon.
pub fn run_round(
    daemon_bin: &Path,
    socket: &Path,
    k: usize,
    input: &RoundInput,
) -> Result<RoundResult, String> {
    // Set-up is spawn → first `Stats` reply; the extra daemons are
    // reaped at once.
    let mut setups_s = Vec::with_capacity(SETUPS_PER_ROUND);
    for _ in 1..SETUPS_PER_ROUND {
        setups_s.push(Daemon::spawn(daemon_bin, socket, k)?.setup_s);
    }
    let mut d = Daemon::spawn(daemon_bin, socket, k)?;
    setups_s.push(d.setup_s);
    let n = input.plan.events.len();

    // Encode every request before the clock starts. Deadlines are
    // absolute on the daemon's clock, so the start instant `t0` has to
    // be fixed first; it lies far enough ahead to cover the encoding.
    let mut ledger = Ledger::new();
    let t0 = d.epoch.elapsed().as_secs_f64() + 0.05 + n as f64 * 25e-6;
    let mut due = Vec::with_capacity(n);
    let mut lines = Vec::with_capacity(n);
    for (idx, ev) in input.plan.events.iter().enumerate() {
        let submit = input.submit(idx, t0 + d.clock_offset + ev.deadline);
        ledger.on_submit(&submit);
        lines.push(encode_line(&Request::Submit(submit)).into_bytes());
        due.push(t0 + ev.at);
    }
    if d.epoch.elapsed().as_secs_f64() >= t0 {
        return Err("encoding the round's requests overran its lead time".into());
    }
    let pid = d.pid();
    let cpu0 = procstat::cpu_seconds(pid).ok_or("cannot read the daemon's /proc stat")?;

    while d.epoch.elapsed().as_secs_f64() < t0 {
        std::thread::yield_now();
    }

    let mut decision_spans = Vec::with_capacity(n);
    let mut sender = Generator {
        lines,
        due,
        seen: 0,
        next: 0,
        partial: 0,
        lag_ms: Vec::with_capacity(n),
        blocked: 0,
        blocked_mark: 0,
    };
    let mut decided = 0usize;
    let mut last_decision = t0;
    let last_due = sender.due.last().copied().unwrap_or(t0);
    let mut digest_words: Vec<u64> = Vec::with_capacity(2 * n);
    loop {
        let now = d.epoch.elapsed().as_secs_f64();
        sender.pump(&mut d.stream, now)?;
        if !d.fill()? {
            return Err("daemon closed the connection mid-round".into());
        }
        while let Some(resp) = d.next_response() {
            let resp = resp?;
            let recv = d.epoch.elapsed().as_secs_f64();
            if let Some(b) = ledger.on_response(&resp) {
                let idx = (b.task - input.id_base) as usize;
                decision_spans.push((b.task, sender.due[idx] - t0, recv - t0));
                digest_words.extend([b.task - input.id_base, b.verdict]);
                decided += 1;
                last_decision = recv;
            }
            // A long burst of replies must not make the generator late.
            sender.pump(&mut d.stream, recv)?;
        }
        if decided == n || (sender.next == n && now > last_due + STRAGGLER_WAIT_S) {
            break;
        }
        std::thread::yield_now();
    }
    let (gen_lag_ms, blocked_sends) = (sender.lag_ms, sender.blocked);
    let cpu1 = procstat::cpu_seconds(pid).ok_or("cannot read the daemon's /proc stat")?;

    // `Preempted` lines queued behind the last decision arrive before
    // the Stats reply; they belong in the ledger too.
    let final_stats = d.stats_with(|r| {
        ledger.on_response(&r);
    })?;
    let peak_rss_mb = procstat::peak_rss_mb(pid).ok_or("cannot read the daemon's VmHWM")?;

    let dup = service_counter(&final_stats, "duplicate_submits");
    if dup != 0 {
        ledger
            .violations
            .push(format!("daemon counted {dup} duplicate submits"));
    }
    let daemon_booked = service_counter(&final_stats, "tasks_granted")
        + service_counter(&final_stats, "tasks_granted_preempting")
        + service_counter(&final_stats, "tasks_rejected")
        + service_counter(&final_stats, "pending_shed_total");
    if daemon_booked != n as u64 {
        ledger.violations.push(format!(
            "daemon booked {daemon_booked} outcomes for {n} submits"
        ));
    }
    let failed_ops = ledger.close();

    let mut lag = gen_lag_ms.clone();
    let lag_p99 = percentile_of(&mut lag, 0.99);
    let invalid = (lag_p99 > MAX_GEN_LAG_P99_MS)
        .then(|| format!("generator lag p99 {lag_p99:.3} ms exceeds {MAX_GEN_LAG_P99_MS} ms"));

    Ok(RoundResult {
        decision_spans,
        submitted: n as u64,
        decisions: decided as u64,
        succeeded: ledger.succeeded(),
        wall_s: last_decision - t0,
        cpu_s: cpu1 - cpu0,
        peak_rss_mb,
        setups_s,
        failed_ops,
        violations: std::mem::take(&mut ledger.violations),
        digest: super::fnv1a(digest_words),
        invalid,
        gen_lag_ms,
        blocked_sends,
        final_stats: Some(final_stats),
    })
}
