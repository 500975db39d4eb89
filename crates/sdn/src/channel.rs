//! A deterministic, seeded *unreliable* control channel (DESIGN.md §10).
//!
//! Every controller↔server and controller↔switch exchange in the chaos
//! harness goes through a [`ControlChannel`]: a message may be dropped,
//! delayed, duplicated or reordered according to a [`ChannelConfig`],
//! with all randomness drawn from a seeded `StdRng` (lint rule L4: no
//! wall clock, no entropy) so every run is exactly reproducible per
//! seed.
//!
//! On top of the raw channel, [`ReliableSender`] implements ACK-based
//! retries with **bounded** exponential backoff per a [`RetryPolicy`]
//! (lint rule L5: every retry loop is bounded by
//! [`RetryPolicy::max_attempts`]). Senders may attach a *logical key* to
//! a message so a newer message for the same key (e.g. a re-grant for
//! the same flow) supersedes the pending older one instead of racing it.

use crate::obs::TraceHandle;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;
use taps_obs::{obs_event, obs_id};

/// Loss/delay model of a control channel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelConfig {
    /// Probability a sent message is dropped entirely.
    pub drop: f64,
    /// Probability a delivered message is delivered twice (the copy gets
    /// its own independently drawn delay).
    pub duplicate: f64,
    /// Probability a delivered message receives an extra delay on top of
    /// the base delay — the mechanism that reorders it behind later
    /// sends.
    pub reorder: f64,
    /// Minimum one-way delivery delay, seconds.
    pub min_delay: f64,
    /// Maximum *base* one-way delivery delay, seconds. A reordered
    /// message can take up to [`ChannelConfig::max_total_delay`].
    pub max_delay: f64,
}

impl ChannelConfig {
    /// A perfect channel: no loss, no duplication, zero delay. Running
    /// the chaos harness over this channel reproduces the reliable
    /// in-process control plane byte for byte.
    pub fn reliable() -> Self {
        ChannelConfig {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            min_delay: 0.0,
            max_delay: 0.0,
        }
    }

    /// A lossy channel: `drop` loss rate, delays uniform in
    /// `[0, max_delay]`, with a little duplication and reordering.
    pub fn lossy(drop: f64, max_delay: f64) -> Self {
        ChannelConfig {
            drop,
            duplicate: drop / 2.0,
            reorder: drop / 2.0,
            min_delay: 0.0,
            max_delay,
        }
    }

    /// Upper bound on the delivery delay of any message that is
    /// delivered at all: base delay plus the reorder penalty. The
    /// controller's grant fence must cover at least the lease duration
    /// plus this bound for cross-generation slot exclusivity to hold
    /// (DESIGN.md §10).
    pub fn max_total_delay(&self) -> f64 {
        self.max_delay * 2.0
    }
}

/// One message in flight, tagged with the sender's envelope id (what an
/// ACK refers to).
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope<T> {
    /// Sender-assigned id, unique per [`ReliableSender`].
    pub id: u64,
    /// When the message was handed to the channel.
    pub sent_at: f64,
    /// The message itself.
    pub payload: T,
}

/// Delivery counters of a [`ControlChannel`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Messages handed to the channel.
    pub sent: usize,
    /// Messages delivered (duplicates count).
    pub delivered: usize,
    /// Messages dropped.
    pub dropped: usize,
    /// Extra deliveries created by duplication.
    pub duplicated: usize,
    /// Messages that received the reorder penalty.
    pub reordered: usize,
}

/// A seeded lossy message channel. Send pushes into a delay queue;
/// [`ControlChannel::poll`] drains everything whose delivery instant has
/// passed, ordered by `(deliver_at, send sequence)` — deterministic for
/// a given seed and send sequence.
#[derive(Clone, Debug)]
pub struct ControlChannel<T> {
    cfg: ChannelConfig,
    rng: StdRng,
    /// `(deliver_at, seq, envelope)`; sorted at poll time.
    queue: Vec<(f64, u64, Envelope<T>)>,
    seq: u64,
    stats: ChannelStats,
}

impl<T: Clone> ControlChannel<T> {
    /// Creates a channel with its own RNG stream.
    pub fn new(cfg: ChannelConfig, seed: u64) -> Self {
        ControlChannel {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            queue: Vec::new(),
            seq: 0,
            stats: ChannelStats::default(),
        }
    }

    /// Delivery counters so far.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// One uniformly drawn delivery delay; `extra` rolls decide the
    /// reorder penalty. Exactly three RNG draws, always, so the stream
    /// stays aligned whatever the outcome.
    fn draw_delay(&mut self) -> (f64, bool) {
        let frac: f64 = self.rng.gen();
        let reorder_roll: f64 = self.rng.gen();
        let extra_frac: f64 = self.rng.gen();
        let mut d = self.cfg.min_delay + frac * (self.cfg.max_delay - self.cfg.min_delay).max(0.0);
        // lint: l8-ok(Bernoulli draw: a uniform roll against the configured probability is the distribution's definition, no tolerance applies)
        let reordered = reorder_roll < self.cfg.reorder;
        if reordered {
            d += extra_frac * self.cfg.max_delay;
        }
        (d, reordered)
    }

    /// Hands a message to the channel at time `now`. It will be dropped,
    /// delayed, duplicated and/or reordered per the config. Returns how
    /// many copies were actually enqueued (0 when dropped).
    pub fn send(&mut self, now: f64, id: u64, payload: T) -> usize {
        self.stats.sent += 1;
        // Fixed draw schedule: drop, dup, then 3 per enqueued copy.
        let drop_roll: f64 = self.rng.gen();
        let dup_roll: f64 = self.rng.gen();
        // lint: l8-ok(Bernoulli draw: a uniform roll against the configured drop probability, no tolerance applies)
        if drop_roll < self.cfg.drop {
            self.stats.dropped += 1;
            return 0;
        }
        // lint: l8-ok(Bernoulli draw: a uniform roll against the configured duplicate probability, no tolerance applies)
        let copies = if dup_roll < self.cfg.duplicate { 2 } else { 1 };
        for copy in 0..copies {
            let (delay, reordered) = self.draw_delay();
            if reordered {
                self.stats.reordered += 1;
            }
            if copy == 1 {
                self.stats.duplicated += 1;
            }
            self.queue.push((
                now + delay,
                self.seq,
                Envelope {
                    id,
                    sent_at: now,
                    payload: payload.clone(),
                },
            ));
            self.seq += 1;
        }
        copies
    }

    /// Drains every message whose delivery instant is `<= now`, in
    /// `(deliver_at, send sequence)` order (`total_cmp`: delays are
    /// finite by construction).
    pub fn poll(&mut self, now: f64) -> Vec<Envelope<T>> {
        self.queue
            .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let split = self.queue.partition_point(|e| e.0 <= now);
        let mut out = Vec::with_capacity(split);
        for (_, _, env) in self.queue.drain(..split) {
            out.push(env);
        }
        self.stats.delivered += out.len();
        out
    }
}

/// Bounded retry schedule: attempt `k` (0-based) waits
/// `min(base_timeout * backoff^k, max_timeout)` for an ACK; after
/// `max_attempts` sends the message is given up **terminally** — it is
/// reported through [`ReliableSender::take_expired`] and never retried
/// again (the receiver-side safe defaults — grant leases,
/// withdraw-on-silence — take over). `max_attempts` is the hard retry
/// budget: a dead controller costs each message a bounded number of
/// sends, not an infinite retry storm.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total sends (first try included) before giving up. Must be ≥ 1;
    /// this is the bound lint rule L5 asks every retry loop to carry.
    pub max_attempts: u32,
    /// ACK timeout of the first send, seconds.
    pub base_timeout: f64,
    /// Multiplier applied per retry (2.0 = classic doubling).
    pub backoff: f64,
    /// Cap on any single ACK timeout, seconds.
    pub max_timeout: f64,
    /// Jitter fraction in `[0, 1)`: each armed timeout is stretched by a
    /// factor drawn uniformly from `[1 - jitter, 1 + jitter]` out of the
    /// sender's seeded RNG, de-synchronizing retry storms across senders
    /// without giving up reproducibility. `0.0` (the default) draws
    /// nothing and reproduces the un-jittered schedule bit for bit.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_timeout: 0.001,
            backoff: 2.0,
            max_timeout: 0.016,
            jitter: 0.0,
        }
    }
}

impl RetryPolicy {
    /// The nominal (un-jittered) ACK timeout after the `attempt`-th send
    /// (0-based), bounded by `max_timeout`. Pure: the seeded jitter is
    /// applied by the sender when a timeout is armed, not here.
    pub fn timeout_for(&self, attempt: u32) -> f64 {
        let mut t = self.base_timeout;
        // Bounded by the policy's own max_attempts: computes the capped backoff.
        for _ in 0..attempt.min(self.max_attempts) {
            t = (t * self.backoff).min(self.max_timeout);
            if t >= self.max_timeout {
                break;
            }
        }
        t.min(self.max_timeout)
    }

    /// Longest time from a message's first send to its last
    /// retransmission, seconds, at the sender's own timing: the
    /// `max_attempts − 1` armed timeouts, each stretched by the full
    /// jitter.
    pub fn span(&self) -> f64 {
        (0..self.max_attempts.saturating_sub(1))
            .map(|a| self.timeout_for(a) * (1.0 + self.jitter))
            .sum()
    }
}

/// One terminally given-up message: the retry budget
/// ([`RetryPolicy::max_attempts`]) ran out without an ACK. Returned by
/// [`ReliableSender::take_expired`] so callers can react (mark the peer
/// dead, fail the task, re-route) instead of the give-up being a silent
/// counter bump.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpiredMsg<T> {
    /// Envelope id of the abandoned message.
    pub id: u64,
    /// Logical key the message was sent under, if any.
    pub key: Option<(u64, u64)>,
    /// Total sends consumed (equals the policy's `max_attempts`).
    pub attempts: u32,
    /// The undelivered payload.
    pub payload: T,
}

/// Retry counters of a [`ReliableSender`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// First-time sends.
    pub sent: usize,
    /// Retransmissions.
    pub resends: usize,
    /// Messages acknowledged.
    pub acked: usize,
    /// Messages given up after `max_attempts` sends.
    pub expired: usize,
    /// Pending messages cancelled because a newer message took over
    /// their logical key.
    pub superseded: usize,
}

#[derive(Clone, Debug)]
struct PendingMsg<T> {
    payload: T,
    key: Option<(u64, u64)>,
    /// Sends so far (≥ 1 once enqueued).
    attempts: u32,
    /// When the current ACK timeout lapses.
    deadline: f64,
}

/// ACK-based reliable delivery over a [`ControlChannel`], with bounded
/// exponential-backoff retries and logical-key supersession.
#[derive(Clone, Debug)]
pub struct ReliableSender<T> {
    policy: RetryPolicy,
    next_id: u64,
    /// Pending (un-ACKed) messages by envelope id. Ordered map: the
    /// retry sweep iterates it and resend order must be deterministic
    /// (lint rule L1).
    pending: BTreeMap<u64, PendingMsg<T>>,
    /// Logical key → pending envelope id, for supersession.
    keys: BTreeMap<(u64, u64), u64>,
    stats: RetryStats,
    /// Terminally given-up messages since the last
    /// [`ReliableSender::take_expired`] call, capped at
    /// [`EXPIRED_BUFFER_CAP`] (oldest dropped first; the `expired`
    /// counter keeps the true total).
    expired_out: Vec<ExpiredMsg<T>>,
    /// Seeded RNG for timeout jitter; drawn from only when the policy's
    /// `jitter` is non-zero, so a zero-jitter sender's behavior is
    /// bit-identical whatever the seed.
    rng: StdRng,
    /// Trace sink for `ControlSend`/`ControlAck`/`ControlRetry` events.
    trace: TraceHandle,
}

/// Cap on the undrained terminal-expiry buffer of a [`ReliableSender`];
/// callers are expected to drain [`ReliableSender::take_expired`] every
/// tick, the cap only protects a caller that never does.
pub const EXPIRED_BUFFER_CAP: usize = 1024;

impl<T: Clone> ReliableSender<T> {
    /// Creates a sender with the given retry policy (jitter seed 0; use
    /// [`ReliableSender::with_seed`] to put senders on distinct jitter
    /// streams).
    pub fn new(policy: RetryPolicy) -> Self {
        Self::with_seed(policy, 0)
    }

    /// Creates a sender whose jitter RNG is seeded with `seed`.
    pub fn with_seed(policy: RetryPolicy, seed: u64) -> Self {
        ReliableSender {
            policy,
            next_id: 0,
            pending: BTreeMap::new(),
            keys: BTreeMap::new(),
            stats: RetryStats::default(),
            expired_out: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            trace: TraceHandle::default(),
        }
    }

    /// The ACK timeout to arm for the `attempt`-th send: the policy's
    /// nominal backoff step, stretched by the seeded jitter factor when
    /// jitter is enabled (exactly one draw per armed timeout).
    fn arm_timeout(&mut self, attempt: u32) -> f64 {
        let t = self.policy.timeout_for(attempt);
        if self.policy.jitter > 0.0 {
            let u: f64 = self.rng.gen();
            t * (1.0 + self.policy.jitter * (2.0 * u - 1.0))
        } else {
            t
        }
    }

    /// Routes this sender's control-plane events to `sink`.
    pub fn set_trace_sink(&mut self, sink: std::sync::Arc<dyn taps_obs::TraceSink>) {
        self.trace = TraceHandle(Some(sink));
    }

    /// Retry counters so far.
    pub fn stats(&self) -> &RetryStats {
        &self.stats
    }

    /// Un-ACKed messages currently tracked.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Sends `payload` reliably at time `now` and returns its envelope
    /// id. A `key` ties the message to a logical slot (e.g. `(host,
    /// flow)` for a grant): any pending message under the same key is
    /// cancelled first — the newer message carries newer state, and the
    /// receiver's `(epoch, gen)` guard would reject the old one anyway.
    pub fn send(
        &mut self,
        now: f64,
        key: Option<(u64, u64)>,
        payload: T,
        chan: &mut ControlChannel<T>,
    ) -> u64 {
        if let Some(k) = key {
            if let Some(old) = self.keys.insert(k, self.next_id) {
                if self.pending.remove(&old).is_some() {
                    self.stats.superseded += 1;
                }
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        let copies = chan.send(now, id, payload.clone());
        obs_event!(
            &self.trace,
            now,
            ControlSend {
                msg: id,
                copies: obs_id(copies)
            }
        );
        self.stats.sent += 1;
        let deadline = now + self.arm_timeout(0);
        self.pending.insert(
            id,
            PendingMsg {
                payload,
                key,
                attempts: 1,
                deadline,
            },
        );
        id
    }

    /// Drains the terminally given-up messages accumulated since the
    /// last call (in give-up order). A message appears here exactly once,
    /// after its [`RetryPolicy::max_attempts`] budget ran out without an
    /// ACK — the sender will never retry it again, so the caller must
    /// treat it as a terminal delivery failure.
    pub fn take_expired(&mut self) -> Vec<ExpiredMsg<T>> {
        std::mem::take(&mut self.expired_out)
    }

    /// Drops every pending message without sending or expiring it — a
    /// crashed sender's retransmission state dies with it (the standby
    /// starts from its own reconciliation sweep, not the dead primary's
    /// send queue). Envelope ids keep counting up so late ACKs for the
    /// dead primary's messages can never hit a new message's id.
    pub fn clear_pending(&mut self) {
        self.pending.clear();
        self.keys.clear();
    }

    /// Processes an ACK for envelope `id` at time `now` (duplicate ACKs
    /// are harmless and emit nothing).
    pub fn ack(&mut self, now: f64, id: u64) {
        if let Some(p) = self.pending.remove(&id) {
            obs_event!(&self.trace, now, ControlAck { msg: id });
            self.stats.acked += 1;
            if let Some(k) = p.key {
                if self.keys.get(&k) == Some(&id) {
                    self.keys.remove(&k);
                }
            }
        }
    }

    /// Retry sweep at time `now`: every pending message whose ACK
    /// timeout lapsed is either retransmitted (with the next backoff
    /// step) or, after [`RetryPolicy::max_attempts`] total sends, given
    /// up. Returns `(resends, expirations)`.
    pub fn tick(&mut self, now: f64, chan: &mut ControlChannel<T>) -> (usize, usize) {
        let due: Vec<u64> = self
            .pending
            .iter()
            // lint: l8-ok(retry timeout lapse: deadline is now plus backoff from the same clock, exact lapse is the retry contract)
            .filter(|(_, p)| p.deadline <= now)
            .map(|(&id, _)| id)
            .collect();
        let mut resends = 0;
        let mut expired = 0;
        // Bounded: each message is retried at most policy.max_attempts times,
        // then dropped as expired.
        for id in due {
            #[expect(
                clippy::expect_used,
                reason = "invariant: `due` ids were just drawn from `pending` keys"
            )]
            let p = self.pending.get_mut(&id).expect("due id came from keys");
            if p.attempts >= self.policy.max_attempts {
                #[expect(
                    clippy::expect_used,
                    reason = "invariant: `due` ids were just drawn from `pending` keys"
                )]
                let p = self.pending.remove(&id).expect("present");
                if let Some(k) = p.key {
                    if self.keys.get(&k) == Some(&id) {
                        self.keys.remove(&k);
                    }
                }
                self.stats.expired += 1;
                expired += 1;
                if self.expired_out.len() >= EXPIRED_BUFFER_CAP {
                    self.expired_out.remove(0);
                }
                self.expired_out.push(ExpiredMsg {
                    id,
                    key: p.key,
                    attempts: p.attempts,
                    payload: p.payload,
                });
                continue;
            }
            chan.send(now, id, p.payload.clone());
            obs_event!(
                &self.trace,
                now,
                ControlRetry {
                    msg: id,
                    attempt: u64::from(p.attempts)
                }
            );
            let attempts = p.attempts;
            self.stats.resends += 1;
            resends += 1;
            let deadline = now + self.arm_timeout(attempts);
            #[expect(
                clippy::expect_used,
                reason = "invariant: id is still a pending key — the expiry branch above `continue`d"
            )]
            let p = self.pending.get_mut(&id).expect("still pending");
            p.deadline = deadline;
            p.attempts += 1;
        }
        (resends, expired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_channel_delivers_in_order_instantly() {
        let mut ch: ControlChannel<u32> = ControlChannel::new(ChannelConfig::reliable(), 1);
        ch.send(0.0, 0, 10);
        ch.send(0.0, 1, 20);
        let got: Vec<u32> = ch.poll(0.0).into_iter().map(|e| e.payload).collect();
        assert_eq!(got, vec![10, 20]);
        assert_eq!(ch.stats().dropped, 0);
        assert_eq!(ch.in_flight(), 0);
    }

    #[test]
    fn lossy_channel_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut ch: ControlChannel<u64> =
                ControlChannel::new(ChannelConfig::lossy(0.3, 0.01), seed);
            for i in 0..100 {
                ch.send(i as f64 * 0.001, i, i);
            }
            ch.poll(1.0)
                .into_iter()
                .map(|e| (e.id, e.sent_at))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same deliveries");
        assert_ne!(run(7), run(8), "different seed, different channel");
        let delivered = run(7).len();
        assert!(
            delivered < 100 + 20 && delivered > 40,
            "loss and duplication both visible: {delivered}"
        );
    }

    #[test]
    fn delays_respect_the_configured_bound() {
        let cfg = ChannelConfig::lossy(0.2, 0.005);
        let mut ch: ControlChannel<u64> = ControlChannel::new(cfg, 3);
        for i in 0..200 {
            ch.send(0.0, i, i);
        }
        // Nothing may arrive after the total-delay bound.
        let before = ch.poll(cfg.max_total_delay()).len();
        assert_eq!(ch.in_flight(), 0, "all deliveries within max_total_delay");
        assert!(before > 0);
    }

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        let p = RetryPolicy {
            max_attempts: 6,
            base_timeout: 0.001,
            backoff: 2.0,
            max_timeout: 0.006,
            jitter: 0.0,
        };
        let timeouts: Vec<f64> = (0..8).map(|k| p.timeout_for(k)).collect();
        // Doubling, then capped, and total wait is finite.
        assert_eq!(
            timeouts,
            vec![0.001, 0.002, 0.004, 0.006, 0.006, 0.006, 0.006, 0.006]
        );
        assert!(timeouts.iter().all(|t| *t <= p.max_timeout));
        // Same policy, same schedule (pure function of attempt index).
        assert_eq!(
            (0..8).map(|k| p.timeout_for(k)).collect::<Vec<_>>(),
            timeouts
        );
    }

    #[test]
    fn reliable_sender_retries_then_gives_up() {
        // A channel that drops everything: the sender must retry exactly
        // max_attempts times, then expire the message.
        let cfg = ChannelConfig {
            drop: 1.0,
            ..ChannelConfig::reliable()
        };
        let mut ch: ControlChannel<&str> = ControlChannel::new(cfg, 9);
        let policy = RetryPolicy {
            max_attempts: 4,
            base_timeout: 0.001,
            backoff: 2.0,
            max_timeout: 0.004,
            jitter: 0.0,
        };
        let mut tx = ReliableSender::new(policy);
        tx.send(0.0, None, "grant", &mut ch);
        let mut resends = 0;
        let mut t = 0.0;
        // Test clock: advances far past the policy's bounded schedule.
        for _ in 0..64 {
            t += 0.001;
            let (r, _) = tx.tick(t, &mut ch);
            resends += r;
        }
        assert_eq!(resends, 3, "max_attempts(4) = 1 send + 3 retries");
        assert_eq!(tx.pending(), 0, "expired after the last timeout");
        assert_eq!(tx.stats().expired, 1);
        assert_eq!(ch.stats().sent, 4);
    }

    #[test]
    fn expired_messages_surface_as_terminal_errors() {
        // Dead controller: every send is dropped; the give-up must be
        // reported with the undelivered payload and logical key, exactly
        // once.
        let cfg = ChannelConfig {
            drop: 1.0,
            ..ChannelConfig::reliable()
        };
        let mut ch: ControlChannel<&str> = ControlChannel::new(cfg, 11);
        let policy = RetryPolicy {
            max_attempts: 3,
            base_timeout: 0.001,
            backoff: 2.0,
            max_timeout: 0.004,
            jitter: 0.0,
        };
        let mut tx = ReliableSender::new(policy);
        tx.send(0.0, Some((2, 7)), "grant", &mut ch);
        let mut t = 0.0;
        for _ in 0..32 {
            t += 0.001;
            tx.tick(t, &mut ch);
        }
        let expired = tx.take_expired();
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].payload, "grant");
        assert_eq!(expired[0].key, Some((2, 7)));
        assert_eq!(expired[0].attempts, 3);
        assert!(
            tx.take_expired().is_empty(),
            "a terminal error is reported exactly once"
        );
    }

    #[test]
    fn jitter_is_seeded_bounded_and_off_by_default() {
        let jittered = RetryPolicy {
            max_attempts: 5,
            base_timeout: 0.001,
            backoff: 2.0,
            max_timeout: 0.008,
            jitter: 0.4,
        };
        // Run the drop-everything scenario and record at which tick each
        // resend happened — the observable image of the armed timeouts.
        let schedule = |policy: RetryPolicy, seed: u64| {
            let cfg = ChannelConfig {
                drop: 1.0,
                ..ChannelConfig::reliable()
            };
            let mut ch: ControlChannel<u32> = ControlChannel::new(cfg, 1);
            let mut tx = ReliableSender::with_seed(policy, seed);
            tx.send(0.0, None, 42, &mut ch);
            let mut resend_ticks = Vec::new();
            for k in 1..200 {
                let t = k as f64 * 0.0001;
                let (r, _) = tx.tick(t, &mut ch);
                if r > 0 {
                    resend_ticks.push(k);
                }
            }
            resend_ticks
        };
        // Same seed → same schedule; different seed → (here) different.
        assert_eq!(schedule(jittered, 3), schedule(jittered, 3));
        assert_ne!(schedule(jittered, 3), schedule(jittered, 4));
        // Zero jitter ignores the seed entirely.
        let plain = RetryPolicy {
            jitter: 0.0,
            ..jittered
        };
        assert_eq!(schedule(plain, 3), schedule(plain, 999));
        // Every jittered wait stays within ±jitter of the nominal step:
        // resend k fires one tick-quantum after deadline k-1 at the
        // latest, and never before (1 - jitter) × nominal.
        let ticks = schedule(jittered, 7);
        let mut deadline_lo = 0.0;
        let mut deadline_hi = 0.0;
        for (k, tick) in ticks.iter().enumerate() {
            let nominal = jittered.timeout_for(u32::try_from(k).unwrap_or(u32::MAX));
            deadline_lo += nominal * (1.0 - jittered.jitter);
            deadline_hi += nominal * (1.0 + jittered.jitter);
            let t = *tick as f64 * 0.0001;
            assert!(
                t >= deadline_lo && t <= deadline_hi + 0.0001,
                "resend {k} at {t} outside jitter envelope [{deadline_lo}, {deadline_hi}]"
            );
        }
    }

    #[test]
    fn reliable_sender_stops_on_ack_and_supersedes_keys() {
        let mut ch: ControlChannel<&str> = ControlChannel::new(ChannelConfig::reliable(), 1);
        let mut tx = ReliableSender::new(RetryPolicy::default());
        let id = tx.send(0.0, Some((0, 7)), "grant v1", &mut ch);
        tx.ack(0.0, id);
        assert_eq!(tx.pending(), 0);
        let (r, e) = tx.tick(10.0, &mut ch);
        assert_eq!((r, e), (0, 0), "acked message is never retried");

        // A newer grant for the same (host, flow) cancels the pending old
        // one.
        tx.send(1.0, Some((0, 7)), "grant v2", &mut ch);
        tx.send(1.1, Some((0, 7)), "grant v3", &mut ch);
        assert_eq!(tx.pending(), 1);
        assert_eq!(tx.stats().superseded, 1);
    }
}
