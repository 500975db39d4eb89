//! The server agent (§IV-D): the only end-host modification TAPS needs.
//!
//! Each sender maintains, per local flow, the deadline `d_j^i`, the
//! expected transmission time `E_j^i` and the allocated slices `A_j^i`;
//! it monitors the clock and transmits at the granted rate exactly inside
//! its slices, then reports `TERM`.
//!
//! Under the unreliable control plane (DESIGN.md §10) the agent also
//! enforces the fail-closed transmission rule: every grant carries an
//! `(epoch, gen)` stamp and a *lease*; the lease is refreshed by any
//! controller message carrying the same stamp (heartbeats, re-grants),
//! and a flow whose lease lapsed transmits nothing until a fresh grant
//! arrives. Stale-stamped grant deliveries (duplicates, reorders) are
//! dropped, making grant application idempotent.

use crate::messages::{FlowGrant, ProbeHeader, ServerMsg};
use std::collections::BTreeMap;
use taps_timeline::Clock;

/// Per-flow sender state.
#[derive(Clone, Debug)]
struct LocalFlow {
    /// The scheduling header as originally probed (original size).
    header: ProbeHeader,
    grant: FlowGrant,
    remaining: f64,
    /// Full-rate bytes per second during a slice.
    line_rate: f64,
    terminated: bool,
    /// Data-plane carrier loss: a link on the granted route is down, or
    /// the harness decided the route blackholes. No bytes progress.
    stalled: bool,
    /// The grant is live (transmittable) until this instant; refreshed
    /// by controller messages stamped with the grant's `(epoch, gen)`.
    lease_until: f64,
}

/// A TAPS sender.
#[derive(Clone, Debug)]
pub struct ServerAgent {
    /// Host index this agent runs on.
    host: usize,
    /// Slot duration — the handshake constant shared with the
    /// controller (grants carry slot *indices* only).
    clock: Clock,
    /// Lease duration granted by each controller contact, seconds.
    /// `f64::INFINITY` (the default) disables lease expiry — the
    /// reliable-channel behavior.
    lease: f64,
    /// Ordered map: `advance()` iterates it, and TERM message order must
    /// be deterministic (lint rule L1).
    flows: BTreeMap<usize, LocalFlow>,
}

impl ServerAgent {
    /// Creates the agent for a host. `slot` is the deployment's slot
    /// duration (must equal the controller's `ControllerConfig::slot`).
    pub fn new(host: usize, slot: f64) -> Self {
        ServerAgent {
            host,
            clock: Clock::new(slot),
            lease: f64::INFINITY,
            flows: BTreeMap::new(),
        }
    }

    /// The host index.
    pub fn host(&self) -> usize {
        self.host
    }

    /// The configured slot duration (handshake constant).
    pub fn slot(&self) -> f64 {
        self.clock.slot()
    }

    /// Sets the grant lease duration (fail-closed window). Grants and
    /// matching-stamp heartbeats extend the lease by this much.
    pub fn set_lease_duration(&mut self, lease: f64) {
        self.lease = lease;
    }

    /// Accepts a grant from the controller (Fig. 4 step 4B), received at
    /// time `now`. Returns `false` when the grant is *stale* — its
    /// `(epoch, gen)` stamp is older than the one already applied for the
    /// flow — and was dropped (duplicate and reordered deliveries are
    /// harmless). A re-grant for a known flow keeps the local remaining
    /// byte count; only a first grant initializes it from the header.
    pub fn accept_grant(
        &mut self,
        now: f64,
        header: &ProbeHeader,
        grant: FlowGrant,
        line_rate: f64,
    ) -> bool {
        debug_assert_eq!(header.flow, grant.flow, "grant/header flow mismatch");
        let lease_until = now + self.lease;
        match self.flows.get_mut(&grant.flow) {
            Some(f) => {
                if grant.stamp() < f.grant.stamp() {
                    return false; // stale delivery
                }
                f.grant = grant;
                f.header.deadline = header.deadline;
                f.line_rate = line_rate;
                f.lease_until = lease_until;
                true
            }
            None => {
                self.flows.insert(
                    grant.flow,
                    LocalFlow {
                        header: header.clone(),
                        remaining: header.size,
                        grant,
                        line_rate,
                        terminated: false,
                        stalled: false,
                        lease_until,
                    },
                );
                true
            }
        }
    }

    /// Discards local state for a rejected/preempted flow (Fig. 4 step 5).
    pub fn drop_flow(&mut self, flow: usize) {
        self.flows.remove(&flow);
    }

    /// Marks a flow (un)stalled: its route crosses a dead link or
    /// blackholes at a switch, so transmitted bytes make no progress and
    /// the agent holds its remaining count.
    pub fn set_stalled(&mut self, flow: usize, stalled: bool) {
        if let Some(f) = self.flows.get_mut(&flow) {
            f.stalled = stalled;
        }
    }

    /// A controller heartbeat (or any message) carrying stamp
    /// `(epoch, gen)` arrived at `now`: refresh the lease of every local
    /// grant with the *same* stamp. Grants with older stamps are not
    /// refreshed — their leases run out, which fail-closes the flow until
    /// the controller's re-grant arrives.
    pub fn on_heartbeat(&mut self, now: f64, epoch: u64, gen: u64) {
        for f in self.flows.values_mut() {
            if f.grant.stamp() == (epoch, gen) {
                f.lease_until = f.lease_until.max(now + self.lease);
            }
        }
    }

    /// The `(epoch, gen)` stamp of the applied grant for `flow`, if any.
    pub fn grant_stamp(&self, flow: usize) -> Option<(u64, u64)> {
        self.flows.get(&flow).map(|f| f.grant.stamp())
    }

    /// The applied grant of a flow, for harness audits.
    pub fn grant_of(&self, flow: usize) -> Option<&FlowGrant> {
        self.flows.get(&flow).map(|f| &f.grant)
    }

    /// Whether `flow`'s grant lease is live at time `t`.
    pub fn lease_live(&self, flow: usize, t: f64) -> bool {
        // lint: l8-ok(fail-closed lease check: lease_until derives from the same clock, exact expiry at worst withholds one tick)
        self.flows.get(&flow).is_some_and(|f| t <= f.lease_until)
    }

    /// The transmission rate of `flow` at time `t`: line rate inside a
    /// granted slice while the lease is live, zero outside. This is the
    /// §IV-D "monitor the time and send the flow at an assigned rate at
    /// the appropriate time" plus the fail-closed lease rule.
    pub fn rate_at(&self, flow: usize, t: f64) -> f64 {
        let Some(f) = self.flows.get(&flow) else {
            return 0.0;
        };
        // lint: l8-ok(fail-closed lease gate: exact lapse stops transmission, it can never over-send)
        if f.terminated || f.remaining <= 0.0 || f.stalled || t > f.lease_until {
            return 0.0;
        }
        if f.grant.slices.contains(self.clock.slot_of(t)) {
            f.line_rate
        } else {
            0.0
        }
    }

    /// Transmits for one whole slot, index `slot`, per the granted
    /// slices; `now` is the slot's start, against which leases are
    /// checked (lease- and stall-gated). Returns any `TERM` messages to
    /// send to the controller (completed flows).
    ///
    /// The driver passes the index it steps with: recomputing it from
    /// `now` would round `(s·slot)/slot` down to `s − 1` for some `s`.
    pub fn advance(&mut self, slot: u64, now: f64) -> Vec<ServerMsg> {
        let mut out = Vec::new();
        for (&fid, f) in self.flows.iter_mut() {
            // lint: l8-ok(fail-closed lease gate: exact lapse stops transmission, it can never over-send)
            if f.terminated || f.remaining <= 0.0 || f.stalled || now > f.lease_until {
                continue;
            }
            if f.grant.slices.contains(slot) {
                f.remaining -= f.line_rate * self.clock.slot();
                if f.remaining <= 0.5 {
                    f.remaining = 0.0;
                    f.terminated = true;
                    out.push(ServerMsg::Term { flow: fid });
                }
            }
        }
        out
    }

    /// Bytes still to send for a flow (0 when done or unknown).
    pub fn remaining(&self, flow: usize) -> f64 {
        self.flows.get(&flow).map_or(0.0, |f| f.remaining)
    }

    /// The original scheduling header and remaining byte count of every
    /// live local flow — the payload of [`ServerMsg::Resync`] a
    /// failed-over controller re-learns in-flight state from.
    pub fn resync_probes(&self) -> Vec<(ProbeHeader, f64)> {
        self.flows
            .iter()
            .filter(|(_, f)| !f.terminated && f.remaining > 0.0)
            .map(|(_, f)| (f.header.clone(), f.remaining))
            .collect()
    }

    /// `(flow, bytes delivered)` for every live local flow — the payload
    /// of the advisory [`ServerMsg::Progress`] report.
    pub fn progress_report(&self) -> Vec<(usize, f64)> {
        self.flows
            .iter()
            .filter(|(_, f)| !f.terminated && f.remaining > 0.0)
            .map(|(&fid, f)| (fid, (f.header.size - f.remaining).max(0.0)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taps_timeline::IntervalSet;
    use taps_topology::Path;

    fn grant(flow: usize, slices: &[(u64, u64)]) -> FlowGrant {
        stamped_grant(flow, slices, 0, 0)
    }

    fn stamped_grant(flow: usize, slices: &[(u64, u64)], epoch: u64, gen: u64) -> FlowGrant {
        let mut s = IntervalSet::new();
        for &(a, b) in slices {
            s.insert_range(a, b);
        }
        FlowGrant {
            flow,
            slices: s,
            path: Path::default(),
            epoch,
            gen,
        }
    }

    fn header(flow: usize, size: f64, deadline: f64) -> ProbeHeader {
        ProbeHeader {
            task: 0,
            flow,
            src: 0,
            dst: 1,
            size,
            deadline,
        }
    }

    #[test]
    fn sends_only_inside_slices() {
        let mut a = ServerAgent::new(0, 1.0);
        a.accept_grant(0.0, &header(1, 1000.0, 10.0), grant(1, &[(2, 4)]), 1000.0);
        assert_eq!(a.rate_at(1, 0.5), 0.0);
        assert_eq!(a.rate_at(1, 2.5), 1000.0);
        assert_eq!(a.rate_at(1, 4.1), 0.0);
    }

    #[test]
    fn advance_transmits_and_terms() {
        let mut a = ServerAgent::new(0, 1.0);
        a.accept_grant(0.0, &header(1, 1500.0, 10.0), grant(1, &[(0, 2)]), 1000.0);
        assert!(a.advance(0, 0.0).is_empty());
        assert!((a.remaining(1) - 500.0).abs() < 1e-9);
        let msgs = a.advance(1, 1.0);
        assert_eq!(msgs, vec![ServerMsg::Term { flow: 1 }]);
        assert_eq!(a.remaining(1), 0.0);
        // No double TERM.
        assert!(a.advance(2, 2.0).is_empty());
    }

    /// `49 · 1e-4 / 1e-4` is just below 49: a sender that derived its
    /// slot index from seconds sent a slice starting at 49 in slot 48,
    /// outside its grant, and then lost slot 49.
    #[test]
    fn a_slice_at_a_mis_rounding_index_sends_in_its_own_slot() {
        let slot: f64 = 1e-4;
        assert_eq!((49.0 * slot / slot).floor(), 48.0);
        let mut a = ServerAgent::new(0, slot);
        let line_rate = 1000.0 / slot; // one slot sends the whole flow
        a.accept_grant(
            0.0,
            &header(1, 1000.0, 1.0),
            grant(1, &[(49, 50)]),
            line_rate,
        );
        for s in 47..=50u64 {
            let terms = a.advance(s, Clock::new(slot).start(s));
            let expect = if s == 49 {
                vec![ServerMsg::Term { flow: 1 }]
            } else {
                Vec::new()
            };
            assert_eq!(terms, expect, "slot {s}");
        }
    }

    #[test]
    fn drop_flow_silences_it() {
        let mut a = ServerAgent::new(3, 1.0);
        a.accept_grant(0.0, &header(7, 100.0, 1.0), grant(7, &[(0, 1)]), 1000.0);
        a.drop_flow(7);
        assert_eq!(a.rate_at(7, 0.5), 0.0);
        assert!(a.advance(0, 0.0).is_empty());
    }

    #[test]
    fn stale_grant_is_dropped_fresh_is_applied() {
        let mut a = ServerAgent::new(0, 1.0);
        let h = header(1, 1000.0, 10.0);
        assert!(a.accept_grant(0.0, &h, stamped_grant(1, &[(0, 2)], 0, 5), 1000.0));
        // A delayed duplicate of an older generation: ignored.
        assert!(!a.accept_grant(0.0, &h, stamped_grant(1, &[(4, 6)], 0, 3), 1000.0));
        assert_eq!(a.rate_at(1, 0.5), 1000.0);
        assert_eq!(a.rate_at(1, 4.5), 0.0);
        // A same-stamp duplicate re-applies idempotently.
        assert!(a.accept_grant(0.0, &h, stamped_grant(1, &[(0, 2)], 0, 5), 1000.0));
        // A newer generation moves the slices.
        assert!(a.accept_grant(0.0, &h, stamped_grant(1, &[(4, 6)], 1, 0), 1000.0));
        assert_eq!(a.rate_at(1, 0.5), 0.0);
        assert_eq!(a.rate_at(1, 4.5), 1000.0);
    }

    #[test]
    fn regrant_preserves_remaining_bytes() {
        let mut a = ServerAgent::new(0, 1.0);
        let h = header(1, 2000.0, 10.0);
        a.accept_grant(0.0, &h, stamped_grant(1, &[(0, 1)], 0, 1), 1000.0);
        a.advance(0, 0.0); // 1000 bytes left
        a.accept_grant(1.0, &h, stamped_grant(1, &[(3, 4)], 0, 2), 1000.0);
        assert!((a.remaining(1) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn lease_expiry_fail_closes_and_heartbeat_extends() {
        let mut a = ServerAgent::new(0, 1.0);
        a.set_lease_duration(2.0);
        a.accept_grant(
            0.0,
            &header(1, 9000.0, 20.0),
            stamped_grant(1, &[(0, 9)], 0, 1),
            1000.0,
        );
        assert_eq!(a.rate_at(1, 1.5), 1000.0);
        // Beyond the lease with no contact: fail closed.
        assert_eq!(a.rate_at(1, 2.5), 0.0);
        assert!(a.advance(3, 3.0).is_empty());
        // A matching-stamp heartbeat revives it...
        a.on_heartbeat(3.0, 0, 1);
        assert_eq!(a.rate_at(1, 4.0), 1000.0);
        // ...but a newer-stamp heartbeat does not (grant is stale).
        a.on_heartbeat(4.5, 0, 2);
        assert_eq!(a.rate_at(1, 4.9), 1000.0); // still inside old lease
        assert_eq!(a.rate_at(1, 5.1), 0.0); // old lease lapsed, not renewed
    }

    #[test]
    fn stall_holds_bytes() {
        let mut a = ServerAgent::new(0, 1.0);
        a.accept_grant(0.0, &header(1, 2000.0, 10.0), grant(1, &[(0, 4)]), 1000.0);
        a.set_stalled(1, true);
        assert_eq!(a.rate_at(1, 0.5), 0.0);
        assert!(a.advance(0, 0.0).is_empty());
        assert!((a.remaining(1) - 2000.0).abs() < 1e-9);
        a.set_stalled(1, false);
        assert_eq!(a.rate_at(1, 1.5), 1000.0);
    }

    #[test]
    fn resync_and_progress_reports() {
        let mut a = ServerAgent::new(0, 1.0);
        a.accept_grant(0.0, &header(1, 2000.0, 10.0), grant(1, &[(0, 2)]), 1000.0);
        a.advance(0, 0.0);
        let probes = a.resync_probes();
        assert_eq!(probes.len(), 1);
        assert!((probes[0].0.size - 2000.0).abs() < 1e-9, "original size");
        assert!((probes[0].1 - 1000.0).abs() < 1e-9, "remaining bytes");
        assert_eq!(a.progress_report(), vec![(1, 1000.0)]);
        // Finished flows vanish from both reports.
        a.advance(1, 1.0);
        assert!(a.resync_probes().is_empty());
        assert!(a.progress_report().is_empty());
    }
}
