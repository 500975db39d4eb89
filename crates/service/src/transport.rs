//! Transport abstraction between clients and the service event loop.
//!
//! The loop is transport-agnostic: it drains inbound requests with
//! [`Transport::poll`] and delivers outbound responses with
//! [`Transport::push`]; there is no separate flush step, so a response
//! is on its way the moment it is pushed. Every buffer on both
//! directions is **bounded**; a full outbound buffer surfaces as
//! [`PushError::Full`] so the loop can drop-and-mark a slow consumer
//! instead of blocking (DESIGN.md §15). [`SimTransport`] is the
//! deterministic in-process implementation used by the simulator, the
//! soak gate and the tests; the Unix-domain-socket JSONL transport
//! lives in [`crate::uds`].

use std::collections::{BTreeMap, VecDeque};

use crate::messages::{ClientId, Request, Response};

/// Why a response could not be queued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The client's bounded outbox is full (slow consumer).
    Full,
    /// The client disconnected.
    Gone,
}

/// Duplex message transport driven by the single-threaded event loop.
pub trait Transport {
    /// Drains all inbound requests in deterministic arrival order.
    fn poll(&mut self) -> Vec<(ClientId, Request)>;

    /// Delivers `resp` toward `client`: by the time it returns `Ok`,
    /// the response is in the client's hands or, where the wire is
    /// momentarily full, queued behind earlier ones for the transport
    /// to finish on its own. Must never block: a slow consumer shows up
    /// as [`PushError::Full`] and the caller decides what to drop.
    fn push(&mut self, client: ClientId, resp: Response) -> Result<(), PushError>;
}

/// Default bound on [`SimTransport`] inbound queues.
pub const DEFAULT_INBOX_CAP: usize = 8_192;
/// Default bound on per-client outbound buffers.
pub const DEFAULT_OUTBOX_CAP: usize = 1_024;

/// Deterministic in-process transport: a bounded inbox shared by all
/// clients plus one bounded outbox per client. "Slow consumers" are
/// simulated by simply not draining an outbox — pushes then fail with
/// [`PushError::Full`] exactly as a kernel socket buffer would.
#[derive(Debug)]
pub struct SimTransport {
    inbox_cap: usize,
    outbox_cap: usize,
    /// Bounded by `inbox_cap`: `submit()` rejects beyond it.
    inbox: VecDeque<(ClientId, Request)>,
    outboxes: BTreeMap<ClientId, VecDeque<Response>>,
}

impl SimTransport {
    /// Creates a transport with explicit buffer bounds.
    pub fn with_caps(inbox_cap: usize, outbox_cap: usize) -> SimTransport {
        assert!(inbox_cap > 0 && outbox_cap > 0);
        SimTransport {
            inbox_cap,
            outbox_cap,
            // lint: l10-ok(bound: inbox_cap — submit() rejects beyond it)
            inbox: VecDeque::new(),
            outboxes: BTreeMap::new(),
        }
    }

    /// Creates a transport with the default bounds.
    pub fn new() -> SimTransport {
        Self::with_caps(DEFAULT_INBOX_CAP, DEFAULT_OUTBOX_CAP)
    }

    /// Client-side send: queues a request for the next [`poll`].
    ///
    /// [`poll`]: Transport::poll
    pub fn submit(&mut self, client: ClientId, req: Request) -> Result<(), PushError> {
        if self.inbox.len() >= self.inbox_cap {
            return Err(PushError::Full);
        }
        // lint: l10-ok(bound: inbox_cap — checked above)
        self.inbox.push_back((client, req));
        Ok(())
    }

    /// Client-side receive: drains everything queued toward `client`.
    pub fn drain_client(&mut self, client: ClientId) -> Vec<Response> {
        self.outboxes
            .get_mut(&client)
            .map(|q| q.drain(..).collect())
            .unwrap_or_default()
    }

    /// Number of undelivered responses queued toward `client`.
    pub fn outbox_depth(&self, client: ClientId) -> usize {
        self.outboxes.get(&client).map_or(0, VecDeque::len)
    }

    /// Number of queued inbound requests.
    pub fn inbox_depth(&self) -> usize {
        self.inbox.len()
    }
}

impl Default for SimTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl Transport for SimTransport {
    fn poll(&mut self) -> Vec<(ClientId, Request)> {
        self.inbox.drain(..).collect()
    }

    fn push(&mut self, client: ClientId, resp: Response) -> Result<(), PushError> {
        let q = self.outboxes.entry(client).or_default();
        if q.len() >= self.outbox_cap {
            return Err(PushError::Full);
        }
        // lint: l10-ok(bound: outbox_cap — checked above)
        q.push_back(resp);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inbox_preserves_order_and_bounds() {
        let mut tr = SimTransport::with_caps(2, 2);
        tr.submit(1, Request::Stats).unwrap();
        tr.submit(2, Request::Drain).unwrap();
        assert_eq!(tr.submit(3, Request::Stats), Err(PushError::Full));
        let polled = tr.poll();
        assert_eq!(polled.len(), 2);
        assert_eq!(polled[0].0, 1);
        assert_eq!(polled[1].0, 2);
        assert_eq!(tr.inbox_depth(), 0);
    }

    #[test]
    fn slow_consumer_outbox_fills_and_recovers() {
        let mut tr = SimTransport::with_caps(8, 2);
        let resp = Response::Preempted { task: 1 };
        tr.push(5, resp.clone()).unwrap();
        tr.push(5, resp.clone()).unwrap();
        assert_eq!(tr.push(5, resp.clone()), Err(PushError::Full));
        assert_eq!(tr.outbox_depth(5), 2);
        // The consumer wakes up and drains; pushes succeed again.
        assert_eq!(tr.drain_client(5).len(), 2);
        tr.push(5, resp).unwrap();
        assert_eq!(tr.outbox_depth(5), 1);
    }
}
