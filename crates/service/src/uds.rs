//! Unix-domain-socket transport: the same JSONL protocol as
//! [`SimTransport`](crate::transport::SimTransport), served over a
//! nonblocking `UnixListener` for real daemon use (`taps-serviced`).
//!
//! The event loop stays single-threaded: `poll()` accepts pending
//! connections, reads whatever bytes are available, frames them into
//! lines and decodes requests; `push()` delivers: it appends the
//! encoded line to the client's bounded write queue and writes the
//! queue out at once, in order, as far as the nonblocking socket takes
//! it. Whatever a full socket refused stays queued, and every later
//! `push()` or `poll()` to that client retries it first. A client whose
//! queue is full gets [`PushError::Full`] — exactly the drop-and-mark
//! contract the service loop expects. There is no flush step. Malformed
//! lines are answered with [`Response::Error`] rather than killing the
//! connection. Between iterations an idle loop calls
//! [`UdsTransport::wait`], which parks on a lone client until it sends
//! or a time limit passes; `poll()` and `push()` never block.

use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::time::Duration;

use crate::messages::{decode_line, encode_line, ClientId, Request, Response};
use crate::transport::{PushError, Transport, DEFAULT_OUTBOX_CAP};

struct Conn {
    stream: UnixStream,
    /// Unframed bytes read so far (bounded: a line longer than
    /// `MAX_LINE` drops the connection as a protocol violation).
    rdbuf: Vec<u8>,
    /// Encoded lines the socket has not taken yet, the front one
    /// possibly cut after a partial write. Bounded by `outbox_cap`:
    /// `push()` rejects beyond it.
    wrq: VecDeque<Vec<u8>>,
    gone: bool,
}

impl Conn {
    /// Writes the queue out in order, one line per `write`, until it is
    /// empty or the socket refuses more. A partial write leaves the
    /// line's unwritten tail at the front; an error marks the
    /// connection gone.
    fn write_queued(&mut self) {
        while let Some(line) = self.wrq.front_mut() {
            match self.stream.write(line) {
                Ok(n) if n == line.len() => {
                    self.wrq.pop_front();
                }
                Ok(n) => {
                    line.drain(..n);
                    break;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.gone = true;
                    break;
                }
            }
        }
    }

    /// One `read` into `rdbuf` under the `MAX_LINE` rule. True when it
    /// read bytes, so more may be waiting. EOF, an error or an
    /// oversized frame marks the connection gone; a drained nonblocking
    /// socket, a timed-out blocking read or a signal reads nothing.
    fn read_some(&mut self, buf: &mut [u8]) -> bool {
        match self.stream.read(buf) {
            Ok(0) => self.gone = true,
            Ok(n) => {
                // lint: l10-ok(bound: MAX_LINE — oversized frames disconnect the client)
                self.rdbuf.extend_from_slice(&buf[..n]);
                if self.rdbuf.len() > MAX_LINE {
                    self.gone = true;
                }
                return !self.gone;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => self.gone = true,
        }
        false
    }

    /// One blocking `read` bounded by `limit`, the socket back to
    /// nonblocking after it. False when the socket could not be made
    /// to block for a bounded time, so nothing was read.
    fn park(&mut self, limit: Duration) -> bool {
        // Also refuses a zero `limit`, which would mean "no timeout".
        if self.stream.set_read_timeout(Some(limit)).is_err()
            || self.stream.set_nonblocking(false).is_err()
        {
            return false;
        }
        self.read_some(&mut [0u8; 4096]);
        // Left blocking, the socket would stall the next `poll()`.
        if self.stream.set_nonblocking(true).is_err() {
            self.gone = true;
        }
        true
    }
}

/// Max accepted request-line length, bytes.
pub const MAX_LINE: usize = 1 << 20;

/// Nonblocking UDS listener + per-connection line framing.
pub struct UdsTransport {
    listener: UnixListener,
    conns: BTreeMap<ClientId, Conn>,
    next_client: ClientId,
    outbox_cap: usize,
}

impl UdsTransport {
    /// Binds (and replaces) the socket at `path`.
    pub fn bind<P: AsRef<Path>>(path: P) -> std::io::Result<UdsTransport> {
        let path = path.as_ref();
        // A stale socket file from a previous run refuses rebinding.
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        Ok(UdsTransport {
            listener,
            conns: BTreeMap::new(),
            next_client: 0,
            outbox_cap: DEFAULT_OUTBOX_CAP,
        })
    }

    /// Overrides the per-client write-buffer bound.
    pub fn set_outbox_cap(&mut self, cap: usize) {
        assert!(cap > 0);
        self.outbox_cap = cap;
    }

    /// Number of live connections.
    pub fn num_clients(&self) -> usize {
        self.conns.len()
    }

    /// Idles between loop iterations. With exactly one connection it
    /// parks on it: a blocking `read` bounded by `limit`, which ends
    /// early when that client sends; what it reads waits in the
    /// connection's line buffer for the next `poll()` to frame. The
    /// kernel rounds the read timeout up to whole scheduler ticks and
    /// fires it on a tick after that, so a park with nothing arriving
    /// lasts longer than `limit` (1 ms parks 8 ms at HZ = 250), and so
    /// does the wait of a client that connects meanwhile. With no
    /// connection, or several, it sleeps exactly `limit`.
    pub fn wait(&mut self, limit: Duration) {
        let lone = self.conns.len() == 1;
        let parked = match self.conns.values_mut().next() {
            Some(conn) if lone => !conn.gone && conn.park(limit),
            _ => false,
        };
        if !parked {
            std::thread::sleep(limit);
        }
    }

    fn accept_new(&mut self) {
        // lint: l5-ok(terminates: the nonblocking listener returns WouldBlock once the accept queue is empty)
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let id = self.next_client;
                    self.next_client += 1;
                    self.conns.insert(
                        id,
                        Conn {
                            stream,
                            rdbuf: Vec::new(),
                            // lint: l10-ok(bound: outbox_cap — push() rejects beyond it)
                            wrq: VecDeque::new(),
                            gone: false,
                        },
                    );
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn read_requests(&mut self) -> Vec<(ClientId, Request)> {
        let mut out = Vec::new();
        let mut buf = [0u8; 4096];
        for (&id, conn) in self.conns.iter_mut() {
            // Terminates: a nonblocking read returns WouldBlock, EOF, or
            // an error once the socket drains.
            while conn.read_some(&mut buf) {}
            // Frame every complete line in place, then drop the consumed
            // prefix once; a trailing partial line stays for next time.
            let mut start = 0;
            while let Some(len) = conn.rdbuf[start..].iter().position(|&b| b == b'\n') {
                let text = String::from_utf8_lossy(&conn.rdbuf[start..start + len]);
                start += len + 1;
                if text.trim().is_empty() {
                    continue;
                }
                match decode_line::<Request>(&text) {
                    Ok(req) => out.push((id, req)),
                    Err(e) => {
                        // Answer in-band; the service loop never sees it.
                        if conn.wrq.len() < self.outbox_cap {
                            let resp = Response::Error {
                                msg: format!("bad request: {e}"),
                            };
                            // lint: l10-ok(bound: outbox_cap — checked above)
                            conn.wrq.push_back(encode_line(&resp).into_bytes());
                        }
                    }
                }
            }
            conn.rdbuf.drain(..start);
        }
        out
    }

    fn reap(&mut self) {
        self.conns.retain(|_, c| !c.gone);
    }
}

impl Transport for UdsTransport {
    fn poll(&mut self) -> Vec<(ClientId, Request)> {
        self.accept_new();
        let reqs = self.read_requests();
        for conn in self.conns.values_mut() {
            conn.write_queued();
        }
        self.reap();
        reqs
    }

    fn push(&mut self, client: ClientId, resp: Response) -> Result<(), PushError> {
        let Some(conn) = self.conns.get_mut(&client) else {
            return Err(PushError::Gone);
        };
        if conn.gone {
            return Err(PushError::Gone);
        }
        if conn.wrq.len() >= self.outbox_cap {
            return Err(PushError::Full);
        }
        // lint: l10-ok(bound: outbox_cap — checked above)
        conn.wrq.push_back(encode_line(&resp).into_bytes());
        conn.write_queued();
        Ok(())
    }
}
