//! The process under test: a fresh `taps-serviced` child per round,
//! killed, reaped and its socket removed on every exit path.

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use serde_json::Value;
use taps_service::{decode_line, encode_line, Request, Response};

/// How long a blocking exchange with the daemon may take.
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(10);

/// Kills and reaps the child and removes its socket file when dropped.
struct Reaper {
    child: Child,
    socket: PathBuf,
}

impl Drop for Reaper {
    fn drop(&mut self) {
        // Errors are ignored: the child may already be gone, and a
        // destructor must not panic.
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// A running daemon and the one connection the harness holds to it.
/// Dropping it kills and reaps the child and removes the socket file.
pub struct Daemon {
    reaper: Reaper,
    /// The nonblocking client connection.
    pub stream: UnixStream,
    /// Bytes read from the socket; `rdbuf[rdpos..]` is not yet framed.
    rdbuf: Vec<u8>,
    rdpos: usize,
    /// Spawn → first `Stats` reply, seconds.
    pub setup_s: f64,
    /// Add to a harness-clock time (seconds since `epoch`) to get the
    /// same instant on the daemon's loop clock.
    pub clock_offset: f64,
    /// Origin of the harness clock.
    pub epoch: Instant,
}

impl Daemon {
    /// Spawns `binary --socket <socket> --k <k>`, connects, and syncs
    /// clocks with `Stats` round trips. `socket` should be a short
    /// relative path (Unix socket addresses hold ~100 bytes).
    pub fn spawn(binary: &Path, socket: &Path, k: usize) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        if let Some(dir) = socket.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let epoch = Instant::now();
        let child = Command::new(binary)
            .arg("--socket")
            .arg(socket)
            .arg("--k")
            .arg(k.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
        // From here on the reaper owns the child: any early return reaps it.
        let reaper = Reaper {
            child,
            socket: socket.to_path_buf(),
        };
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(s) => break s,
                Err(_) if epoch.elapsed() < EXCHANGE_TIMEOUT => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => return Err(format!("cannot connect to {}: {e}", socket.display())),
            }
        };
        let mut guard = Daemon {
            reaper,
            stream,
            rdbuf: Vec::new(),
            rdpos: 0,
            setup_s: 0.0,
            clock_offset: 0.0,
            epoch,
        };
        guard
            .stream
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        // First reply ends set-up; four more round trips refine the
        // clock offset (the tightest round trip bounds it best).
        let mut best: Option<(f64, f64)> = None; // (rtt, offset)
        for i in 0..5 {
            let sent = guard.epoch.elapsed().as_secs_f64();
            let stats = guard.stats()?;
            let recv = guard.epoch.elapsed().as_secs_f64();
            if i == 0 {
                guard.setup_s = recv;
            }
            let daemon_now = stats
                .get("now")
                .and_then(Value::as_f64)
                .ok_or("Stats reply carries no `now`")?;
            let sample = (recv - sent, daemon_now - (sent + recv) / 2.0);
            if best.is_none_or(|b| sample.0 < b.0) {
                best = Some(sample);
            }
        }
        guard.clock_offset = best.expect("five samples were taken").1;
        Ok(guard)
    }

    /// Process id of the child.
    pub fn pid(&self) -> u32 {
        self.reaper.child.id()
    }

    /// Writes all of `bytes`, yielding through `WouldBlock` (only used
    /// for the small control messages outside the timed region).
    fn write_all_spinning(&mut self, bytes: &[u8]) -> Result<(), String> {
        let start = Instant::now();
        let mut off = 0;
        while off < bytes.len() {
            match self.stream.write(&bytes[off..]) {
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if start.elapsed() > EXCHANGE_TIMEOUT {
                        return Err("write to daemon timed out".into());
                    }
                    std::thread::yield_now();
                }
                Err(e) => return Err(format!("write to daemon: {e}")),
            }
        }
        Ok(())
    }

    /// Reads whatever the socket holds into `rdbuf` without waiting.
    /// `Ok(false)` means the daemon closed the connection.
    pub fn fill(&mut self) -> Result<bool, String> {
        let mut buf = [0u8; 65_536];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Ok(false),
                Ok(n) => self.rdbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(true),
                Err(e) => return Err(format!("read from daemon: {e}")),
            }
        }
    }

    /// Pops one complete line off `rdbuf`, decoded.
    pub fn next_response(&mut self) -> Option<Result<Response, String>> {
        let Some(len) = self.rdbuf[self.rdpos..].iter().position(|&b| b == b'\n') else {
            // Only a partial line is left: move it to the front so the
            // buffer does not grow with everything ever read.
            self.rdbuf.drain(..self.rdpos);
            self.rdpos = 0;
            return None;
        };
        let text = String::from_utf8_lossy(&self.rdbuf[self.rdpos..self.rdpos + len]).into_owned();
        self.rdpos += len + 1;
        Some(decode_line::<Response>(&text).map_err(|e| format!("undecodable reply `{text}`: {e}")))
    }

    /// One blocking `Stats` round trip. Other replies that arrive first
    /// are handed to `other`.
    pub fn stats_with(&mut self, mut other: impl FnMut(Response)) -> Result<Value, String> {
        self.write_all_spinning(encode_line(&Request::Stats).as_bytes())?;
        let start = Instant::now();
        loop {
            while let Some(resp) = self.next_response() {
                match resp? {
                    Response::Stats { metrics } => return Ok(metrics),
                    r => other(r),
                }
            }
            if start.elapsed() > EXCHANGE_TIMEOUT {
                return Err("Stats round trip timed out".into());
            }
            if !self.fill()? {
                return Err("daemon closed the connection".into());
            }
            std::thread::yield_now();
        }
    }

    /// [`stats_with`](Self::stats_with), failing on any other reply.
    pub fn stats(&mut self) -> Result<Value, String> {
        let mut stray = None;
        let v = self.stats_with(|r| stray = Some(r))?;
        match stray {
            None => Ok(v),
            Some(r) => Err(format!("unexpected reply during handshake: {r:?}")),
        }
    }
}
