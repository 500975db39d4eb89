//! Layer `service::uds` — a single-threaded probe of `UdsTransport`.
//!
//! The harness binds a transport, connects one client stream to it and
//! plays both ends: write a chunk of the run's request lines, time the
//! `poll()` that frames and decodes them, `push()` the matching
//! replies, time the next `poll()` — the one that actually writes them,
//! since `push` only queues — and read them back on the client side.

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Instant;

use taps_service::{Request, Response, Transport, UdsTransport};

use super::Metrics;
use crate::stats::mean;

/// Requests per chunk: small enough that a chunk of request lines and
/// the chunk of replies always fit the kernel's socket buffers, so no
/// end ever has to wait for the other.
const CHUNK: usize = 32;

/// Empty polls timed.
const EMPTY_POLLS: usize = 2_000;

/// Runs the probe over `requests`/`req_lines` and the decisions that
/// answer them. Returns the metrics and any mismatch found.
pub fn probe(
    socket: &Path,
    requests: &[Request],
    req_lines: &[String],
    responses: &[Response],
    resp_lines: &[String],
) -> Result<(Metrics, Vec<String>), String> {
    let mut violations = Vec::new();
    let mut tr =
        UdsTransport::bind(socket).map_err(|e| format!("bind {}: {e}", socket.display()))?;
    let result = (|| {
        let mut client =
            UnixStream::connect(socket).map_err(|e| format!("connect probe socket: {e}"))?;
        client
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        // The first poll accepts the connection.
        if !tr.poll().is_empty() || tr.num_clients() != 1 {
            return Err("probe transport did not accept exactly one idle client".to_string());
        }

        let t = Instant::now();
        for _ in 0..EMPTY_POLLS {
            std::hint::black_box(tr.poll());
        }
        let empty_poll_us = t.elapsed().as_secs_f64() * 1e6 / EMPTY_POLLS as f64;

        let n = requests.len().min(responses.len());
        let (mut poll_us, mut push_us, mut flush_us) = (Vec::new(), Vec::new(), Vec::new());
        let mut rd = vec![0u8; 1 << 16];
        for lo in (0..n).step_by(CHUNK) {
            let hi = (lo + CHUNK).min(n);
            let bytes: String = req_lines[lo..hi].concat();
            client
                .write_all(bytes.as_bytes())
                .map_err(|e| format!("probe client write: {e}"))?;

            let t = Instant::now();
            let got = tr.poll();
            poll_us.push(t.elapsed().as_secs_f64() * 1e6 / (hi - lo) as f64);
            let got_reqs: Vec<&Request> = got.iter().map(|(_, r)| r).collect();
            if got_reqs != requests[lo..hi].iter().collect::<Vec<_>>() {
                violations.push(format!(
                    "poll returned other requests than sent ({lo}..{hi})"
                ));
            }
            let client_id = got.first().map_or(0, |(c, _)| *c);

            let batch = responses[lo..hi].to_vec();
            let t = Instant::now();
            for r in batch {
                if tr.push(client_id, r).is_err() {
                    violations.push("push to the probe client failed".to_string());
                }
            }
            push_us.push(t.elapsed().as_secs_f64() * 1e6 / (hi - lo) as f64);

            let t = Instant::now();
            let stray = tr.poll();
            flush_us.push(t.elapsed().as_secs_f64() * 1e6 / (hi - lo) as f64);
            if !stray.is_empty() {
                violations.push("flush poll returned requests".to_string());
            }

            let want: String = resp_lines[lo..hi].concat();
            let mut have = Vec::with_capacity(want.len());
            loop {
                match client.read(&mut rd) {
                    Ok(0) => break,
                    Ok(k) => have.extend_from_slice(&rd[..k]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => return Err(format!("probe client read: {e}")),
                }
            }
            if have != want.as_bytes() {
                violations.push(format!("replies {lo}..{hi} arrived altered or incomplete"));
            }
        }
        violations.truncate(5);
        Ok(vec![
            ("uds.poll_us_per_req", mean(&poll_us)),
            ("uds.empty_poll_us", empty_poll_us),
            ("uds.push_us", mean(&push_us)),
            // The flush poll also does an empty read pass.
            (
                "uds.flush_us_per_reply",
                (mean(&flush_us) - empty_poll_us / CHUNK as f64).max(0.0),
            ),
        ])
    })();
    drop(tr);
    let _ = std::fs::remove_file(socket);
    result.map(|m| (m, violations))
}
