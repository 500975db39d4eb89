//! End-to-end test of the `taps-serviced` binary over its socket: a
//! submit is decided, `Stats` answers, a second client is served while
//! the loop is parked on the first, and `Drain` ends the process
//! cleanly. It asserts no latency: the benchmark measures that.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use taps_service::{decode_line, encode_line, Request, Response, Submit, SubmitFlow};

/// Bound on every blocking step, so a broken daemon fails the test
/// instead of hanging it.
const PATIENCE: Duration = Duration::from_secs(20);

/// Kills the daemon if the test ends before it exits.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// One line-oriented client connection.
struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn connect(socket: &Path) -> Client {
        let start = Instant::now();
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(s) => break s,
                Err(_) if start.elapsed() < PATIENCE => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Err(e) => panic!("daemon never listened on {}: {e}", socket.display()),
            }
        };
        stream.set_read_timeout(Some(PATIENCE)).unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send(&mut self, req: &Request) {
        self.writer
            .write_all(encode_line(req).as_bytes())
            .expect("send to the daemon");
    }

    fn recv(&mut self) -> Response {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .expect("a reply before the read timeout");
        assert!(n > 0, "the daemon closed the connection");
        decode_line(&line).expect("a decodable reply")
    }
}

#[test]
fn daemon_decides_answers_a_second_client_and_drains() {
    let socket = std::env::temp_dir().join(format!("taps-daemon-{}.sock", std::process::id()));
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_taps-serviced"))
            .args(["--socket", socket.to_str().unwrap(), "--k", "4"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn taps-serviced"),
    );
    let mut a = Client::connect(&socket);

    a.send(&Request::Submit(Submit {
        task: 1,
        deadline: 1e6,
        flows: vec![SubmitFlow {
            flow: 1,
            src: 0,
            dst: 4,
            size: 1e5,
        }],
    }));
    assert!(matches!(a.recv(), Response::Decision { task: 1, .. }));
    // Nothing else is queued ahead of the `Stats` reply: one submit,
    // one decision.
    a.send(&Request::Stats);
    assert!(matches!(a.recv(), Response::Stats { .. }));

    // The daemon is now idle and parked on `a`; a new connection is
    // still served.
    let mut b = Client::connect(&socket);
    b.send(&Request::Stats);
    assert!(matches!(b.recv(), Response::Stats { .. }));

    a.send(&Request::Drain);
    assert!(matches!(a.recv(), Response::DrainStarted { .. }));
    let start = Instant::now();
    let status = loop {
        if let Some(status) = daemon.0.try_wait().expect("poll the daemon") {
            break status;
        }
        assert!(start.elapsed() < PATIENCE, "the daemon did not exit");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "{status:?}");
    let _ = std::fs::remove_file(&socket);
}
