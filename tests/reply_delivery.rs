//! A burst's replies reach the client as they are decided. The service
//! loop pushes each reply the moment its decision is made, and
//! `UdsTransport::push` writes it through to the socket, so the first
//! decision of a 40-task burst does not wait for the other 39. The test
//! wraps the transport in one that reads the client's socket before
//! every `push`, and requires every earlier reply to be there already.

#![cfg(unix)]

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;

use taps_sdn::ControllerConfig;
use taps_service::{
    encode_line, ClientId, PushError, Request, Response, ServiceConfig, ServiceController, Submit,
    SubmitFlow, Transport, UdsTransport,
};
use taps_topology::build::{fat_tree, GBPS};

const BURST: u64 = 40;

/// `UdsTransport`, plus the client end of its one connection: before
/// each `push` it reads everything the client has been sent so far.
struct ReadBeforePush {
    inner: UdsTransport,
    client: UnixStream,
    received: Vec<u8>,
    /// Per push, in order: how many reply lines the client had by then.
    lines_before: Vec<usize>,
}

impl ReadBeforePush {
    fn read_client(&mut self) {
        let mut buf = [0u8; 4096];
        loop {
            match self.client.read(&mut buf) {
                Ok(0) => panic!("the transport closed the connection"),
                Ok(n) => self.received.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) => panic!("client read: {e}"),
            }
        }
    }

    fn lines(&self) -> usize {
        self.received.iter().filter(|&&b| b == b'\n').count()
    }
}

impl Transport for ReadBeforePush {
    fn poll(&mut self) -> Vec<(ClientId, Request)> {
        self.inner.poll()
    }

    fn push(&mut self, client: ClientId, resp: Response) -> Result<(), PushError> {
        self.read_client();
        self.lines_before.push(self.lines());
        self.inner.push(client, resp)
    }
}

#[test]
fn a_bursts_replies_reach_the_client_as_they_are_decided() {
    let topo = fat_tree(4, GBPS);
    let hosts = topo.num_hosts() as u64;
    let cfg = ServiceConfig::default();
    assert!(BURST >= cfg.batch_enter as u64 && BURST <= cfg.max_batch as u64);
    assert!(BURST <= cfg.shed_watermark as u64, "no task is shed");
    let mut svc = ServiceController::new(&topo, ControllerConfig::default(), cfg);

    let path = std::env::temp_dir().join(format!("taps-reply-burst-{}.sock", std::process::id()));
    let inner = UdsTransport::bind(&path).expect("bind test socket");
    let mut client = UnixStream::connect(&path).expect("connect");
    let submits: String = (0..BURST)
        .map(|i| {
            encode_line(&Request::Submit(Submit {
                task: i,
                deadline: 10.0,
                flows: vec![SubmitFlow {
                    flow: i,
                    src: i % hosts,
                    dst: (i + 5) % hosts,
                    size: 1e5,
                }],
            }))
        })
        .collect();
    client.write_all(submits.as_bytes()).unwrap();
    client.set_nonblocking(true).unwrap();
    let mut tr = ReadBeforePush {
        inner,
        client,
        received: Vec::new(),
        lines_before: Vec::new(),
    };

    // One step accepts the connection, reads the burst, and decides it.
    assert_eq!(svc.step(0.0, &mut tr), BURST as usize);
    assert!(svc.is_batch_mode());
    let pushes = tr.lines_before.len();
    assert!(pushes >= BURST as usize, "one reply per decision");
    for (i, &had) in tr.lines_before.iter().enumerate() {
        assert_eq!(
            had, i,
            "push {i} of {pushes}: the client had {had} earlier replies, not {i}"
        );
    }

    tr.read_client();
    let text = String::from_utf8(tr.received.clone()).expect("UTF-8 replies");
    let decided: Vec<u64> = text
        .lines()
        .filter_map(|l| match taps_service::decode_line::<Response>(l) {
            Ok(Response::Decision { task, .. }) => Some(task),
            _ => None,
        })
        .collect();
    assert_eq!(decided, (0..BURST).collect::<Vec<_>>());
    let _ = std::fs::remove_file(&path);
}
