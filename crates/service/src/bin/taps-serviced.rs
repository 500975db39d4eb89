//! Live TAPS admission daemon over a Unix domain socket.
//!
//! ```text
//! taps-serviced --socket /tmp/taps.sock [--k 8] [--queue-cap 4096]
//! ```
//!
//! Clients speak the JSONL protocol of `taps_service::messages`: send
//! `{"Submit":{...}}` lines, read `{"Decision":{...}}` lines back;
//! `"Stats"` returns the metrics snapshot, `"Drain"` begins a graceful
//! shutdown (the daemon finishes the backlog, checkpoints, and exits).

use std::time::{Duration, Instant};

use taps_sdn::ControllerConfig;
use taps_service::cli::flag_value;
use taps_service::{ServiceConfig, ServiceController, ServiceState, UdsTransport};
use taps_topology::build::{fat_tree, GBPS};

/// How long an idle iteration waits for a request, and the loop's
/// cadence while a backlog is queued.
const LOOP_PERIOD: Duration = Duration::from_millis(1);

/// [`flag_value`], or a one-line message and exit status 2.
fn arg<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    flag_value(args, flag, default).unwrap_or_else(|e| {
        eprintln!("taps-serviced: {e}");
        std::process::exit(2)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let socket = arg(&args, "--socket", "/tmp/taps-service.sock".to_string());
    let k: usize = arg(&args, "--k", 8);
    if k < 2 || !k.is_multiple_of(2) {
        eprintln!(
            "taps-serviced: invalid value for --k: \"{k}\" (a fat-tree needs an even k >= 2)"
        );
        std::process::exit(2);
    }
    let svc_cfg = ServiceConfig {
        queue_cap: arg(&args, "--queue-cap", 4_096),
        ..ServiceConfig::default()
    };

    let topo = fat_tree(k, GBPS);
    let mut svc = ServiceController::new(&topo, ControllerConfig::default(), svc_cfg);

    let mut tr = match UdsTransport::bind(&socket) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("taps-serviced: cannot bind {socket}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "taps-serviced: listening on {socket} (k={k}, {} hosts, queue cap {})",
        topo.num_hosts(),
        svc_cfg.queue_cap
    );

    let start = Instant::now();
    loop {
        let now = start.elapsed().as_secs_f64();
        svc.step(now, &mut tr);
        if svc.state() == ServiceState::Draining && svc.pending_depth() == 0 {
            let (ckpt, end) = svc.drain(now, &mut tr);
            eprintln!(
                "taps-serviced: drained at t={end:.3}s — checkpoint epoch {} gen {} with {} flows",
                ckpt.epoch,
                ckpt.gen,
                ckpt.flows.len()
            );
            break;
        }
        if svc.pending_depth() == 0 {
            // Idle: park on a lone client until it sends.
            tr.wait(LOOP_PERIOD);
        } else {
            // A backlog keeps the cadence, so the queue can reach burst
            // mode and deadline shedding (DESIGN.md §15, "The step
            // contract").
            std::thread::sleep(LOOP_PERIOD);
        }
    }
}
