//! Load-generator client for `taps-serviced`.
//!
//! ```text
//! taps-load --socket /tmp/taps.sock [--tasks 200] [--hosts 128] \
//!           [--seed 7] [--rate-scale 50] [--drain]
//! ```
//!
//! Generates a seeded `taps-workload` scenario, shapes it with a
//! `ReplayPlan`, submits each task at its planned instant over the
//! socket, and reports admission-latency percentiles when every
//! decision has arrived. With `--drain` the run ends by asking the
//! daemon to gracefully shut down.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use taps_service::cli::flag_value;
use taps_service::{decode_line, encode_line, verdict, Request, Response};
use taps_workload::{ReplayConfig, ReplayPlan, WorkloadConfig};

/// [`flag_value`], or a one-line message and exit status 2.
fn arg<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    flag_value(args, flag, default).unwrap_or_else(|e| {
        eprintln!("taps-load: {e}");
        std::process::exit(2)
    })
}

/// One blocking Stats round-trip; returns `daemon_now - our_elapsed` so
/// `our_elapsed + skew` is a time on the daemon's clock. Falls back to
/// 0 (shared clock) if the daemon predates the `now` stats field.
fn daemon_clock_skew(stream: &mut UnixStream, start: Instant) -> f64 {
    if let Err(e) = stream.write_all(encode_line(&Request::Stats).as_bytes()) {
        eprintln!("taps-load: stats handshake write failed: {e}");
        std::process::exit(1);
    }
    let mut rdbuf: Vec<u8> = Vec::new();
    let mut buf = [0u8; 4096];
    let handshake_deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match stream.read(&mut buf) {
            Ok(0) => {
                eprintln!("taps-load: daemon closed the connection during handshake");
                std::process::exit(1);
            }
            Ok(n) => rdbuf.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() > handshake_deadline {
                    eprintln!("taps-load: stats handshake timed out");
                    std::process::exit(1);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => {
                eprintln!("taps-load: stats handshake read failed: {e}");
                std::process::exit(1);
            }
        }
        if let Some(pos) = rdbuf.iter().position(|&b| b == b'\n') {
            let text = String::from_utf8_lossy(&rdbuf[..pos]).into_owned();
            if let Ok(Response::Stats { metrics }) = decode_line::<Response>(&text) {
                let daemon_now = metrics.get("now").and_then(|v| v.as_f64()).unwrap_or(0.0);
                return (daemon_now - start.elapsed().as_secs_f64()).max(0.0);
            }
            eprintln!("taps-load: unexpected handshake reply: {text}");
            std::process::exit(1);
        }
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let socket = arg(&args, "--socket", "/tmp/taps-service.sock".to_string());
    let tasks: usize = arg(&args, "--tasks", 200);
    let hosts: usize = arg(&args, "--hosts", 128);
    let seed: u64 = arg(&args, "--seed", 7);
    let rate_scale: f64 = arg(&args, "--rate-scale", 50.0);
    let drain = args.iter().any(|a| a == "--drain");

    let mut wcfg = WorkloadConfig::paper_single_rooted(hosts, seed);
    wcfg.num_tasks = tasks;
    wcfg.mean_flows_per_task = 4.0;
    wcfg.sd_flows_per_task = 1.0;
    let wl = wcfg.generate();
    let plan = ReplayPlan::build(
        &wl,
        &ReplayConfig {
            rate_scale,
            burst: None,
        },
    );

    let mut stream = match UnixStream::connect(&socket) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("taps-load: cannot connect to {socket}: {e}");
            std::process::exit(1);
        }
    };
    stream
        .set_nonblocking(true)
        .expect("set_nonblocking on a fresh stream");

    let start = Instant::now();
    // Clock sync: deadlines are absolute on the daemon's clock, which
    // started before ours. One Stats round-trip reads the daemon's loop
    // time; `skew` maps our elapsed time onto it.
    let skew = daemon_clock_skew(&mut stream, start);
    let mut submit_wall: BTreeMap<u64, f64> = BTreeMap::new();
    let mut latencies: Vec<f64> = Vec::with_capacity(tasks);
    let (mut granted, mut rejected, mut shed) = (0u64, 0u64, 0u64);
    let mut rdbuf: Vec<u8> = Vec::new();
    let mut idx = 0usize;
    let mut decided = 0usize;

    while decided < plan.events.len() {
        let now = start.elapsed().as_secs_f64();
        while idx < plan.events.len() && plan.events[idx].at <= now {
            let ev = plan.events[idx];
            let submit = taps_service::load::submit_for_task(&wl, ev.task, now + skew + 0.040);
            submit_wall.insert(ev.task as u64, now);
            let line = encode_line(&Request::Submit(submit));
            if let Err(e) = stream.write_all(line.as_bytes()) {
                eprintln!("taps-load: write failed: {e}");
                std::process::exit(1);
            }
            idx += 1;
        }
        let mut buf = [0u8; 4096];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => {
                    eprintln!("taps-load: daemon closed the connection");
                    std::process::exit(1);
                }
                Ok(n) => rdbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => {
                    eprintln!("taps-load: read failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        while let Some(pos) = rdbuf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = rdbuf.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            if let Ok(Response::Decision {
                task,
                verdict: v,
                reason,
                ..
            }) = decode_line::<Response>(&text)
            {
                decided += 1;
                match v {
                    verdict::GRANTED | verdict::GRANTED_PREEMPTING => granted += 1,
                    _ if reason.is_none_or(|r| r == taps_obs::reason::INFEASIBLE) => rejected += 1,
                    _ => shed += 1,
                }
                if let Some(at) = submit_wall.get(&(task)) {
                    latencies.push(start.elapsed().as_secs_f64() - at);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    latencies.sort_by(f64::total_cmp);
    println!(
        "taps-load: {} tasks — {granted} granted, {rejected} rejected, {shed} shed; \
         latency p50 {:.2} ms, p99 {:.2} ms",
        plan.events.len(),
        percentile(&latencies, 0.50) * 1e3,
        percentile(&latencies, 0.99) * 1e3,
    );

    if drain {
        let _ = stream.write_all(encode_line(&Request::Drain).as_bytes());
        // Give the daemon a beat to acknowledge before we disconnect.
        std::thread::sleep(Duration::from_millis(50));
    }
}
