//! Command line of the benchmark harness. `run.sh` builds and calls it.
//!
//! ```text
//! taps-e2e-bench --daemon PATH [--out DIR] --workload W --seed N --seconds S --trace 0|1
//! taps-e2e-bench --daemon PATH [--out DIR] [--seed N] [--seconds S]      # all workloads, both modes
//! taps-e2e-bench repeat N --daemon PATH [--out DIR] [--seed N] [--seconds S]
//! taps-e2e-bench spread N --daemon PATH [--out DIR] [--seed N] [--seconds S]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use taps_e2e_bench::{report, run, spec};

struct Args {
    daemon: PathBuf,
    out: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: Option<usize>,
    spread: Option<usize>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        daemon: PathBuf::new(),
        out: PathBuf::from("benchmark/out"),
        workload: None,
        seed: 1,
        seconds: 20.0,
        traced: false,
        repeat: None,
        spread: None,
    };
    let mut it = argv.iter().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "repeat" => a.repeat = Some(value()?.parse().map_err(|e| format!("repeat: {e}"))?),
            "spread" => a.spread = Some(value()?.parse().map_err(|e| format!("spread: {e}"))?),
            "--daemon" => a.daemon = PathBuf::from(value()?),
            "--out" => a.out = PathBuf::from(value()?),
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.traced = value()? == "1",
            "--traced" => a.traced = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !a.daemon.is_file() {
        return Err(format!("--daemon {}: no such file", a.daemon.display()));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("taps-e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let env = run::Env {
        daemon_bin: args.daemon,
        out_dir: args.out,
    };
    let outcome = if let Some(n) = args.repeat {
        report::repeat(&env, n, args.seed, args.seconds)
    } else if let Some(n) = args.spread {
        report::spread(&env, n, args.seed, args.seconds)
    } else if let Some(name) = &args.workload {
        match spec::workload(name) {
            Some(w) => report::one(w, &env, args.seed, args.seconds, args.traced),
            None => Err(format!("unknown workload `{name}`")),
        }
    } else {
        report::all(&env, args.seed, args.seconds)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("taps-e2e-bench: {e}");
            ExitCode::from(2)
        }
    }
}
