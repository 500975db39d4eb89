//! `cargo xtask <task>` — workspace automation.
//!
//! Tasks:
//! * `lint` — run the repo-specific determinism & safety lints (rules
//!   L1–L8 and L10, one `syn`-based engine) over every workspace crate.
//!   Exits non-zero on any finding. `--format json` prints a stable
//!   sorted findings array.
//! * `chaos --seeds N` — run the seeded control-plane chaos gate: lossy
//!   channels + link outage + controller crash/failover per seed, with
//!   safety and bit-identical-determinism assertions (DESIGN.md §10).
//! * `bench-smoke` — run `bench_admission` once with a tiny config in
//!   release mode and fail on any admission hot-path regression
//!   (DESIGN.md §12), time a flowsim round at 1 000 and 4 000 tasks and
//!   fail if the cost per task grows with the round, time a
//!   controller probe on a fresh and an aged registry and fail if it
//!   grows with history, and time a batch of first-time rack pairs on an
//!   empty and a warmed path cache and fail if a miss costs a graph walk.
//! * `soak` — run the deterministic live-service soak gate: overload
//!   burst, shedding audit, byte-identical double runs (DESIGN.md §15).
//! * `scenarios` — replay the golden scenario matrix (weighted,
//!   close-to-deadline, trace-shaped, incast, straggler, diurnal ramp)
//!   through the seven-scheduler comparison and fail on digest or
//!   invariant drift (DESIGN.md §16).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let json = args
                .windows(2)
                .any(|w| w[0] == "--format" && w[1] == "json");
            lint(args.iter().any(|a| a == "--quiet" || a == "-q"), json)
        }
        Some("chaos") => chaos(&args[1..]),
        Some("trace") => trace(),
        Some("bench-smoke") => bench_smoke(),
        Some("soak") => soak(&args[1..]),
        Some("scenarios") => scenarios(&args[1..]),
        Some(other) => {
            eprintln!("unknown task `{other}`");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: cargo xtask <task>

tasks:
  lint [--quiet] [--format json]
                     repo-specific determinism & safety lints: rules L1-L8 and L10,
                     run by one syn-based engine, plus allowlist-marker hygiene;
                     --format json emits a stable sorted findings array; see
                     DESIGN.md §13
  chaos --seeds N    seeded control-plane chaos gate (lossy channels, link outage,
                     controller crash/failover); asserts safety + determinism
  trace              golden-trace gate: runs the traced testbed + chaos scenarios,
                     asserts byte-identical re-runs, replays the event stream through
                     the invariant validator, writes results/TRACE_*.jsonl
  bench-smoke        four regression gates: runs bench_admission once with a tiny
                     config (k = 8, 16) in release mode and fails if the engine's
                     full or delta pass is slower than the naive reference
                     (speedup_p50 < 1.0) or any schedule diverged; times a flowsim
                     Taps round at 1 000 and 4 000 tasks and fails if
                     seconds-per-1 000-tasks grows by more than 2x; times one
                     controller probe on a registry holding 0 and 20 000 retired
                     flows and fails if the second costs more than 1.2x the first;
                     times allocate_batch of 256 one-slot flows on 256 distinct
                     ToR pairs of fat_tree(16) on an empty and on a warmed path
                     cache and fails if the first costs more than 8x the second
  soak [--small]     deterministic live-service soak gate (DESIGN.md §15): two
                     seeds, paper-scale k=16 fat-tree, overload burst phase;
                     asserts zero invariant violations, byte-identical double
                     runs (digests, shed lists, metrics), honest shed reasons,
                     and the sustained-throughput floor; --small runs the k=4
                     unit-test variant
  scenarios [--update]
                     golden scenario-matrix gate (DESIGN.md §16): every scenario
                     family (weighted, close-to-deadline, websearch/data-mining
                     sizes, incast, straggler, diurnal ramp) x 2 seeds through
                     the full seven-scheduler comparison; asserts byte-identical
                     double runs, digests pinned in tests/goldens/
                     scenario_matrix.json, weight-1.0 neutrality, and chaos
                     survival of the incast family; --update refreshes the
                     pinned manifest after an intentional change";

fn chaos(args: &[String]) -> ExitCode {
    let mut seeds: u64 = 8;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => seeds = n,
                None => {
                    eprintln!("chaos: --seeds needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("chaos: unknown argument `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let failures = xtask::chaos::run(seeds);
    if failures.is_empty() {
        println!("xtask chaos: {seeds} seed(s) clean (safety + bit-identical determinism)");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("chaos FAILURE (seed {}): {}", f.seed, f.what);
        }
        eprintln!("xtask chaos: {} failure(s)", failures.len());
        ExitCode::FAILURE
    }
}

fn scenarios(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--table") {
        xtask::scenarios::print_table();
        return ExitCode::SUCCESS;
    }
    let update = args.iter().any(|a| a == "--update");
    if let Some(bad) = args.iter().find(|a| *a != "--update") {
        eprintln!("scenarios: unknown argument `{bad}`");
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let (lines, failures) = xtask::scenarios::run(&workspace_root(), update);
    for l in &lines {
        println!("xtask scenarios: {l}");
    }
    if failures.is_empty() {
        println!(
            "xtask scenarios: clean (matrix digests pinned, byte-identical double runs, \
             weight-1.0 neutrality, incast chaos survival)"
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("scenarios FAILURE ({}): {}", f.cell, f.what);
        }
        eprintln!("xtask scenarios: {} failure(s)", failures.len());
        ExitCode::FAILURE
    }
}

fn trace() -> ExitCode {
    let root = workspace_root();
    let (summaries, failures) = xtask::trace::run(&root);
    for s in &summaries {
        let r = &s.report;
        println!(
            "xtask trace: {} ok — {} events, {} flows, {} commits, {} grants; \
             checks: {} exclusivity, {} deadline, {} agreement -> {}",
            s.scenario,
            r.events,
            r.flows,
            r.commits,
            r.grants,
            r.exclusivity_checks,
            r.deadline_checks,
            r.agreement_checks,
            s.artifact
        );
    }
    if failures.is_empty() {
        println!("xtask trace: clean (byte-identical re-runs + replay invariants)");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("trace FAILURE ({}): {}", f.scenario, f.what);
        }
        eprintln!("xtask trace: {} failure(s)", failures.len());
        ExitCode::FAILURE
    }
}

fn bench_smoke() -> ExitCode {
    let root = workspace_root();
    let (rows, mut failures) = xtask::bench_smoke::run(&root);
    let (linearity, nonlinear) = xtask::bench_smoke::run_linearity();
    failures.extend(nonlinear);
    let (history, aging) = xtask::bench_smoke::run_history();
    failures.extend(aging);
    let (cold, chilled) = xtask::bench_smoke::run_cold();
    failures.extend(chilled);
    for r in &rows {
        println!(
            "xtask bench-smoke: k={} fast {:.1}x, delta {:.1}x over legacy p50",
            r.k, r.speedup_p50, r.speedup_p50_delta
        );
    }
    println!(
        "xtask bench-smoke: flowsim {:.3} s per 1 000 tasks at {} tasks, {:.3} at {} ({:.1}x)",
        linearity.short,
        xtask::bench_smoke::LINEARITY_TASKS.0,
        linearity.long,
        xtask::bench_smoke::LINEARITY_TASKS.1,
        linearity.long / linearity.short
    );
    println!(
        "xtask bench-smoke: controller {:.0} us per probe on a fresh registry, {:.0} with {} \
         retired flows ({:.2}x)",
        history.fresh,
        history.aged,
        xtask::bench_smoke::HISTORY_RETIRED,
        history.aged / history.fresh
    );
    println!(
        "xtask bench-smoke: path cache {:.0} us per {}-pair batch warm, {:.0} cold ({:.2}x)",
        cold.warm,
        xtask::bench_smoke::COLD_FLOWS,
        cold.cold,
        cold.cold / cold.warm
    );
    if failures.is_empty() {
        println!(
            "xtask bench-smoke: clean (no admission hot-path regression, flowsim linear, \
             controller probes history-independent, cold path lookups cheap)"
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("bench-smoke FAILURE: {}", f.what);
        }
        eprintln!("xtask bench-smoke: {} failure(s)", failures.len());
        ExitCode::FAILURE
    }
}

/// Outcome digests of the default soak, per seed. Tier-1
/// (`tests/service_soak.rs`) pins the first seed; this gate pins both.
const SOAK_DIGESTS: [(u64, &str); 2] = [(11, "b4ae16e9536366c4"), (23, "3a638172e9d12986")];

fn soak(args: &[String]) -> ExitCode {
    let small = args.iter().any(|a| a == "--small");
    let cfg = if small {
        taps_service::SoakConfig::small()
    } else {
        taps_service::SoakConfig::default()
    };
    if let Some(bad) = args.iter().find(|a| *a != "--small") {
        eprintln!("soak: unknown argument `{bad}`");
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let (lines, mut failures) = taps_service::run_soak(&cfg);
    for l in &lines {
        println!("xtask soak: {l}");
    }
    if !small {
        for (line, (seed, digest)) in lines.iter().zip(SOAK_DIGESTS) {
            if !line.ends_with(&format!("digest {digest}")) {
                failures.push(taps_service::SoakFailure {
                    seed,
                    what: format!("digest moved from the pinned {digest}: {line}"),
                });
            }
        }
    }
    if failures.is_empty() {
        println!(
            "xtask soak: clean ({} seed(s): invariants, byte-identical double runs, \
             honest sheds, batch mode entered, throughput floor {:.0}/s)",
            cfg.seeds.len(),
            cfg.min_throughput
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("soak FAILURE (seed {}): {}", f.seed, f.what);
        }
        eprintln!("xtask soak: {} failure(s)", failures.len());
        ExitCode::FAILURE
    }
}

fn lint(quiet: bool, json: bool) -> ExitCode {
    let root = workspace_root();
    let findings = match xtask::lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("xtask lint: io error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        print!("{}", xtask::findings_to_json(&findings));
        return if findings.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if findings.is_empty() {
        if !quiet {
            println!("xtask lint: clean (rules L1-L8 and L10, allowlist hygiene)");
        }
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("{f}\n");
        }
        println!("xtask lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// The workspace root: `CARGO_MANIFEST_DIR/..` (xtask lives one level
/// below the root), falling back to the current directory.
fn workspace_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => {
            let p = PathBuf::from(dir);
            p.parent().map(|p| p.to_path_buf()).unwrap_or(p)
        }
        None => PathBuf::from("."),
    }
}
