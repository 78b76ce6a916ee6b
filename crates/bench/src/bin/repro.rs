//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment-id>... [--scale S] [--apps a,b,c] [--out DIR] [--jobs N]
//!                          [--telemetry DIR] [--quiet] [--resume DIR]
//!                          [--job-timeout SECS] [--job-max-insts N]
//!                          [--audit-strict]
//! repro all                # every experiment
//! repro list               # show available experiments
//! repro explain DIR        # render flight-record + cachescope reports
//! ```
//!
//! Results print as tables (with the paper's reference numbers quoted
//! underneath) and are written as JSON under `results/`, with sorted
//! keys, so a file's bytes depend only on its values.
//!
//! The whole command line is checked before anything runs
//! (`kagura_bench::cli::validate_args`): an unknown or repeated flag is
//! a usage error (exit 2), and a bad `--scale` or app, checked as
//! `simrun` checks them, a configuration error (exit 3). `--out` and
//! `--resume` both name the output directory, so only one may be given.
//!
//! `--jobs N` caps concurrent simulations process-wide (default: the
//! machine's available parallelism). Independent experiments run
//! concurrently and each submits its whole app × governor grid to the
//! shared worker pool, so N simulations stay in flight until the batch
//! drains. Simulations are deterministic and results are collected in
//! submission order, so every JSON file is byte-identical at any `--jobs`
//! value; only the interleaving of progress lines differs. `--jobs 1`
//! runs everything inline for cleanly grouped output.
//!
//! Each experiment reports start/finish on stderr (id, wall-clock, which
//! worker slot ran it); `--quiet` suppresses those lines. `--telemetry
//! DIR` enables timing spans (written to `DIR/spans.json`), dumps the
//! worker pool's job events (`DIR/pool_events.jsonl`) and per-job latency
//! histogram (`DIR/pool_metrics.json`), and lets event-capturing
//! experiments dump their streams under `DIR`.
//!
//! # Resilience
//!
//! Every artifact is written atomically (tmp file + fsync + rename) and
//! each finished experiment is journaled to `<out>/run_journal.jsonl`, so
//! a run killed at any instant — SIGKILL included — leaves only complete
//! artifacts plus a journal of what finished. `--resume DIR` re-runs only
//! the experiments missing from DIR's journal (the journal must
//! fingerprint the same `--scale`/`--apps`), converging to byte-identical
//! output. `--job-timeout SECS` arms a wall-clock watchdog per simulation
//! job and `--job-max-insts N` a deterministic instruction budget; a
//! cancelled or panicking grid cell degrades to `null` report cells plus a
//! record in `<out>/failures.json` instead of aborting the run.
//!
//! # Energy-flow observability
//!
//! Every simulation audits an energy-conservation ledger at each
//! power-cycle boundary; violations are counted per experiment and
//! reported on the finish line. `--audit-strict` escalates them to
//! per-cell failures and makes the whole run exit non-zero when any
//! cell violated conservation or failed. `repro explain DIR` renders
//! per-app decision reports (mode switches, `R_thres` trajectory,
//! estimator error, wasted compression energy) from the
//! `flight_<app>.jsonl` streams that `repro energy_waste --telemetry
//! DIR` dumps, and per-app cache reports (occupancy timeline, eviction
//! breakdown, latency attribution) from the `cachescope_<app>.jsonl`
//! streams that `repro cachescope --telemetry DIR` dumps — parsing both
//! strictly: a malformed line fails the command with a `file:line`
//! diagnostic naming the offending field.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ehs_telemetry::spans;
use kagura_bench::cli::{validate_args, Args, CliError, FlagSpec};
use kagura_bench::experiments::{find, ExpFn, REGISTRY};
use kagura_bench::journal::RunJournal;
use kagura_bench::{fsutil, vocab, ExpContext};

/// Everything `repro` accepts. The whole argument vector is checked
/// against it before any experiment runs, so a misspelled or repeated
/// flag is a usage error, never a dropped or silently overridden option.
const FLAGS: &[FlagSpec] = &[
    FlagSpec::value("--scale"),
    FlagSpec::value("--apps"),
    FlagSpec::value("--jobs"),
    FlagSpec::value("--out"),
    FlagSpec::value("--telemetry"),
    FlagSpec::value("--resume"),
    FlagSpec::value("--job-timeout"),
    FlagSpec::value("--job-max-insts"),
    FlagSpec::switch("--audit-strict"),
    FlagSpec::switch("--quiet"),
    FlagSpec::switch("-q"),
    FlagSpec::value("--fleet-size"),
    FlagSpec::value("--fleet-seed"),
    FlagSpec::value("--fleet-shard"),
    FlagSpec::switch("--list"),
    FlagSpec::switch("-l"),
    FlagSpec::switch("--help"),
    FlagSpec::switch("-h"),
];

/// The run's context from the validated flags. A bad scale or app is a
/// configuration error, as in `simrun`; any other bad value is a usage
/// error.
fn context(args: &Args) -> Result<ExpContext, CliError> {
    let mut ctx = ExpContext::default();
    if let Some(scale) = args.number("--scale", "scale").map_err(CliError::Config)? {
        ctx.scale = vocab::scale(scale).map_err(CliError::Config)?;
    }
    if let Some(spec) = args.value("--apps") {
        let apps: Vec<_> = spec
            .split(',')
            .map(|name| vocab::app(name.trim()))
            .collect::<Result<_, _>>()
            .map_err(CliError::Config)?;
        ctx.sens_apps = apps.clone();
        ctx.apps = apps;
    }
    let integer = |flag: &str, what: &str, valid: fn(u64) -> bool| {
        let bad = || CliError::Usage(format!("{flag} needs {what}"));
        args.value(flag).map(|v| v.parse().ok().filter(|&n| valid(n)).ok_or_else(bad)).transpose()
    };
    let positive = |flag| integer(flag, "a positive integer", |n| n > 0);
    if let Some(n) = positive("--jobs")? {
        ehs_sim::parallel::set_max_workers(n as usize);
    }
    ctx.job_budget.max_executed_insts = positive("--job-max-insts")?;
    if let Some(secs) = args.value("--job-timeout") {
        let wall = secs.parse().ok().filter(|&s: &f64| s > 0.0);
        let wall = wall.and_then(|s| Duration::try_from_secs_f64(s).ok()).ok_or_else(|| {
            CliError::Usage("--job-timeout needs a positive number of seconds".into())
        })?;
        ctx.job_budget.max_wall = Some(wall);
    }
    if let Some(n) = positive("--fleet-size")? {
        ctx.fleet.population = n;
    }
    if let Some(n) = positive("--fleet-shard")? {
        ctx.fleet.shard_size = n;
    }
    if let Some(seed) = integer("--fleet-seed", "an unsigned integer", |_| true)? {
        ctx.fleet.seed = seed;
    }
    // `--resume DIR` continues the run whose output is DIR.
    ctx.resume = args.has("--resume");
    match (args.value("--out"), args.value("--resume")) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "`--resume DIR` is the output directory: drop `--out`".into(),
            ))
        }
        (Some(dir), None) | (None, Some(dir)) => ctx.out_dir = dir.into(),
        (None, None) => {}
    }
    ctx.telemetry_dir = args.value("--telemetry").map(Into::into);
    ctx.audit_strict = args.has("--audit-strict");
    ctx.quiet = args.has("--quiet") || args.has("-q");
    Ok(ctx)
}

fn usage() {
    println!("usage: repro <experiment-id>... [--scale S] [--apps a,b,c] [--out DIR] [--jobs N]");
    println!("                                [--telemetry DIR] [--quiet] [--resume DIR]");
    println!("                                [--job-timeout SECS] [--job-max-insts N]");
    println!("                                [--audit-strict]");
    println!("                                [--fleet-size N] [--fleet-seed S] [--fleet-shard K]");
    println!("       repro all | list");
    println!("       repro explain DIR       render flight-record decision reports from DIR");
    println!();
    list();
}

fn list() {
    println!("experiments:");
    for (id, desc, _) in REGISTRY {
        println!("  {id:<20} {desc}");
    }
}

fn main() -> ExitCode {
    // Exit codes follow kagura_bench::cli::CliError: 2 for usage errors
    // (the command line never parsed), 3 for configuration errors (it
    // parsed but names something invalid — unknown app/experiment,
    // mismatched resume fingerprint), 1 for runtime failures.
    const EXIT_USAGE: u8 = 2;
    const EXIT_CONFIG: u8 = 3;
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        return ExitCode::from(EXIT_USAGE);
    }

    // `repro explain DIR` is a pure renderer over already-dumped flight
    // streams: no simulation, no journal — dispatch before flag parsing.
    if args[0] == "explain" {
        let Some(dir) = args.get(1) else {
            eprintln!("usage: repro explain RESULTS_DIR");
            return ExitCode::from(EXIT_USAGE);
        };
        return match kagura_bench::explain::explain_dir(std::path::Path::new(dir)) {
            Ok(n) => {
                eprintln!("[explain] rendered {n} report(s) from {dir}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("explain: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let (args, ctx) = match validate_args(&args, FLAGS, usize::MAX)
        .map_err(CliError::Usage)
        .and_then(|args| context(&args).map(|ctx| (args, ctx)))
    {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::from(e.exit_code());
        }
    };
    let asks = |word: &str, flags: [&str; 2]| {
        args.positionals().iter().any(|p| p == word) || flags.iter().any(|f| args.has(f))
    };
    if asks("list", ["--list", "-l"]) {
        list();
        return ExitCode::SUCCESS;
    }
    if asks("help", ["--help", "-h"]) {
        usage();
        return ExitCode::SUCCESS;
    }
    let mut ids = args.positionals().to_vec();

    if ids.iter().any(|i| i == "all") {
        ids = REGISTRY.iter().map(|&(id, _, _)| id.to_string()).collect();
    }
    if ids.is_empty() {
        usage();
        return ExitCode::from(EXIT_USAGE);
    }

    // Resolve every id before running anything, so a typo fails fast
    // instead of after hours of simulation.
    let mut runs: Vec<(&str, ExpFn)> = Vec::new();
    for id in &ids {
        let Some(f) = find(id) else {
            eprintln!("unknown experiment {id:?} (try `repro list`)");
            return ExitCode::from(EXIT_CONFIG);
        };
        runs.push((id, f));
    }

    // The journal fingerprints the knobs that change simulation results;
    // resuming under different ones would splice incompatible outputs.
    let fingerprint = serde_json::json!({
        "scale": ctx.scale,
        "apps": ctx.apps.iter().map(|a| a.to_string()).collect::<Vec<_>>(),
        "sens_apps": ctx.sens_apps.iter().map(|a| a.to_string()).collect::<Vec<_>>(),
        "fleet": {
            "population": ctx.fleet.population,
            "seed": ctx.fleet.seed,
            "shard_size": ctx.fleet.shard_size,
        },
    });
    let journal = if ctx.resume {
        match RunJournal::resume(&ctx.out_dir, fingerprint) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("cannot resume: {e}");
                return ExitCode::from(EXIT_CONFIG);
            }
        }
    } else {
        // A stale manifest from an earlier run in the same directory must
        // not survive into this run's output tree.
        let _ = std::fs::remove_file(ctx.out_dir.join("failures.json"));
        match RunJournal::create(&ctx.out_dir, fingerprint) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("cannot start journal in {}: {e}", ctx.out_dir.display());
                return ExitCode::FAILURE;
            }
        }
    };
    if ctx.resume {
        match fsutil::sweep_tmp_files(&ctx.out_dir) {
            Ok(n) if n > 0 => println!("[resume] swept {n} torn .tmp file(s)"),
            Ok(_) => {}
            Err(e) => eprintln!("[resume] warning: could not sweep .tmp files: {e}"),
        }
        let before = runs.len();
        runs.retain(|(id, _)| !journal.is_done(id));
        if before > runs.len() {
            println!(
                "[resume] {} experiment(s) already journaled in {}; {} left to run",
                before - runs.len(),
                journal.path().display(),
                runs.len(),
            );
        }
    }
    let journal = Arc::new(Mutex::new(journal));

    let jobs = ehs_sim::parallel::max_workers();
    println!(
        "running {} experiment(s) at workload scale {} over {} apps ({} for sweeps), {} job(s)\n",
        runs.len(),
        ctx.scale,
        ctx.apps.len(),
        ctx.sens_apps.len(),
        jobs,
    );
    if jobs > 1 && runs.len() > 1 {
        println!("experiments run concurrently; progress lines may interleave (use --jobs 1 for grouped output)\n");
    }
    if ctx.telemetry_dir.is_some() {
        spans::set_enabled(true);
    }
    let start = std::time::Instant::now();
    // Ledger violations across the whole run, for the strict exit code.
    let run_violations = Arc::new(AtomicU64::new(0));
    // Experiments are independent coordinators: they hold no worker
    // permits themselves, so however many overlap, at most `jobs`
    // simulations execute at once.
    ehs_sim::parallel::run_concurrent(runs, |(id, f)| {
        let t = std::time::Instant::now();
        if !ctx.quiet {
            eprintln!("[{id}] started (worker {})", spans::worker_slot());
        }
        let _span = spans::span("experiment", || id.to_string());
        println!("=== {id} ===");
        // Each experiment gets its own failure collector and cycle/
        // violation counters so records from concurrently running
        // experiments cannot interleave, and its id for attribution.
        let mut run_ctx = ctx.clone();
        run_ctx.exp_id = Some(id.to_string());
        run_ctx.failures = Arc::new(Mutex::new(Vec::new()));
        run_ctx.cycle_total = Arc::new(AtomicU64::new(0));
        run_ctx.violation_total = Arc::new(AtomicU64::new(0));
        let _ = f(&run_ctx);
        // Journal ordering is the crash-safety invariant: the experiment's
        // artifact was atomically renamed into place inside `f`, so once
        // this record is durable a resume may safely skip the id.
        let failures = run_ctx.take_failures();
        if let Err(e) = journal.lock().unwrap_or_else(|e| e.into_inner()).record(id, failures) {
            eprintln!("[{id}] warning: could not journal completion: {e}");
        }
        let (cycles, violations) = run_ctx.take_cell_totals();
        run_violations.fetch_add(violations, Ordering::Relaxed);
        println!("  [{id} done in {:.1}s]\n", t.elapsed().as_secs_f64());
        if !ctx.quiet {
            eprintln!(
                "[{id}] finished in {:.1}s (worker {}) — {cycles} power cycle(s), \
                 {violations} ledger violation(s)",
                t.elapsed().as_secs_f64(),
                spans::worker_slot()
            );
        }
    });
    println!("all experiments done in {:.1}s", start.elapsed().as_secs_f64());

    // The failure manifest spans the whole run — journaled cells from an
    // interrupted predecessor included — so a resumed run reconstructs the
    // same failures.json an uninterrupted one would have written.
    let failures = journal.lock().unwrap_or_else(|e| e.into_inner()).all_failures();
    let n_failures = failures.len();
    if !failures.is_empty() {
        let path = ctx.out_dir.join("failures.json");
        let doc = serde_json::json!({ "failures": failures });
        let text = serde_json::to_string_pretty(&doc).expect("serializable");
        if let Err(e) = fsutil::atomic_write(&path, text.as_bytes()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("  [{n_failures} failed cell(s); manifest in {}]", path.display());
    }
    // Under `--audit-strict` the run's contract is "every cell balanced
    // its energy ledger and completed": any violation (counted in a
    // lenient cell) or failed cell (a strict cell aborts on imbalance)
    // fails the whole invocation.
    let total_violations = run_violations.load(Ordering::Relaxed);
    if ctx.audit_strict && (total_violations > 0 || n_failures > 0) {
        eprintln!(
            "audit-strict: {total_violations} ledger violation(s), {n_failures} failed cell(s) — \
             failing the run"
        );
        return ExitCode::FAILURE;
    }

    if let Some(dir) = &ctx.telemetry_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let path = dir.join("spans.json");
        let doc = spans::to_json(&spans::drain());
        match serde_json::to_string_pretty(&doc) {
            Ok(text) => {
                if let Err(e) = fsutil::atomic_write(&path, text.as_bytes()) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("  [timing spans in {}]", path.display());
            }
            Err(e) => eprintln!("cannot serialize spans: {e}"),
        }
        // Pool observability: harness-level job events and the per-job
        // latency histogram accumulated by run_batch.
        let events = ehs_sim::parallel::drain_pool_events();
        if !events.is_empty() {
            let lines: String = events
                .iter()
                .map(|e| {
                    let mut l = serde_json::to_string(&e.to_value()).expect("serializable");
                    l.push('\n');
                    l
                })
                .collect();
            let path = dir.join("pool_events.jsonl");
            if let Err(e) = fsutil::atomic_write(&path, lines.as_bytes()) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("  [{} pool event(s) in {}]", events.len(), path.display());
        }
        let metrics = ehs_sim::parallel::pool_metrics().to_json();
        let path = dir.join("pool_metrics.json");
        let text = serde_json::to_string_pretty(&metrics).expect("serializable");
        if let Err(e) = fsutil::atomic_write(&path, text.as_bytes()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("  [pool metrics in {}]", path.display());
    }
    ExitCode::SUCCESS
}
