//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--results DIR]`
//!
//! Runs one workload for `S` seconds and prints, as the last line of
//! standard output, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when any output was wrong, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use ehs_telemetry::spans;
use perfbench::crash::Crash;
use perfbench::grid::{Grid, COMPUTE_APPS, MEMORY_APPS};
use perfbench::layers::{self, Metric};
use perfbench::stats::{median, valid_metric_name};
use perfbench::whatif::Whatif;
use perfbench::{Env, Rep, Tally, Workload};
use serde_json::{json, Value};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["grid-compute", "grid-memory", "whatif", "crash-campaign"];

/// Set-up is repeated until it has taken at least this long (and at
/// least three times), and its median is reported.
const SETUP_BUDGET_S: f64 = 1.5;
/// Upper bound on set-up repetitions for workloads whose set-up is cheap.
const MAX_SETUPS: usize = 5000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    results: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        results: PathBuf::from("results"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)? as f64,
            "--trace" => args.trace = number(value()?)? != 0,
            "--results" => args.results = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}, got {:?}", args.workload));
    }
    Ok(args)
}

/// Builds the workload; `first` is true for the first set-up of the
/// process.
fn make(env: &Env, name: &str, first: bool) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "grid-compute" => Box::new(Grid::new(env, name, &COMPUTE_APPS, &["fig13"], first)?),
        "grid-memory" => Box::new(Grid::new(env, name, &MEMORY_APPS, &["fig13", "fig23"], first)?),
        "whatif" => Box::new(Whatif::new(env, first)),
        _ => Box::new(Crash::new(env)),
    })
}

/// The git commit of the checkout, when it is a git repository.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| {
                let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .unwrap_or("unknown")
                    .to_string()
            }),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f` while sampling the simulation pool's occupancy
/// (`pool_in_flight`) every millisecond; returns `f`'s result and the mean
/// number of busy workers.
fn sample_busy<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let poll = scope.spawn(|| {
            let (mut sum, mut n) = (0usize, 0usize);
            while !stop.load(Ordering::SeqCst) {
                sum += ehs_sim::pool_in_flight();
                n += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            sum as f64 / n.max(1) as f64
        });
        let result = f();
        stop.store(true, Ordering::SeqCst);
        (result, poll.join().expect("the sampler thread does not panic"))
    })
}

fn print_metric(m: &Metric, n: usize) {
    println!("metric {} = {:.6} {} (n={n})", m.name, m.value, m.unit);
}

fn run(args: &Args) -> Result<(Value, bool), String> {
    let start = Instant::now();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Never more simulation workers or what-if clients than cores.
    let workers = cores.min(2);
    ehs_sim::parallel::set_max_workers(workers);
    let env = Env {
        seed: args.seed,
        workers,
        out_dir: PathBuf::from(".perfbench").join(&args.workload),
        results_dir: args.results.clone(),
    };
    let provenance = json!({
        "workload": args.workload.clone(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_cores": cores,
        "workers": workers,
        "clients": if args.workload == "whatif" { workers } else { 0 },
        "commit": git_commit(),
        "rustc": env!("PERFBENCH_RUSTC"),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
    });
    println!("provenance {}", serde_json::to_string(&provenance).expect("provenance serializes"));

    // Set-up, repeated; the last instance is the one measured.
    let mut setup_s = Vec::new();
    let mut workload = None;
    while setup_s.len() < 3
        || setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < MAX_SETUPS
    {
        let t0 = Instant::now();
        workload = Some(make(&env, &args.workload, workload.is_none())?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("set up at least once");
    let mut tally = Tally::default();

    // Timed repetitions: untraced only, or alternating with traced ones.
    let (mut plain, mut traced): (Vec<(f64, Rep)>, Vec<f64>) = (Vec::new(), Vec::new());
    let (mut busy, mut spans_ms) = (Vec::new(), Vec::new());
    let t_run = Instant::now();
    let mut index = 0u64;
    while t_run.elapsed().as_secs_f64() < args.seconds
        || plain.len() < 3
        || (args.trace && traced.len() < 2)
    {
        let trace_this = args.trace && index % 2 == 1;
        if trace_this {
            spans::set_enabled(true);
            let ((wall, _), mean_busy) = sample_busy(|| {
                let t0 = Instant::now();
                let rep = workload.rep(index, &mut tally);
                (t0.elapsed().as_secs_f64(), rep)
            });
            spans::set_enabled(false);
            traced.push(wall);
            busy.push(mean_busy / workers as f64);
            spans_ms.extend(
                spans::drain().iter().filter(|s| s.category == "sim").map(|s| s.dur_us / 1e3),
            );
        } else {
            let t0 = Instant::now();
            let rep = workload.rep(index, &mut tally);
            plain.push((t0.elapsed().as_secs_f64(), rep));
        }
        index += 1;
    }
    let accounting = workload.account(&mut tally);

    let walls: Vec<f64> = plain.iter().map(|(w, _)| *w).collect();
    let wall_s = median(&walls);
    let mips: Vec<f64> = plain
        .iter()
        .map(|(w, r)| if r.insts > 0 { r.insts } else { accounting.insts_per_rep } as f64 / w / 1e6)
        .collect();
    let end_to_end = [
        (Metric { name: "setup_s".into(), value: median(&setup_s), unit: "s" }, setup_s.len()),
        (Metric { name: "wall_s".into(), value: wall_s, unit: "s" }, walls.len()),
        (Metric { name: "sim_mips".into(), value: median(&mips), unit: "Minst/s" }, mips.len()),
        (Metric { name: "peak_rss_mb".into(), value: peak_rss_mb(), unit: "MB" }, 1),
    ];
    for (m, n) in &end_to_end {
        print_metric(m, *n);
    }
    for note in workload.notes() {
        println!("note {note}");
    }

    let mut reported: Vec<Metric> = end_to_end.into_iter().map(|(m, _)| m).collect();
    if args.trace {
        let (mut per_layer, rows) =
            layers::measure(&workload.layer_plan(), accounting.fault.as_ref(), workers, &mut tally);
        // Campaign points run outside the span-recording pool jobs; their
        // replay times stand in for cell spans there.
        let cell_ms = match &accounting.fault {
            Some(f) if spans_ms.is_empty() => &f.point_ms,
            _ => &spans_ms,
        };
        per_layer.push(Metric { name: "sim.cell_ms".into(), value: median(cell_ms), unit: "ms" });
        per_layer.push(Metric {
            name: "sim.pool_busy_frac".into(),
            value: median(&busy),
            unit: "fraction",
        });
        per_layer.push(Metric {
            name: "trace.overhead_s".into(),
            value: median(&traced) - wall_s,
            unit: "s",
        });
        for m in &per_layer {
            print_metric(m, 1);
        }
        for r in &rows {
            let layers: Vec<String> =
                r.layers.iter().map(|(l, ns)| format!("{l}={ns:.2}")).collect();
            println!(
                "attribution program={} insts={} measured_ns={:.2} predicted_ns={:.2} {} residual_ns={:.2}",
                r.program,
                r.insts,
                r.measured_ns,
                r.predicted_ns(),
                layers.join(" "),
                r.residual_ns()
            );
        }
        reported = per_layer;
    }
    for f in &tally.failures {
        println!("failure {f}");
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!("failed_frac = {failed_frac} ({} of {})", tally.failed, tally.attempted);
    println!("elapsed_s = {:.3}", start.elapsed().as_secs_f64());

    let mut metrics = Vec::new();
    for m in reported {
        if !valid_metric_name(&m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        metrics.push((m.name, json!({"value": m.value, "unit": m.unit})));
    }
    let correct = tally.failed == 0 && tally.attempted > 0;
    let result = json!({
        "correct": correct,
        "attempted": tally.attempted.max(1),
        "failed": tally.failed,
        "metrics": Value::Object(metrics),
    });
    Ok((result, correct))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((result, correct)) => {
            println!("{}", serde_json::to_string(&result).expect("result serializes"));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
