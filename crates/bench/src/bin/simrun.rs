//! `simrun` — run one EHS simulation from the command line and print a
//! full report (progress, power cycles, caches, energy breakdown).
//!
//! ```text
//! simrun <app> [--scale S]
//!              [--governor baseline|always|acc|kagura|ideal-acc|ideal-kagura|rand-threshold]
//!              [--design nvsram|nvmr|sweepcache] [--algorithm bdi|fpc|cpack|dzc|bpc|fvc]
//!              [--trace rfhome|solar|thermal] [--trace-file FILE] [--seed N]
//!              [--cache BYTES] [--ways N] [--block BYTES] [--cap UF]
//!              [--extension none|edbp|ipex] [--json]
//!              [--inject-at N] [--inject-fault power|torn|corrupt]
//!              [--emit-events FILE] [--chrome-trace FILE]
//!              [--flight-record FILE] [--audit-strict]
//!              [--cachescope FILE] [--cachescope-period N]
//!              [--leakscope FILE] [--leak-secret HEX16]
//! simrun serve [--tcp HOST:PORT] [--port-file PATH] [--state PATH]
//!              [--workers N] [--queue-depth N] [--cache-capacity N]
//!              [--deadline-ms N] [--max-insts N] [--write-timeout-ms N]
//! ```
//!
//! `simrun serve` starts the long-running what-if service
//! ([`kagura_bench::serve`]): NDJSON queries over stdin or TCP, with a
//! persistent result cache, admission control, per-request budgets and
//! graceful drain. See DESIGN.md §"What-if service".
//!
//! `--emit-events FILE` streams every telemetry event of the run as JSONL;
//! `--chrome-trace FILE` writes the same run as a Chrome trace-event file
//! (loadable in Perfetto / `chrome://tracing`, with one duration slice per
//! power cycle); `--flight-record FILE` writes only the decision-relevant
//! subset ([`ehs_telemetry::Event::flight_relevant`]: per-cycle flight
//! records, ledger imbalances, mode switches, threshold adjustments,
//! estimator samples, reboots) — the stream `repro explain` renders.
//!
//! `--cachescope FILE` attaches a cachescope (`ehs_sim::cachescope`) and
//! writes its report — boundary rows, occupancy snapshots, aggregate
//! histograms — as a JSONL stream, then parses the stream back strictly
//! (a schema round-trip check on every dump) and prints the rendered
//! cache report. `--cachescope-period N` additionally samples a
//! full-cache occupancy snapshot every `N` committed instructions.
//!
//! Any mix of these flags observes one run: each attaches its observer to
//! the same simulator, the host shortcuts stay on, and every stream is
//! byte-identical to the one its flag writes alone.
//!
//! `--leakscope FILE` runs the compression timing side-channel attack
//! (`ehs_sim::leakscope`) instead of the app: an attacker co-resident
//! with a victim holding a planted 8-byte secret recovers it through
//! probe latencies alone, on the configured compressor × governor. The
//! stream — guess timeline, recovered bytes, MI/capacity summary — is
//! written as JSONL, parsed back strictly, and rendered. `--leak-secret
//! HEX16` overrides the planted secret (exactly 8 bytes). The app
//! positional only labels the stream; since no app runs, `--leakscope`
//! refuses the flags that observe an app run.
//!
//! The energy-conservation ledger is always audited at power-cycle
//! boundaries (violations are counted in the report); `--audit-strict`
//! turns the first violation into a hard error.
//!
//! `--inject-at N` arms a one-shot forced power failure immediately after
//! the `N`-th executed instruction (see `ehs_sim::faultinject`);
//! `--inject-fault` picks the flavour — `power` (clean failure, default),
//! `torn` (checkpoint persists nothing), `corrupt` (one payload bit of
//! the first compressed checkpointed block is flipped; a decode failure
//! is reported as a detected consistency violation via `decode_faults`
//! and the `DecodeFault` telemetry event). Ideal two-phase governors are
//! rejected: oracle replay realigns work across power cycles, so an
//! injection point has no stable meaning there.

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;
use std::sync::Arc;

use std::io::BufWriter;
use std::path::Path;

use ehs_energy::PowerTrace;
use ehs_sim::runner::default_trace;
use ehs_sim::{CachescopeConfig, FaultKind, LeakscopeOptions, SimConfig, SimStats, Simulator};
use ehs_telemetry::{ChromeTraceSink, JsonlSink, MetricsFold, Sink, Stamped};
use ehs_workloads::App;
use kagura_bench::cachescope::{self, ScopeLabels};
use kagura_bench::cli::{validate_args, Args, CliError, FlagSpec};
use kagura_bench::leakscope;
use kagura_bench::vocab::{Resolved, Settings};

fn usage() {
    eprintln!(
        "usage: simrun <app> [--scale S] [--governor G] [--design D] [--algorithm A]\n\
         \x20                [--trace T | --trace-file FILE] [--seed N] [--cache BYTES]\n\
         \x20                [--ways N] [--block BYTES] [--cap UF] [--extension E] [--json]\n\
         \x20                [--inject-at N] [--inject-fault power|torn|corrupt]\n\
         \x20                [--emit-events FILE] [--chrome-trace FILE]\n\
         \x20                [--flight-record FILE] [--audit-strict]\n\
         \x20                [--cachescope FILE] [--cachescope-period N]\n\
         \x20                [--leakscope FILE] [--leak-secret HEX16]\n\
         \x20      simrun serve [--tcp HOST:PORT] [--state PATH] … (long-running what-if service)\n\
         apps: {}",
        App::ALL.map(|a| a.name()).join(" ")
    );
}

/// Fans one event stream out to the optional JSONL, Chrome-trace and
/// flight-record sinks and the metrics fold, so one instrumented run can
/// feed all outputs. The flight sink sees only the decision-relevant
/// subset.
#[derive(Default)]
struct TeeSink {
    jsonl: Option<JsonlSink<BufWriter<File>>>,
    chrome: Option<ChromeTraceSink>,
    flight: Option<JsonlSink<BufWriter<File>>>,
    metrics: Option<MetricsFold>,
}

impl Sink for TeeSink {
    fn record(&mut self, ev: &Stamped) {
        if let Some(m) = &mut self.metrics {
            m.record(ev);
        }
        if let Some(j) = &mut self.jsonl {
            j.record(ev);
        }
        if let Some(c) = &mut self.chrome {
            c.record(ev);
        }
        if let Some(f) = &mut self.flight {
            if ev.event.flight_relevant() {
                f.record(ev);
            }
        }
    }

    fn flush(&mut self) {
        if let Some(j) = &mut self.jsonl {
            j.flush();
        }
        if let Some(c) = &mut self.chrome {
            c.flush();
        }
        if let Some(f) = &mut self.flight {
            f.flush();
        }
    }
}

/// Everything `simrun` accepts, with arity — the whole argument vector
/// is validated against this table before any simulation starts, so a
/// misspelled flag (`--cachescope-peroid`) or a flag left without its
/// value is a hard error naming the nearest valid flag, never a
/// silently ignored option.
const FLAGS: &[FlagSpec] = &[
    FlagSpec::value("--scale"),
    FlagSpec::value("--governor"),
    FlagSpec::value("--design"),
    FlagSpec::value("--algorithm"),
    FlagSpec::value("--trace"),
    FlagSpec::value("--trace-file"),
    FlagSpec::value("--seed"),
    FlagSpec::value("--cache"),
    FlagSpec::value("--ways"),
    FlagSpec::value("--block"),
    FlagSpec::value("--cap"),
    FlagSpec::value("--extension"),
    FlagSpec::switch("--json"),
    FlagSpec::value("--inject-at"),
    FlagSpec::value("--inject-fault"),
    FlagSpec::value("--emit-events"),
    FlagSpec::value("--chrome-trace"),
    FlagSpec::value("--flight-record"),
    FlagSpec::switch("--audit-strict"),
    FlagSpec::value("--cachescope"),
    FlagSpec::value("--cachescope-period"),
    FlagSpec::value("--leakscope"),
    FlagSpec::value("--leak-secret"),
];

/// Resolves the command line's settings through the shared vocabulary
/// ([`kagura_bench::vocab`]); `simrun` itself only parses the numbers.
fn build_config(app: &str, args: &Args) -> Result<Resolved, String> {
    let mut resolved = Settings {
        app,
        scale: args.number("--scale", "scale")?,
        governor: args.value("--governor"),
        design: args.value("--design"),
        algorithm: args.value("--algorithm"),
        trace: args.value("--trace"),
        seed: args.number("--seed", "seed")?,
        cache: args.number("--cache", "cache size")?,
        ways: args.number("--ways", "way count")?,
        block: args.number("--block", "block size")?,
        cap: args.number("--cap", "capacitance")?,
        extension: args.value("--extension"),
    }
    .resolve()?;
    resolved.cfg.audit_strict = args.has("--audit-strict");
    Ok(resolved)
}

/// Machine-readable counterpart of [`print_report`]: a JSON tree built
/// field-by-field from the stats (energies in picojoules, time in
/// seconds), stable across runs for identical inputs.
fn json_report(stats: &SimStats) -> serde_json::Value {
    use serde_json::json;
    let breakdown: Vec<_> = stats
        .breakdown
        .iter()
        .map(|(cat, e)| {
            json!({
                "category": cat.label(),
                "picojoules": e.picojoules(),
                "fraction": stats.breakdown.fraction(cat),
            })
        })
        .collect();
    let mut out = json!({
        "progress": {
            "completed": stats.completed,
            "committed_insts": stats.committed_insts,
            "executed_insts": stats.executed_insts,
            "total_cycles": stats.total_cycles,
            "cpi": stats.cpi(),
            "sim_seconds": stats.sim_time.seconds(),
        },
        "intermittence": {
            "power_cycles": stats.power_cycles.len(),
            "checkpoints": stats.checkpoints,
            "avg_insts_per_cycle": stats.avg_insts_per_cycle(),
            "decode_faults": stats.decode_faults,
            "ledger_violations": stats.ledger_violations,
        },
        "caches": {
            "icache_miss_rate": stats.icache.miss_rate(),
            "icache_accesses": stats.icache.accesses(),
            "dcache_miss_rate": stats.dcache.miss_rate(),
            "dcache_accesses": stats.dcache.accesses(),
            "compressions": stats.compression_ops(),
            "rm_bypassed_fills": stats.rm_bypassed_fills,
            "decompressions": stats.icache.decompressions + stats.dcache.decompressions,
        },
        "nvm": { "reads": stats.nvm.reads, "writes": stats.nvm.writes },
        "energy": {
            "total_picojoules": stats.total_energy().picojoules(),
            "harvested_picojoules": stats.harvested.picojoules(),
            "breakdown": breakdown,
        },
    });
    if let Some((regs, rm)) = stats.kagura_state {
        let kagura = json!({
            "r_prev": regs.0, "r_mem": regs.1, "r_adjust": regs.2,
            "r_thres": regs.3, "r_evict": regs.4, "rm_entries": rm,
        });
        if let serde_json::Value::Object(members) = &mut out {
            members.push(("kagura".to_string(), kagura));
        }
    }
    out
}

fn print_report(stats: &SimStats) {
    println!("progress");
    println!("  committed insts : {}", stats.committed_insts);
    println!(
        "  executed insts  : {} (re-executed {})",
        stats.executed_insts,
        stats.executed_insts - stats.committed_insts
    );
    println!("  total cycles    : {} (CPI {:.2})", stats.total_cycles, stats.cpi());
    println!("  sim time        : {}", stats.sim_time);
    println!("  completed       : {}", stats.completed);
    println!("intermittence");
    println!("  power cycles    : {}", stats.power_cycles.len());
    println!("  checkpoints     : {}", stats.checkpoints);
    println!("  insts/cycle     : {:.0}", stats.avg_insts_per_cycle());
    if stats.decode_faults > 0 {
        println!(
            "  decode faults   : {} (DETECTED consistency violations — blocks dropped)",
            stats.decode_faults
        );
    }
    println!("  ledger audit    : {} violation(s)", stats.ledger_violations);
    let lc = stats.load_consistency();
    println!("  cycle stability : {:.1}% of neighbours within 20%", lc.frac_below_20 * 100.0);
    println!("caches");
    println!(
        "  icache          : {:.2}% miss ({} accesses)",
        stats.icache.miss_rate() * 100.0,
        stats.icache.accesses()
    );
    println!(
        "  dcache          : {:.2}% miss ({} accesses)",
        stats.dcache.miss_rate() * 100.0,
        stats.dcache.accesses()
    );
    println!(
        "  compressions    : {} ({} averted in RM), decompressions {}",
        stats.compression_ops(),
        stats.rm_bypassed_fills,
        stats.icache.decompressions + stats.dcache.decompressions
    );
    println!("  nvm             : {} reads, {} writes", stats.nvm.reads, stats.nvm.writes);
    println!("energy");
    for (cat, e) in stats.breakdown.iter() {
        println!(
            "  {:<22}: {:>12} ({:>5.1}%)",
            cat.label(),
            e.to_string(),
            stats.breakdown.fraction(cat) * 100.0
        );
    }
    println!("  {:<22}: {:>12}", "TOTAL", stats.total_energy().to_string());
    println!("  harvested             : {:>12}", stats.harvested.to_string());
    if let Some((regs, rm)) = stats.kagura_state {
        println!("kagura");
        println!(
            "  final registers : R_prev={} R_mem={} R_adjust={} R_thres={} R_evict={}",
            regs.0, regs.1, regs.2, regs.3, regs.4
        );
        println!("  RM entries      : {rm}");
    }
}

/// The `--leakscope FILE` path: runs the timing side-channel attack on
/// the configured compressor × governor (the app positional only labels
/// the stream), writes the JSONL stream, parses it back strictly — every
/// dump is its own schema round-trip check — and renders the parsed
/// report.
fn run_leakscope(
    leak_file: &str,
    app: App,
    args: &Args,
    cfg: &SimConfig,
    injecting: bool,
) -> Result<(), CliError> {
    for conflict in [
        "--emit-events",
        "--chrome-trace",
        "--flight-record",
        "--cachescope",
        "--cachescope-period",
    ] {
        if args.has(conflict) {
            return Err(CliError::Usage(format!(
                "--leakscope cannot combine with {conflict}: it runs the attack kernels \
                 instead of the app, so there is no app run to observe"
            )));
        }
    }
    if injecting {
        return Err(CliError::Usage(
            "--leakscope runs its own probe micro-kernels; --inject-at does not apply".into(),
        ));
    }
    if args.has("--trace-file") {
        return Err(CliError::Usage(
            "--leakscope uses the configured trace kind/seed; --trace-file does not apply".into(),
        ));
    }
    let mut opts = LeakscopeOptions::default();
    if let Some(hex) = args.value("--leak-secret") {
        let bytes = leakscope::from_hex(hex)
            .map_err(|e| CliError::Config(format!("bad --leak-secret: {e}")))?;
        opts.secret = bytes.try_into().map_err(|_| {
            CliError::Config("--leak-secret must be exactly 8 bytes (16 hex digits)".into())
        })?;
    }
    eprintln!(
        "leakscope: attacking {} under {} on {} (planted secret {})…",
        cfg.algorithm,
        cfg.governor.label(),
        cfg.design,
        leakscope::to_hex(&opts.secret)
    );
    let report = ehs_sim::attack_cell(cfg, &opts);
    let labels = ScopeLabels::new(app.name(), cfg.design.name(), cfg.governor.label());
    let path = Path::new(leak_file);
    leakscope::write_jsonl(path, &labels, &report)
        .map_err(|e| CliError::Runtime(format!("{leak_file}: {e}")))?;
    let parsed = leakscope::parse_leakscope_file(path).map_err(CliError::Runtime)?;
    eprintln!("leakscope stream written to {leak_file}");
    if args.has("--json") {
        let out = serde_json::json!({
            "leakscope": {
                "app": app.name(),
                "algorithm": parsed.algorithm,
                "governor": parsed.labels.governor,
                "supported": parsed.supported,
                "secret": leakscope::to_hex(&parsed.secret),
                "recovered": leakscope::to_hex(&parsed.recovered),
                "recovered_bytes": parsed.stats.recovered_bytes,
                "secret_bytes": parsed.stats.secret_bytes,
                "secret_recovered": parsed.stats.recovered(),
                "guesses": parsed.stats.guesses,
                "retries": parsed.stats.retries,
                "probe_accesses": parsed.stats.probe_accesses,
                "bytes_probed": parsed.stats.bytes_probed,
                "mi_bits": parsed.mi_bits,
                "capacity_bits": parsed.capacity_bits,
                "mi_samples": parsed.mi_samples,
            }
        });
        println!("{}", serde_json::to_string_pretty(&out).expect("report serialize"));
    } else {
        print!("{}", leakscope::render_leak_report(&parsed));
    }
    Ok(())
}

fn run() -> Result<(), CliError> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `simrun serve` is its own subcommand with its own flag table.
    if raw.first().map(String::as_str) == Some("serve") {
        return kagura_bench::serve::run_serve(&raw[1..]);
    }
    // Validate the whole vector up front (unknown or repeated flags,
    // missing values, stray positionals) so no simulation starts on a
    // command line that doesn't mean what the user typed.
    let args = validate_args(&raw, FLAGS, 1).map_err(|e| {
        usage();
        CliError::Usage(e)
    })?;
    let Some(app_name) = args.positionals().first() else {
        usage();
        return Err(CliError::Usage("missing app".into()));
    };
    let Resolved { app, scale, cfg, .. } =
        build_config(app_name, &args).map_err(CliError::Config)?;

    let inject = match args.number::<u64>("--inject-at", "--inject-at").map_err(CliError::Config)? {
        Some(0) => {
            return Err(CliError::Config("--inject-at is 1-based: the first boundary is 1".into()))
        }
        Some(at) => {
            if cfg.governor.is_ideal() {
                return Err(CliError::Config(
                    "--inject-at cannot target ideal two-phase governors (oracle replay \
                     realigns work across power cycles)"
                        .into(),
                ));
            }
            let kind = match args.value("--inject-fault").unwrap_or("power") {
                "power" => FaultKind::PowerFailure,
                "torn" => FaultKind::TornCheckpoint { persist_blocks: 0 },
                "corrupt" => FaultKind::CorruptPayload { bit: 5 },
                other => return Err(CliError::Config(format!("unknown fault kind {other:?}"))),
            };
            Some((at, kind))
        }
        None => {
            if args.has("--inject-fault") {
                return Err(CliError::Usage("--inject-fault needs --inject-at".into()));
            }
            None
        }
    };

    if let Some(leak_file) = args.value("--leakscope") {
        return run_leakscope(leak_file, app, &args, &cfg, inject.is_some());
    }
    if args.has("--leak-secret") {
        return Err(CliError::Usage("--leak-secret needs --leakscope".into()));
    }

    let trace = match args.value("--trace-file") {
        Some(path) => {
            let f = File::open(path).map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
            // TraceError names the offending line; prepend the file.
            Arc::new(
                PowerTrace::read_text(BufReader::new(f))
                    .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?,
            )
        }
        None => default_trace(&cfg),
    };

    let program = app.build(scale);
    eprintln!(
        "running {app} ({} insts) under {} on {} with {} / {} trace…",
        program.len(),
        cfg.governor.label(),
        cfg.design,
        cfg.algorithm,
        cfg.trace_kind
    );
    if let Some((at, kind)) = inject {
        eprintln!("injecting {kind:?} after executed instruction {at}");
    }
    let events_path = args.value("--emit-events");
    let chrome_path = args.value("--chrome-trace");
    let flight_path = args.value("--flight-record");
    let instrumented = events_path.is_some() || chrome_path.is_some() || flight_path.is_some();
    let scope_path = args.value("--cachescope");
    let scope = match args.value("--cachescope-period") {
        Some(p) => {
            if scope_path.is_none() {
                return Err(CliError::Usage("--cachescope-period needs --cachescope".into()));
            }
            let n: u64 =
                p.parse().map_err(|e| CliError::Config(format!("bad --cachescope-period: {e}")))?;
            if n == 0 {
                return Err(CliError::Config("--cachescope-period must be positive".into()));
            }
            CachescopeConfig::periodic(n)
        }
        None => CachescopeConfig::default(),
    };
    let mut sink =
        TeeSink { metrics: instrumented.then(MetricsFold::default), ..TeeSink::default() };
    let open = |p: &str| {
        JsonlSink::create(Path::new(p)).map_err(|e| CliError::Runtime(format!("{p}: {e}")))
    };
    if let Some(p) = events_path {
        sink.jsonl = Some(open(p)?);
    }
    if chrome_path.is_some() {
        sink.chrome = Some(ChromeTraceSink::new());
    }
    if let Some(p) = flight_path {
        sink.flight = Some(open(p)?);
    }

    let mut sim = Simulator::new(cfg.clone(), &program, &trace);
    if let Some((at, kind)) = inject {
        sim.arm_fault(at, kind);
    }
    if instrumented {
        sim.attach_telemetry(&mut sink);
    }
    if scope_path.is_some() {
        sim.attach_cachescope(scope);
    }
    let observed = sim.run_observed();
    let stats = observed.stats;
    let metrics = sink.metrics.take().map(|m| m.finish(stats.checkpoints, stats.sim_time.micros()));

    for (stream, path) in [(&sink.jsonl, events_path), (&sink.flight, flight_path)] {
        if let (Some(err), Some(p)) = (stream.as_ref().and_then(JsonlSink::error), path) {
            return Err(CliError::Runtime(format!("writing {p}: {err}")));
        }
    }
    if let (Some(p), Some(chrome)) = (chrome_path, &sink.chrome) {
        chrome.write_to(Path::new(p)).map_err(|e| CliError::Runtime(format!("{p}: {e}")))?;
        eprintln!("chrome trace written to {p}");
    }
    if let Some(p) = events_path {
        eprintln!("event stream written to {p}");
    }
    if let Some(p) = flight_path {
        eprintln!("flight record written to {p}");
    }
    // Rendered after the stats report.
    let scope_report = observed.cachescope;
    let scope_parsed = match (scope_path, &scope_report) {
        (Some(scope_file), Some(report)) => {
            let labels = ScopeLabels::new(app.name(), cfg.design.name(), cfg.governor.label());
            let path = Path::new(scope_file);
            cachescope::write_jsonl(path, &labels, report)
                .map_err(|e| CliError::Runtime(format!("{scope_file}: {e}")))?;
            // Parse the freshly-written stream back strictly: every dump
            // is its own schema round-trip check, and the rendered report
            // below comes from the parsed stream, not the in-memory one.
            let parsed = cachescope::parse_cachescope_file(path).map_err(CliError::Runtime)?;
            eprintln!("cachescope stream written to {scope_file}");
            Some(parsed)
        }
        _ => None,
    };
    if args.has("--json") {
        let mut report = json_report(&stats);
        if let serde_json::Value::Object(members) = &mut report {
            if let Some(m) = &metrics {
                members.push(("metrics".to_string(), m.to_json()));
            }
            if let Some(r) = &scope_report {
                members.push(("cachescope".to_string(), cachescope::report_to_json(r)));
            }
        }
        println!("{}", serde_json::to_string_pretty(&report).expect("stats serialize"));
    } else {
        print_report(&stats);
        if let Some(m) = &metrics {
            let failures = m.snapshots().len().saturating_sub(1);
            println!("telemetry");
            println!(
                "  metric snapshots: {} ({} power-cycle boundaries)",
                m.snapshots().len(),
                failures
            );
        }
        if let Some(parsed) = &scope_parsed {
            print!("{}", cachescope::render_report(parsed));
        }
    }
    if !stats.completed {
        return Err(CliError::Runtime("run hit the simulated-time guard before completing".into()));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        // Exit codes distinguish the failure class (see CliError): 2 for
        // usage errors, 3 for invalid configuration, 1 for runtime
        // failures — scripted callers assert on *why*, not on stderr.
        Err(e) => {
            eprintln!("simrun: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
