//! `tracegen` — generate, inspect and convert ambient power traces in the
//! paper's text format (one average-power value in µW per 10 µs window).
//!
//! ```text
//! tracegen gen <rfhome|solar|thermal> <len> [--seed S] [--out FILE]
//! tracegen stats <FILE>
//! tracegen constant <uW> <len> [--out FILE]
//! ```
//!
//! Traces written by this tool feed straight into
//! `PowerTrace::read_text` and therefore into any simulation, so recorded
//! traces from real harvesters can be swapped in for the synthetic ones.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::process::ExitCode;

use ehs_energy::PowerTrace;
use ehs_model::Power;
use kagura_bench::cli::{validate_args, Args, CliError, FlagSpec};

fn usage() {
    eprintln!("usage: tracegen gen <rfhome|solar|thermal> <len> [--seed S] [--out FILE]");
    eprintln!("       tracegen constant <uW> <len> [--out FILE]");
    eprintln!("       tracegen stats <FILE>");
}

fn write_out(trace: &PowerTrace, out: Option<&str>) -> io::Result<()> {
    match out {
        Some(path) => {
            // Buffer the whole trace so the file write is atomic (tmp +
            // fsync + rename): a killed tracegen never leaves a torn
            // trace for a later simulation to trip over.
            let mut buf = Vec::with_capacity(trace.len() * 12);
            trace.write_text(&mut buf)?;
            kagura_bench::fsutil::atomic_write(std::path::Path::new(path), &buf)?;
            eprintln!("wrote {} samples ({}) to {path}", trace.len(), trace.duration());
        }
        None => {
            let stdout = io::stdout();
            trace.write_text(BufWriter::new(stdout.lock()))?;
        }
    }
    Ok(())
}

fn print_stats(trace: &PowerTrace) {
    let stats = trace.stats();
    println!("samples         : {}", trace.len());
    println!("duration        : {}", trace.duration());
    println!("mean power      : {}", stats.mean);
    println!("std deviation   : {}", stats.std_dev);
    println!("stable fraction : {:.1}%", stats.stable_fraction * 100.0);
    let total = stats.mean * trace.duration();
    println!("total energy    : {total}");
    // A terminal sparkline of 60 buckets.
    let buckets = 60usize.min(trace.len());
    let per = trace.len() / buckets;
    let glyphs: Vec<char> = " .:-=+*#%@".chars().collect();
    let uw: Vec<f64> = trace.samples().map(|p| p.microwatts()).collect();
    let max = uw.iter().copied().fold(f64::MIN, f64::max).max(1e-9);
    let mut line = String::new();
    for b in 0..buckets {
        let slice = &uw[b * per..((b + 1) * per).min(uw.len())];
        let avg = slice.iter().sum::<f64>() / slice.len().max(1) as f64;
        let idx = ((avg / max) * (glyphs.len() - 1) as f64).round() as usize;
        line.push(glyphs[idx.min(glyphs.len() - 1)]);
    }
    println!("profile         : [{line}]");
}

/// Everything `tracegen` accepts: the whole argument vector is checked
/// against it (and against three positionals at most) before any trace
/// is read or written, so a misspelled or repeated flag is a usage
/// error, never a silently ignored option.
const FLAGS: &[FlagSpec] = &[FlagSpec::value("--seed"), FlagSpec::value("--out")];

fn run() -> Result<(), CliError> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = validate_args(&raw, FLAGS, 3).map_err(CliError::Usage)?;
    match args.positionals().first().map(String::as_str) {
        Some(command @ ("gen" | "constant" | "stats")) => {
            run_command(command, &args).map_err(CliError::Runtime)
        }
        _ => Err(CliError::Usage("unknown command".into())),
    }
}

fn run_command(command: &str, args: &Args) -> Result<(), String> {
    let pos = args.positionals();
    match command {
        "gen" => {
            let kind = pos.get(1).ok_or("gen needs a source: rfhome | solar | thermal")?;
            let kind = kagura_bench::vocab::trace_kind(kind)?;
            let len: usize = pos
                .get(2)
                .and_then(|l| l.parse().ok())
                .filter(|&l| l > 0)
                .ok_or("gen needs a positive sample count")?;
            let seed = args.number("--seed", "seed")?.unwrap_or(42);
            let trace = PowerTrace::generate(kind, seed, len);
            write_out(&trace, args.value("--out")).map_err(|e| e.to_string())
        }
        "constant" => {
            let uw: f64 = pos
                .get(1)
                .and_then(|l| l.parse().ok())
                .filter(|&u| u >= 0.0)
                .ok_or("constant needs a non-negative power in uW")?;
            let len: usize = pos
                .get(2)
                .and_then(|l| l.parse().ok())
                .filter(|&l| l > 0)
                .ok_or("constant needs a positive sample count")?;
            let trace = PowerTrace::constant(Power::from_microwatts(uw), len);
            write_out(&trace, args.value("--out")).map_err(|e| e.to_string())
        }
        // `stats`, the one command left.
        _ => {
            let path = pos.get(1).ok_or("stats needs a trace file")?;
            let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
            // TraceError carries the offending line; prepend the file.
            let trace =
                PowerTrace::read_text(BufReader::new(f)).map_err(|e| format!("{path}: {e}"))?;
            print_stats(&trace);
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        // Usage errors exit 2 after the usage text, failures exit 1 (see
        // `CliError`).
        Err(e) => {
            if let CliError::Usage(_) = e {
                usage();
            }
            let _ = writeln!(io::stderr(), "tracegen: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
