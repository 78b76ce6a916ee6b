//! Command-line parsing of the real binaries: every flag is read from
//! the one validated argument vector (`kagura_bench::cli::validate_args`),
//! so a misspelled or repeated flag is a usage error (exit 2) that names
//! the flag, never an option silently dropped or overridden.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "expected {needle:?} in: {stderr}");
    assert!(out.stdout.is_empty(), "a usage error writes no output");
}

#[test]
fn simrun_rejects_a_repeated_flag() {
    let simrun = env!("CARGO_BIN_EXE_simrun");
    let out = run(simrun, &["sha", "--scale", "0.01", "--scale", "nan"]);
    assert_usage_error(&out, "flag `--scale` given twice");
    let out = run(simrun, &["serve", "--workers", "1", "--workers", "2"]);
    assert_usage_error(&out, "flag `--workers` given twice");
}

#[test]
fn tracegen_rejects_misspelled_and_repeated_flags() {
    let tracegen = env!("CARGO_BIN_EXE_tracegen");
    let out = run(tracegen, &["gen", "rfhome", "3", "--sede", "5"]);
    assert_usage_error(&out, "did you mean `--seed`");
    let out = run(tracegen, &["gen", "rfhome", "3", "--seed", "5", "--seed", "6"]);
    assert_usage_error(&out, "flag `--seed` given twice");
    let out = run(tracegen, &["gen", "rfhome", "3", "4"]);
    assert_usage_error(&out, "unexpected argument `4`");
    let out = run(tracegen, &["frobnicate"]);
    assert_usage_error(&out, "unknown command");
}

#[test]
fn tracegen_reads_its_seed_flag() {
    let tracegen = env!("CARGO_BIN_EXE_tracegen");
    let gen = |extra: &[&str]| {
        let out = run(tracegen, &[&["gen", "rfhome", "8"], extra].concat());
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let seeded = gen(&["--seed", "5"]);
    assert_eq!(seeded, gen(&["--seed", "5"]));
    assert_ne!(seeded, gen(&[]), "--seed 5 must not give the default seed's trace");
    assert_eq!(gen(&[]), gen(&["--seed", "42"]));
}
