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

#[test]
fn repro_rejects_a_repeated_flag_and_a_nan_scale_before_running() {
    let repro = env!("CARGO_BIN_EXE_repro");
    let out_dir = std::env::temp_dir().join(format!("kagura-cli-args-{}", std::process::id()));
    let out_arg = out_dir.to_str().expect("utf-8 temp path");
    let out = run(repro, &["fig3", "--scale", "0.01", "--scale", "0.02", "--out", out_arg]);
    assert_usage_error(&out, "flag `--scale` given twice");
    // A NaN scale is a configuration error (exit 3) in `repro`, with
    // `simrun`'s check and message.
    let simrun = env!("CARGO_BIN_EXE_simrun");
    for (bin, argv) in [
        (simrun, &["sha", "--scale", "nan"][..]),
        (repro, &["fig13", "--scale", "nan", "--apps", "sha", "--out", out_arg]),
    ] {
        let out = run(bin, argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{argv:?}: {stderr}");
        assert!(stderr.contains("`scale` must be positive, got NaN"), "{stderr}");
    }
    assert!(!out_dir.join("fig13.json").exists(), "nothing runs on a bad scale");
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn a_negative_number_is_a_positional_not_a_flag() {
    let out = run(env!("CARGO_BIN_EXE_tracegen"), &["constant", "-5", "10"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "the range check's runtime error: {stderr}");
    assert!(stderr.contains("constant needs a non-negative power in uW"), "{stderr}");
}
