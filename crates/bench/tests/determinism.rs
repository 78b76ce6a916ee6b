//! The harness determinism guarantee: experiment output is byte-identical
//! at any `--jobs` value.
//!
//! Simulations are pure functions of their inputs and the worker pool
//! collects results in submission order, so the JSON an experiment saves
//! must not depend on how many workers raced to produce it. This runs
//! three representative experiments — `summary` (a plain app × governor
//! grid), `fig23` (nested `mean_gains` batches per algorithm) and `fig13`
//! (ideal cells that share their recording pass with their ACC and
//! ACC+Kagura twins) — at one and at four workers and compares the saved
//! files byte for byte.

use std::fs;
use std::path::PathBuf;

use ehs_workloads::App;
use kagura_bench::experiments::find;
use kagura_bench::ExpContext;

/// Runs `id` with `jobs` workers into a fresh directory and returns the
/// saved JSON bytes.
fn run_at(jobs: usize, id: &str) -> Vec<u8> {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{id}-jobs{jobs}"));
    let ctx = ExpContext {
        scale: 0.02,
        apps: vec![App::Sha, App::Crc32, App::G721d],
        sens_apps: vec![App::Sha, App::G721d],
        out_dir: out_dir.clone(),
        ..ExpContext::default()
    };
    ehs_sim::parallel::set_max_workers(jobs);
    let f = find(id).expect("known experiment");
    let _ = f(&ctx);
    fs::read(out_dir.join(format!("{id}.json"))).expect("experiment saved its JSON")
}

#[test]
fn experiment_json_is_byte_identical_across_job_counts() {
    for id in ["summary", "fig23", "fig13"] {
        let serial = run_at(1, id);
        let parallel = run_at(4, id);
        assert!(
            serial == parallel,
            "{id}.json differs between --jobs 1 and --jobs 4:\n--- jobs 1 ---\n{}\n--- jobs 4 ---\n{}",
            String::from_utf8_lossy(&serial),
            String::from_utf8_lossy(&parallel),
        );
        assert!(!serial.is_empty(), "{id}.json is empty");
    }
}

/// Runs the leakscope experiment with `jobs` workers and returns the
/// saved JSON plus every dumped `leakscope_<cell>.jsonl` stream, sorted
/// by file name.
fn run_leakscope_at(jobs: usize) -> (Vec<u8>, Vec<(String, Vec<u8>)>) {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("leakscope-jobs{jobs}"));
    let tel_dir = out_dir.join("telemetry");
    let ctx = ExpContext {
        out_dir: out_dir.clone(),
        telemetry_dir: Some(tel_dir.clone()),
        ..ExpContext::default()
    };
    ehs_sim::parallel::set_max_workers(jobs);
    let f = find("leakscope").expect("known experiment");
    let _ = f(&ctx);
    let json = fs::read(out_dir.join("leakscope.json")).expect("experiment saved its JSON");
    let mut streams: Vec<(String, Vec<u8>)> = fs::read_dir(&tel_dir)
        .expect("telemetry dir exists")
        .map(|e| {
            let e = e.expect("readable entry");
            let name = e.file_name().to_string_lossy().into_owned();
            (name, fs::read(e.path()).expect("readable stream"))
        })
        .collect();
    streams.sort();
    (json, streams)
}

#[test]
fn leakscope_jsonl_is_byte_identical_across_job_counts() {
    // The attack reports carry f64 channel estimates and RNG-driven
    // (seeded) probe outcomes; both the saved JSON and every dumped
    // JSONL stream must still be byte-identical at any worker count.
    let (serial_json, serial_streams) = run_leakscope_at(1);
    let (parallel_json, parallel_streams) = run_leakscope_at(4);
    assert!(serial_json == parallel_json, "leakscope.json differs between --jobs 1 and --jobs 4");
    let names: Vec<&String> = serial_streams.iter().map(|(n, _)| n).collect();
    assert_eq!(
        names,
        parallel_streams.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "stream file sets differ"
    );
    // All six compressors × four governors.
    assert_eq!(serial_streams.len(), 24, "expected one stream per grid cell: {names:?}");
    for ((name, serial), (_, parallel)) in serial_streams.iter().zip(&parallel_streams) {
        assert!(serial == parallel, "{name} differs between --jobs 1 and --jobs 4");
        assert!(!serial.is_empty(), "{name} is empty");
    }
}
