//! One pass per distinct cell: Fig 23's four algorithm rows share Table
//! I's compressor-free baseline column, so the pool counts all
//! `4 × 3 × apps` cells but runs that column once per app. Fig 13's
//! ideal cells share their recording pass with their ACC or ACC+Kagura
//! twin, and on apps whose oracle finds nothing to compress they take
//! the baseline cell's result without a replay.

use std::path::PathBuf;
use std::sync::Mutex;

use ehs_telemetry::spans;
use kagura_bench::experiments::find;
use kagura_bench::ExpContext;

/// Serializes the tests: pool counters and span recording are
/// process-wide.
static POOL: Mutex<()> = Mutex::new(());

fn jobs_ok() -> u64 {
    let mut m = ehs_sim::parallel::pool_metrics();
    let ok = m.counter("jobs_ok");
    m.counter_value(ok)
}

#[test]
fn fig23_runs_its_shared_baseline_once_per_app() {
    let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let ctx = ExpContext {
        scale: 0.02,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("passes"),
        quiet: true,
        ..ExpContext::default()
    };
    let apps = ctx.sens_apps.len() as u64;
    ehs_sim::parallel::set_max_workers(2);
    let before = jobs_ok();
    spans::set_enabled(true);
    let _ = find("fig23").expect("known experiment")(&ctx);
    spans::set_enabled(false);
    let passes = spans::drain().iter().filter(|s| s.category == "sim").count() as u64;
    assert_eq!(jobs_ok() - before, 4 * 3 * apps, "the pool counts every cell");
    assert_eq!(passes, (1 + 4 * 2) * apps, "the shared baseline runs once per app");
}

/// Runs Fig 13 over `apps` at scale 0.15 on two workers; returns the
/// cells the pool counted and the `sim` spans (passes) it recorded.
fn fig13_cells_and_passes(apps: &[ehs_workloads::App]) -> (u64, u64) {
    let _pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let ctx = ExpContext {
        scale: 0.15,
        apps: apps.to_vec(),
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("passes_fig13"),
        quiet: true,
        ..ExpContext::default()
    };
    ehs_sim::parallel::set_max_workers(2);
    let before = jobs_ok();
    spans::set_enabled(true);
    let _ = find("fig13").expect("known experiment")(&ctx);
    spans::set_enabled(false);
    let passes = spans::drain().iter().filter(|s| s.category == "sim").count() as u64;
    (jobs_ok() - before, passes)
}

#[test]
fn fig13_serves_never_compressing_oracles_from_the_baseline() {
    use ehs_workloads::App;
    // Baseline, then a recording pass per ideal spec that is also its
    // twin's run; neither ideal cell of these apps needs a replay.
    let apps = [App::Sha, App::Strings, App::Patricia, App::Crc32];
    assert_eq!(fig13_cells_and_passes(&apps), (20, 12));
    // jpegd's oracle finds useful compressions: both replays run.
    assert_eq!(fig13_cells_and_passes(&[App::Jpegd]), (5, 5));
}
