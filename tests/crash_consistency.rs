//! Crash-consistency: the whole point of an EHS runtime is that frequent
//! power failures are *invisible* to the program. These tests run each
//! design through hundreds of real power failures and compare the final
//! architectural memory image byte-for-byte against a reference run that
//! never loses power.

use kagura::energy::PowerTrace;
use kagura::mem::Nvm;
use kagura::model::Power;
use kagura::sim::runner::DEFAULT_TRACE_LEN;
use kagura::sim::{EhsDesign, GovernorSpec, SimConfig, Simulator};
use kagura::workloads::App;

const SCALE: f64 = 0.1;

/// Runs `app` under `cfg`, returning (power-failure count, final NVM).
fn run(app: App, cfg: &SimConfig, trace: &PowerTrace) -> (u64, Nvm) {
    let program = app.build(SCALE);
    let (stats, nvm) = Simulator::new(cfg.clone(), &program, trace).run_with_memory();
    assert!(stats.completed, "{app} did not complete");
    (stats.checkpoints, nvm)
}

/// Asserts two NVM images hold identical bytes over the union of all
/// materialised blocks.
fn assert_memory_equal(mut a: Nvm, mut b: Nvm, context: &str) {
    let mut indices = a.resident_indices();
    indices.extend(b.resident_indices());
    indices.sort_unstable();
    indices.dedup();
    assert!(!indices.is_empty(), "{context}: no blocks touched?");
    for idx in indices {
        let addr = a.block_addr(idx);
        let block_a = a.peek_block(addr).clone();
        let block_b = b.peek_block(addr).clone();
        assert_eq!(
            block_a, block_b,
            "{context}: architectural memory differs at block {idx} ({addr})"
        );
    }
}

fn intermittent_trace(cfg: &SimConfig) -> PowerTrace {
    PowerTrace::generate(cfg.trace_kind, cfg.trace_seed, DEFAULT_TRACE_LEN)
}

/// A trace so strong the capacitor never drops below `V_ckpt`.
fn steady_trace() -> PowerTrace {
    PowerTrace::constant(Power::from_milliwatts(50.0), 1000)
}

#[test]
fn nvsramcache_is_crash_consistent() {
    for app in [App::Jpegd, App::Gsm, App::Dijkstra, App::Blowfish] {
        let cfg = SimConfig::table1();
        let (failures, nvm) = run(app, &cfg, &intermittent_trace(&cfg));
        let (no_failures, reference) = run(app, &cfg, &steady_trace());
        assert!(failures > 10, "{app}: want many power failures, got {failures}");
        assert_eq!(no_failures, 0, "{app}: steady trace must never fail");
        assert_memory_equal(nvm, reference, app.name());
    }
}

#[test]
fn nvsramcache_with_compression_is_crash_consistent() {
    // Compression must never corrupt data: same check with the full
    // ACC+Kagura stack switching modes mid-cycle.
    for app in [App::Jpegd, App::Typeset] {
        let cfg = SimConfig::table1().with_governor(GovernorSpec::AccKagura(Default::default()));
        let (failures, nvm) = run(app, &cfg, &intermittent_trace(&cfg));
        let (_, reference) = run(app, &cfg, &steady_trace());
        assert!(failures > 5, "{app}: got {failures} failures");
        assert_memory_equal(nvm, reference, app.name());
    }
}

#[test]
fn nvmr_is_crash_consistent() {
    let cfg = SimConfig::table1().with_design(EhsDesign::Nvmr);
    let (failures, nvm) = run(App::Gsm, &cfg, &intermittent_trace(&cfg));
    let (_, reference) = run(App::Gsm, &cfg, &steady_trace());
    assert!(failures > 10);
    assert_memory_equal(nvm, reference, "NvMR/gsm");
}

#[test]
fn sweepcache_reexecution_is_crash_consistent() {
    // SweepCache rolls back and re-executes; determinism of the kernels
    // must make the replayed stores land identically.
    let cfg = SimConfig::table1().with_design(EhsDesign::SweepCache);
    let (failures, nvm) = run(App::Adpcmd, &cfg, &intermittent_trace(&cfg));
    let (_, reference) = run(App::Adpcmd, &cfg, &steady_trace());
    assert!(failures > 10);
    assert_memory_equal(nvm, reference, "SweepCache/adpcmd");
}

#[test]
fn all_compression_algorithms_preserve_memory() {
    use kagura::compress::Algorithm;
    let reference_cfg = SimConfig::table1();
    let (_, reference) = run(App::Epic, &reference_cfg, &steady_trace());
    for alg in Algorithm::EXTENDED {
        let mut cfg = SimConfig::table1().with_governor(GovernorSpec::AlwaysCompress);
        cfg.algorithm = alg;
        let (failures, nvm) = run(App::Epic, &cfg, &intermittent_trace(&cfg));
        assert!(failures > 5, "{alg}");
        // Compare against the *uncompressed, failure-free* image: the
        // compressor in the datapath must be fully transparent.
        assert_memory_equal(nvm, reference.clone(), alg.name());
    }
}
