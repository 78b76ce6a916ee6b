//! Characterisation guards: the calibrated properties of the 20 kernels
//! that the paper's figures depend on must not silently drift.

use ehs_compress::{Algorithm, Compressor};
use ehs_model::inst::InstKind;
use ehs_workloads::App;
use proptest::prelude::*;

/// Apps whose data the paper treats as essentially incompressible (crypto
/// state, entropy-coded payloads).
const INCOMPRESSIBLE: [App; 4] = [App::Blowfish, App::Blowfishd, App::Rijndael, App::Crc32];

/// Apps whose primary data region must compress well under BDI.
const COMPRESSIBLE: [App; 5] = [App::Jpeg, App::Epic, App::G721d, App::Gsm, App::Adpcmd];

/// Measures the mean BDI compression ratio over the blocks a program's
/// first ten thousand loads actually touch.
fn touched_ratio(app: App) -> f64 {
    let program = app.build(0.05);
    let bdi = Algorithm::Bdi.compressor();
    let image = program.image();
    let mut total = 0.0;
    let mut count = 0u32;
    let mut i = 0;
    while count < 400 && i < program.len().min(10_000) {
        if let InstKind::Load { addr } = program.inst_at(i).kind {
            let block = image.materialize(addr.get() / 32, 32);
            total += bdi.compress(block.as_slice()).ratio();
            count += 1;
        }
        i += 1;
    }
    assert!(count > 0, "{app}: no loads found");
    total / count as f64
}

#[test]
fn crypto_data_is_incompressible_and_media_data_is_not() {
    for app in INCOMPRESSIBLE {
        let ratio = touched_ratio(app);
        assert!(ratio > 0.85, "{app}: ratio {ratio:.2} should be near 1 (incompressible)");
    }
    for app in COMPRESSIBLE {
        let ratio = touched_ratio(app);
        assert!(ratio < 0.75, "{app}: ratio {ratio:.2} should compress well");
    }
}

#[test]
fn arithmetic_intensity_spans_the_fig17_range() {
    let ai: Vec<(App, f64)> =
        App::ALL.iter().map(|&a| (a, a.build(0.05).arithmetic_intensity())).collect();
    let min = ai.iter().map(|&(_, v)| v).fold(f64::MAX, f64::min);
    let max = ai.iter().map(|&(_, v)| v).fold(f64::MIN, f64::max);
    assert!(min < 0.5, "need a memory-bound app, min AI = {min}");
    assert!(max > 4.0, "need a compute-bound app, max AI = {max}");
}

#[test]
fn memory_op_density_is_realistic() {
    // Embedded code spans memory-bound decoders (~85% mem ops) to
    // pointer-chasing search kernels (~15%).
    for app in App::ALL {
        let p = app.build(0.05);
        let (mem, alu) = p.op_mix();
        let frac = mem as f64 / (mem + alu) as f64;
        assert!((0.1..=0.9).contains(&frac), "{app}: mem fraction {frac:.2}");
    }
}

#[test]
fn scale_multiplies_only_the_repetition_count() {
    // Scale-sensitive tests must pick scales that build different
    // programs: 0.15 gives every app at least two repetitions, while
    // 0.05 rounds every app down to the one-repetition floor.
    for app in App::ALL {
        let (two, one) = (app.build(0.15), app.build(0.05));
        assert!(two.len() >= 2 * two.rep_len(), "{app}: 0.15 builds one repetition");
        assert_eq!(one.len(), one.rep_len(), "{app}: 0.05 builds more than one repetition");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_access_equals_replay(app_idx in 0usize..20, probe in any::<u64>()) {
        // inst_at must be a pure function: probing out of order cannot
        // change anything (this is what makes JIT-checkpoint resume exact).
        let app = App::ALL[app_idx];
        let p = app.build(0.05);
        let i = probe % p.len();
        let before = p.inst_at(i);
        let _ = p.inst_at((i + 13) % p.len());
        let _ = p.inst_at(i / 2);
        prop_assert_eq!(p.inst_at(i), before);
    }

    #[test]
    fn repetitions_are_identical(app_idx in 0usize..20, probe in any::<u64>()) {
        let app = App::ALL[app_idx];
        let p = app.build(1.0);
        if p.len() < 2 * p.rep_len() {
            return Ok(()); // single repetition at this scale
        }
        let i = probe % p.rep_len();
        prop_assert_eq!(p.inst_at(i), p.inst_at(i + p.rep_len()));
    }
}
