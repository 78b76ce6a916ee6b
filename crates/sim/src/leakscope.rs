//! Leakscope: a compressed-cache timing side-channel harness.
//!
//! Compression turns a cache's *occupancy* into a function of its
//! *contents*: a block that compresses well leaves room for its
//! neighbours, one that doesn't evicts them. Safecracker-style attacks
//! exploit this by co-locating attacker-controlled bytes with a victim
//! secret in one block and observing — through timing alone — whether a
//! probe block survived. This module reproduces that attack against every
//! compressor and governor in the repo, measures the channel it opens
//! ([`mutual_information_bits`]), and evaluates the randomized-threshold
//! countermeasure ([`GovernorSpec::RandThreshold`]) with the same
//! pipeline.
//!
//! # The eviction oracle
//!
//! On the Table 1 D-cache (32 B blocks, 2 ways, 4 sets, 8-byte segments ⇒
//! 8 segments and 4 tag slots per set) the harness stages four blocks in
//! one set: the shared victim block `V` and three filler blocks
//! `F1..F3` calibrated to compress to exactly 2 segments each. The probe
//! program is
//!
//! ```text
//! load V; load F1; load F2; load V (re-touch: F1 becomes LRU);
//! load F3; load F1            // the probe
//! ```
//!
//! If `V` compresses to ≤ 2 segments everything fits (2+2+2+2 = 8) and
//! the probe **hits**; at ≥ 3 segments `F3`'s fill must evict the LRU
//! block — `F1` — and the probe **misses**. Governor bypasses only
//! inflate footprints, so a probe hit *proves* the ≤ 2-segment case: the
//! oracle has no false positives and a sweep may stop at its first hit.
//!
//! # The sliding window
//!
//! The secret is recovered byte-at-a-time à la Safecracker: for byte `j`
//! the victim maps its secret at block offset `31 − j`, so bytes
//! `0..31-j` are attacker pads, bytes `31-j..31` are already-recovered
//! secret, and byte 31 is the unknown `s_j`. The attacker embeds a guess
//! word `G` (the predicted final word, with guess `c` as its high byte)
//! in the pads and *calibrates* — entirely offline, using the public
//! compressor — a pad family for which the block lands at ≤ 2 segments
//! iff `s_j = c` and ≥ 3 segments for **all 255** wrong values. Only
//! calibrated layouts are attacked, which is what makes the oracle
//! sound; compressors where no layout calibrates (per-word codes like
//! FPC/DZC, whose final-word cost is independent of the pads) are
//! structurally immune and reported as such.

use std::collections::BTreeMap;
use std::sync::Arc;

use ehs_cache::{TimelineRecord, SEGMENT_BYTES, TAG_FACTOR};
use ehs_compress::{AnyCompressor, Compressor};
use ehs_energy::PowerTrace;
use ehs_mem::{ImageKind, MemoryImage};
use ehs_telemetry::{
    channel_capacity_bits, mutual_information_bits, AttackStats, LatencyHistogram,
};
use ehs_workloads::{AddrGen, KernelProgram, KernelSpec, Op, Phase};

use crate::config::{GovernorSpec, SimConfig};
use crate::machine::Simulator;
use crate::runner::default_trace;

/// Pad byte for attacker-controlled positions inside the final words.
/// Non-zero so a wrong final word never degenerates into a
/// three-zero-bytes pattern (C-PACK `zzzx`) that would compress past the
/// miss threshold.
const PAD_BYTE: u8 = 0xA7;

/// Incompressible pad words: no zero bytes, no small values, mutually
/// distinct in every byte lane so they never partially match each other
/// or a guess word under C-PACK's granularities.
const PAD_HEAVY: [u32; 5] = [0xB7E1_5163, 0x8AED_2A6B, 0xF142_9CD7, 0x4528_21E6, 0x38D0_1377];

/// Filler heavy words, disjoint from [`PAD_HEAVY`] (fillers live in other
/// blocks, but distinct values keep FVC frequency counts unpolluted).
const FILL_HEAVY: [u32; 8] = [
    0xBE54_66CF,
    0x34E9_0C6C,
    0xC97C_50DD,
    0x3F84_D5B5,
    0xB547_1915,
    0x2AFE_D7C1,
    0x6C8E_9D2B,
    0xD1A4_73E9,
];

/// SplitMix64 — derives per-run nonce seeds for the randomized governor.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Harness knobs. [`Default`] is the configuration the `leakscope`
/// experiment and CI gate run.
#[derive(Debug, Clone)]
pub struct LeakscopeOptions {
    /// The planted victim secret (recovered tail-first byte order
    /// `secret[0]`, `secret[1]`, …).
    pub secret: [u8; 8],
    /// Base address of the victim block; fillers follow at one set-stride
    /// each. Must be block-aligned.
    pub base_addr: u64,
    /// Bound on retained timeline records per micro-run.
    pub timeline_capacity: usize,
    /// Extra full guess sweeps (with longer ALU spacers / fresh governor
    /// nonces) after a sweep with zero hits before giving up on a byte.
    pub max_retries: u32,
    /// Independent trace seeds per secret value in the MI measurement.
    pub mi_trials: u32,
    /// Secret alphabet for the MI measurement (keep small: the MI sweep
    /// runs `|A|² × mi_trials` micro-simulations).
    pub mi_alphabet: Vec<u8>,
}

impl Default for LeakscopeOptions {
    fn default() -> Self {
        LeakscopeOptions {
            secret: [0x2A, 0x07, 0x11, 0x5C, 0x3D, 0x66, 0x08, 0x4B],
            base_addr: 0x2000,
            timeline_capacity: 4096,
            max_retries: 3,
            mi_trials: 3,
            // 16 values spread over the byte range (never 0x00: an
            // all-zero tail is degenerate for every compressor).
            mi_alphabet: (0..16u16).map(|i| (i * 0x11 + 7) as u8).collect(),
        }
    }
}

/// One probe run of the guess loop, as seen by the attacker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuessProbe {
    /// Secret byte index this probe targets.
    pub byte_index: u8,
    /// Guessed value embedded in the pads.
    pub guess: u8,
    /// Which retry sweep the probe belongs to.
    pub retry: u32,
    /// Attacker-visible latency of the probe load.
    pub latency: u64,
    /// Probe outcome: `true` = filler survived = guess confirmed.
    pub hit: bool,
    /// Compressed-occupancy delta attributed to the probe access.
    pub occ_delta: i64,
}

/// Everything leakscope learned about one (compressor, governor) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellAttackReport {
    /// Compressor under attack.
    pub algorithm: ehs_compress::Algorithm,
    /// Governor label (`SimConfig::governor.label()`).
    pub governor: &'static str,
    /// Whether an eviction-oracle layout calibrated for byte 0. `false`
    /// means the compressor/geometry is structurally immune — nothing was
    /// recoverable even in principle, and the MI sweep measures the
    /// (absent) channel honestly.
    pub supported: bool,
    /// Calibrated pad-family index for byte 0, if any.
    pub pad_family: Option<u32>,
    /// Filler block contents (compress to the calibrated segment count).
    pub filler: Option<[u32; 8]>,
    /// The planted secret.
    pub secret: [u8; 8],
    /// Bytes actually recovered through the timing channel, in order.
    pub recovered: Vec<u8>,
    /// Attack effort accounting.
    pub stats: AttackStats,
    /// Per-probe guess timeline (ordered).
    pub probes: Vec<GuessProbe>,
    /// Plug-in mutual information of the measured channel, bits.
    pub mi_bits: f64,
    /// Blahut–Arimoto capacity of the measured channel, bits.
    pub capacity_bits: f64,
    /// Raw `(secret index, observable)` samples behind the estimates.
    pub mi_samples: Vec<(u64, u64)>,
    /// Per-secret-value probe latency histograms from the MI sweep.
    pub histograms: Vec<(u8, LatencyHistogram)>,
}

/// Set geometry the eviction oracle needs, derived from the D-cache
/// parameters. `None` when no filler size can pin the set exactly one
/// victim segment away from overflow (the oracle needs
/// `fillers × filler_segs == budget − 2`).
#[derive(Debug, Clone, Copy)]
struct Geometry {
    block: u64,
    stride: u64,
    set: u32,
    filler_segs: u32,
}

fn geometry(cfg: &SimConfig, base_addr: u64) -> Option<Geometry> {
    let d = &cfg.system.dcache;
    let block = d.block_size as u64;
    let sets = d.num_sets() as u64;
    let budget = d.ways * d.block_size / SEGMENT_BYTES; // segments per set
    let slots = d.ways * TAG_FACTOR; // tag entries per set
    if slots < 4 || budget < 5 {
        return None;
    }
    let fillers = 3u32; // victim + 3 fillers = the 4 staged blocks
                        // Hit: 2 + fillers·f ≤ budget; miss: 3 + fillers·f > budget
                        // ⇒ fillers·f = budget − 2 exactly.
    if !(budget - 2).is_multiple_of(fillers) {
        return None;
    }
    let filler_segs = (budget - 2) / fillers;
    let full_segs = d.block_size / SEGMENT_BYTES;
    if filler_segs == 0 || filler_segs >= full_segs {
        return None;
    }
    Some(Geometry {
        block,
        stride: sets * block,
        set: ((base_addr / block) % sets) as u32,
        filler_segs,
    })
}

/// Segment footprint of a block of eight words — the same arithmetic the
/// cache's size memo uses, so calibration is exact, not a model.
fn segs_of(comp: &AnyCompressor, words: &[u32; 8]) -> u32 {
    let mut data = [0u8; 32];
    for (i, w) in words.iter().enumerate() {
        data[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
    }
    comp.compressed_size_bits(&data).div_ceil(8).div_ceil(SEGMENT_BYTES).max(1)
}

/// Pad families: `w0 = G` always, then `g` more copies of `G`, `h` heavy
/// words, zeros for the rest of `w1..w5`. Enumerated lightest-first.
fn families() -> Vec<(u32, u32)> {
    let mut out = Vec::with_capacity(21);
    for g in 0..=5u32 {
        for h in 0..=(5 - g) {
            out.push((g, h));
        }
    }
    out
}

/// The victim block for window `j`: attacker pads from `family` around
/// the secret tail. `byte31` is the value actually occupying the unknown
/// slot (the real secret byte in a live run, a hypothesis during
/// calibration); `guess` is the attacker's guess embedded in the pads.
fn victim_words(j: usize, known: &[u8], byte31: u8, guess: u8, family: (u32, u32)) -> [u32; 8] {
    let off = 31 - j;
    let byte_at = |p: usize| -> u8 {
        if p == 31 {
            byte31
        } else if p >= off {
            known[p - off]
        } else {
            PAD_BYTE
        }
    };
    let tail = |p: usize| if p >= off { byte_at(p) } else { PAD_BYTE };
    let g = u32::from_le_bytes([tail(28), tail(29), tail(30), guess]);
    let (gc, hc) = family;
    let mut w = [0u32; 8];
    w[0] = g;
    let mut idx = 1;
    for _ in 0..gc {
        w[idx] = g;
        idx += 1;
    }
    for &heavy in PAD_HEAVY.iter().take(hc as usize) {
        w[idx] = heavy;
        idx += 1;
    }
    // Remaining w1..w5 slots stay zero.
    w[6] = if off >= 28 {
        g // fully attacker-controlled: another guess copy
    } else {
        u32::from_le_bytes([tail(24), tail(25), tail(26), tail(27)])
    };
    w[7] = u32::from_le_bytes([tail(28), tail(29), tail(30), byte_at(31)]);
    w
}

/// Offline calibration for window `j`: the first pad family whose layout
/// is a *sound* oracle — for every guess `c`, the block compresses to
/// ≤ 2 segments when the unknown byte equals `c` and to ≥ 3 segments for
/// all 255 wrong values. Purely attacker-side computation on the public
/// compressor; no simulation involved.
fn calibrate(comp: &AnyCompressor, j: usize, known: &[u8]) -> Option<(u32, u32)> {
    'family: for fam in families() {
        for c in 0..=255u8 {
            if segs_of(comp, &victim_words(j, known, c, c, fam)) > 2 {
                continue 'family;
            }
            for v in 0..=255u8 {
                if v != c && segs_of(comp, &victim_words(j, known, v, c, fam)) < 3 {
                    continue 'family;
                }
            }
        }
        return Some(fam);
    }
    None
}

/// First filler pattern hitting exactly `target` segments: heavy
/// prefixes over zeros, then small-delta ramps for base-delta coders.
fn find_filler(comp: &AnyCompressor, target: u32) -> Option<[u32; 8]> {
    let mut candidates: Vec<[u32; 8]> = Vec::new();
    for k in 1..=8usize {
        let mut w = [0u32; 8];
        w[..k].copy_from_slice(&FILL_HEAVY[..k]);
        candidates.push(w);
    }
    for (base, step) in [(0x4050_6071u32, 0x13u32), (0x1122_3341, 0x0101), (0x0BAD_5EED, 0x3)] {
        let mut w = [0u32; 8];
        for (i, wi) in w.iter_mut().enumerate() {
            *wi = base.wrapping_add(step.wrapping_mul(i as u32));
        }
        candidates.push(w);
    }
    candidates.into_iter().find(|w| segs_of(comp, w) == target)
}

/// Runs one probe micro-simulation and returns the probe-load record
/// (`None` if the run produced no access in the staged set) plus the
/// number of attacker accesses actually issued.
#[allow(clippy::too_many_arguments)]
fn run_probe(
    cfg: &SimConfig,
    trace: &PowerTrace,
    victim: &[u32; 8],
    filler: &[u32; 8],
    geo: Geometry,
    opts: &LeakscopeOptions,
    spacer: u32,
    nonce: &mut u64,
) -> (Option<TimelineRecord>, u64) {
    *nonce += 1;
    let mut cfg = cfg.clone();
    // The randomized-threshold hardware draws fresh randomness every run;
    // model that with a per-run nonce folded into the seed (deterministic
    // given the attack's own progress).
    if let GovernorSpec::RandThreshold(mut rc) = cfg.governor {
        rc.seed ^= mix(*nonce);
        cfg.governor = GovernorSpec::RandThreshold(rc);
    }
    let (v, f1, f2, f3) = (
        opts.base_addr,
        opts.base_addr + geo.stride,
        opts.base_addr + 2 * geo.stride,
        opts.base_addr + 3 * geo.stride,
    );
    let mut image = MemoryImage::builder(ImageKind::Zeros);
    for (addr, words) in [(v, victim), (f1, filler), (f2, filler), (f3, filler)] {
        image = image
            .region(addr, ImageKind::Literal { words: *words })
            .region(addr + geo.block, ImageKind::Zeros);
    }
    // Spacer ALUs shift the load sequence relative to the power trace so
    // a retry lands the probe window in a different part of the cycle.
    let mut body = vec![Op::Alu; 1 + spacer as usize * 24];
    for addr in [v, f1, f2, v, f3, f1] {
        body.push(Op::Load(AddrGen::Fixed { addr }));
    }
    let program = KernelProgram::new(KernelSpec {
        name: "leakscope-probe",
        phases: vec![Phase { body, iterations: 1, code_base: 0x0010_0000, code_paths: 1 }],
        repeats: 1,
        image: image.build(),
    });
    let mut sim = Simulator::new(cfg, &program, trace);
    sim.attach_leak_timeline(opts.timeline_capacity);
    let timeline = sim.run_observed().leak_timeline.expect("leak timeline attached");
    let accesses = timeline.records().len() as u64 + timeline.dropped();
    (timeline.last_in_set(geo.set), accesses)
}

/// Attacks one (compressor, governor) cell end to end: calibrates the
/// eviction oracle, recovers as much of the planted secret as the
/// channel allows, then measures the channel's mutual information and
/// capacity over a secret alphabet. Fully deterministic for a given
/// `cfg` and `opts`.
pub fn attack_cell(cfg: &SimConfig, opts: &LeakscopeOptions) -> CellAttackReport {
    let comp = cfg.algorithm.compressor();
    let mut report = CellAttackReport {
        algorithm: cfg.algorithm,
        governor: cfg.governor.label(),
        supported: false,
        pad_family: None,
        filler: None,
        secret: opts.secret,
        recovered: Vec::new(),
        stats: AttackStats { secret_bytes: 8, ..Default::default() },
        probes: Vec::new(),
        mi_bits: 0.0,
        capacity_bits: 0.0,
        mi_samples: Vec::new(),
        histograms: Vec::new(),
    };
    let Some(geo) = geometry(cfg, opts.base_addr) else {
        return report;
    };
    let Some(filler) = find_filler(&comp, geo.filler_segs) else {
        return report;
    };
    report.filler = Some(filler);

    let fam0 = calibrate(&comp, 0, &[]);
    report.supported = fam0.is_some();
    report.pad_family = fam0.map(|(g, h)| g * 6 + h);

    let mut nonce = 0u64;
    let trace = default_trace(cfg);

    // Phase 1: byte-at-a-time recovery.
    if report.supported {
        'bytes: for j in 0..8usize {
            let known = report.recovered.clone();
            let Some(fam) = (if j == 0 { fam0 } else { calibrate(&comp, j, &known) }) else {
                break 'bytes; // window no longer calibrates (e.g. BDI past w6)
            };
            let mut found = None;
            'sweep: for retry in 0..=opts.max_retries {
                for c in 0..=255u8 {
                    let words = victim_words(j, &known, opts.secret[j], c, fam);
                    let (rec, accesses) =
                        run_probe(cfg, &trace, &words, &filler, geo, opts, retry, &mut nonce);
                    report.stats.guesses += 1;
                    report.stats.probe_accesses += accesses;
                    let (latency, hit, occ_delta) =
                        rec.map_or((0, false, 0), |r| (r.latency, r.hit, r.occ_delta));
                    report.probes.push(GuessProbe {
                        byte_index: j as u8,
                        guess: c,
                        retry,
                        latency,
                        hit,
                        occ_delta,
                    });
                    if hit {
                        found = Some(c);
                        break 'sweep;
                    }
                }
                if retry < opts.max_retries {
                    report.stats.retries += 1;
                }
            }
            match found {
                Some(c) => report.recovered.push(c),
                None => break 'bytes,
            }
        }
    }
    report.stats.recovered_bytes = report.recovered.len() as u32;
    report.stats.bytes_probed = report.stats.probe_accesses * geo.block;

    // Phase 2: channel measurement over the secret alphabet. Uses the
    // byte-0 window (fully attacker-controlled pads); falls back to the
    // lightest family when nothing calibrates, which honestly measures
    // the absent channel as ~0 bits.
    let fam = fam0.unwrap_or((0, 0));
    let alphabet = &opts.mi_alphabet;
    let none_obs = alphabet.len() as u64;
    let mut hists: BTreeMap<u8, LatencyHistogram> = BTreeMap::new();
    for (si, &s) in alphabet.iter().enumerate() {
        for trial in 0..opts.mi_trials {
            let mut tcfg = cfg.clone();
            tcfg.trace_seed = cfg.trace_seed ^ mix(0xD1B5_4A32 ^ u64::from(trial));
            let ttrace = default_trace(&tcfg);
            let mut obs = none_obs;
            for (ci, &c) in alphabet.iter().enumerate() {
                let words = victim_words(0, &[], s, c, fam);
                let (rec, _) = run_probe(&tcfg, &ttrace, &words, &filler, geo, opts, 0, &mut nonce);
                if let Some(r) = rec {
                    hists.entry(s).or_default().record(r.latency);
                    if r.hit {
                        obs = ci as u64;
                        break;
                    }
                }
            }
            report.mi_samples.push((si as u64, obs));
        }
    }
    report.mi_bits = mutual_information_bits(&report.mi_samples);
    report.capacity_bits = channel_capacity_bits(&report.mi_samples);
    report.histograms = hists.into_iter().collect();
    report
}

/// Convenience: Arc-free clone of the default trace for callers that
/// need the same trace the attack used (tests, differential suites).
pub fn attack_trace(cfg: &SimConfig) -> Arc<PowerTrace> {
    default_trace(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use ehs_compress::Algorithm;

    fn cfg_for(alg: Algorithm, governor: GovernorSpec) -> SimConfig {
        let mut cfg = SimConfig::table1();
        cfg.algorithm = alg;
        cfg.governor = governor;
        cfg
    }

    #[test]
    fn calibration_finds_sound_cpack_layout() {
        let comp = Algorithm::CPack.compressor();
        let fam = calibrate(&comp, 0, &[]).expect("C-PACK layout must calibrate");
        // Spot-check soundness at a few guesses.
        for c in [0u8, 0x2A, 0xFF] {
            assert!(segs_of(&comp, &victim_words(0, &[], c, c, fam)) <= 2);
            for v in [1u8, 0x2B, 0x80] {
                if v != c {
                    assert!(segs_of(&comp, &victim_words(0, &[], v, c, fam)) >= 3);
                }
            }
        }
    }

    #[test]
    fn per_word_codes_are_structurally_immune() {
        for alg in [Algorithm::Fpc, Algorithm::Dzc] {
            let comp = alg.compressor();
            assert!(
                calibrate(&comp, 0, &[]).is_none(),
                "{alg:?} final-word cost is pad-independent; no layout should calibrate"
            );
        }
    }

    #[test]
    fn fillers_calibrate_for_attackable_compressors() {
        for alg in [Algorithm::CPack, Algorithm::Fvc, Algorithm::Bdi] {
            let comp = alg.compressor();
            assert_eq!(find_filler(&comp, 2).map(|w| segs_of(&comp, &w)), Some(2), "{alg:?}");
        }
    }

    #[test]
    fn cpack_attack_recovers_the_planted_secret() {
        let cfg = cfg_for(Algorithm::CPack, GovernorSpec::AlwaysCompress);
        let opts = LeakscopeOptions::default();
        let report = attack_cell(&cfg, &opts);
        assert!(report.supported);
        assert_eq!(report.recovered, opts.secret.to_vec(), "full 8-byte recovery");
        assert!(report.stats.recovered());
        assert!(report.stats.guesses > 0 && report.stats.bytes_probed > 0);
        // A perfect deterministic channel over a 16-value alphabet.
        assert!(report.mi_bits > 3.9, "mi = {}", report.mi_bits);
    }

    #[test]
    fn randomized_threshold_reduces_mi_on_the_same_cell() {
        let baseline = attack_cell(
            &cfg_for(Algorithm::CPack, GovernorSpec::AlwaysCompress),
            &LeakscopeOptions::default(),
        );
        let hardened = attack_cell(
            &cfg_for(Algorithm::CPack, GovernorSpec::RandThreshold(Default::default())),
            &LeakscopeOptions::default(),
        );
        assert!(
            hardened.mi_bits < baseline.mi_bits,
            "countermeasure must strictly reduce MI: {} vs {}",
            hardened.mi_bits,
            baseline.mi_bits
        );
    }

    #[test]
    fn attack_is_deterministic() {
        let cfg = cfg_for(Algorithm::Fvc, GovernorSpec::AlwaysCompress);
        let opts = LeakscopeOptions::default();
        let a = attack_cell(&cfg, &opts);
        let b = attack_cell(&cfg, &opts);
        assert_eq!(a.recovered, b.recovered);
        assert_eq!(a.probes, b.probes);
        assert_eq!(a.mi_samples, b.mi_samples);
        assert_eq!(a.mi_bits.to_bits(), b.mi_bits.to_bits());
    }
}
