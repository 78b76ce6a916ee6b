//! Golden bit-identity gate for the simulator's physics and bookkeeping.
//!
//! The fastpath differentials compare two modes of the same build, so a
//! change to code both modes share (the capacitor step, the trace read,
//! the batched kernel) can move every number without failing them. This
//! test pins a digest of each cell's `SimStats` — every f64 field by its
//! bit pattern, every counter — so any such change, however small its
//! rounding effect, fails here.
//!
//! A deliberate behaviour change (a new integrator, a re-calibration)
//! re-pins the table: the failure message prints the complete new one.

use ehs_energy::CapacitorConfig;
use ehs_sim::{EhsDesign, GovernorSpec, SimConfig, SimJob, SimStats};
use ehs_workloads::App;

/// Workload scale of every cell: short runs, but long enough for many
/// power cycles and batched ALU runs on both capacitors.
const SCALE: f64 = 0.03;

/// Expected digest per `(app, governor, capacitor µF, design)` cell, in
/// the iteration order of [`cells`].
const GOLDEN: [u64; 72] = [
    // sha, baseline: 4.7 uF then 1000 uF, each NVSRAM, NVMR, SweepCache.
    0xbd989614a53509b8,
    0x132705f33955534a,
    0xf27184a8111abe0d,
    0xfcba304d1cb51946,
    0x9e3fa739938ef0ed,
    0x270beac9f9a76ef7,
    // sha, ACC: 4.7 uF then 1000 uF, each NVSRAM, NVMR, SweepCache.
    0xdfbc1163ada62b9b,
    0x0e8d7540128641c7,
    0x3ed503e187045861,
    0xea701d4d1daf6344,
    0x53ea5900ce997973,
    0x4c5d51c6e682b3f8,
    // sha, ACC+Kagura: 4.7 uF then 1000 uF, each NVSRAM, NVMR, SweepCache.
    0x1a1c6050a8c19a7c,
    0xbf0409c2ad391ee3,
    0x93132b393e286929,
    0x1f9e910b163a9fbd,
    0x4e9412fb8ef2f8b6,
    0xbc0b9209cb7a6e61,
    // sha, ideal ACC+Kagura: 4.7 uF then 1000 uF, each NVSRAM, NVMR, SweepCache.
    0xbd989614a53509b8,
    0x132705f33955534a,
    0xf27184a8111abe0d,
    0xfcba304d1cb51946,
    0x9e3fa739938ef0ed,
    0x270beac9f9a76ef7,
    // crc32, baseline: 4.7 uF then 1000 uF, each NVSRAM, NVMR, SweepCache.
    0xaf6d12a373a63827,
    0xbe265c1a2a60eb02,
    0xd53eba39c5eee8ba,
    0x159f3f4853344b8e,
    0x5ea0488532d01d1a,
    0x7df50f668ce0b099,
    // crc32, ACC: 4.7 uF then 1000 uF, each NVSRAM, NVMR, SweepCache.
    0xa5c950e2ebed862a,
    0xff23f971072ee82f,
    0xa8efaf59674997c3,
    0x8b3f36fa5dec8a75,
    0xff664a42c871e4bd,
    0x82e299dc911987b2,
    // crc32, ACC+Kagura: 4.7 uF then 1000 uF, each NVSRAM, NVMR, SweepCache.
    0xfe226b8950561178,
    0x7f325e67cb787de1,
    0xac0783aa4e139515,
    0x14697d5f5bd6bf21,
    0x25367be7975c6c69,
    0x514ee6e5e5dce426,
    // crc32, ideal ACC+Kagura: 4.7 uF then 1000 uF, each NVSRAM, NVMR, SweepCache.
    0xaf6d12a373a63827,
    0xbe265c1a2a60eb02,
    0xd53eba39c5eee8ba,
    0x159f3f4853344b8e,
    0x5ea0488532d01d1a,
    0x7df50f668ce0b099,
    // jpegd, baseline: 4.7 uF then 1000 uF, each NVSRAM, NVMR, SweepCache.
    0x5531fac1b6235121,
    0x8c10fdfbaf7127f7,
    0x1b9db8cb897435cc,
    0x3b32b4a82faa97c7,
    0xb398857580ce7781,
    0xdb08ad78fa1d4841,
    // jpegd, ACC: 4.7 uF then 1000 uF, each NVSRAM, NVMR, SweepCache.
    0xe3b71cbe75ec10a8,
    0x6f542a71d83c1404,
    0xd6112378e3cdcb7e,
    0x54a441b78aa92c06,
    0xb0d57706184a7749,
    0x8c7fb67282dabe44,
    // jpegd, ACC+Kagura: 4.7 uF then 1000 uF, each NVSRAM, NVMR, SweepCache.
    0x5f1ba2f49dd2e04f,
    0xe135d289c7ee3687,
    0x6f593f30a1c3230d,
    0x779d9de884fd3d68,
    0x2c83c564c2aee7bb,
    0x379da2eeb778f752,
    // jpegd, ideal ACC+Kagura: 4.7 uF then 1000 uF, each NVSRAM, NVMR, SweepCache.
    0x01ea46b63c2de5fa,
    0x4b6a00765bb3b9b5,
    0x8b80efd3ac94e01e,
    0xf1b3bab6aee499c6,
    0x022c4e8f8be64ec7,
    0xc9476c1c750d2702,
];

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

fn digest(s: &SimStats) -> u64 {
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    d.word(s.completed as u64);
    d.word(s.committed_insts);
    d.word(s.executed_insts);
    d.word(s.total_cycles);
    d.f64(s.sim_time.seconds());
    d.word(s.power_cycles.len() as u64);
    for c in &s.power_cycles {
        for w in [c.insts, c.loads, c.stores, c.cycles] {
            d.word(w);
        }
    }
    d.word(s.power_cycle_count);
    d.word(s.checkpoints);
    for c in [&s.icache, &s.dcache] {
        for w in [
            c.read_hits,
            c.read_misses,
            c.write_hits,
            c.write_misses,
            c.fills,
            c.evictions,
            c.capacity_evictions,
            c.forced_evictions,
            c.compressed_evictions,
            c.compressions,
            c.decompressions,
            c.fat_writes,
        ] {
            d.word(w);
        }
    }
    d.word(s.nvm.reads);
    d.word(s.nvm.writes);
    d.f64(s.nvm.read_energy.picojoules());
    d.f64(s.nvm.write_energy.picojoules());
    for (_, e) in s.breakdown.iter() {
        d.f64(e.picojoules());
    }
    d.f64(s.harvested.picojoules());
    d.f64(s.cap_leak.picojoules());
    d.word(s.rm_bypassed_fills);
    d.word(s.decode_faults);
    d.word(s.ledger_violations);
    d.word(s.budget_exhausted.is_some() as u64);
    if let Some(((a, b, c, e, f), rm)) = s.kagura_state {
        for w in [a, b, c as u64, e, f, rm] {
            d.word(w);
        }
    }
    d.0
}

/// Every pinned cell: sha, crc32 and jpegd under the baseline, ACC,
/// ACC+Kagura and ideal ACC+Kagura, on the 4.7 µF and 1000 µF
/// capacitors, in all three designs.
fn cells() -> Vec<(App, GovernorSpec, f64, EhsDesign)> {
    let governors = [
        GovernorSpec::NoCompression,
        GovernorSpec::Acc,
        GovernorSpec::AccKagura(Default::default()),
        GovernorSpec::IdealAccKagura(Default::default()),
    ];
    let mut out = Vec::new();
    for app in [App::Sha, App::Crc32, App::Jpegd] {
        for gov in governors {
            for uf in [4.7, 1000.0] {
                for design in EhsDesign::ALL {
                    out.push((app, gov, uf, design));
                }
            }
        }
    }
    out
}

#[test]
fn sim_stats_match_the_pinned_digests() {
    let cells = cells();
    assert_eq!(cells.len(), GOLDEN.len());
    let jobs = cells
        .iter()
        .map(|&(app, gov, uf, design)| {
            let mut cfg = SimConfig::table1().with_governor(gov).with_design(design);
            cfg.capacitor = CapacitorConfig::with_capacitance_uf(uf);
            SimJob::new(app, SCALE, cfg)
        })
        .collect();
    let got: Vec<u64> = ehs_sim::run_batch(jobs)
        .into_iter()
        .zip(&cells)
        .map(|(stats, cell)| {
            let stats = stats.unwrap_or_else(|e| panic!("{cell:?}: {e}"));
            assert!(stats.completed, "{cell:?} did not complete");
            digest(&stats)
        })
        .collect();
    let diverged: Vec<String> = cells
        .iter()
        .zip(got.iter().zip(GOLDEN))
        .filter(|(_, (g, want))| **g != *want)
        .map(|((app, gov, uf, design), (g, want))| {
            format!("{app:?} {} {uf} uF {design:?}: {g:#018x} (pinned {want:#018x})", gov.label())
        })
        .collect();
    let table: Vec<String> = got.iter().map(|g| format!("{g:#018x},")).collect();
    assert!(
        diverged.is_empty(),
        "{} of {} cells diverged from the pinned digests:\n{}\nfull table:\n{}",
        diverged.len(),
        cells.len(),
        diverged.join("\n"),
        table.join("\n")
    );
}
