//! Golden bit-identity gate for the simulator's physics and bookkeeping.
//!
//! The fastpath differentials compare two modes of the same build, so a
//! change to code both modes share (the capacitor step, the trace read,
//! the batched kernel) can move every number without failing them. This
//! test pins a digest of each cell's `SimStats` — every f64 field by its
//! bit pattern, every counter — so any such change, however small its
//! rounding effect, fails here.
//!
//! A second table pins the instruction-counted boundary sources of the
//! machine loop — EDBP scans, periodic cachescope snapshots, instruction
//! budgets, forced faults and SweepCache regions — none of which the
//! first table switches on. The fastpath differentials cannot see a
//! source that fires one instruction late in both modes; this table can.
//!
//! A deliberate behaviour change (a new integrator, a re-calibration)
//! re-pins the table: the failure message prints the complete new one.

use ehs_energy::CapacitorConfig;
use ehs_sim::runner::default_trace;
use ehs_sim::{
    CachescopeConfig, EhsDesign, Extension, FaultKind, GovernorSpec, SimConfig, SimJob, SimStats,
    Simulator, StepBudget,
};
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
    let labels: Vec<String> = cells
        .iter()
        .map(|(app, gov, uf, design)| format!("{app:?} {} {uf} uF {design:?}", gov.label()))
        .collect();
    assert_pinned(&labels, &got, &GOLDEN);
}

/// Fails, naming every diverged cell and printing the complete new
/// table, unless each cell's digest in `got` equals its `pinned` one.
fn assert_pinned(labels: &[String], got: &[u64], pinned: &[u64]) {
    let diverged: Vec<String> = labels
        .iter()
        .zip(got.iter().zip(pinned))
        .filter(|(_, (g, want))| g != want)
        .map(|(label, (g, want))| format!("{label}: {g:#018x} (pinned {want:#018x})"))
        .collect();
    let table: Vec<String> = got.iter().map(|g| format!("{g:#018x},")).collect();
    assert!(
        diverged.is_empty(),
        "{} of {} cells diverged from the pinned digests:\n{}\nfull table:\n{}",
        diverged.len(),
        labels.len(),
        diverged.join("\n"),
        table.join("\n")
    );
}

/// One cell of the boundary-source table: a Table-I ACC run of `app` in
/// `design` with one instruction-counted boundary source switched on.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// A dcache extension: EDBP's periodic decay scan or IPEX.
    Extension(Extension),
    /// A periodic cachescope occupancy snapshot every `period` executed
    /// instructions (the digest also covers each snapshot's position).
    Snapshot { period: u64 },
    /// An instruction budget of `n` executed instructions.
    Budget { n: u64 },
    /// One forced fault after the `at`-th executed instruction.
    Fault { at: u64, kind: FaultKind },
    /// SweepCache persist regions of `region` instructions.
    SweepRegion { region: u64 },
}

/// Expected digest per [`source_cells`] cell, in its iteration order.
const SOURCE_GOLDEN: [u64; 84] = [
    // sha, EDBP (decay 64): NVSRAM, NVMR, SweepCache.
    0x52e85830a8bc06aa,
    0x326ee439a4eb195b,
    0xb7236906ef5f7858,
    // sha, IPEX: NVSRAM, NVMR, SweepCache.
    0xee8fc2bf07f0f03a,
    0x5320bbf3040195a8,
    0x59af4047d0eb5518,
    // jpegd, EDBP (decay 64): NVSRAM, NVMR, SweepCache.
    0x117158798b4c070c,
    0xd4dd685b1211bb97,
    0xc5a009bd29a42e0d,
    // jpegd, IPEX: NVSRAM, NVMR, SweepCache.
    0x278bff539825f587,
    0xdf4d132a7cd241a6,
    0x26747d4655ebc432,
    // sha, snapshot every instruction (scale 0.003): NVSRAM, NVMR, SweepCache.
    0x9b0e5521fca07aa0,
    0x5adb555ca553ba4d,
    0x7f27a2624f352537,
    // sha, snapshot every 97 instructions: NVSRAM, NVMR, SweepCache.
    0x39de126acf3251c2,
    0x5c092b6c24c84a13,
    0x6dce114effea0c0e,
    // sha, instruction budget 0: NVSRAM, NVMR, SweepCache.
    0xa973fc3cb5ff3704,
    0xa973fc3cb5ff3704,
    0xa973fc3cb5ff3704,
    // sha, instruction budget 1: NVSRAM, NVMR, SweepCache.
    0x902ce35430f15f4e,
    0x0a9551cca37f3433,
    0x0a9551cca37f3433,
    // sha, instruction budget 5000: NVSRAM, NVMR, SweepCache.
    0xa355fcb41407f51e,
    0xeb1020b4b4150b77,
    0x394654cba2d4607f,
    // sha, power failure after instruction 1: NVSRAM, NVMR, SweepCache.
    0x661e14e2d704849e,
    0x891adb0fcfeabbd5,
    0xedfaa50c86ad8956,
    // sha, torn checkpoint (2 blocks) after instruction 1: NVSRAM, NVMR, SweepCache.
    0x661e14e2d704849e,
    0x891adb0fcfeabbd5,
    0xedfaa50c86ad8956,
    // sha, corrupt payload (bit 13) after instruction 1: NVSRAM, NVMR, SweepCache.
    0x661e14e2d704849e,
    0x891adb0fcfeabbd5,
    0xedfaa50c86ad8956,
    // sha, power failure after instruction 2999: NVSRAM, NVMR, SweepCache.
    0x5297c1246edcb4df,
    0xd0f8c8bd55adced9,
    0xa0a0c56ff16fb6f4,
    // sha, torn checkpoint (2 blocks) after instruction 2999: NVSRAM, NVMR, SweepCache.
    0x5297c1246edcb4df,
    0xd0f8c8bd55adced9,
    0xa0a0c56ff16fb6f4,
    // sha, corrupt payload (bit 13) after instruction 2999: NVSRAM, NVMR, SweepCache.
    0x5297c1246edcb4df,
    0xd0f8c8bd55adced9,
    0xa0a0c56ff16fb6f4,
    // sha, power failure after instruction 17777: NVSRAM, NVMR, SweepCache.
    0x7dea02e5e2101979,
    0x17ba0d19fff9f716,
    0x0dd528b2ce64ec86,
    // sha, torn checkpoint (2 blocks) after instruction 17777: NVSRAM, NVMR, SweepCache.
    0x7dea02e5e2101979,
    0x17ba0d19fff9f716,
    0x0dd528b2ce64ec86,
    // sha, corrupt payload (bit 13) after instruction 17777: NVSRAM, NVMR, SweepCache.
    0x7dea02e5e2101979,
    0x17ba0d19fff9f716,
    0x0dd528b2ce64ec86,
    // jpegd, power failure after instruction 1: NVSRAM, NVMR, SweepCache.
    0x00c43ce470795800,
    0x76be1c056528b02a,
    0xc82b73f9ebb0e281,
    // jpegd, torn checkpoint (2 blocks) after instruction 1: NVSRAM, NVMR, SweepCache.
    0x00c43ce470795800,
    0x76be1c056528b02a,
    0xc82b73f9ebb0e281,
    // jpegd, corrupt payload (bit 13) after instruction 1: NVSRAM, NVMR, SweepCache.
    0x00c43ce470795800,
    0x76be1c056528b02a,
    0xc82b73f9ebb0e281,
    // jpegd, power failure after instruction 2999: NVSRAM, NVMR, SweepCache.
    0xef72132fa9291835,
    0x836856dcc7ac489e,
    0xfd179796f6068a0c,
    // jpegd, torn checkpoint (2 blocks) after instruction 2999: NVSRAM, NVMR, SweepCache.
    0xb0d2075a14300d36,
    0x836856dcc7ac489e,
    0xfd179796f6068a0c,
    // jpegd, corrupt payload (bit 13) after instruction 2999: NVSRAM, NVMR, SweepCache.
    0xef72132fa9291835,
    0x836856dcc7ac489e,
    0xfd179796f6068a0c,
    // jpegd, power failure after instruction 17777: NVSRAM, NVMR, SweepCache.
    0x818bf3914fac911c,
    0x54ae846bd37ea7e7,
    0x6d9582a98ab38eb8,
    // jpegd, torn checkpoint (2 blocks) after instruction 17777: NVSRAM, NVMR, SweepCache.
    0x818bf3914fac911c,
    0x54ae846bd37ea7e7,
    0x6d9582a98ab38eb8,
    // jpegd, corrupt payload (bit 13) after instruction 17777: NVSRAM, NVMR, SweepCache.
    0x818bf3914fac911c,
    0x54ae846bd37ea7e7,
    0x6d9582a98ab38eb8,
    // SweepCache with 40-instruction regions: sha, crc32, jpegd.
    0xc00bbc2673fceeb5,
    0x2f9108310128ac5a,
    0xdbbd153076abaa9c,
];

/// Every boundary-source cell. Each source fires at an exact instruction
/// boundary, so one that moves by a single instruction changes the
/// digest even where both exec modes agree.
fn source_cells() -> Vec<(App, Source, EhsDesign)> {
    let mut sources = Vec::new();
    for app in [App::Sha, App::Jpegd] {
        for ext in [Extension::Edbp { decay_ticks: 64 }, Extension::ipex()] {
            sources.push((app, Source::Extension(ext)));
        }
    }
    for period in [1, 97] {
        sources.push((App::Sha, Source::Snapshot { period }));
    }
    for n in [0, 1, 5000] {
        sources.push((App::Sha, Source::Budget { n }));
    }
    for app in [App::Sha, App::Jpegd] {
        for at in [1, 2999, 17_777] {
            for kind in [
                FaultKind::PowerFailure,
                FaultKind::TornCheckpoint { persist_blocks: 2 },
                FaultKind::CorruptPayload { bit: 13 },
            ] {
                sources.push((app, Source::Fault { at, kind }));
            }
        }
    }
    let mut out: Vec<_> = sources
        .into_iter()
        .flat_map(|(app, source)| EhsDesign::ALL.map(|design| (app, source, design)))
        .collect();
    for app in [App::Sha, App::Crc32, App::Jpegd] {
        out.push((app, Source::SweepRegion { region: 40 }, EhsDesign::SweepCache));
    }
    out
}

/// Runs one [`source_cells`] cell and digests its stats, plus each
/// occupancy snapshot's `(inst_index, cycle)` for snapshot cells.
fn run_source_cell(app: App, source: Source, design: EhsDesign) -> u64 {
    // Snapshotting every instruction keeps a full occupancy map per
    // instruction, so that cell runs a shorter program.
    let scale = if matches!(source, Source::Snapshot { period: 1 }) { 0.003 } else { SCALE };
    let mut cfg = SimConfig::table1().with_governor(GovernorSpec::Acc).with_design(design);
    match source {
        Source::Extension(ext) => cfg.extension = ext,
        Source::Budget { n } => cfg = cfg.with_step_budget(StepBudget::insts(n)),
        Source::SweepRegion { region } => cfg.costs.sweep_region = region,
        Source::Snapshot { .. } | Source::Fault { .. } => {}
    }
    let program = app.build(scale);
    let trace = default_trace(&cfg);
    let mut sim = Simulator::new(cfg, &program, &trace);
    match source {
        Source::Snapshot { period } => sim.attach_cachescope(CachescopeConfig::periodic(period)),
        Source::Fault { at, kind } => sim.arm_fault(at, kind),
        _ => {}
    }
    let observed = sim.run_observed();
    let mut d = Digest(digest(&observed.stats));
    if let Some(scope) = observed.cachescope {
        d.word(scope.snapshots.len() as u64);
        for snap in &scope.snapshots {
            d.word(snap.inst_index);
            d.word(snap.cycle);
        }
    }
    d.0
}

#[test]
fn boundary_sources_match_the_pinned_digests() {
    let cells = source_cells();
    assert_eq!(cells.len(), SOURCE_GOLDEN.len());
    let got: Vec<u64> =
        cells.iter().map(|&(app, src, design)| run_source_cell(app, src, design)).collect();
    let labels: Vec<String> =
        cells.iter().map(|(app, src, design)| format!("{app:?} {src:?} {design:?}")).collect();
    assert_pinned(&labels, &got, &SOURCE_GOLDEN);
}
