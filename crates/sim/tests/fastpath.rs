//! Host-shortcut certification: the machine loop with every shortcut on
//! ([`ExecMode::FastForward`], the default) must be *bit-identical* to
//! the same loop with every shortcut off ([`ExecMode::Reference`]: one
//! step per instruction, every subsystem consulted) — same `SimStats`
//! (every f64 energy accumulator included, so a single rounding
//! difference fails), and the same architectural NVM image under fault
//! injection.
//!
//! The matrix deliberately crosses the shortcuts' specialisations:
//! ALU-run batching (Sha is ALU-heavy), compression-heavy repacking
//! (Jpegd), every EHS design (SweepCache exercises rollback re-seeks),
//! voltage-triggered Kagura (batching disabled, per-instruction voltage
//! samples kept), recording/replaying oracle governors (shadow tags kept),
//! both extensions (EDBP's scan countdown caps batch length; IPEX
//! prefetch), and armed instruction budgets.
//!
//! Observers — telemetry, cachescope, leak timeline — keep every shortcut
//! on, so their outputs are certified the same way: identical in both
//! modes, identical whether attached alone or together, and never
//! perturbing the stats.

use std::time::Duration;

use ehs_compress::Algorithm;
use ehs_energy::PowerTrace;
use ehs_mem::{ImageKind, MemoryImage};
use ehs_sim::faultinject::diff_nvm;
use ehs_sim::runner::default_trace;
use ehs_sim::{
    CachescopeConfig, EhsDesign, ExecMode, Extension, FaultKind, GovernorSpec, LeakscopeOptions,
    Observed, SimConfig, SimStats, Simulator, StepBudget,
};
use ehs_telemetry::{Event, Stamped, VecSink};
use ehs_workloads::{AddrGen, App, KernelProgram, KernelSpec, Op, Phase, ValGen};
use kagura_core::{KaguraConfig, TriggerKind};

/// Which observers [`observe`] attaches.
#[derive(Debug, Clone, Copy, Default)]
struct Observers {
    telemetry: bool,
    scope: Option<CachescopeConfig>,
    leak_capacity: Option<usize>,
}

const TELEMETRY: Observers = Observers { telemetry: true, scope: None, leak_capacity: None };

/// One run of `program` with `observers` attached (telemetry into a
/// `VecSink`); returns the observed outputs and the recorded events.
fn observe(
    program: &KernelProgram,
    trace: &PowerTrace,
    cfg: &SimConfig,
    observers: Observers,
) -> (Observed, Vec<Stamped>) {
    let mut sink = VecSink::new();
    let mut sim = Simulator::new(cfg.clone(), program, trace);
    if observers.telemetry {
        sim.attach_telemetry(&mut sink);
    }
    if let Some(scope) = observers.scope {
        sim.attach_cachescope(scope);
    }
    if let Some(capacity) = observers.leak_capacity {
        sim.attach_leak_timeline(capacity);
    }
    let observed = sim.run_observed();
    (observed, sink.into_events())
}

/// Runs `app` in both exec modes and asserts identical stats.
fn assert_loops_match(app: App, scale: f64, cfg: &SimConfig) -> SimStats {
    let fast = ehs_sim::run_app(app, scale, &cfg.clone().with_exec(ExecMode::FastForward));
    let reference = ehs_sim::run_app(app, scale, &cfg.clone().with_exec(ExecMode::Reference));
    assert_eq!(
        fast, reference,
        "fast-forward diverged from reference: {app:?} design={:?} gov={:?} ext={:?}",
        cfg.design, cfg.governor, cfg.extension
    );
    fast
}

#[test]
fn fast_forward_matches_reference_on_every_app() {
    for app in App::ALL {
        let cfg = SimConfig::table1().with_governor(GovernorSpec::AccKagura(Default::default()));
        let stats = assert_loops_match(app, 0.004, &cfg);
        assert!(stats.committed_insts > 0, "{app:?} ran nothing");
    }
}

#[test]
fn fast_forward_matches_reference_across_designs_and_governors() {
    let governors = [
        GovernorSpec::NoCompression,
        GovernorSpec::AlwaysCompress,
        GovernorSpec::Acc,
        GovernorSpec::AccKagura(Default::default()),
    ];
    for app in [App::Sha, App::Jpegd] {
        for design in EhsDesign::ALL {
            for gov in governors {
                let cfg = SimConfig::table1().with_design(design).with_governor(gov);
                assert_loops_match(app, 0.004, &cfg);
            }
        }
    }
}

#[test]
fn fast_forward_matches_reference_for_voltage_triggered_kagura() {
    // A voltage trigger makes the governor consume every per-instruction
    // voltage sample: batching must switch off and the sample must not be
    // skipped. Crc32 is ALU-heavy, so a wrongly-enabled batch would show.
    let kcfg =
        KaguraConfig { trigger: TriggerKind::Voltage { fraction: 0.5 }, ..Default::default() };
    for app in [App::Crc32, App::G721d] {
        let cfg = SimConfig::table1().with_governor(GovernorSpec::AccKagura(kcfg));
        assert_loops_match(app, 0.004, &cfg);
    }
}

#[test]
fn oracle_recording_pass_is_the_plain_run() {
    // The worker pool serves an ACC or ACC+Kagura cell from its ideal
    // twin's recording pass, so that pass must be the twin's plain run
    // bit for bit: the end-of-run flush and Kagura's reported state
    // (`kagura_state`, `rm_bypassed_fills`) included. `record_oracle` is
    // the helper both the pool and `Simulator::new` call.
    let voltage =
        KaguraConfig { trigger: TriggerKind::Voltage { fraction: 0.5 }, ..Default::default() };
    let ideals = [
        GovernorSpec::IdealAcc,
        GovernorSpec::IdealAccKagura(Default::default()),
        GovernorSpec::IdealAccKagura(voltage),
    ];
    for app in App::ALL {
        let program = app.build(0.02);
        for design in EhsDesign::ALL {
            for ideal in ideals {
                let cfg = SimConfig::table1().with_design(design).with_governor(ideal);
                let trace = default_trace(&cfg);
                let (recorded, _) = Simulator::record_oracle(&cfg, &program, &trace);
                let twin = ideal.recording_twin().expect("an ideal spec has a twin");
                let plain = Simulator::new(cfg.with_governor(twin), &program, &trace).run();
                assert_eq!(
                    recorded, plain,
                    "recording pass diverged from the plain run: {app:?} design={design:?} \
                     twin={twin:?}"
                );
            }
        }
    }
}

#[test]
fn fast_forward_matches_reference_for_ideal_governors() {
    // Oracle record + replay phases both run with shortcuts on; the
    // recording phase keeps shadow tags and deep-hit credit live. The
    // oracle wrappers batch exactly when their inner Kagura's trigger
    // allows it, so both triggers are covered.
    let voltage =
        KaguraConfig { trigger: TriggerKind::Voltage { fraction: 0.5 }, ..Default::default() };
    for gov in [
        GovernorSpec::IdealAcc,
        GovernorSpec::IdealAccKagura(Default::default()),
        GovernorSpec::IdealAccKagura(voltage),
    ] {
        let cfg = SimConfig::table1().with_governor(gov);
        assert_loops_match(App::Gsm, 0.004, &cfg);
    }
}

#[test]
fn fast_forward_matches_reference_under_extensions() {
    for ext in [Extension::Edbp { decay_ticks: 64 }, Extension::Ipex { min_energy_fraction: 0.2 }] {
        for app in [App::Sha, App::Dijkstra] {
            let mut cfg = SimConfig::table1().with_governor(GovernorSpec::Acc);
            cfg.extension = ext;
            assert_loops_match(app, 0.004, &cfg);
        }
    }
}

#[test]
fn wall_budget_does_not_change_stats() {
    // Batching stays on under a wall-clock budget (every served query
    // carries one); a budget that never fires must leave the stats as
    // they are without it.
    for gov in [GovernorSpec::Acc, GovernorSpec::IdealAccKagura(Default::default())] {
        let cfg = SimConfig::table1().with_governor(gov);
        let budgeted = cfg.clone().with_step_budget(StepBudget::wall(Duration::from_secs(60)));
        for app in [App::Sha, App::Jpegd] {
            assert_eq!(
                ehs_sim::run_app(app, 0.02, &budgeted),
                ehs_sim::run_app(app, 0.02, &cfg),
                "{app:?} {gov:?}"
            );
        }
    }
}

#[test]
fn fast_forward_matches_reference_with_instruction_budget() {
    // An armed instruction budget caps batch length; the run must stop at
    // the exact same instruction with the same exhaustion reason.
    let mut cfg = SimConfig::table1().with_governor(GovernorSpec::Acc);
    cfg.step_budget = StepBudget::insts(5_000);
    let stats = assert_loops_match(App::Sha, 0.02, &cfg);
    assert!(stats.budget_exhausted.is_some(), "budget should have fired");
    assert_eq!(stats.executed_insts, 5_000);
}

/// Runs `app` with a cachescope in both exec modes and asserts identical
/// stats *and* identical cachescope reports — counters, histograms,
/// boundary rows, occupancy snapshots, latency attribution, all of it.
fn assert_cachescope_matches(app: App, scale: f64, cfg: &SimConfig) {
    // A short period so snapshots land inside (and must cap) ALU batches.
    let scope = Observers { scope: Some(CachescopeConfig::periodic(512)), ..Default::default() };
    let (program, trace) = (app.build(scale), default_trace(cfg));
    let run = |exec: ExecMode| {
        let observed = observe(&program, &trace, &cfg.clone().with_exec(exec), scope).0;
        (observed.stats, observed.cachescope.expect("cachescope attached"))
    };
    let (fast, fast_rep) = run(ExecMode::FastForward);
    let (reference, ref_rep) = run(ExecMode::Reference);
    assert_eq!(
        fast, reference,
        "stats diverged with cachescope attached: {app:?} gov={:?} ext={:?}",
        cfg.governor, cfg.extension
    );
    assert_eq!(
        fast_rep, ref_rep,
        "cachescope report diverged between exec modes: {app:?} gov={:?} ext={:?}",
        cfg.governor, cfg.extension
    );
    // The attribution buckets exactly partition the run's cycles.
    assert_eq!(fast_rep.latency.total(), fast.total_cycles, "{app:?}");
    // One boundary row per power failure plus the end-of-run row.
    assert_eq!(fast_rep.cycles.len(), fast.checkpoints as usize + 1, "{app:?}");
    assert!(!fast_rep.snapshots.is_empty(), "{app:?} sampled no occupancy snapshots");
    // Probe counters agree with the caches' own stats.
    assert_eq!(fast_rep.dcache.counters.fills, fast.dcache.fills, "{app:?}");
    assert_eq!(fast_rep.dcache.counters.hits, fast.dcache.hits(), "{app:?}");
    assert_eq!(fast_rep.icache.counters.hits, fast.icache.hits(), "{app:?}");
    assert_eq!(
        fast_rep.dcache.counters.capacity_evictions + fast_rep.dcache.counters.forced_evictions,
        fast.dcache.evictions,
        "{app:?}"
    );
    // And attaching the scope never perturbed the simulation itself.
    let plain = ehs_sim::run_app(app, scale, cfg);
    assert_eq!(fast, plain, "cachescope perturbed the run: {app:?}");
}

#[test]
fn cachescope_reports_match_between_loops() {
    for gov in [GovernorSpec::Acc, GovernorSpec::AccKagura(Default::default())] {
        // Sha exercises ALU-run batching (snapshot boundaries must cap the
        // batch); Jpegd exercises compression-heavy repacking.
        for app in [App::Sha, App::Jpegd] {
            let cfg = SimConfig::table1().with_governor(gov);
            assert_cachescope_matches(app, 0.004, &cfg);
        }
    }
}

#[test]
fn cachescope_reports_match_under_edbp_and_sweepcache() {
    // EDBP makes forced (dead-block) evictions flow through the probe and
    // stacks a second batch cap on top of the snapshot countdown.
    let mut cfg = SimConfig::table1().with_governor(GovernorSpec::Acc);
    cfg.extension = Extension::Edbp { decay_ticks: 64 };
    assert_cachescope_matches(App::Dijkstra, 0.004, &cfg);
    // SweepCache rolls `inst_index` backwards at power failure; boundary
    // rows and snapshot points must still agree.
    let cfg = SimConfig::table1()
        .with_design(EhsDesign::SweepCache)
        .with_governor(GovernorSpec::AccKagura(Default::default()));
    assert_cachescope_matches(App::Sha, 0.004, &cfg);
}

#[test]
fn leakscope_attack_matches_between_loops() {
    // The whole attack — probe-by-probe attacker timeline, recovered
    // bytes, effort accounting and every f64 channel estimate — must be
    // bit-identical whichever mode drives the probe micro-runs. One
    // attackable compressor and the randomized-threshold countermeasure
    // (whose per-fill RNG draws must consume identically in both modes).
    let opts = LeakscopeOptions::default();
    for gov in [GovernorSpec::AlwaysCompress, GovernorSpec::RandThreshold(Default::default())] {
        let mut cfg = SimConfig::table1().with_governor(gov);
        cfg.algorithm = Algorithm::CPack;
        let fast = ehs_sim::attack_cell(&cfg.clone().with_exec(ExecMode::FastForward), &opts);
        let reference = ehs_sim::attack_cell(&cfg.clone().with_exec(ExecMode::Reference), &opts);
        assert_eq!(
            fast.probes, reference.probes,
            "attacker timeline diverged between exec modes: gov={:?}",
            cfg.governor
        );
        assert_eq!(fast.mi_bits.to_bits(), reference.mi_bits.to_bits(), "gov={:?}", cfg.governor);
        assert_eq!(
            fast.capacity_bits.to_bits(),
            reference.capacity_bits.to_bits(),
            "gov={:?}",
            cfg.governor
        );
        assert_eq!(
            fast, reference,
            "attack report diverged between exec modes: gov={:?}",
            cfg.governor
        );
    }
}

#[test]
fn leak_timeline_matches_between_loops_and_never_perturbs() {
    // A real app (not a probe micro-kernel) with the per-access timeline
    // attached: both modes must record the same accesses in the same
    // order, and attaching the probe must not perturb the run itself.
    let cfg = SimConfig::table1().with_governor(GovernorSpec::AccKagura(Default::default()));
    let program = App::Sha.build(0.004);
    let trace = ehs_sim::attack_trace(&cfg);
    let leak = Observers { leak_capacity: Some(2048), ..Default::default() };
    let run = |exec: ExecMode| {
        let observed = observe(&program, &trace, &cfg.clone().with_exec(exec), leak).0;
        (observed.stats, observed.leak_timeline.expect("leak timeline attached"))
    };
    let (fast, fast_tl) = run(ExecMode::FastForward);
    let (reference, ref_tl) = run(ExecMode::Reference);
    assert_eq!(fast, reference, "stats diverged with the leak timeline attached");
    assert_eq!(fast_tl.records(), ref_tl.records(), "timeline records diverged between exec modes");
    assert_eq!(fast_tl.dropped(), ref_tl.dropped());
    assert!(!fast_tl.records().is_empty(), "timeline recorded nothing");
    let plain = ehs_sim::run_program(&program, &trace, &cfg);
    assert_eq!(fast, plain, "leak timeline perturbed the run");
}

/// Runs `app` with a `VecSink` attached in both exec modes and asserts
/// identical stats and events (the run's metrics are a fold of them),
/// and stats identical to the unobserved run: the shortcuts stay on
/// under telemetry, so every hit they commit must still reach the
/// flight recorder.
fn assert_telemetry_matches(program: &KernelProgram, cfg: &SimConfig) {
    let trace = default_trace(cfg);
    let run = |exec: ExecMode| observe(program, &trace, &cfg.clone().with_exec(exec), TELEMETRY);
    let (fast, fast_events) = run(ExecMode::FastForward);
    let (reference, ref_events) = run(ExecMode::Reference);
    let what = format!("{} design={:?} gov={:?}", program.name(), cfg.design, cfg.governor);
    assert_eq!(fast.stats, reference.stats, "stats diverged under telemetry: {what}");
    assert_eq!(fast_events, ref_events, "events diverged between exec modes: {what}");
    assert!(
        fast_events.iter().any(|e| matches!(e.event, Event::FlightRecord(_))),
        "no flight record: {what}"
    );
    let plain = ehs_sim::run_program(program, &trace, cfg);
    assert_eq!(fast.stats, plain, "telemetry perturbed the run: {what}");
}

#[test]
fn telemetry_matches_reference_on_every_app() {
    for app in App::ALL {
        let cfg = SimConfig::table1().with_governor(GovernorSpec::AccKagura(Default::default()));
        assert_telemetry_matches(&app.build(0.004), &cfg);
    }
}

#[test]
fn telemetry_matches_reference_across_designs() {
    for app in [App::Sha, App::Jpegd] {
        for design in EhsDesign::ALL {
            let cfg = SimConfig::table1()
                .with_design(design)
                .with_governor(GovernorSpec::AccKagura(Default::default()));
            assert_telemetry_matches(&app.build(0.004), &cfg);
        }
    }
}

#[test]
fn telemetry_matches_reference_with_compressible_code() {
    // No workload's code blocks compress, so only code in zeroed memory
    // exercises the ICache flight-recorder hits on shallow fetches and
    // batched ALU runs: a once-compressed block, evicted unreferenced
    // and refilled uncompressed in Kagura's RM mode, credits its old
    // fill on the first hit. These shapes (ALU-run length x code paths
    // thrashing the 256 B ICache) are ones where that happens.
    for (alus, code_paths) in [(7, 16), (24, 32)] {
        let mut body = vec![Op::Alu; alus];
        body.push(Op::Load(AddrGen::Rand { base: 0x8000, span: 4096, salt: 7 }));
        body.push(Op::Store(
            AddrGen::Rand { base: 0x9000, span: 2048, salt: 9 },
            ValGen::Small { magnitude: 100, salt: 3 },
        ));
        let program = KernelProgram::new(KernelSpec {
            name: "zero-code",
            phases: vec![Phase { body, iterations: 4000, code_base: 0x0010_0000, code_paths }],
            repeats: 1,
            image: MemoryImage::builder(ImageKind::Zeros).build(),
        });
        let cfg = SimConfig::table1().with_governor(GovernorSpec::AccKagura(Default::default()));
        assert_telemetry_matches(&program, &cfg);
    }
}

#[test]
fn every_observer_on_one_run_matches_each_alone() {
    let all = Observers {
        telemetry: true,
        scope: Some(CachescopeConfig::periodic(512)),
        leak_capacity: Some(2048),
    };
    let cfg = SimConfig::table1().with_governor(GovernorSpec::AccKagura(Default::default()));
    for app in [App::Sha, App::Jpegd] {
        let (program, trace) = (app.build(0.004), default_trace(&cfg));
        for exec in [ExecMode::FastForward, ExecMode::Reference] {
            let cfg = cfg.clone().with_exec(exec);
            let alone = |o: Observers| observe(&program, &trace, &cfg, o);
            let (together, events) = alone(all);
            let telemetry_events = alone(TELEMETRY).1;
            let scope = alone(Observers { scope: all.scope, ..Default::default() }).0;
            let leak =
                alone(Observers { leak_capacity: all.leak_capacity, ..Default::default() }).0;
            let what = format!("{app:?} {exec:?}");

            assert_eq!(together.stats, ehs_sim::run_program(&program, &trace, &cfg), "{what}");
            assert_eq!(events, telemetry_events, "events changed by other observers: {what}");
            assert_eq!(together.cachescope, scope.cachescope, "cachescope changed: {what}");
            let (tl, tl_alone) = (together.leak_timeline.unwrap(), leak.leak_timeline.unwrap());
            assert_eq!(tl.records(), tl_alone.records(), "leak timeline changed: {what}");
            assert_eq!(tl.dropped(), tl_alone.dropped(), "{what}");
        }
    }
}

#[test]
fn ideal_specs_resolve_in_simulator_new() {
    // `Simulator::new` runs the recording pass itself; observers see only
    // the replay, and observing it changes nothing.
    let observers = Observers {
        telemetry: true,
        scope: Some(CachescopeConfig::default()),
        ..Default::default()
    };
    for gov in [GovernorSpec::IdealAcc, GovernorSpec::IdealAccKagura(Default::default())] {
        let cfg = SimConfig::table1().with_governor(gov);
        let (program, trace) = (App::Sha.build(0.01), default_trace(&cfg));
        let (observed, events) = observe(&program, &trace, &cfg, observers);
        assert_eq!(observed.stats, ehs_sim::run_program(&program, &trace, &cfg), "{gov:?}");
        assert!(observed.stats.completed, "{gov:?}");
        assert!(!events.is_empty() && observed.cachescope.is_some(), "{gov:?}");
        assert!(observed.leak_timeline.is_none(), "{gov:?}: no timeline was attached");
    }
}

#[test]
fn fault_injection_images_match_between_loops() {
    // Under injected faults (including the checkpoint-mutating kinds) the
    // two modes must agree on both the stats and the post-run
    // architectural memory image, byte for byte.
    let program = App::Sha.build(0.004);
    let faults = [
        FaultKind::PowerFailure,
        FaultKind::TornCheckpoint { persist_blocks: 1 },
        FaultKind::CorruptPayload { bit: 5 },
    ];
    for design in EhsDesign::ALL {
        for (i, kind) in faults.iter().enumerate() {
            let cfg = SimConfig::table1()
                .with_design(design)
                .with_governor(GovernorSpec::AccKagura(Default::default()));
            let at = 1_000 + 777 * i as u64;
            let trace = ehs_energy::PowerTrace::generate(cfg.trace_kind, cfg.trace_seed, 400_000);
            let run = |exec: ExecMode| {
                let mut sim = Simulator::new(cfg.clone().with_exec(exec), &program, &trace);
                sim.arm_fault(at, *kind);
                sim.run_with_memory()
            };
            let (fast_stats, mut fast_nvm) = run(ExecMode::FastForward);
            let (ref_stats, mut ref_nvm) = run(ExecMode::Reference);
            assert_eq!(fast_stats, ref_stats, "stats diverged under {kind:?} at {at} ({design:?})");
            let diff = diff_nvm(&mut ref_nvm, &mut fast_nvm);
            assert!(
                diff.is_empty(),
                "NVM image diverged under {kind:?} at {at} ({design:?}): {} blocks differ",
                diff.len()
            );
        }
    }
}
