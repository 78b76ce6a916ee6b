//! Per-layer replays and the per-program attribution row.
//!
//! Each layer is timed around its public calls, on the workload's own
//! programs, memory images and power trace. The attribution row predicts a
//! program's simulator cost per instruction as the sum of each layer's
//! cost times that layer's events per instruction (from `SimStats`) and
//! shows the residual against a measured run.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ehs_cache::{CacheConfig, CompressedCache, FillMode, HitInfo};
use ehs_compress::{Algorithm, Compressor};
use ehs_energy::{Capacitor, PowerTrace};
use ehs_model::inst::InstKind;
use ehs_model::{Address, Power, SimTime};
use ehs_sim::{run_program, GovernorSpec, SimConfig, SimStats};
use ehs_workloads::{App, KernelProgram};
use kagura_bench::serve::{request::parse_request, Core};
use kagura_core::{CompressionGovernor, KaguraConfig};
use serde_json::Value;

use crate::crash::{self, Campaign, Expect};
use crate::stats::median;
use crate::whatif::serve_options;
use crate::{FaultTimings, Tally};

/// Builds one of a workload's programs.
pub type Build = Box<dyn Fn() -> KernelProgram>;

/// Builds one power trace of the kind a workload runs on, from a seed.
pub type MakeTrace = Box<dyn Fn(u64) -> PowerTrace>;

/// Generated traces of the Table-I kind, as long as `trace`.
pub fn generated_like(trace: &PowerTrace) -> MakeTrace {
    let (kind, len) = (SimConfig::table1().trace_kind, trace.len());
    Box::new(move |seed| PowerTrace::generate(kind, seed, len))
}

/// The inputs the layer replays run on.
pub struct Plan {
    /// Every program the workload simulates, by name.
    pub programs: Vec<(String, Build)>,
    /// The power trace the workload runs on.
    pub trace: Arc<PowerTrace>,
    /// Builds a trace like `trace`: `energy.trace_gen_ms` times it.
    pub make_trace: MakeTrace,
    /// Request lines for the serve replay.
    pub query_lines: Vec<String>,
    /// A small campaign for workloads that inject no faults themselves.
    pub fault_probe: Vec<Campaign>,
}

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (see `stats::valid_metric_name`).
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// One program's predicted and measured simulator cost per instruction.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Program name.
    pub program: String,
    /// Instructions the measured run executed.
    pub insts: u64,
    /// Measured wall time per executed instruction, ns.
    pub measured_ns: f64,
    /// Per-layer predicted ns/inst: step, decode, cache, governor.
    pub layers: [(&'static str, f64); 4],
}

impl Attribution {
    /// Sum of the per-layer predictions.
    pub fn predicted_ns(&self) -> f64 {
        self.layers.iter().map(|&(_, ns)| ns).sum()
    }

    /// Measured minus predicted: the cost no measured layer explains.
    pub fn residual_ns(&self) -> f64 {
        self.measured_ns - self.predicted_ns()
    }
}

/// Builders for `apps` at `scale`.
pub fn app_programs(apps: &[App], scale: f64) -> Vec<(String, Build)> {
    apps.iter()
        .map(|&a| (a.name().to_string(), Box::new(move || a.build(scale)) as Build))
        .collect()
}

/// A what-if query per app at a small scale on the Table-I trace, each
/// followed by its exact repeat.
pub fn probe_queries(apps: &[App]) -> Vec<String> {
    apps.iter()
        .flat_map(|a| {
            let line = format!(
                r#"{{"op":"query","id":"probe-{a}","app":"{a}","scale":0.05,"governor":"kagura"}}"#
            );
            [line.clone(), line]
        })
        .collect()
}

/// A small sampled power-failure campaign on `app`.
pub fn fault_probe(app: App) -> Campaign {
    Campaign::new(
        app.build(0.02),
        SimConfig::table1().with_governor(GovernorSpec::AccKagura(Default::default())),
        ehs_sim::InjectionPlan::Sampled { count: 16, seed: 0xF417 },
        ehs_sim::FaultKind::PowerFailure,
        Expect::Consistent,
    )
}

/// Instructions decoded (and streamed into the cache replay) per program.
const STREAM_INSTS: u64 = 300_000;
/// Physics steps replayed.
const STEP_INSTS: u64 = 2_000_000;
/// Distinct memory-image blocks the compressor replay uses per program.
const MAX_BLOCKS: usize = 2048;

/// Seconds elapsed since `t0`, in nanoseconds.
fn ns_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e9
}

/// Median cost of an empty `Instant` pair, subtracted from individually
/// timed calls.
fn timer_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..2000)
        .map(|_| {
            let t0 = Instant::now();
            ns_since(black_box(t0))
        })
        .collect();
    median(&samples)
}

/// Time and count of one kind of call.
#[derive(Debug, Default, Clone, Copy)]
struct Cost {
    ns: f64,
    calls: u64,
}

impl Cost {
    fn add(&mut self, ns: f64, calls: u64) {
        self.ns += ns;
        self.calls += calls;
    }

    fn per_call(self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns / self.calls as f64
        }
    }
}

/// One data-memory access of a program's stream.
#[derive(Debug, Clone, Copy)]
struct MemOp {
    addr: Address,
    store: Option<u32>,
}

/// The costs of every layer replay, accumulated over programs.
#[derive(Debug, Default)]
struct Layers {
    build_ms: Vec<f64>,
    decode: Cost,
    read: Cost,
    write: Cost,
    fill: Cost,
    memo: (u64, u64),
    /// `[acc, kagura] × [commit, fill_mode, on_hit]`.
    governor: [[Cost; 3]; 2],
    /// `Algorithm::ALL × [size, encode, decode]`.
    compress: [[Cost; 3]; 4],
}

/// The per-instruction energy physics on `trace`: `power_at`, one
/// `Capacitor::charge` and the three standby/instruction `drain`s.
fn step_ns(trace: &PowerTrace) -> f64 {
    let cfg = SimConfig::table1();
    let mut cap = Capacitor::new(cfg.capacitor);
    cap.charge_to_full();
    let dt = SimTime::from_seconds(1.0 / ehs_model::time::CLOCK_HZ);
    let inst = cfg.system.core.inst_energy;
    let sram = (cfg.system.icache.leakage() + cfg.system.dcache.leakage()) * dt;
    let monitor = Power::from_microwatts(1.0) * dt;
    let mut now = SimTime::from_seconds(0.0);
    let t0 = Instant::now();
    for _ in 0..STEP_INSTS {
        let harvest = trace.power_at(now);
        black_box(cap.charge(harvest, dt));
        cap.drain(inst);
        cap.drain(sram);
        cap.drain(monitor);
        if cap.stored().is_zero() {
            cap.charge_to_full();
        }
        now += dt;
    }
    black_box(cap.stored());
    ns_since(t0) / STEP_INSTS as f64
}

impl Layers {
    /// Decodes the program's first instructions and returns its data
    /// accesses.
    fn decode(&mut self, program: &KernelProgram) -> Vec<MemOp> {
        let n = program.len().min(STREAM_INSTS);
        let mut cursor = program.cursor(0);
        let t0 = Instant::now();
        for _ in 0..n {
            black_box(cursor.next_inst());
        }
        self.decode.add(ns_since(t0), n);
        let mut cursor = program.cursor(0);
        (0..n)
            .filter_map(|_| match cursor.next_inst().kind {
                InstKind::Load { addr } => Some(MemOp { addr, store: None }),
                InstKind::Store { addr, value } => Some(MemOp { addr, store: Some(value) }),
                InstKind::Alu => None,
            })
            .collect()
    }

    /// Feeds the access stream to a standalone Table-I data cache with
    /// fills in ACC+Kagura's mode, timing each cache call; returns the
    /// governor events the stream raised (commits, fills, hits).
    fn cache(
        &mut self,
        program: &KernelProgram,
        ops: &[MemOp],
        overhead: f64,
    ) -> (u64, u64, Vec<HitInfo>) {
        let cfg = SimConfig::table1();
        let params = cfg.system.dcache;
        let mut cache = CompressedCache::new(CacheConfig::new(params, cfg.algorithm));
        let mut gov = ehs_sim::Governor::kagura(KaguraConfig::default());
        let (mut fills, mut hits) = (0u64, Vec::new());
        for op in ops {
            gov.on_mem_commit();
            // As in the simulator: a shallow uncompressed hit commits
            // without the full access path and is invisible to governors.
            let t0 = Instant::now();
            let shallow = match op.store {
                None => cache.try_commit_shallow_read(op.addr),
                Some(v) => cache.try_commit_shallow_write(op.addr, v),
            };
            let hit = if shallow {
                None
            } else {
                match op.store {
                    None => cache.read(op.addr),
                    Some(v) => cache.write(op.addr, v, gov.compression_enabled()).map(|(h, _)| h),
                }
            };
            let ns = ns_since(t0) - overhead;
            match op.store {
                None => self.read.add(ns, 1),
                Some(_) => self.write.add(ns, 1),
            }
            if shallow {
                // The simulator skips the callback for these; its cost is
                // still measured on them, as the hit a governor would see.
                hits.push(HitInfo { was_compressed: false, lru_rank: 0, word: 0 });
                continue;
            }
            if let Some(info) = hit {
                gov.on_hit(&info, params.ways);
                hits.push(info);
                continue;
            }
            let mode = gov.fill_mode();
            fills += 1;
            let block = program
                .image()
                .materialize(op.addr.block_index(params.block_size), params.block_size);
            let store = op.store.map(|v| (op.addr.block_offset(params.block_size) & !3, v));
            let t0 = Instant::now();
            let outcome = cache.fill(op.addr, block, mode, store);
            self.fill.add(ns_since(t0) - overhead, 1);
            if mode == FillMode::Compress {
                gov.on_fill(outcome.stored_compressed);
            }
            gov.on_evictions(outcome.evicted.len() as u32);
        }
        let (h, m) = cache.size_memo_counters();
        self.memo = (self.memo.0 + h, self.memo.1 + m);
        (ops.len() as u64, fills, hits)
    }

    /// Times each governor callback kind in its own pass over the
    /// stream's events, for ACC and ACC+Kagura.
    fn governors(&mut self, commits: u64, fills: u64, hits: &[HitInfo]) {
        let ways = SimConfig::table1().system.dcache.ways;
        let makers: [fn() -> ehs_sim::Governor; 2] =
            [ehs_sim::Governor::acc, || ehs_sim::Governor::kagura(KaguraConfig::default())];
        for (costs, make) in self.governor.iter_mut().zip(makers) {
            let mut g = make();
            let t0 = Instant::now();
            for _ in 0..commits {
                g.on_mem_commit();
            }
            costs[0].add(ns_since(black_box(t0)), commits);
            let mut g = make();
            let t0 = Instant::now();
            for _ in 0..fills {
                black_box(g.fill_mode());
            }
            costs[1].add(ns_since(t0), fills);
            let mut g = make();
            let t0 = Instant::now();
            for info in hits {
                g.on_hit(black_box(info), ways);
            }
            costs[2].add(ns_since(t0), hits.len() as u64);
            black_box(g.name());
        }
    }

    /// Times size queries, compression and decompression of the distinct
    /// memory-image blocks the stream touches, for each algorithm.
    fn compress(&mut self, program: &KernelProgram, ops: &[MemOp]) {
        let bs = SimConfig::table1().system.dcache.block_size;
        let indices: BTreeSet<u64> =
            ops.iter().map(|op| op.addr.block_index(bs)).take(MAX_BLOCKS * 4).collect();
        let blocks: Vec<Vec<u8>> = indices
            .into_iter()
            .take(MAX_BLOCKS)
            .map(|i| program.image().materialize(i, bs).as_slice().to_vec())
            .collect();
        if blocks.is_empty() {
            return;
        }
        let n = blocks.len() as u64;
        for (costs, alg) in self.compress.iter_mut().zip(Algorithm::ALL) {
            let c = alg.compressor();
            let t0 = Instant::now();
            for b in &blocks {
                black_box(c.compressed_size_bits(black_box(b)));
            }
            costs[0].add(ns_since(t0), n);
            let t0 = Instant::now();
            let encoded: Vec<_> = blocks.iter().map(|b| c.compress(black_box(b))).collect();
            costs[1].add(ns_since(t0), n);
            let mut out = vec![0u8; bs as usize];
            let t0 = Instant::now();
            for e in &encoded {
                c.decompress_into(e, &mut out);
                black_box(&out);
            }
            costs[2].add(ns_since(t0), n);
        }
    }
}

/// Runs `program` under ACC+Kagura on `trace` three times and returns the
/// stats with the median wall time in ns.
fn timed_run(program: &KernelProgram, trace: &PowerTrace) -> (SimStats, f64) {
    let cfg = SimConfig::table1().with_governor(GovernorSpec::AccKagura(Default::default()));
    let mut times = Vec::new();
    let mut stats = SimStats::default();
    for _ in 0..3 {
        let t0 = Instant::now();
        stats = run_program(program, trace, &cfg);
        times.push(ns_since(t0));
    }
    (stats, median(&times))
}

/// The counts the per-layer output reports, summed over the attribution
/// runs.
fn add_counts(totals: &mut [(&'static str, u64); 8], s: &SimStats) {
    let d = &s.dcache;
    let counts = [
        d.read_hits,
        d.read_misses,
        d.fills,
        d.compressions,
        d.decompressions,
        d.fat_writes,
        s.nvm.reads,
        s.nvm.writes,
    ];
    for (t, c) in totals.iter_mut().zip(counts) {
        t.1 += c;
    }
}

/// Replays every layer on `plan` and returns the per-layer metrics and
/// one attribution row per program. `fault` is the workload's own
/// fault-injection replay; when absent the plan's probe campaign runs.
/// Probe failures (a what-if reply that is not ok, an inconsistent probe
/// campaign) count in `tally`.
pub fn measure(
    plan: &Plan,
    fault: Option<&FaultTimings>,
    workers: usize,
    tally: &mut Tally,
) -> (Vec<Metric>, Vec<Attribution>) {
    let mut out = Vec::new();
    let overhead = timer_overhead_ns();

    // Trace set-up: one trace of the workload's kind, built at least three
    // times and for at least 0.2 s.
    let (mut gen_ms, t_gen) = (Vec::new(), Instant::now());
    while gen_ms.len() < 3 || t_gen.elapsed().as_secs_f64() < 0.2 && gen_ms.len() < 1000 {
        let t0 = Instant::now();
        black_box((plan.make_trace)(0x7E57 + gen_ms.len() as u64));
        gen_ms.push(ns_since(t0) / 1e6);
    }
    out.push(metric("energy.trace_gen_ms", median(&gen_ms), "ms"));
    let step = step_ns(&plan.trace);
    out.push(metric("energy.step_ns", step, "ns"));

    // Program-level replays and attribution runs.
    let mut layers = Layers::default();
    let mut counts = [
        ("dcache.read_hits", 0),
        ("dcache.read_misses", 0),
        ("dcache.fills", 0),
        ("dcache.compressions", 0),
        ("dcache.decompressions", 0),
        ("dcache.fat_writes", 0),
        ("mem.nvm_reads", 0),
        ("mem.nvm_writes", 0),
    ];
    let mut runs = Vec::new();
    for (name, build) in &plan.programs {
        let mut program = build();
        for _ in 0..3 {
            let t0 = Instant::now();
            program = build();
            layers.build_ms.push(ns_since(t0) / 1e6);
        }
        let decoded = layers.decode;
        let ops = layers.decode(&program);
        let decode_ns =
            (layers.decode.ns - decoded.ns) / (layers.decode.calls - decoded.calls).max(1) as f64;
        let (commits, fills, hits) = layers.cache(&program, &ops, overhead);
        layers.governors(commits, fills, &hits);
        layers.compress(&program, &ops);
        let (stats, wall_ns) = timed_run(&program, &plan.trace);
        add_counts(&mut counts, &stats);
        runs.push((name.clone(), decode_ns, stats, wall_ns));
    }
    // Cache and governor costs per event are the workload-wide means: one
    // program's handful of fills gives no stable mean of its own.
    let (read_ns, write_ns, fill_ns) =
        (layers.read.per_call(), layers.write.per_call(), layers.fill.per_call());
    let gov = layers.governor[1].map(Cost::per_call);
    let mut used = Vec::new();
    let rows: Vec<Attribution> = runs
        .into_iter()
        .map(|(program, decode_ns, stats, wall_ns)| {
            used.push((stats.sim_time.seconds() / plan.trace.duration().seconds()).min(1.0));
            let insts = stats.executed_insts.max(1) as f64;
            let per = |events: u64, ns: f64| events as f64 * ns / insts;
            let d = &stats.dcache;
            let cache_ns = per(d.read_hits + d.read_misses, read_ns)
                + per(d.write_hits + d.write_misses, write_ns)
                + per(d.fills + stats.icache.fills, fill_ns);
            let governor_ns = per(d.accesses(), gov[0])
                + per(d.fills, gov[1])
                + per(d.read_hits + d.write_hits, gov[2]);
            Attribution {
                program,
                insts: stats.executed_insts,
                measured_ns: wall_ns / insts,
                layers: [
                    ("step", step),
                    ("decode", decode_ns),
                    ("cache", cache_ns),
                    ("governor", governor_ns),
                ],
            }
        })
        .collect();
    out.push(metric("energy.trace_used_frac", median(&used), "fraction"));
    out.push(metric("workloads.build_ms", median(&layers.build_ms), "ms"));
    out.push(metric("workloads.decode_ns", layers.decode.per_call(), "ns"));
    for (costs, alg) in layers.compress.iter().zip(Algorithm::ALL) {
        let alg = alg.name().to_ascii_lowercase().replace('-', "");
        for (cost, op) in costs.iter().zip(["size", "encode", "decode"]) {
            out.push(metric(format!("compress.{op}_ns.{alg}"), cost.per_call(), "ns"));
        }
    }
    out.push(metric("cache.read_ns", layers.read.per_call(), "ns"));
    out.push(metric("cache.write_ns", layers.write.per_call(), "ns"));
    out.push(metric("cache.fill_ns", layers.fill.per_call(), "ns"));
    let (memo_hits, memo_misses) = layers.memo;
    out.push(metric(
        "cache.memo_hit_frac",
        memo_hits as f64 / (memo_hits + memo_misses).max(1) as f64,
        "fraction",
    ));
    for (costs, gov) in layers.governor.iter().zip(["acc", "kagura"]) {
        for (cost, op) in costs.iter().zip(["commit", "fill_mode", "on_hit"]) {
            out.push(metric(format!("governor.{op}_ns.{gov}"), cost.per_call(), "ns"));
        }
    }
    let total_insts: f64 = rows.iter().map(|r| r.insts as f64).sum::<f64>().max(1.0);
    let weighted = |f: &dyn Fn(&Attribution) -> f64| {
        rows.iter().map(|r| f(r) * r.insts as f64).sum::<f64>() / total_insts
    };
    out.push(metric("sim.ns_per_inst", weighted(&|r| r.measured_ns), "ns"));
    out.push(metric("sim.residual_ns_per_inst", weighted(&|r| r.residual_ns()), "ns"));
    out.extend(counts.iter().map(|&(name, n)| metric(name, n as f64, "count")));

    // Fault injection and memory diffing.
    let probe;
    let fault = match fault {
        Some(f) => f,
        None => {
            let (timings, converged) = crash::replay(&plan.fault_probe);
            for (c, (points, ok)) in plan.fault_probe.iter().zip(converged) {
                tally.check(ok == points, || {
                    format!("probe campaign {}: {ok}/{points} converged", c.label)
                });
            }
            probe = timings;
            &probe
        }
    };
    out.push(metric("faultinject.golden_ms", median(&fault.golden_ms), "ms"));
    out.push(metric("faultinject.point_ms", median(&fault.point_ms), "ms"));
    out.push(metric(
        "faultinject.replay_frac",
        fault.replayed_insts as f64 / fault.executed_insts.max(1) as f64,
        "fraction",
    ));
    out.push(metric("mem.diff_ms", median(&fault.diff_ms), "ms"));

    // Service: request parsing and a fresh core answering the plan's lines.
    let t0 = Instant::now();
    const PARSE_PASSES: usize = 200;
    for _ in 0..PARSE_PASSES {
        for line in &plan.query_lines {
            black_box(parse_request(black_box(line)).is_ok());
        }
    }
    let parses = (PARSE_PASSES * plan.query_lines.len()).max(1) as f64;
    out.push(metric("serve.parse_us", ns_since(t0) / parses / 1e3, "us"));
    let core = Core::new(serve_options(workers));
    for line in &plan.query_lines {
        let reply = core.handle_line(line).unwrap_or_default();
        tally.check(reply.starts_with(r#"{"ok":true"#), || {
            format!("probe query {line} failed: {reply}")
        });
    }
    let metrics: Value = core
        .handle_line(r#"{"op":"metrics"}"#)
        .and_then(|r| serde_json::from_str(&r).ok())
        .unwrap_or(Value::Null);
    let counter = |name: &str| -> f64 {
        metrics
            .get("metrics")
            .and_then(|m| m.get("registry"))
            .and_then(|r| r.get("counters"))
            .and_then(Value::as_array)
            .and_then(|cs| cs.iter().find(|c| c.get("name").and_then(Value::as_str) == Some(name)))
            .and_then(|c| c.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let (hits, misses) = (counter("server_cache_hits"), counter("server_cache_misses"));
    out.push(metric("serve.cache_hit_frac", hits / (hits + misses).max(1.0), "fraction"));
    out.push(metric("serve.shed", counter("server_shed"), "count"));
    (out, rows)
}
