//! `whatif`: a closed loop of client threads calling
//! `kagura_bench::serve::Core::handle_line` with a seeded mix of cold,
//! warm and repeated queries.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ehs_energy::PowerTrace;
use ehs_sim::{runner::default_trace, SimConfig, StepBudget};
use ehs_workloads::App;
use kagura_bench::serve::{Core, ServeOptions};
use serde_json::Value;

use crate::{layers, splitmix64, Accounting, Env, Rep, Tally, Workload};

/// Apps the queries draw from: both compute- and memory-bound.
const APPS: [App; 6] = [App::Sha, App::Crc32, App::Jpegd, App::Dijkstra, App::Gsm, App::G721d];
const GOVERNORS: [&str; 3] = ["acc", "kagura", "always"];
const ALGORITHMS: [&str; 4] = ["bdi", "fpc", "cpack", "dzc"];

/// Program scale of every query.
const SCALE: f64 = 0.5;
/// Queries on a trace seed nothing has used yet, per repetition.
const COLD: usize = 2;
/// Exact repeats of earlier queries, per repetition.
const HITS: usize = 16;

/// Which of the three query kinds a query is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Unused trace seed: trace generation dominates.
    Cold,
    /// New configuration on a used seed: simulation dominates.
    Warm,
    /// Exact repeat: answered from the result cache.
    Hit,
}

/// One planned request.
#[derive(Debug, Clone)]
pub struct Query {
    /// The query's kind.
    pub kind: Kind,
    /// The NDJSON request line.
    pub line: String,
    /// The trace seed it runs on.
    pub seed: u64,
    /// For a hit, the index of the query it repeats.
    pub repeats: Option<usize>,
}

/// The seeded request plan of repetition `index`, in three phases: cold
/// queries, then one warm query per app, then repeats of both. Each phase
/// starts after the previous one completes, so a warm query never races
/// the cold query that generates its trace.
pub fn plan(seed: u64, index: u64) -> [Vec<Query>; 3] {
    let mut state = seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407);
    let mut pick = |n: usize| (splitmix64(&mut state) % n as u64) as usize;
    let mut seen = BTreeSet::new();
    let mut query = |kind,
                     seeds: &[u64],
                     app: Option<App>,
                     pick: &mut dyn FnMut(usize) -> usize| loop {
        let trace_seed = seeds[pick(seeds.len())];
        let app = app.unwrap_or_else(|| APPS[pick(APPS.len())]);
        let (gov, alg) = (GOVERNORS[pick(3)], ALGORITHMS[pick(4)]);
        if seen.insert((trace_seed, app.name(), gov, alg)) {
            let id = format!("r{index}-{}", seen.len());
            let line = format!(
                r#"{{"op":"query","id":"{id}","app":"{}","scale":{SCALE},"governor":"{gov}","algorithm":"{alg}","seed":{trace_seed}}}"#,
                app.name()
            );
            return Query { kind, line, seed: trace_seed, repeats: None };
        }
    };
    // Cold seeds live in their own range, far from the Table-I seed.
    let cold_seeds: Vec<u64> = (0..COLD).map(|_| pick(usize::MAX) as u64 | (1 << 63)).collect();
    let cold: Vec<Query> =
        cold_seeds.iter().map(|&s| query(Kind::Cold, &[s], None, &mut pick)).collect();
    let mut warm_seeds = cold_seeds;
    warm_seeds.push(SimConfig::table1().trace_seed);
    let warm: Vec<Query> =
        APPS.iter().map(|&app| query(Kind::Warm, &warm_seeds, Some(app), &mut pick)).collect();
    let earlier: Vec<&Query> = cold.iter().chain(&warm).collect();
    let hits = (0..HITS)
        .map(|_| {
            let i = pick(earlier.len());
            Query { kind: Kind::Hit, repeats: Some(i), ..earlier[i].clone() }
        })
        .collect();
    [cold, warm, hits]
}

/// Server options for `workers` simulation workers with no deadline
/// beyond the server's own safety net.
pub fn serve_options(workers: usize) -> ServeOptions {
    ServeOptions {
        tcp: None,
        port_file: None,
        state: None,
        workers,
        queue_depth: 8,
        cache_capacity: 256,
        default_budget: StepBudget {
            max_executed_insts: None,
            max_wall: Some(Duration::from_secs(60)),
        },
        write_timeout: Duration::from_secs(5),
    }
}

/// Instructions simulated to answer one reply (0 for errors).
fn reply_insts(reply: &Value) -> u64 {
    let Some(result) = reply.get("result") else { return 0 };
    let insts = |run: &str| {
        result.get(run).and_then(|r| r.get("executed_insts")).and_then(Value::as_u64).unwrap_or(0)
    };
    let candidate = if result.get("governor").and_then(Value::as_str) == Some("baseline") {
        0
    } else {
        insts("candidate")
    };
    insts("baseline") + candidate
}

/// The what-if workload.
pub struct Whatif {
    seed: u64,
    workers: usize,
    /// Keeps the Table-I trace resident: the server's default
    /// configuration is warm from start-up.
    table1_trace: Arc<PowerTrace>,
    /// Per-kind latencies, ms, across every repetition so far.
    pub latencies: Vec<(Kind, f64)>,
}

impl Whatif {
    /// Sets up the service: the Table-I trace is generated (the first
    /// set-up of a process caches it; later ones regenerate and drop it,
    /// so every set-up costs the same) and one core is constructed.
    pub fn new(env: &Env, first: bool) -> Whatif {
        let cfg = SimConfig::table1();
        let table1_trace = default_trace(&cfg);
        if !first {
            std::hint::black_box(PowerTrace::generate(
                cfg.trace_kind,
                cfg.trace_seed,
                table1_trace.len(),
            ));
        }
        std::hint::black_box(Core::new(serve_options(env.workers)));
        Whatif { seed: env.seed, workers: env.workers, table1_trace, latencies: Vec::new() }
    }

    /// Sends `queries` from `workers` closed-loop clients; returns
    /// `(index, latency ms, reply)` per query. Right after a cold query
    /// answers, its client takes a handle on the new trace and adds it to
    /// `pins`, so cache eviction cannot turn a later warm query cold.
    fn phase(
        &self,
        core: &Core,
        queries: &[Query],
        pins: &mut Vec<Arc<PowerTrace>>,
    ) -> Vec<(usize, f64, String)> {
        let next = AtomicUsize::new(0);
        let mut out = Vec::new();
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..self.workers)
                .map(|_| {
                    scope.spawn(|| {
                        let (mut done, mut held) = (Vec::new(), Vec::new());
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(q) = queries.get(i) else { break (done, held) };
                            let t0 = Instant::now();
                            let reply = core.handle_line(&q.line).unwrap_or_default();
                            done.push((i, t0.elapsed().as_secs_f64() * 1e3, reply));
                            if q.kind == Kind::Cold {
                                let mut cfg = SimConfig::table1();
                                cfg.trace_seed = q.seed;
                                held.push(default_trace(&cfg));
                            }
                        }
                    })
                })
                .collect();
            for client in clients {
                let (done, held) = client.join().expect("client threads do not panic");
                out.extend(done);
                pins.extend(held);
            }
        });
        out.sort_by_key(|&(i, _, _)| i);
        out
    }
}

impl Workload for Whatif {
    fn rep(&mut self, index: u64, tally: &mut Tally) -> Rep {
        let core = Core::new(serve_options(self.workers));
        let phases = plan(self.seed, index);
        let mut rep = Rep::default();
        let mut answered: Vec<String> = Vec::new();
        let mut pins = Vec::new();
        for queries in &phases {
            for (i, ms, reply) in self.phase(&core, queries, &mut pins) {
                let q = &queries[i];
                let parsed: Value = serde_json::from_str(&reply).unwrap_or(Value::Null);
                let ok = parsed.get("ok").and_then(Value::as_bool) == Some(true);
                tally.check(ok, || format!("query {} failed: {reply}", q.line));
                if let Some(original) = q.repeats {
                    tally.check(reply == answered[original], || {
                        format!(
                            "repeat of {} is not byte-identical: {reply} vs {}",
                            q.line, answered[original]
                        )
                    });
                } else {
                    rep.insts += reply_insts(&parsed);
                    answered.push(reply);
                }
                self.latencies.push((q.kind, ms));
            }
        }
        rep
    }

    fn account(&mut self, _tally: &mut Tally) -> Accounting {
        // Replies carry their own instruction counts.
        Accounting::default()
    }

    fn notes(&self) -> Vec<String> {
        let kinds = [
            (Some(Kind::Cold), "cold_p50_ms", 50.0),
            (Some(Kind::Warm), "warm_p50_ms", 50.0),
            (Some(Kind::Hit), "hit_p50_ms", 50.0),
            (None, "query_p90_ms", 90.0),
        ];
        kinds
            .iter()
            .filter_map(|&(kind, name, p)| {
                let ms: Vec<f64> = self
                    .latencies
                    .iter()
                    .filter(|l| kind.is_none_or(|k| l.0 == k))
                    .map(|l| l.1)
                    .collect();
                crate::stats::percentile(&ms, p)
                    .map(|p| format!("{name} = {:.4} ms (n={})", p.value, p.n))
            })
            .collect()
    }

    fn layer_plan(&self) -> layers::Plan {
        let lines: Vec<String> =
            plan(self.seed, 0).iter().flatten().map(|q| q.line.clone()).collect();
        layers::Plan {
            programs: layers::app_programs(&APPS, SCALE),
            trace: Arc::clone(&self.table1_trace),
            make_trace: layers::generated_like(&self.table1_trace),
            query_lines: lines,
            fault_probe: vec![layers::fault_probe(APPS[0])],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seeded_and_well_formed() {
        let [cold, warm, hits] = plan(7, 3);
        assert_eq!((cold.len(), warm.len(), hits.len()), (COLD, APPS.len(), HITS));
        let misses: Vec<&Query> = cold.iter().chain(&warm).collect();
        let distinct: BTreeSet<&str> = misses.iter().map(|q| q.line.as_str()).collect();
        assert_eq!(distinct.len(), misses.len(), "every miss is a new configuration");
        for h in &hits {
            assert_eq!(h.line, misses[h.repeats.expect("hits repeat a miss")].line);
        }
        let table1 = SimConfig::table1().trace_seed;
        for q in &warm {
            assert!(q.seed == table1 || cold.iter().any(|c| c.seed == q.seed), "{}", q.line);
        }
        assert!(cold.iter().all(|c| c.seed != table1));
        assert_eq!(plan(7, 3)[0][0].line, cold[0].line, "same seed, same plan");
        assert_ne!(plan(8, 3)[0][0].line, cold[0].line);
        assert_ne!(plan(7, 4)[0][0].line, cold[0].line, "every repetition gets fresh seeds");
    }
}
