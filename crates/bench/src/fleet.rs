//! Fleet campaign engine: constant-memory population statistics over
//! large cell populations, sharded execution with a crash-safe shard
//! journal, and the `fleet.json`/`fleet.jsonl` report schema.
//!
//! A campaign samples `population` deployment cells (see
//! [`ehs_sim::fleet::FleetSpec`]), runs each cell's baseline/Kagura job
//! pair, and streams the per-cell metrics — speedup, forward progress,
//! compression-waste fraction, ledger violations — into a
//! [`FleetAggregate`]: per stratum, one fixed-bucket [`Histogram`] plus
//! one bottom-k [`Reservoir`] per metric. Memory is O(strata × metrics
//! × reservoir capacity) whether the population is 10³ or 10⁶ cells.
//!
//! Every piece of the aggregate merges *exactly* — integer bucket
//! counts, [`FixedSum`] fixed-point totals, partition-invariant bottom-k
//! sketches — so folding per-shard aggregates in any grouping produces
//! bit-identical state to single-stream aggregation. That is the
//! engine's contract: reports are byte-identical at any `--jobs` value
//! and any `--fleet-shard` size, and a run SIGKILLed mid-campaign
//! resumes through [`FleetJournal`] to byte-identical output.
//!
//! [`FixedSum`]: ehs_telemetry::FixedSum

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};

use ehs_sim::fleet::{FleetCell, FleetSpec};
use ehs_sim::SimStats;
use ehs_telemetry::jsonl::{self, Framed};
use ehs_telemetry::{quantile_of_sorted, Histogram, Reservoir};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};

/// Campaign parameters carried by the experiment context
/// (`repro fleet --fleet-size N --fleet-seed S --fleet-shard K`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetParams {
    /// Number of cells in the population.
    pub population: u64,
    /// Campaign seed (drives sampling and reservoir priorities).
    pub seed: u64,
    /// Cells per execution shard; bounds peak memory and the work lost
    /// to a mid-shard kill.
    pub shard_size: u64,
}

impl Default for FleetParams {
    fn default() -> Self {
        FleetParams { population: 180, seed: 0xF1EE7, shard_size: 64 }
    }
}

/// Samples retained per reservoir: enough for stable p99 and bootstrap
/// CIs, small enough that a campaign's whole aggregate stays ~100 KiB.
pub const RESERVOIR_CAPACITY: usize = 512;

/// Bootstrap resamples behind each 95 % confidence interval.
pub const BOOTSTRAP_RESAMPLES: usize = 200;

/// The per-cell population metrics and their histogram bucket bounds.
pub const METRICS: &[(&str, &[f64])] = &[
    ("speedup", &[0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.2, 1.35, 1.5, 2.0]),
    ("forward_progress", &[0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99]),
    ("waste_fraction", &[0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2]),
    ("ledger_violations", &[0.5, 1.5, 2.5, 5.5, 10.5, 100.5]),
];

/// FNV-1a 64-bit hash: a process-independent string hash for deriving
/// reservoir seeds (std's `DefaultHasher` is randomized per process,
/// which would break cross-process byte-identity).
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The per-cell metric values for one completed baseline/Kagura pair,
/// index-aligned with [`METRICS`]. `None` means undefined for this
/// cell (e.g. speedup when either run hit its budget).
pub fn cell_metrics(baseline: &SimStats, kagura: &SimStats) -> [Option<f64>; 4] {
    let speedup = kagura.try_speedup_over(baseline);
    let progress = (kagura.executed_insts > 0)
        .then(|| kagura.committed_insts as f64 / kagura.executed_insts as f64);
    let total_pj = kagura.total_energy().picojoules();
    let waste = (total_pj > 0.0).then(|| {
        use ehs_energy::EnergyCategory::{Compress, Decompress};
        (kagura.breakdown[Compress].picojoules() + kagura.breakdown[Decompress].picojoules())
            / total_pj
    });
    [speedup, progress, waste, Some(kagura.ledger_violations as f64)]
}

/// One metric's constant-memory aggregate: exact bucket counts plus a
/// mergeable value sketch for quantiles and bootstrap CIs.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricAgg {
    /// Fixed-bucket histogram (exact, mergeable counts).
    pub hist: Histogram,
    /// Bottom-k sample keyed by cell index (partition-invariant).
    pub sample: Reservoir,
}

impl MetricAgg {
    fn new(campaign_seed: u64, stratum: &str, metric: &str, bounds: &[f64]) -> Self {
        // Distinct deterministic seed per (stratum, metric) so sketches
        // are independent but reproducible across processes.
        let seed = campaign_seed ^ fnv1a(&format!("{stratum}/{metric}"));
        MetricAgg {
            hist: Histogram::with_bounds(bounds),
            sample: Reservoir::new(seed, RESERVOIR_CAPACITY),
        }
    }

    fn observe(&mut self, key: u64, v: f64) {
        self.hist.observe(v);
        self.sample.offer(key, v);
    }

    fn merge(&mut self, other: &MetricAgg) -> Result<(), String> {
        self.hist.merge(&other.hist)?;
        self.sample.merge(&other.sample)
    }

    fn to_exact_json(&self) -> Value {
        json!({ "hist": self.hist.to_exact_json(), "sample": self.sample.to_exact_json() })
    }

    fn from_exact_json(v: &Value) -> Result<Self, String> {
        Ok(MetricAgg {
            hist: jsonl::nested(v, "hist", Histogram::from_exact_json)?,
            sample: jsonl::nested(v, "sample", Reservoir::from_exact_json)?,
        })
    }
}

/// One stratum's aggregate: cell accounting plus every metric.
#[derive(Debug, Clone, PartialEq)]
pub struct StratumAgg {
    /// Cells allocated to this stratum that finished (either way).
    pub cells: u64,
    /// Cells whose baseline or Kagura job failed (panic/timeout/...).
    pub failed: u64,
    /// Cells where at least one run hit its budget before completing.
    pub incomplete: u64,
    /// Per-metric aggregates, index-aligned with [`METRICS`].
    pub metrics: Vec<MetricAgg>,
}

impl StratumAgg {
    fn new(campaign_seed: u64, stratum: &str) -> Self {
        StratumAgg {
            cells: 0,
            failed: 0,
            incomplete: 0,
            metrics: METRICS
                .iter()
                .map(|&(name, bounds)| MetricAgg::new(campaign_seed, stratum, name, bounds))
                .collect(),
        }
    }

    fn merge(&mut self, other: &StratumAgg) -> Result<(), String> {
        if self.metrics.len() != other.metrics.len() {
            return Err("stratum metric count mismatch".into());
        }
        self.cells += other.cells;
        self.failed += other.failed;
        self.incomplete += other.incomplete;
        for (m, o) in self.metrics.iter_mut().zip(&other.metrics) {
            m.merge(o)?;
        }
        Ok(())
    }

    fn to_exact_json(&self) -> Value {
        json!({
            "cells": self.cells,
            "failed": self.failed,
            "incomplete": self.incomplete,
            "metrics": self.metrics.iter().map(MetricAgg::to_exact_json).collect::<Vec<_>>(),
        })
    }

    fn from_exact_json(v: &Value) -> Result<Self, String> {
        let metrics = jsonl::items(v, "metrics", MetricAgg::from_exact_json)?;
        if metrics.len() != METRICS.len() {
            return Err(format!(
                "stratum holds {} metrics, expected {}",
                metrics.len(),
                METRICS.len()
            ));
        }
        Ok(StratumAgg {
            cells: jsonl::u64(v, "cells")?,
            failed: jsonl::u64(v, "failed")?,
            incomplete: jsonl::u64(v, "incomplete")?,
            metrics,
        })
    }
}

/// The whole campaign's constant-memory aggregate: one [`StratumAgg`]
/// per `(design, trace)` stratum plus the population-wide `overall`.
///
/// Merging is exact and associative in every component, so any
/// sharding of the population folds to bit-identical state.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetAggregate {
    campaign_seed: u64,
    /// Stratum label → aggregate, in [`FleetSpec::stratum_labels`] order.
    pub strata: Vec<(String, StratumAgg)>,
    /// Population-wide aggregate across all strata.
    pub overall: StratumAgg,
}

impl FleetAggregate {
    /// An empty aggregate for a campaign seeded with `campaign_seed`,
    /// with every stratum present (so empty strata still report).
    pub fn new(campaign_seed: u64) -> Self {
        FleetAggregate {
            campaign_seed,
            strata: FleetSpec::stratum_labels()
                .into_iter()
                .map(|label| {
                    let agg = StratumAgg::new(campaign_seed, &label);
                    (label, agg)
                })
                .collect(),
            overall: StratumAgg::new(campaign_seed, "overall"),
        }
    }

    fn stratum_mut(&mut self, label: &str) -> &mut StratumAgg {
        let at = self
            .strata
            .iter()
            .position(|(l, _)| l == label)
            .unwrap_or_else(|| panic!("unknown stratum {label:?}"));
        &mut self.strata[at].1
    }

    /// Folds one completed cell (both jobs returned stats) in.
    pub fn observe(&mut self, cell: &FleetCell, baseline: &SimStats, kagura: &SimStats) {
        fn fold(agg: &mut StratumAgg, key: u64, metrics: &[Option<f64>; 4], incomplete: u64) {
            agg.cells += 1;
            agg.incomplete += incomplete;
            for (m, v) in agg.metrics.iter_mut().zip(metrics) {
                if let Some(v) = v {
                    m.observe(key, *v);
                }
            }
        }
        let metrics = cell_metrics(baseline, kagura);
        let incomplete = u64::from(!baseline.completed || !kagura.completed);
        fold(self.stratum_mut(&cell.stratum()), cell.index, &metrics, incomplete);
        fold(&mut self.overall, cell.index, &metrics, incomplete);
    }

    /// Counts one cell whose baseline or Kagura job failed outright.
    pub fn record_failed(&mut self, cell: &FleetCell) {
        let s = self.stratum_mut(&cell.stratum());
        s.cells += 1;
        s.failed += 1;
        self.overall.cells += 1;
        self.overall.failed += 1;
    }

    /// Folds another shard's aggregate in — exactly associative.
    ///
    /// # Errors
    ///
    /// Returns `Err` when the aggregates come from different campaigns
    /// (seed or stratum layout mismatch).
    pub fn merge(&mut self, other: &FleetAggregate) -> Result<(), String> {
        if self.campaign_seed != other.campaign_seed {
            return Err(format!(
                "aggregate campaign seed mismatch: {} vs {}",
                self.campaign_seed, other.campaign_seed
            ));
        }
        if self.strata.len() != other.strata.len() {
            return Err("aggregate stratum layout mismatch".into());
        }
        for ((la, a), (lb, b)) in self.strata.iter_mut().zip(&other.strata) {
            if la != lb {
                return Err(format!("stratum order mismatch: {la:?} vs {lb:?}"));
            }
            a.merge(b)?;
        }
        self.overall.merge(&other.overall)
    }

    /// Lossless serialization for the shard journal; round-trips
    /// bit-for-bit through [`FleetAggregate::from_exact_json`].
    pub fn to_exact_json(&self) -> Value {
        json!({
            "campaign_seed": self.campaign_seed,
            "strata": self
                .strata
                .iter()
                .map(|(l, a)| json!({ "stratum": l, "agg": a.to_exact_json() }))
                .collect::<Vec<_>>(),
            "overall": self.overall.to_exact_json(),
        })
    }

    /// Rebuilds an aggregate journaled by [`FleetAggregate::to_exact_json`].
    ///
    /// # Errors
    ///
    /// Returns `Err` naming the offending field on any schema mismatch.
    pub fn from_exact_json(v: &Value) -> Result<Self, String> {
        let stratum = |s: &Value| -> Result<(String, StratumAgg), String> {
            let label = jsonl::str(s, "stratum")?.to_string();
            Ok((label, jsonl::nested(s, "agg", StratumAgg::from_exact_json)?))
        };
        Ok(FleetAggregate {
            campaign_seed: jsonl::u64(v, "campaign_seed")?,
            strata: jsonl::items(v, "strata", stratum)?,
            overall: jsonl::nested(v, "overall", StratumAgg::from_exact_json)?,
        })
    }
}

/// 95 % bootstrap confidence interval for the mean of `values`:
/// [`BOOTSTRAP_RESAMPLES`] seeded resamples with replacement, then the
/// 2.5th/97.5th percentiles of the resample means. `None` when empty.
///
/// Fully deterministic in `(values, seed)` — the StdRng stream is fixed
/// by the campaign seed, never by process state.
pub fn bootstrap_mean_ci(values: &[f64], seed: u64) -> Option<(f64, f64)> {
    if values.is_empty() {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let n = values.len();
    let mut means: Vec<f64> = (0..BOOTSTRAP_RESAMPLES)
        .map(|_| {
            let sum: f64 = (0..n)
                .map(|_| {
                    let at = ((rng.gen::<f64>() * n as f64) as usize).min(n - 1);
                    values[at]
                })
                .sum();
            sum / n as f64
        })
        .collect();
    means.sort_by(f64::total_cmp);
    Some((quantile_of_sorted(&means, 0.025), quantile_of_sorted(&means, 0.975)))
}

// ---------------------------------------------------------------------------
// Shard journal
// ---------------------------------------------------------------------------

/// Shard journal file name inside the results directory.
pub const FLEET_JOURNAL_FILE: &str = "fleet_journal.jsonl";

/// Header format shared with the other journals via
/// [`fsutil::resume_journal`](crate::fsutil::resume_journal).
const FORMAT: crate::fsutil::JournalFormat = crate::fsutil::JournalFormat {
    name: "kagura-fleet",
    version: 1,
    log_tag: "fleet",
    torn_note: "its shard re-runs",
    mismatch_hint: "resume with the original fleet/scale flags or start a fresh --out",
};

/// Append-only journal of completed campaign shards, mirroring the
/// driver's run journal: a fingerprint header, one fsynced line per
/// shard carrying the shard's exact-JSON aggregate and failure records.
/// A SIGKILL mid-append tears at most the final line, which
/// [`FleetJournal::resume`] drops (that shard re-runs).
#[derive(Debug)]
pub struct FleetJournal {
    path: PathBuf,
    file: File,
    /// Completed shard index → (exact aggregate JSON, failure records).
    shards: BTreeMap<u64, (Value, Vec<Value>)>,
}

impl FleetJournal {
    /// Starts a fresh shard journal in `out_dir`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the journal.
    pub fn create(out_dir: &Path, fingerprint: Value) -> io::Result<Self> {
        fs::create_dir_all(out_dir)?;
        let path = out_dir.join(FLEET_JOURNAL_FILE);
        let file = crate::fsutil::create_journal(&path, &FORMAT, &fingerprint)?;
        Ok(FleetJournal { path, file, shards: BTreeMap::new() })
    }

    /// Reopens an existing shard journal, returning the completed
    /// shards. A missing journal degrades to [`FleetJournal::create`];
    /// a torn final line is dropped.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] when the header is
    /// unreadable or fingerprints a different campaign configuration.
    pub fn resume(out_dir: &Path, fingerprint: Value) -> io::Result<Self> {
        let path = out_dir.join(FLEET_JOURNAL_FILE);
        let Some((file, records)) = crate::fsutil::resume_journal(&path, &FORMAT, &fingerprint)?
        else {
            return Self::create(out_dir, fingerprint);
        };
        let shard_from = |record: &Value| -> Result<(u64, (Value, Vec<Value>)), String> {
            let agg = jsonl::field(record, "agg")?.clone();
            Ok((jsonl::u64(record, "shard")?, (agg, jsonl::array(record, "failures")?.to_vec())))
        };
        let mut shards = BTreeMap::new();
        for (i, record) in records.iter().enumerate() {
            let (shard, entry) = shard_from(record).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: journal line {} is not a shard record: {e}",
                        path.display(),
                        i + 2
                    ),
                )
            })?;
            shards.insert(shard, entry);
        }
        Ok(FleetJournal { path, file, shards })
    }

    /// The journaled (aggregate, failures) for `shard`, if completed.
    pub fn shard(&self, shard: u64) -> Option<&(Value, Vec<Value>)> {
        self.shards.get(&shard)
    }

    /// Count of completed shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// `true` when no shard has completed yet.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Journals one completed shard, fsyncing before returning: once
    /// this call comes back the shard's work survives any kill.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the append or sync.
    pub fn record(&mut self, shard: u64, agg: Value, failures: Vec<Value>) -> io::Result<()> {
        let record = json!({ "shard": shard, "agg": agg.clone(), "failures": failures.clone() });
        crate::fsutil::append_journal_record(&mut self.file, &record)?;
        self.shards.insert(shard, (agg, failures));
        Ok(())
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// One metric's row in the human/machine report.
fn metric_report(name: &str, agg: &MetricAgg, campaign_seed: u64, stratum: &str) -> Value {
    let values = agg.sample.sorted_values();
    let ci_seed = campaign_seed ^ fnv1a(&format!("ci/{stratum}/{name}"));
    let ci = bootstrap_mean_ci(&values, ci_seed);
    let count = agg.hist.count();
    let opt = |v: f64| if count == 0 { Value::Null } else { json!(v) };
    json!({
        "metric": name,
        "count": count,
        "mean": opt(agg.sample.mean()),
        "min": opt(agg.sample.min()),
        "max": opt(agg.sample.max()),
        "p10": opt(agg.hist.percentile(0.10)),
        "p50": opt(agg.hist.percentile(0.50)),
        "p90": opt(agg.hist.percentile(0.90)),
        "p99": opt(agg.hist.percentile(0.99)),
        "ci_lo": ci.map_or(Value::Null, |(lo, _)| json!(lo)),
        "ci_hi": ci.map_or(Value::Null, |(_, hi)| json!(hi)),
        "hist_counts": agg.hist.buckets().iter().map(|&(_, c)| c).collect::<Vec<_>>(),
    })
}

fn stratum_report(label: &str, agg: &StratumAgg, campaign_seed: u64) -> Value {
    json!({
        "stratum": label,
        "cells": agg.cells,
        "failed": agg.failed,
        "incomplete": agg.incomplete,
        "metrics": METRICS
            .iter()
            .zip(&agg.metrics)
            .map(|(&(name, _), m)| metric_report(name, m, campaign_seed, label))
            .collect::<Vec<_>>(),
    })
}

/// Builds the campaign report. Deliberately carries *no* trace of how
/// the run was sharded or parallelized — the report is a pure function
/// of `(population, seed, scale, audit_strict)`, which is what the CI
/// gate diffs across shard counts.
pub fn report_json(params: &FleetParams, spec: &FleetSpec, agg: &FleetAggregate) -> Value {
    let mut strata: Vec<Value> =
        agg.strata.iter().map(|(label, s)| stratum_report(label, s, params.seed)).collect();
    strata.push(stratum_report("overall", &agg.overall, params.seed));
    json!({
        "experiment": "fleet",
        "population": params.population,
        "seed": params.seed,
        "scale": spec.scale,
        "audit_strict": spec.audit_strict,
        "metrics": METRICS.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
        "strata": strata,
    })
}

/// Renders the report as a JSONL stream: a header line, one line per
/// stratum (population-wide `overall` last), and a summary line.
pub fn report_jsonl(report: &Value) -> String {
    let top = |k: &str| jsonl::field(report, k).cloned().unwrap_or(Value::Null);
    let mut lines = vec![json!({
        "kind": "header",
        "population": top("population"),
        "seed": top("seed"),
        "scale": top("scale"),
    })];
    let (mut cells, mut failed) = (0u64, 0u64);
    for s in jsonl::array(report, "strata").unwrap_or_default() {
        if jsonl::str(s, "stratum") != Ok("overall") {
            cells += jsonl::u64(s, "cells").unwrap_or(0);
            failed += jsonl::u64(s, "failed").unwrap_or(0);
        }
        let mut row = vec![("kind".to_string(), json!("stratum"))];
        if let Value::Object(fields) = s {
            row.extend(fields.iter().cloned());
        }
        lines.push(Value::Object(row));
    }
    lines.push(json!({ "kind": "summary", "cells": cells, "failed": failed }));
    jsonl::to_string(&lines)
}

/// One metric parsed back from the JSONL report:
/// `(count, mean, p50, p99, bootstrap CI)` — `None` when the stratum
/// observed no defined value for that statistic.
pub type ParsedMetric = (u64, Option<f64>, Option<f64>, Option<f64>, Option<(f64, f64)>);

/// One stratum parsed back from the JSONL report.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStratumRow {
    /// Stratum label (`Design/Trace`, or `overall`).
    pub stratum: String,
    /// Cell accounting.
    pub cells: u64,
    /// Failed-cell count.
    pub failed: u64,
    /// Metric name → parsed statistics.
    pub metrics: BTreeMap<String, ParsedMetric>,
}

/// The JSONL report parsed back strictly.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Campaign population.
    pub population: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Stratum rows in stream order (`overall` last).
    pub strata: Vec<FleetStratumRow>,
    /// Summary cell count (excludes the `overall` double-count).
    pub cells: u64,
}

fn stratum_row(v: &Value) -> Result<FleetStratumRow, String> {
    let metric = |m: &Value| -> Result<(String, ParsedMetric), String> {
        let f = |k: &str| jsonl::nullable(m, k, jsonl::f64);
        let name = jsonl::str(m, "metric")?.to_string();
        let count = jsonl::u64(m, "count")?;
        let ci = match (f("ci_lo")?, f("ci_hi")?) {
            (Some(lo), Some(hi)) => Some((lo, hi)),
            _ => None,
        };
        Ok((name, (count, f("mean")?, f("p50")?, f("p99")?, ci)))
    };
    Ok(FleetStratumRow {
        stratum: jsonl::str(v, "stratum")?.to_string(),
        cells: jsonl::u64(v, "cells")?,
        failed: jsonl::u64(v, "failed")?,
        metrics: jsonl::items(v, "metrics", metric)?.into_iter().collect(),
    })
}

impl Framed for FleetReport {
    const HEADER: &'static str = "header";
    const RECORDS: &'static [&'static str] = &["stratum"];

    fn header(v: &Value) -> Result<Self, String> {
        Ok(FleetReport {
            population: jsonl::u64(v, "population")?,
            seed: jsonl::u64(v, "seed")?,
            strata: Vec::new(),
            cells: 0,
        })
    }

    fn record(&mut self, _: &str, v: &Value) -> Result<(), String> {
        self.strata.push(stratum_row(v)?);
        Ok(())
    }

    fn summary(&mut self, v: &Value) -> Result<(), String> {
        self.cells = jsonl::u64(v, "cells")?;
        Ok(())
    }

    fn check(&self) -> Result<(), String> {
        if self.strata.last().map(|s| s.stratum.as_str()) != Some("overall") {
            return Err("stream must end its strata with `overall`".into());
        }
        Ok(())
    }
}

/// Parses a `fleet.jsonl` stream strictly, with the same `file:line`
/// diagnostics naming the offending field as the other observer streams.
///
/// # Errors
///
/// Returns a `file:line`-prefixed message on any malformed line.
pub fn parse_fleet_file(path: &Path) -> Result<FleetReport, String> {
    crate::fsutil::parse_stream_file(path, jsonl::read_framed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehs_sim::StepBudget;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn spec(population: u64) -> FleetSpec {
        FleetSpec {
            population,
            seed: 7,
            scale: 0.01,
            budget: StepBudget::UNLIMITED,
            audit_strict: false,
        }
    }

    fn fake_stats(completed: bool, secs: f64, violations: u64) -> SimStats {
        use ehs_model::SimTime;
        SimStats {
            completed,
            sim_time: SimTime::from_seconds(secs),
            committed_insts: 900,
            executed_insts: 1000,
            ledger_violations: violations,
            ..SimStats::default()
        }
    }

    /// A deterministic synthetic population folded through the real
    /// aggregation path, no simulation needed.
    fn observe_synthetic(agg: &mut FleetAggregate, s: &FleetSpec, range: std::ops::Range<u64>) {
        for i in range {
            let cell = s.cell(i);
            if i % 17 == 0 {
                agg.record_failed(&cell);
            } else {
                let base = fake_stats(true, 1.0 + (i % 7) as f64 * 0.01, 0);
                let kag = fake_stats(i % 13 != 0, 0.9 + (i % 5) as f64 * 0.02, i % 3);
                agg.observe(&cell, &base, &kag);
            }
        }
    }

    #[test]
    fn cell_metrics_definitions() {
        let base = fake_stats(true, 2.0, 0);
        let kag = fake_stats(true, 1.0, 4);
        let [speedup, progress, waste, violations] = cell_metrics(&base, &kag);
        assert_eq!(speedup, Some(2.0));
        assert_eq!(progress, Some(0.9));
        assert_eq!(waste, None, "zero total energy leaves waste undefined");
        assert_eq!(violations, Some(4.0));
        // An incomplete Kagura run has no speedup but still reports
        // progress and violations.
        let truncated = fake_stats(false, 1.0, 1);
        let [s2, p2, _, v2] = cell_metrics(&base, &truncated);
        assert_eq!(s2, None);
        assert_eq!(p2, Some(0.9));
        assert_eq!(v2, Some(1.0));
    }

    #[test]
    fn sharded_merge_is_bit_identical_to_single_stream() {
        let s = spec(90);
        let mut whole = FleetAggregate::new(s.seed);
        observe_synthetic(&mut whole, &s, 0..90);
        // Three shards of different sizes, merged out of order.
        let mut parts = Vec::new();
        for range in [0..40u64, 40..63, 63..90] {
            let mut part = FleetAggregate::new(s.seed);
            observe_synthetic(&mut part, &s, range);
            parts.push(part);
        }
        let mut folded = FleetAggregate::new(s.seed);
        folded.merge(&parts[2]).unwrap();
        folded.merge(&parts[0]).unwrap();
        folded.merge(&parts[1]).unwrap();
        assert_eq!(folded, whole);
        // And through the journal's exact-JSON round trip.
        let back = FleetAggregate::from_exact_json(&whole.to_exact_json()).unwrap();
        assert_eq!(back, whole);
    }

    #[test]
    fn merge_rejects_cross_campaign_aggregates() {
        let mut a = FleetAggregate::new(1);
        let b = FleetAggregate::new(2);
        assert!(a.merge(&b).unwrap_err().contains("seed mismatch"));
    }

    #[test]
    fn bootstrap_ci_is_deterministic_and_brackets_the_mean() {
        let values: Vec<f64> = (0..200).map(|k| 1.0 + (k as f64).sin() * 0.1).collect();
        let ci = bootstrap_mean_ci(&values, 42).unwrap();
        assert_eq!(ci, bootstrap_mean_ci(&values, 42).unwrap(), "seeded CI must be stable");
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!(ci.0 <= mean && mean <= ci.1, "CI {ci:?} must bracket mean {mean}");
        assert!(ci.1 - ci.0 < 0.1, "CI {ci:?} implausibly wide");
        assert_eq!(bootstrap_mean_ci(&[], 42), None);
    }

    #[test]
    fn journal_round_trips_shards_and_rejects_mismatched_fingerprints() {
        let dir = std::env::temp_dir().join("kagura_fleet_journal_test");
        let _ = fs::remove_dir_all(&dir);
        // u64 literals: the journal's JSON round-trip parses positive
        // integers back as u64, and fingerprint equality is exact.
        let fp = json!({"population": 20u64, "seed": 7u64});
        let s = spec(20);
        let mut shard0 = FleetAggregate::new(s.seed);
        observe_synthetic(&mut shard0, &s, 0..10);
        {
            let mut j = FleetJournal::create(&dir, fp.clone()).unwrap();
            j.record(0, shard0.to_exact_json(), vec![json!({"cell": 0})]).unwrap();
        }
        // Torn final line (killed mid-append) is dropped.
        let mut f = OpenOptions::new().append(true).open(dir.join(FLEET_JOURNAL_FILE)).unwrap();
        f.write_all(b"{\"shard\":1,\"agg").unwrap();
        drop(f);
        let mut j = FleetJournal::resume(&dir, fp.clone()).unwrap();
        assert_eq!(j.len(), 1);
        let (agg, failures) = j.shard(0).unwrap();
        assert_eq!(FleetAggregate::from_exact_json(agg).unwrap(), shard0);
        assert_eq!(failures.len(), 1);
        assert!(j.shard(1).is_none(), "torn shard must re-run");
        // Appending after the torn tail must land on a clean line
        // boundary (the tail is truncated off disk), so a second resume
        // still reads every record.
        let mut shard1 = FleetAggregate::new(s.seed);
        observe_synthetic(&mut shard1, &s, 10..20);
        j.record(1, shard1.to_exact_json(), vec![]).unwrap();
        drop(j);
        let j = FleetJournal::resume(&dir, fp.clone()).unwrap();
        assert_eq!(j.len(), 2, "append after a torn tail must survive a second resume");
        assert_eq!(FleetAggregate::from_exact_json(&j.shard(1).unwrap().0).unwrap(), shard1);
        drop(j);
        let err = FleetJournal::resume(&dir, json!({"population": 21u64})).unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn jsonl_report_round_trips_strictly() {
        let s = spec(45);
        let params = FleetParams { population: 45, seed: s.seed, shard_size: 10 };
        let mut agg = FleetAggregate::new(s.seed);
        observe_synthetic(&mut agg, &s, 0..45);
        let report = report_json(&params, &s, &agg);
        let dir = std::env::temp_dir().join("kagura_fleet_jsonl_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.jsonl");
        fs::write(&path, report_jsonl(&report)).unwrap();
        let parsed = parse_fleet_file(&path).unwrap();
        assert_eq!(parsed.population, 45);
        assert_eq!(parsed.seed, s.seed);
        assert_eq!(parsed.cells, 45);
        assert_eq!(parsed.strata.len(), FleetSpec::STRATA as usize + 1);
        assert_eq!(parsed.strata.last().unwrap().stratum, "overall");
        let overall = parsed.strata.last().unwrap();
        assert!(overall.metrics["speedup"].0 > 0, "speedup must be observed");
        // Corruption is rejected with a file:line diagnostic.
        let mut lines: Vec<String> =
            fs::read_to_string(&path).unwrap().lines().map(String::from).collect();
        lines[1] = lines[1].replace("\"cells\":", "\"cels\":");
        fs::write(&path, lines.join("\n")).unwrap();
        let err = parse_fleet_file(&path).unwrap_err();
        assert!(err.contains(":2:"), "diagnostic must name the line: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn jsonl_report_framing_is_strict() {
        let s = spec(12);
        let params = FleetParams { population: 12, seed: s.seed, shard_size: 4 };
        let mut agg = FleetAggregate::new(s.seed);
        observe_synthetic(&mut agg, &s, 0..12);
        let text = report_jsonl(&report_json(&params, &s, &agg));
        let lines: Vec<&str> = text.lines().collect();
        let n = lines.len();
        let dir = std::env::temp_dir().join("kagura_fleet_framing_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.jsonl");
        let parse = |body: String| {
            fs::write(&path, body).unwrap();
            parse_fleet_file(&path)
        };
        // A stratum after the summary is rejected on its own line.
        let err = parse(format!("{text}{}\n", lines[1])).unwrap_err();
        assert!(err.contains(&format!(":{}: unexpected line after the `summary`", n + 1)), "{err}");
        // A blank line is skipped, as in every other observer stream.
        assert!(parse(text.replacen('\n', "\n\n", 1)).is_ok());
        // A missing summary is reported on the last line.
        let err = parse(lines[..n - 1].join("\n")).unwrap_err();
        assert!(err.contains(&format!(":{}: stream ended without a `summary`", n - 1)), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
