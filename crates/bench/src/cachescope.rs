//! Cachescope JSON adapters and report rendering.
//!
//! The sim crate deliberately has no serde dependency, so everything a
//! [`CachescopeReport`] needs to cross a process boundary lives here:
//! serialization to a single JSON document (experiment cells) or a JSONL
//! stream (one header line, one `cycle` line per power-cycle boundary,
//! one `snapshot` line per sampled occupancy map, one trailing
//! `summary`), its per-kind field mapping for the shared strict reader
//! ([`ehs_telemetry::jsonl::read_framed`], which names the offending
//! line and field on malformed input — CI's parse-back gate for the
//! cachescope schema), and the per-app text report `repro explain`
//! prints.

use std::path::Path;

use ehs_cache::SetOccupancy;
use ehs_sim::{
    CachescopeAggregator, CachescopeReport, CycleScope, LatencyAttribution, OccupancySnapshot,
    ScopeCounters,
};
use ehs_telemetry::jsonl::{self, Framed};
use ehs_telemetry::Histogram;
use serde_json::{json, Value};

/// Run identity carried in the stream header (the algorithm label rides
/// in the report itself).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScopeLabels {
    /// Application name.
    pub app: String,
    /// EHS design label.
    pub design: String,
    /// Governor label.
    pub governor: String,
}

impl ScopeLabels {
    /// Labels from anything displayable.
    pub fn new(
        app: impl Into<String>,
        design: impl Into<String>,
        governor: impl Into<String>,
    ) -> Self {
        ScopeLabels { app: app.into(), design: design.into(), governor: governor.into() }
    }
}

fn counters_json(c: &ScopeCounters) -> Value {
    json!({
        "hits": c.hits,
        "compressed_hits": c.compressed_hits,
        "fills": c.fills,
        "compressed_fills": c.compressed_fills,
        "capacity_evictions": c.capacity_evictions,
        "forced_evictions": c.forced_evictions,
        "power_loss_evictions": c.power_loss_evictions,
    })
}

fn latency_json(l: &LatencyAttribution) -> Value {
    json!({
        "tag": l.tag_cycles,
        "decompress": l.decompress_cycles,
        "nvm": l.nvm_cycles,
        "writeback": l.writeback_cycles,
    })
}

/// Histograms serialize as finite `bounds` plus `counts` one longer (the
/// tail is the overflow bucket) — never an `INFINITY` literal, which JSON
/// cannot carry.
fn hist_json(h: &Histogram) -> Value {
    let rows = h.buckets();
    let bounds: Vec<f64> = rows.iter().map(|&(b, _)| b).filter(|b| b.is_finite()).collect();
    let counts: Vec<u64> = rows.iter().map(|&(_, c)| c).collect();
    json!({
        "count": h.count(),
        "mean": h.mean(),
        "p50": h.percentile(0.5),
        "p90": h.percentile(0.9),
        "bounds": bounds,
        "counts": counts,
    })
}

fn aggregator_json(a: &CachescopeAggregator) -> Value {
    json!({
        "counters": counters_json(&a.counters),
        "occupancy": hist_json(&a.occupancy_overall()),
        "ratio": hist_json(&a.ratio),
        "lifetime": hist_json(&a.lifetime),
        "dead_time": hist_json(&a.dead_time),
        "reuse": hist_json(&a.reuse),
    })
}

fn set_occ_json(s: &SetOccupancy) -> Value {
    let blocks: Vec<Value> =
        s.blocks.iter().map(|&(segments, compressed)| json!([segments, compressed])).collect();
    json!({ "set": s.set, "used": s.used_segments, "blocks": blocks })
}

/// One JSON document per experiment cell: final aggregates and latency
/// split, without the row/snapshot streams (those live in the JSONL).
pub fn report_to_json(report: &CachescopeReport) -> Value {
    json!({
        "algorithm": report.algorithm.clone(),
        "icache": aggregator_json(&report.icache),
        "dcache": aggregator_json(&report.dcache),
        "latency": latency_json(&report.latency),
        "boundary_rows": report.cycles.len(),
        "occupancy_snapshots": report.snapshots.len(),
    })
}

/// The full report as a JSONL stream: `cachescope` header, `cycle` rows,
/// `snapshot` rows, trailing `summary`.
pub fn report_to_jsonl(labels: &ScopeLabels, report: &CachescopeReport) -> String {
    let mut lines: Vec<Value> =
        Vec::with_capacity(2 + report.cycles.len() + report.snapshots.len());
    lines.push(json!({
        "kind": "cachescope",
        "app": labels.app.clone(),
        "design": labels.design.clone(),
        "governor": labels.governor.clone(),
        "algorithm": report.algorithm.clone(),
    }));
    for row in &report.cycles {
        lines.push(json!({
            "kind": "cycle",
            "cycle": row.cycle,
            "icache": counters_json(&row.icache),
            "dcache": counters_json(&row.dcache),
            "latency": latency_json(&row.latency),
        }));
    }
    for snap in &report.snapshots {
        let sets = |occ: &[SetOccupancy]| occ.iter().map(set_occ_json).collect::<Vec<_>>();
        lines.push(json!({
            "kind": "snapshot",
            "inst_index": snap.inst_index,
            "cycle": snap.cycle,
            "icache": sets(&snap.icache),
            "dcache": sets(&snap.dcache),
        }));
    }
    lines.push(json!({
        "kind": "summary",
        "icache": aggregator_json(&report.icache),
        "dcache": aggregator_json(&report.dcache),
        "latency": latency_json(&report.latency),
    }));
    jsonl::to_string(&lines)
}

/// Atomically writes the JSONL stream for one run.
pub fn write_jsonl(
    path: &Path,
    labels: &ScopeLabels,
    report: &CachescopeReport,
) -> std::io::Result<()> {
    crate::fsutil::atomic_write(path, report_to_jsonl(labels, report).as_bytes())
}

/// A strictly-parsed cachescope stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedScope {
    /// Header identity.
    pub labels: ScopeLabels,
    /// Compression algorithm label from the header.
    pub algorithm: String,
    /// Boundary rows, in stream order.
    pub cycles: Vec<CycleScope>,
    /// Sampled occupancy maps, in stream order.
    pub snapshots: Vec<OccupancySnapshot>,
    /// The validated `summary` line, kept raw for rendering.
    pub summary: Value,
}

impl ScopeLabels {
    /// The run identity from a stream header line.
    pub(crate) fn from_header(v: &Value) -> Result<Self, String> {
        Ok(ScopeLabels::new(
            jsonl::str(v, "app")?,
            jsonl::str(v, "design")?,
            jsonl::str(v, "governor")?,
        ))
    }
}

fn counters_from(c: &Value) -> Result<ScopeCounters, String> {
    let u = |k: &str| jsonl::u64(c, k);
    Ok(ScopeCounters {
        hits: u("hits")?,
        compressed_hits: u("compressed_hits")?,
        fills: u("fills")?,
        compressed_fills: u("compressed_fills")?,
        capacity_evictions: u("capacity_evictions")?,
        forced_evictions: u("forced_evictions")?,
        power_loss_evictions: u("power_loss_evictions")?,
    })
}

fn latency_from(l: &Value) -> Result<LatencyAttribution, String> {
    let u = |k: &str| jsonl::u64(l, k);
    Ok(LatencyAttribution {
        tag_cycles: u("tag")?,
        decompress_cycles: u("decompress")?,
        nvm_cycles: u("nvm")?,
        writeback_cycles: u("writeback")?,
    })
}

fn set_from(set: &Value) -> Result<SetOccupancy, String> {
    Ok(SetOccupancy {
        set: jsonl::u64(set, "set")? as u32,
        used_segments: jsonl::u64(set, "used")? as u32,
        blocks: jsonl::items(set, "blocks", |pair| match jsonl::array(pair, "")?.len() {
            2 => Ok((jsonl::u64(pair, "[0]")? as u32, jsonl::bool(pair, "[1]")?)),
            _ => Err("not a [segments, compressed] pair".into()),
        })?,
    })
}

/// Validates one aggregator object of a `summary` line (histogram shape
/// included), naming the offending field.
fn check_aggregator(a: &Value) -> Result<(), String> {
    jsonl::nested(a, "counters", counters_from)?;
    for hist in ["occupancy", "ratio", "lifetime", "dead_time", "reuse"] {
        jsonl::nested(a, hist, |h| {
            jsonl::u64(h, "count")?;
            for stat in ["mean", "p50", "p90"] {
                jsonl::f64(h, stat)?;
            }
            let bounds = jsonl::array(h, "bounds")?.len();
            let counts = jsonl::array(h, "counts")?.len();
            if counts != bounds + 1 {
                return Err(format!(
                    "field `counts` must be one longer than `bounds` ({counts} vs {bounds})"
                ));
            }
            Ok(())
        })?;
    }
    Ok(())
}

impl Framed for ParsedScope {
    const HEADER: &'static str = "cachescope";
    const RECORDS: &'static [&'static str] = &["cycle", "snapshot"];

    fn header(v: &Value) -> Result<Self, String> {
        Ok(ParsedScope {
            labels: ScopeLabels::from_header(v)?,
            algorithm: jsonl::str(v, "algorithm")?.to_string(),
            cycles: Vec::new(),
            snapshots: Vec::new(),
            summary: Value::Null,
        })
    }

    fn record(&mut self, kind: &str, v: &Value) -> Result<(), String> {
        match kind {
            "cycle" => self.cycles.push(CycleScope {
                cycle: jsonl::u64(v, "cycle")?,
                icache: jsonl::nested(v, "icache", counters_from)?,
                dcache: jsonl::nested(v, "dcache", counters_from)?,
                latency: jsonl::nested(v, "latency", latency_from)?,
            }),
            "snapshot" => self.snapshots.push(OccupancySnapshot {
                inst_index: jsonl::u64(v, "inst_index")?,
                cycle: jsonl::u64(v, "cycle")?,
                icache: jsonl::items(v, "icache", set_from)?,
                dcache: jsonl::items(v, "dcache", set_from)?,
            }),
            _ => unreachable!("the reader passes only RECORDS kinds"),
        }
        Ok(())
    }

    fn summary(&mut self, v: &Value) -> Result<(), String> {
        jsonl::nested(v, "icache", check_aggregator)?;
        jsonl::nested(v, "dcache", check_aggregator)?;
        jsonl::nested(v, "latency", latency_from)?;
        self.summary = v.clone();
        Ok(())
    }

    fn check(&self) -> Result<(), String> {
        if self.cycles.is_empty() {
            return Err("stream has no `cycle` rows (the end-of-run row is mandatory)".into());
        }
        Ok(())
    }
}

/// Strictly parses one cachescope JSONL file; the error names the file,
/// the 1-based line and the offending field.
pub fn parse_cachescope_file(path: &Path) -> Result<ParsedScope, String> {
    crate::fsutil::parse_stream_file(path, jsonl::read_framed)
}

/// Fraction → one timeline glyph, coarse utilization ramp.
fn utilization_glyph(frac: f64) -> char {
    const RAMP: [char; 8] = ['.', ':', '-', '=', '+', '*', '#', '@'];
    let i = (frac.clamp(0.0, 1.0) * (RAMP.len() - 1) as f64).round() as usize;
    RAMP[i]
}

/// Max columns the occupancy timeline prints; longer runs are strided.
const TIMELINE_COLS: usize = 64;

fn pct(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 * 100.0 / total as f64
    }
}

/// Renders the per-app cache report: counters, eviction breakdown,
/// compressibility and lifetime distributions, latency split, occupancy
/// timeline, and per-cycle activity from the boundary rows.
pub fn render_report(parsed: &ParsedScope) -> String {
    let mut out = String::new();
    let mut w = |s: String| out.push_str(&(s + "\n"));
    let p = &parsed.labels;
    w(format!("=== {} cachescope ===", p.app));
    w(format!("  run: {} on {} under {}", parsed.algorithm, p.design, p.governor));

    // Final cumulative state is the last boundary row (the end-of-run
    // row), which the summary aggregates must agree with.
    let last = parsed.cycles.last().expect("parser guarantees >= 1 row");
    for (name, c) in [("icache", &last.icache), ("dcache", &last.dcache)] {
        w(format!(
            "  {name}: {} hit(s) ({:.1}% on compressed lines), {} fill(s) ({:.1}% stored compressed)",
            c.hits,
            pct(c.compressed_hits, c.hits),
            c.fills,
            pct(c.compressed_fills, c.fills),
        ));
    }
    let d = &last.dcache;
    w(format!(
        "  evictions (dcache): {} capacity / {} dead-block / {} power-loss",
        d.capacity_evictions, d.forced_evictions, d.power_loss_evictions
    ));

    let l = &last.latency;
    let total = l.total();
    w(format!(
        "  latency: {total} cycle(s) = {:.1}% tag + {:.1}% decompress + {:.1}% nvm + {:.1}% writeback",
        pct(l.tag_cycles, total),
        pct(l.decompress_cycles, total),
        pct(l.nvm_cycles, total),
        pct(l.writeback_cycles, total),
    ));

    // Distribution lines straight off the validated summary.
    let hist = |prefix: &str| -> (u64, f64, f64, f64) {
        let g = |k: &str| jsonl::f64(&parsed.summary, &format!("{prefix}.{k}")).unwrap_or(f64::NAN);
        let n = jsonl::u64(&parsed.summary, &format!("{prefix}.count")).unwrap_or(0);
        (n, g("mean"), g("p50"), g("p90"))
    };
    let (n, mean, p50, p90) = hist("dcache.ratio");
    if n > 0 {
        w(format!(
            "  compressibility (dcache): {n} compressed fill(s), ratio mean {mean:.2} p50 {p50:.2} p90 {p90:.2}"
        ));
    } else {
        w("  compressibility (dcache): no compressed fills".to_string());
    }
    let (n, mean, _, p90) = hist("dcache.occupancy");
    w(format!(
        "  occupancy (dcache): mean {mean:.1} segment(s) in use, p90 {p90:.1} over {n} fill(s)"
    ));
    let (_, _, life_p50, life_p90) = hist("dcache.lifetime");
    let (_, _, dead_p50, _) = hist("dcache.dead_time");
    let (reuse_n, _, reuse_p50, _) = hist("dcache.reuse");
    w(format!(
        "  block lifetime (dcache): p50 {life_p50:.0} p90 {life_p90:.0} tick(s), dead time p50 {dead_p50:.0}, sampled reuse p50 {reuse_p50:.0} ({reuse_n} sample(s))"
    ));

    // Occupancy timeline: one glyph per (strided) snapshot, dcache
    // utilization summed over sets against the summary's segment bound.
    if !parsed.snapshots.is_empty() {
        let cap_per_set = jsonl::array(&parsed.summary, "dcache.occupancy.bounds")
            .ok()
            .and_then(|b| b.last())
            .and_then(Value::as_f64)
            .unwrap_or(1.0)
            .max(1.0);
        let stride = parsed.snapshots.len().div_ceil(TIMELINE_COLS);
        let line: String = parsed
            .snapshots
            .iter()
            .step_by(stride)
            .map(|snap| {
                let used: u64 = snap.dcache.iter().map(|s| u64::from(s.used_segments)).sum();
                utilization_glyph(used as f64 / (cap_per_set * snap.dcache.len().max(1) as f64))
            })
            .collect();
        w(format!(
            "  occupancy timeline ({} snapshot(s), 1 col = {} sample(s)): {line}",
            parsed.snapshots.len(),
            stride
        ));
    }

    // Per-cycle activity: boundary rows are cumulative, so consecutive
    // diffs give each power cycle's hit count.
    let per_cycle: Vec<u64> =
        parsed.cycles.windows(2).map(|pair| pair[1].dcache.hits - pair[0].dcache.hits).collect();
    if per_cycle.is_empty() {
        w("  1 boundary row (no power failure before completion)".to_string());
    } else {
        let min = per_cycle.iter().min().copied().unwrap_or(0);
        let max = per_cycle.iter().max().copied().unwrap_or(0);
        let mean = per_cycle.iter().sum::<u64>() as f64 / per_cycle.len() as f64;
        w(format!(
            "  per-cycle dcache hits over {} boundary row(s): min {min} / mean {mean:.0} / max {max}",
            parsed.cycles.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehs_cache::{CacheConfig, CacheProbe, EvictionReason, ProbeEviction, ProbeFill, ProbeHit};
    use ehs_compress::Algorithm;
    use ehs_model::CacheParams;
    use ehs_telemetry::jsonl::read_framed;

    fn sample_report() -> CachescopeReport {
        let cfg = CacheConfig::new(CacheParams::table1(), Algorithm::Bdi);
        let mut dcache = CachescopeAggregator::new(&cfg);
        for _ in 0..130 {
            dcache.on_hit(ProbeHit { set: 0, was_compressed: false, segments: 4, reuse: 1 });
        }
        dcache.on_fill(ProbeFill {
            set: 1,
            segments: 2,
            full_segments: 4,
            stored_compressed: true,
            used_after: 6,
            blocks_after: 3,
        });
        dcache.on_evict(ProbeEviction {
            set: 1,
            reason: EvictionReason::PowerLoss,
            segments: 2,
            was_compressed: true,
            lifetime: 40,
            idle: 3,
        });
        let icache = CachescopeAggregator::new(&cfg);
        let latency = LatencyAttribution {
            tag_cycles: 100,
            decompress_cycles: 10,
            nvm_cycles: 50,
            writeback_cycles: 20,
        };
        let mid = CycleScope {
            cycle: 0,
            icache: icache.counters(),
            dcache: ScopeCounters { hits: 60, ..dcache.counters() },
            latency: LatencyAttribution { tag_cycles: 40, ..Default::default() },
        };
        let end =
            CycleScope { cycle: 1, icache: icache.counters(), dcache: dcache.counters(), latency };
        let snap = OccupancySnapshot {
            inst_index: 512,
            cycle: 0,
            icache: vec![SetOccupancy { set: 0, used_segments: 4, blocks: vec![(4, false)] }],
            dcache: vec![SetOccupancy {
                set: 0,
                used_segments: 3,
                blocks: vec![(2, true), (1, true)],
            }],
        };
        CachescopeReport {
            algorithm: "BDI".into(),
            icache,
            dcache,
            latency,
            cycles: vec![mid, end],
            snapshots: vec![snap],
        }
    }

    fn labels() -> ScopeLabels {
        ScopeLabels::new("sha", "NVSRAMCache", "acc_kagura")
    }

    #[test]
    fn jsonl_round_trips_through_the_strict_parser() {
        let report = sample_report();
        let text = report_to_jsonl(&labels(), &report);
        let parsed = read_framed::<ParsedScope>(&text).expect("generated stream parses");
        assert_eq!(parsed.labels, labels());
        assert_eq!(parsed.algorithm, "BDI");
        assert_eq!(parsed.cycles, report.cycles);
        assert_eq!(parsed.snapshots, report.snapshots);
        assert_eq!(
            jsonl::u64(&parsed.summary, "dcache.counters.hits").unwrap(),
            report.dcache.counters.hits
        );
    }

    #[test]
    fn strict_parse_names_line_and_field() {
        let text = report_to_jsonl(&labels(), &sample_report());
        // Corrupt the second line (the first `cycle` row): a single-bit
        // flip turns `cycle` into `cycme` ('l' ^ 0x01 = 'm'), so the row
        // is valid JSON but the field is gone.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[1] = lines[1].replacen("\"cycle\":", "\"cycme\":", 1);
        let (line, err) = read_framed::<ParsedScope>(&lines.join("\n")).unwrap_err();
        assert_eq!(line, 2);
        assert!(err.contains("`cycle`"), "error must name the field: {err}");

        // A nested counter field mistyped inside the summary line.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let n = lines.len();
        lines[n - 1] = lines[n - 1].replacen("\"fills\":1", "\"fills\":\"one\"", 1);
        let (line, err) = read_framed::<ParsedScope>(&lines.join("\n")).unwrap_err();
        assert_eq!(line, n);
        assert!(err.contains("`dcache.counters.fills`"), "{err}");
    }

    #[test]
    fn report_covers_every_section() {
        let parsed =
            read_framed::<ParsedScope>(&report_to_jsonl(&labels(), &sample_report())).unwrap();
        let report = render_report(&parsed);
        assert!(report.contains("=== sha cachescope ==="));
        assert!(report.contains("BDI on NVSRAMCache under acc_kagura"));
        assert!(report.contains("130 hit(s)"));
        assert!(report.contains("0 capacity / 0 dead-block / 1 power-loss"));
        assert!(report.contains("180 cycle(s)"), "latency total: {report}");
        assert!(report.contains("compressibility (dcache): 1 compressed fill(s)"));
        assert!(report.contains("occupancy timeline (1 snapshot(s)"));
        assert!(report.contains("per-cycle dcache hits over 2 boundary row(s)"));
        assert!(report.contains("min 70 / mean 70 / max 70"), "{report}");
    }

    #[test]
    fn single_document_json_has_the_cell_fields() {
        let doc = report_to_json(&sample_report());
        assert_eq!(doc.get("algorithm").and_then(Value::as_str), Some("BDI"));
        assert_eq!(jsonl::u64(&doc, "dcache.counters.hits").unwrap(), 130);
        assert_eq!(jsonl::u64(&doc, "latency.nvm").unwrap(), 50);
        assert_eq!(jsonl::u64(&doc, "boundary_rows").unwrap(), 2);
        assert_eq!(jsonl::u64(&doc, "occupancy_snapshots").unwrap(), 1);
    }
}
