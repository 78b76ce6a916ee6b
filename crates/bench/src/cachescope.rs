//! Cachescope JSON adapters and report rendering.
//!
//! The sim crate deliberately has no serde dependency, so everything a
//! [`CachescopeReport`] needs to cross a process boundary lives here:
//! serialization to a single JSON document (experiment cells) or a JSONL
//! stream (one header line, one `cycle` line per power-cycle boundary,
//! one `snapshot` line per sampled occupancy map, one trailing
//! `summary`), a *strict* parser that names the offending line and field
//! on malformed input — CI's parse-back gate for the cachescope schema —
//! and the per-app text report `repro explain` prints.

use std::path::Path;

use ehs_cache::SetOccupancy;
use ehs_sim::{
    CachescopeAggregator, CachescopeReport, CycleScope, LatencyAttribution, OccupancySnapshot,
    ScopeCounters,
};
use ehs_telemetry::Histogram;
use serde_json::{json, Value};

/// Run identity carried in the stream header (the algorithm label rides
/// in the report itself).
#[derive(Debug, Clone, PartialEq, Eq)]
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
    lines.iter().map(|v| serde_json::to_string(v).expect("serializable") + "\n").collect()
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

/// Walks a dotted path (`"dcache.hits"`), so errors name the exact
/// nested field.
pub(crate) fn field<'a>(v: &'a Value, path: &str) -> Result<&'a Value, String> {
    let mut cur = v;
    for k in path.split('.') {
        cur = cur.get(k).ok_or_else(|| format!("missing field `{path}`"))?;
    }
    Ok(cur)
}

pub(crate) fn u(v: &Value, path: &str) -> Result<u64, String> {
    field(v, path)?.as_u64().ok_or_else(|| format!("field `{path}` is not an unsigned integer"))
}

pub(crate) fn f(v: &Value, path: &str) -> Result<f64, String> {
    field(v, path)?.as_f64().ok_or_else(|| format!("field `{path}` is not a number"))
}

pub(crate) fn s(v: &Value, path: &str) -> Result<String, String> {
    Ok(field(v, path)?
        .as_str()
        .ok_or_else(|| format!("field `{path}` is not a string"))?
        .to_string())
}

pub(crate) fn arr<'a>(v: &'a Value, path: &str) -> Result<&'a [Value], String> {
    field(v, path)?.as_array().ok_or_else(|| format!("field `{path}` is not an array"))
}

fn counters_from(v: &Value, prefix: &str) -> Result<ScopeCounters, String> {
    let key = |k: &str| format!("{prefix}.{k}");
    Ok(ScopeCounters {
        hits: u(v, &key("hits"))?,
        compressed_hits: u(v, &key("compressed_hits"))?,
        fills: u(v, &key("fills"))?,
        compressed_fills: u(v, &key("compressed_fills"))?,
        capacity_evictions: u(v, &key("capacity_evictions"))?,
        forced_evictions: u(v, &key("forced_evictions"))?,
        power_loss_evictions: u(v, &key("power_loss_evictions"))?,
    })
}

fn latency_from(v: &Value, prefix: &str) -> Result<LatencyAttribution, String> {
    let key = |k: &str| format!("{prefix}.{k}");
    Ok(LatencyAttribution {
        tag_cycles: u(v, &key("tag"))?,
        decompress_cycles: u(v, &key("decompress"))?,
        nvm_cycles: u(v, &key("nvm"))?,
        writeback_cycles: u(v, &key("writeback"))?,
    })
}

fn occupancy_from(v: &Value, prefix: &str) -> Result<Vec<SetOccupancy>, String> {
    let mut out = Vec::new();
    for (i, set) in arr(v, prefix)?.iter().enumerate() {
        let at = |k: &str| format!("{prefix}[{i}].{k}");
        let mut blocks = Vec::new();
        for (j, b) in arr(set, "blocks")
            .map_err(|_| format!("field `{}` is not an array", at("blocks")))?
            .iter()
            .enumerate()
        {
            let pair = b.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                format!("field `{}[{j}]` is not a [segments, compressed] pair", at("blocks"))
            })?;
            let segments = pair[0].as_u64().ok_or_else(|| {
                format!("field `{}[{j}][0]` is not an unsigned integer", at("blocks"))
            })?;
            let compressed = pair[1]
                .as_bool()
                .ok_or_else(|| format!("field `{}[{j}][1]` is not a boolean", at("blocks")))?;
            blocks.push((segments as u32, compressed));
        }
        out.push(SetOccupancy {
            set: u(set, "set")
                .map_err(|_| format!("field `{}` is missing or mistyped", at("set")))?
                as u32,
            used_segments: u(set, "used")
                .map_err(|_| format!("field `{}` is missing or mistyped", at("used")))?
                as u32,
            blocks,
        });
    }
    Ok(out)
}

/// Validates one aggregator object of a `summary` line (histogram shape
/// included), naming the offending field.
fn check_aggregator(v: &Value, prefix: &str) -> Result<(), String> {
    counters_from(v, &format!("{prefix}.counters"))?;
    for hist in ["occupancy", "ratio", "lifetime", "dead_time", "reuse"] {
        let key = |k: &str| format!("{prefix}.{hist}.{k}");
        u(v, &key("count"))?;
        f(v, &key("mean"))?;
        f(v, &key("p50"))?;
        f(v, &key("p90"))?;
        let bounds = arr(v, &key("bounds"))?;
        let counts = arr(v, &key("counts"))?;
        if counts.len() != bounds.len() + 1 {
            return Err(format!(
                "field `{}` must be one longer than `{}` ({} vs {})",
                key("counts"),
                key("bounds"),
                counts.len(),
                bounds.len()
            ));
        }
    }
    Ok(())
}

/// Strictly parses one cachescope JSONL stream; the error names the
/// 1-based line and the offending field.
pub fn parse_cachescope_str(text: &str) -> Result<ParsedScope, (usize, String)> {
    let mut header: Option<(ScopeLabels, String)> = None;
    let mut cycles = Vec::new();
    let mut snapshots = Vec::new();
    let mut summary: Option<Value> = None;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: String| (lineno, e);
        let v: Value = serde_json::from_str(line).map_err(|e| at(format!("invalid JSON: {e}")))?;
        if summary.is_some() {
            return Err(at("unexpected line after the `summary` line".into()));
        }
        let kind = s(&v, "kind").map_err(at)?;
        if header.is_none() && kind != "cachescope" {
            return Err(at(format!("first line must have kind `cachescope`, got `{kind}`")));
        }
        match kind.as_str() {
            "cachescope" => {
                if header.is_some() {
                    return Err(at("duplicate `cachescope` header line".into()));
                }
                let labels = ScopeLabels {
                    app: s(&v, "app").map_err(at)?,
                    design: s(&v, "design").map_err(at)?,
                    governor: s(&v, "governor").map_err(at)?,
                };
                header = Some((labels, s(&v, "algorithm").map_err(at)?));
            }
            "cycle" => cycles.push(CycleScope {
                cycle: u(&v, "cycle").map_err(at)?,
                icache: counters_from(&v, "icache").map_err(at)?,
                dcache: counters_from(&v, "dcache").map_err(at)?,
                latency: latency_from(&v, "latency").map_err(at)?,
            }),
            "snapshot" => snapshots.push(OccupancySnapshot {
                inst_index: u(&v, "inst_index").map_err(at)?,
                cycle: u(&v, "cycle").map_err(at)?,
                icache: occupancy_from(&v, "icache").map_err(at)?,
                dcache: occupancy_from(&v, "dcache").map_err(at)?,
            }),
            "summary" => {
                check_aggregator(&v, "icache").map_err(at)?;
                check_aggregator(&v, "dcache").map_err(at)?;
                latency_from(&v, "latency").map_err(at)?;
                summary = Some(v);
            }
            other => return Err(at(format!("unknown line kind `{other}`"))),
        }
    }
    let last = text.lines().count().max(1);
    let (labels, algorithm) =
        header.ok_or((last, "empty stream: missing `cachescope` header line".to_string()))?;
    let summary = summary.ok_or((last, "stream ended without a `summary` line".to_string()))?;
    if cycles.is_empty() {
        return Err((last, "stream has no `cycle` rows (the end-of-run row is mandatory)".into()));
    }
    Ok(ParsedScope { labels, algorithm, cycles, snapshots, summary })
}

/// [`parse_cachescope_str`] over a file, prefixing `file:line:`.
pub fn parse_cachescope_file(path: &Path) -> Result<ParsedScope, String> {
    crate::fsutil::parse_stream_file(path, parse_cachescope_str)
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
        let g = |k: &str| f(&parsed.summary, &format!("{prefix}.{k}")).unwrap_or(f64::NAN);
        (u(&parsed.summary, &format!("{prefix}.count")).unwrap_or(0), g("mean"), g("p50"), g("p90"))
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
        let cap_per_set = arr(&parsed.summary, "dcache.occupancy.bounds")
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
        let parsed = parse_cachescope_str(&text).expect("generated stream parses");
        assert_eq!(parsed.labels, labels());
        assert_eq!(parsed.algorithm, "BDI");
        assert_eq!(parsed.cycles, report.cycles);
        assert_eq!(parsed.snapshots, report.snapshots);
        assert_eq!(
            u(&parsed.summary, "dcache.counters.hits").unwrap(),
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
        let (line, err) = parse_cachescope_str(&lines.join("\n")).unwrap_err();
        assert_eq!(line, 2);
        assert!(err.contains("`cycle`"), "error must name the field: {err}");

        // Truncating a line mid-token is an invalid-JSON error on that line.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let cut = lines[2].len() / 2;
        lines[2].truncate(cut);
        let (line, err) = parse_cachescope_str(&lines.join("\n")).unwrap_err();
        assert_eq!(line, 3);
        assert!(err.contains("invalid JSON"), "{err}");

        // A nested counter field mistyped inside the summary line.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let n = lines.len();
        lines[n - 1] = lines[n - 1].replacen("\"fills\":1", "\"fills\":\"one\"", 1);
        let (line, err) = parse_cachescope_str(&lines.join("\n")).unwrap_err();
        assert_eq!(line, n);
        assert!(err.contains("`dcache.counters.fills`"), "{err}");
    }

    #[test]
    fn structural_defects_are_rejected() {
        let text = report_to_jsonl(&labels(), &sample_report());
        // Dropping the header: first line must be the header.
        let body: Vec<&str> = text.lines().skip(1).collect();
        let (_, err) = parse_cachescope_str(&body.join("\n")).unwrap_err();
        assert!(err.contains("first line"), "{err}");
        // Dropping the summary: incomplete stream.
        let n = text.lines().count();
        let head: Vec<&str> = text.lines().take(n - 1).collect();
        let (_, err) = parse_cachescope_str(&head.join("\n")).unwrap_err();
        assert!(err.contains("summary"), "{err}");
        // Unknown kind.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines.insert(1, "{\"kind\": \"mystery\"}".into());
        let (line, err) = parse_cachescope_str(&lines.join("\n")).unwrap_err();
        assert_eq!(line, 2);
        assert!(err.contains("unknown line kind `mystery`"), "{err}");
    }

    #[test]
    fn report_covers_every_section() {
        let parsed = parse_cachescope_str(&report_to_jsonl(&labels(), &sample_report())).unwrap();
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
        assert_eq!(u(&doc, "dcache.counters.hits").unwrap(), 130);
        assert_eq!(u(&doc, "latency.nvm").unwrap(), 50);
        assert_eq!(u(&doc, "boundary_rows").unwrap(), 2);
        assert_eq!(u(&doc, "occupancy_snapshots").unwrap(), 1);
    }
}
