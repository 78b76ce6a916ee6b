//! Leakscope JSON adapters and report rendering.
//!
//! The sim crate's [`CellAttackReport`] crosses process boundaries here:
//! serialization to a strict JSONL stream (one `leakscope` header, one
//! `probe` line per guess run, one `guess` line per recovered byte, one
//! trailing `summary`), a strict parser that names the offending line and
//! field on malformed input — mirroring the cachescope conventions CI's
//! parse-back gate enforces — and the text reports `repro explain`
//! prints: the per-cell guess timeline and the cross-cell
//! MI/guesses-to-recovery table.

use std::path::Path;

use ehs_sim::{CellAttackReport, GuessProbe};
use ehs_telemetry::AttackStats;
use serde_json::{json, Value};

use crate::cachescope::{arr, f, field, s, u, ScopeLabels};

/// Lowercase hex of a byte string.
pub fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Parses lowercase/uppercase hex into bytes; the error says what's wrong.
pub fn from_hex(text: &str) -> Result<Vec<u8>, String> {
    if !text.len().is_multiple_of(2) {
        return Err(format!("hex string has odd length {}", text.len()));
    }
    (0..text.len() / 2)
        .map(|i| {
            u8::from_str_radix(&text[2 * i..2 * i + 2], 16)
                .map_err(|_| format!("invalid hex at offset {}", 2 * i))
        })
        .collect()
}

fn i64_of(v: &Value, path: &str) -> Result<i64, String> {
    field(v, path)?.as_i64().ok_or_else(|| format!("field `{path}` is not an integer"))
}

fn bool_of(v: &Value, path: &str) -> Result<bool, String> {
    field(v, path)?.as_bool().ok_or_else(|| format!("field `{path}` is not a boolean"))
}

fn byte_of(v: &Value, path: &str) -> Result<u8, String> {
    let raw = u(v, path)?;
    u8::try_from(raw).map_err(|_| format!("field `{path}` does not fit in a byte ({raw})"))
}

fn stats_json(st: &AttackStats) -> Value {
    json!({
        "guesses": st.guesses,
        "probe_accesses": st.probe_accesses,
        "bytes_probed": st.bytes_probed,
        "retries": st.retries,
        "recovered_bytes": st.recovered_bytes,
        "secret_bytes": st.secret_bytes,
    })
}

/// The full attack report as a JSONL stream: `leakscope` header, `probe`
/// rows (the guess timeline), `guess` rows (recovered bytes), trailing
/// `summary`.
pub fn report_to_jsonl(labels: &ScopeLabels, report: &CellAttackReport) -> String {
    let mut lines: Vec<Value> =
        Vec::with_capacity(2 + report.probes.len() + report.recovered.len());
    lines.push(json!({
        "kind": "leakscope",
        "app": labels.app.clone(),
        "design": labels.design.clone(),
        "governor": labels.governor.clone(),
        "algorithm": report.algorithm.name(),
        "supported": report.supported,
        "secret": to_hex(&report.secret),
        "pad_family": report.pad_family,
    }));
    for p in &report.probes {
        lines.push(json!({
            "kind": "probe",
            "byte_index": p.byte_index,
            "guess": p.guess,
            "retry": p.retry,
            "latency": p.latency,
            "hit": p.hit,
            "occ_delta": p.occ_delta,
        }));
    }
    for (i, &b) in report.recovered.iter().enumerate() {
        lines.push(json!({ "kind": "guess", "byte_index": i, "value": b }));
    }
    let hists: Vec<Value> = report
        .histograms
        .iter()
        .map(|(secret, h)| {
            let bins: Vec<Value> = h.bins().map(|(l, c)| json!([l, c])).collect();
            json!({ "secret": secret, "bins": bins })
        })
        .collect();
    lines.push(json!({
        "kind": "summary",
        "stats": stats_json(&report.stats),
        "recovered": to_hex(&report.recovered),
        "mi_bits": report.mi_bits,
        "capacity_bits": report.capacity_bits,
        "mi_samples": report.mi_samples.len(),
        "histograms": hists,
    }));
    lines.iter().map(|v| serde_json::to_string(v).expect("serializable") + "\n").collect()
}

/// Atomically writes the JSONL stream for one cell.
pub fn write_jsonl(
    path: &Path,
    labels: &ScopeLabels,
    report: &CellAttackReport,
) -> std::io::Result<()> {
    crate::fsutil::atomic_write(path, report_to_jsonl(labels, report).as_bytes())
}

/// A strictly-parsed leakscope stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedLeak {
    /// Header identity (`app` carries the cell slug).
    pub labels: ScopeLabels,
    /// Compressor label from the header.
    pub algorithm: String,
    /// Whether an eviction-oracle layout calibrated at all.
    pub supported: bool,
    /// The planted secret.
    pub secret: Vec<u8>,
    /// Calibrated pad-family index, if any.
    pub pad_family: Option<u64>,
    /// Guess timeline, in stream order.
    pub probes: Vec<GuessProbe>,
    /// `(byte_index, value)` per recovered byte, in stream order.
    pub guesses: Vec<(u64, u8)>,
    /// Attack effort accounting from the summary.
    pub stats: AttackStats,
    /// Recovered bytes from the summary.
    pub recovered: Vec<u8>,
    /// Plug-in mutual information, bits.
    pub mi_bits: f64,
    /// Blahut–Arimoto channel capacity, bits.
    pub capacity_bits: f64,
    /// Number of `(secret, observable)` samples behind the estimates.
    pub mi_samples: u64,
    /// Per-secret-value latency histograms: `(secret, [(latency, count)])`.
    pub histograms: LeakHistograms,
}

fn probe_from(v: &Value) -> Result<GuessProbe, String> {
    Ok(GuessProbe {
        byte_index: byte_of(v, "byte_index")?,
        guess: byte_of(v, "guess")?,
        retry: u(v, "retry")? as u32,
        latency: u(v, "latency")?,
        hit: bool_of(v, "hit")?,
        occ_delta: i64_of(v, "occ_delta")?,
    })
}

fn stats_from(v: &Value) -> Result<AttackStats, String> {
    Ok(AttackStats {
        guesses: u(v, "stats.guesses")?,
        probe_accesses: u(v, "stats.probe_accesses")?,
        bytes_probed: u(v, "stats.bytes_probed")?,
        retries: u(v, "stats.retries")?,
        recovered_bytes: u(v, "stats.recovered_bytes")? as u32,
        secret_bytes: u(v, "stats.secret_bytes")? as u32,
    })
}

/// Parsed per-secret-value latency histograms: `(secret, [(latency, count)])`.
pub type LeakHistograms = Vec<(u64, Vec<(u64, u64)>)>;

fn histograms_from(v: &Value) -> Result<LeakHistograms, String> {
    let mut out = Vec::new();
    for (i, h) in arr(v, "histograms")?.iter().enumerate() {
        let secret = u(h, "secret").map_err(|_| format!("field `histograms[{i}].secret`"))?;
        let mut bins = Vec::new();
        for (j, b) in arr(h, "bins")
            .map_err(|_| format!("field `histograms[{i}].bins` is not an array"))?
            .iter()
            .enumerate()
        {
            let pair = b
                .as_array()
                .filter(|p| p.len() == 2)
                .and_then(|p| Some((p[0].as_u64()?, p[1].as_u64()?)))
                .ok_or_else(|| {
                    format!("field `histograms[{i}].bins[{j}]` is not a [latency, count] pair")
                })?;
            bins.push(pair);
        }
        out.push((secret, bins));
    }
    Ok(out)
}

/// Strictly parses one leakscope JSONL stream; the error names the
/// 1-based line and the offending field.
pub fn parse_leakscope_str(text: &str) -> Result<ParsedLeak, (usize, String)> {
    let mut parsed: Option<ParsedLeak> = None;
    let mut done = false;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: String| (lineno, e);
        let v: Value = serde_json::from_str(line).map_err(|e| at(format!("invalid JSON: {e}")))?;
        if done {
            return Err(at("unexpected line after the `summary` line".into()));
        }
        let kind = s(&v, "kind").map_err(at)?;
        if parsed.is_none() && kind != "leakscope" {
            return Err(at(format!("first line must have kind `leakscope`, got `{kind}`")));
        }
        match kind.as_str() {
            "leakscope" => {
                if parsed.is_some() {
                    return Err(at("duplicate `leakscope` header line".into()));
                }
                let pad_family = match field(&v, "pad_family").map_err(at)? {
                    Value::Null => None,
                    other => Some(other.as_u64().ok_or_else(|| {
                        at("field `pad_family` is not an unsigned integer or null".into())
                    })?),
                };
                parsed = Some(ParsedLeak {
                    labels: ScopeLabels {
                        app: s(&v, "app").map_err(at)?,
                        design: s(&v, "design").map_err(at)?,
                        governor: s(&v, "governor").map_err(at)?,
                    },
                    algorithm: s(&v, "algorithm").map_err(at)?,
                    supported: bool_of(&v, "supported").map_err(at)?,
                    secret: from_hex(&s(&v, "secret").map_err(at)?)
                        .map_err(|e| at(format!("field `secret`: {e}")))?,
                    pad_family,
                    probes: Vec::new(),
                    guesses: Vec::new(),
                    stats: AttackStats::default(),
                    recovered: Vec::new(),
                    mi_bits: 0.0,
                    capacity_bits: 0.0,
                    mi_samples: 0,
                    histograms: Vec::new(),
                });
            }
            "probe" => {
                let p = parsed.as_mut().expect("header precedes by construction");
                p.probes.push(probe_from(&v).map_err(at)?);
            }
            "guess" => {
                let p = parsed.as_mut().expect("header precedes by construction");
                p.guesses
                    .push((u(&v, "byte_index").map_err(at)?, byte_of(&v, "value").map_err(at)?));
            }
            "summary" => {
                let p = parsed.as_mut().expect("header precedes by construction");
                p.stats = stats_from(&v).map_err(at)?;
                p.recovered = from_hex(&s(&v, "recovered").map_err(at)?)
                    .map_err(|e| at(format!("field `recovered`: {e}")))?;
                p.mi_bits = f(&v, "mi_bits").map_err(at)?;
                p.capacity_bits = f(&v, "capacity_bits").map_err(at)?;
                p.mi_samples = u(&v, "mi_samples").map_err(at)?;
                p.histograms = histograms_from(&v).map_err(at)?;
                done = true;
            }
            other => return Err(at(format!("unknown line kind `{other}`"))),
        }
    }
    let last = text.lines().count().max(1);
    let parsed =
        parsed.ok_or((last, "empty stream: missing `leakscope` header line".to_string()))?;
    if !done {
        return Err((last, "stream ended without a `summary` line".to_string()));
    }
    if parsed.recovered.len() != parsed.guesses.len() {
        return Err((
            last,
            format!(
                "summary `recovered` has {} byte(s) but the stream has {} `guess` line(s)",
                parsed.recovered.len(),
                parsed.guesses.len()
            ),
        ));
    }
    Ok(parsed)
}

/// [`parse_leakscope_str`] over a file, prefixing `file:line:`.
pub fn parse_leakscope_file(path: &Path) -> Result<ParsedLeak, String> {
    crate::fsutil::parse_stream_file(path, parse_leakscope_str)
}

/// Renders one cell's attack report: outcome, guess timeline, channel
/// estimates, probe-latency split.
pub fn render_leak_report(parsed: &ParsedLeak) -> String {
    let mut out = String::new();
    let mut w = |s: String| out.push_str(&(s + "\n"));
    let p = &parsed.labels;
    w(format!("=== {} leakscope ===", p.app));
    w(format!("  run: {} on {} under {}", parsed.algorithm, p.design, p.governor));
    let st = &parsed.stats;
    let outcome = if !parsed.supported {
        "structurally immune (no eviction-oracle layout calibrates)".to_string()
    } else if st.recovered() {
        format!("SECRET RECOVERED {}/{} bytes", st.recovered_bytes, st.secret_bytes)
    } else {
        format!("partial recovery {}/{} bytes", st.recovered_bytes, st.secret_bytes)
    };
    w(format!("  attack: {outcome} (planted {})", to_hex(&parsed.secret)));
    w(format!(
        "  effort: {} guess run(s), {} retries, {} probe access(es), {} byte(s) probed",
        st.guesses, st.retries, st.probe_accesses, st.bytes_probed
    ));
    if !parsed.guesses.is_empty() {
        // Probes per byte index, so the timeline shows where sweeps stalled.
        let line: Vec<String> = parsed
            .guesses
            .iter()
            .map(|&(j, val)| {
                let probes =
                    parsed.probes.iter().filter(|pr| u64::from(pr.byte_index) == j).count();
                format!("[{j}]=0x{val:02x} ({probes} probe(s))")
            })
            .collect();
        w(format!("  guess timeline: {}", line.join(" ")));
    }
    w(format!(
        "  channel: MI {:.3} bit(s), capacity {:.3} bit(s) over {} sample(s)",
        parsed.mi_bits, parsed.capacity_bits, parsed.mi_samples
    ));
    // Global latency split across all per-secret histograms: attacker-visible
    // hit/miss separation in one line.
    let mut totals: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for (_, bins) in &parsed.histograms {
        for &(lat, n) in bins {
            *totals.entry(lat).or_insert(0) += n;
        }
    }
    if !totals.is_empty() {
        let split: Vec<String> = totals.iter().map(|(lat, n)| format!("{lat} cy ×{n}")).collect();
        w(format!(
            "  probe latencies ({} secret value(s)): {}",
            parsed.histograms.len(),
            split.join(", ")
        ));
    }
    out
}

/// The cross-cell table `repro explain` and the `leakscope` experiment
/// print: per (compressor, governor) MI, capacity and guesses-to-recovery.
pub fn render_leak_table(cells: &[ParsedLeak]) -> String {
    let mut out = String::new();
    out.push_str("leakscope cells (timing channel per compressor × governor):\n");
    out.push_str(&format!(
        "  {:<10} {:<14} {:>8} {:>8} {:>10} {:>8}  note\n",
        "algorithm", "governor", "MI", "capacity", "recovered", "guesses"
    ));
    for c in cells {
        let note = if !c.supported {
            "immune"
        } else if c.stats.recovered() {
            "RECOVERED"
        } else {
            "partial"
        };
        out.push_str(&format!(
            "  {:<10} {:<14} {:>8.3} {:>8.3} {:>10} {:>8}  {note}\n",
            c.algorithm,
            c.labels.governor,
            c.mi_bits,
            c.capacity_bits,
            format!("{}/{}", c.stats.recovered_bytes, c.stats.secret_bytes),
            c.stats.guesses,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehs_telemetry::LatencyHistogram;

    fn sample_report() -> CellAttackReport {
        let mut hist = LatencyHistogram::default();
        hist.record(2);
        hist.record(13);
        hist.record(13);
        CellAttackReport {
            algorithm: ehs_compress::Algorithm::CPack,
            governor: "always",
            supported: true,
            pad_family: Some(2),
            filler: Some([1, 2, 3, 4, 5, 6, 7, 8]),
            secret: [0x2A, 0x07, 0x11, 0x5C, 0x3D, 0x66, 0x08, 0x4B],
            recovered: vec![0x2A, 0x07],
            stats: AttackStats {
                guesses: 300,
                probe_accesses: 1800,
                bytes_probed: 57600,
                retries: 1,
                recovered_bytes: 2,
                secret_bytes: 8,
            },
            probes: vec![
                GuessProbe {
                    byte_index: 0,
                    guess: 0,
                    retry: 0,
                    latency: 13,
                    hit: false,
                    occ_delta: 2,
                },
                GuessProbe {
                    byte_index: 0,
                    guess: 42,
                    retry: 0,
                    latency: 2,
                    hit: true,
                    occ_delta: 0,
                },
                GuessProbe {
                    byte_index: 1,
                    guess: 7,
                    retry: 0,
                    latency: 2,
                    hit: true,
                    occ_delta: 0,
                },
            ],
            mi_bits: 3.5,
            capacity_bits: 3.75,
            mi_samples: vec![(0, 0), (1, 1)],
            histograms: vec![(0x18, hist)],
        }
    }

    fn labels() -> ScopeLabels {
        ScopeLabels::new("cpack_always", "NVSRAMCache", "always")
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        assert_eq!(to_hex(&[0x00, 0xAB, 0x7F]), "00ab7f");
        assert_eq!(from_hex("00ab7f").unwrap(), vec![0x00, 0xAB, 0x7F]);
        assert!(from_hex("abc").unwrap_err().contains("odd length"));
        assert!(from_hex("zz").unwrap_err().contains("offset 0"));
    }

    #[test]
    fn jsonl_round_trips_through_the_strict_parser() {
        let report = sample_report();
        let text = report_to_jsonl(&labels(), &report);
        let parsed = parse_leakscope_str(&text).expect("generated stream parses");
        assert_eq!(parsed.labels, labels());
        assert_eq!(parsed.algorithm, "C-Pack");
        assert!(parsed.supported);
        assert_eq!(parsed.pad_family, Some(2));
        assert_eq!(parsed.secret, report.secret.to_vec());
        assert_eq!(parsed.probes, report.probes);
        assert_eq!(parsed.guesses, vec![(0, 0x2A), (1, 0x07)]);
        assert_eq!(parsed.stats, report.stats);
        assert_eq!(parsed.recovered, report.recovered);
        assert_eq!(parsed.mi_bits, 3.5);
        assert_eq!(parsed.mi_samples, 2);
        assert_eq!(parsed.histograms, vec![(0x18, vec![(2, 1), (13, 2)])]);
    }

    #[test]
    fn strict_parse_names_line_and_field() {
        let text = report_to_jsonl(&labels(), &sample_report());
        // Corrupt a probe row: drop its `latency` field name.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[1] = lines[1].replacen("\"latency\":", "\"lateness\":", 1);
        let (line, err) = parse_leakscope_str(&lines.join("\n")).unwrap_err();
        assert_eq!(line, 2);
        assert!(err.contains("`latency`"), "error must name the field: {err}");

        // Mistype a nested stats field in the summary.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let n = lines.len();
        lines[n - 1] = lines[n - 1].replacen("\"guesses\":300", "\"guesses\":\"many\"", 1);
        let (line, err) = parse_leakscope_str(&lines.join("\n")).unwrap_err();
        assert_eq!(line, n);
        assert!(err.contains("`stats.guesses`"), "{err}");

        // Truncation mid-token is an invalid-JSON error on that line.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let cut = lines[2].len() / 2;
        lines[2].truncate(cut);
        let (line, err) = parse_leakscope_str(&lines.join("\n")).unwrap_err();
        assert_eq!(line, 3);
        assert!(err.contains("invalid JSON"), "{err}");
    }

    #[test]
    fn structural_defects_are_rejected() {
        let text = report_to_jsonl(&labels(), &sample_report());
        // Missing header.
        let body: Vec<&str> = text.lines().skip(1).collect();
        let (_, err) = parse_leakscope_str(&body.join("\n")).unwrap_err();
        assert!(err.contains("first line"), "{err}");
        // Missing summary.
        let n = text.lines().count();
        let head: Vec<&str> = text.lines().take(n - 1).collect();
        let (_, err) = parse_leakscope_str(&head.join("\n")).unwrap_err();
        assert!(err.contains("summary"), "{err}");
        // A guess line the summary's `recovered` does not account for.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines.insert(n - 1, "{\"kind\":\"guess\",\"byte_index\":2,\"value\":9}".into());
        let (_, err) = parse_leakscope_str(&lines.join("\n")).unwrap_err();
        assert!(err.contains("`guess` line"), "{err}");
        // Unknown kind.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines.insert(1, "{\"kind\": \"mystery\"}".into());
        let (line, err) = parse_leakscope_str(&lines.join("\n")).unwrap_err();
        assert_eq!(line, 2);
        assert!(err.contains("unknown line kind `mystery`"), "{err}");
    }

    #[test]
    fn reports_cover_outcome_timeline_and_channel() {
        let parsed = parse_leakscope_str(&report_to_jsonl(&labels(), &sample_report())).unwrap();
        let text = render_leak_report(&parsed);
        assert!(text.contains("=== cpack_always leakscope ==="));
        assert!(text.contains("C-Pack on NVSRAMCache under always"));
        assert!(text.contains("partial recovery 2/8 bytes"));
        assert!(text.contains("[0]=0x2a (2 probe(s)) [1]=0x07 (1 probe(s))"));
        assert!(text.contains("MI 3.500 bit(s), capacity 3.750 bit(s) over 2 sample(s)"));
        assert!(text.contains("2 cy ×1, 13 cy ×2"), "{text}");

        let table = render_leak_table(std::slice::from_ref(&parsed));
        assert!(table.contains("C-Pack"));
        assert!(table.contains("partial"));
        assert!(table.contains("2/8"));
    }
}
