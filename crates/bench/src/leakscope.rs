//! Leakscope JSON adapters and report rendering.
//!
//! The sim crate's [`CellAttackReport`] crosses process boundaries here:
//! serialization to a strict JSONL stream (one `leakscope` header, one
//! `probe` line per guess run, one `guess` line per recovered byte, one
//! trailing `summary`), its per-kind field mapping for the shared strict
//! reader ([`ehs_telemetry::jsonl::read_framed`], the same one
//! cachescope and `fleet.jsonl` use), and the text reports `repro
//! explain` prints: the per-cell guess timeline and the cross-cell
//! MI/guesses-to-recovery table.

use std::path::Path;

use ehs_sim::{CellAttackReport, GuessProbe};
use ehs_telemetry::jsonl::{self, Framed};
use ehs_telemetry::AttackStats;
use serde_json::{json, Value};

use crate::cachescope::ScopeLabels;

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

fn byte_of(v: &Value, path: &str) -> Result<u8, String> {
    let raw = jsonl::u64(v, path)?;
    u8::try_from(raw).map_err(|_| format!("field `{path}` does not fit in a byte ({raw})"))
}

fn hex_of(v: &Value, path: &str) -> Result<Vec<u8>, String> {
    from_hex(jsonl::str(v, path)?).map_err(|e| format!("field `{path}`: {e}"))
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
    jsonl::to_string(&lines)
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
#[derive(Debug, Clone, Default, PartialEq)]
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
        retry: jsonl::u64(v, "retry")? as u32,
        latency: jsonl::u64(v, "latency")?,
        hit: jsonl::bool(v, "hit")?,
        occ_delta: jsonl::i64(v, "occ_delta")?,
    })
}

fn stats_from(st: &Value) -> Result<AttackStats, String> {
    let u = |k: &str| jsonl::u64(st, k);
    Ok(AttackStats {
        guesses: u("guesses")?,
        probe_accesses: u("probe_accesses")?,
        bytes_probed: u("bytes_probed")?,
        retries: u("retries")?,
        recovered_bytes: u("recovered_bytes")? as u32,
        secret_bytes: u("secret_bytes")? as u32,
    })
}

/// Parsed per-secret-value latency histograms: `(secret, [(latency, count)])`.
pub type LeakHistograms = Vec<(u64, Vec<(u64, u64)>)>;

fn histograms_from(v: &Value) -> Result<LeakHistograms, String> {
    jsonl::items(v, "histograms", |h| {
        let bins = jsonl::items(h, "bins", |pair| match jsonl::u64s(pair, "")?[..] {
            [latency, count] => Ok((latency, count)),
            _ => Err("not a [latency, count] pair".into()),
        })?;
        Ok((jsonl::u64(h, "secret")?, bins))
    })
}

impl Framed for ParsedLeak {
    const HEADER: &'static str = "leakscope";
    const RECORDS: &'static [&'static str] = &["probe", "guess"];

    fn header(v: &Value) -> Result<Self, String> {
        Ok(ParsedLeak {
            labels: ScopeLabels::from_header(v)?,
            algorithm: jsonl::str(v, "algorithm")?.to_string(),
            supported: jsonl::bool(v, "supported")?,
            secret: hex_of(v, "secret")?,
            pad_family: jsonl::nullable(v, "pad_family", jsonl::u64)?,
            ..ParsedLeak::default()
        })
    }

    fn record(&mut self, kind: &str, v: &Value) -> Result<(), String> {
        match kind {
            "probe" => self.probes.push(probe_from(v)?),
            "guess" => self.guesses.push((jsonl::u64(v, "byte_index")?, byte_of(v, "value")?)),
            _ => unreachable!("the reader passes only RECORDS kinds"),
        }
        Ok(())
    }

    fn summary(&mut self, v: &Value) -> Result<(), String> {
        self.stats = jsonl::nested(v, "stats", stats_from)?;
        self.recovered = hex_of(v, "recovered")?;
        self.mi_bits = jsonl::f64(v, "mi_bits")?;
        self.capacity_bits = jsonl::f64(v, "capacity_bits")?;
        self.mi_samples = jsonl::u64(v, "mi_samples")?;
        self.histograms = histograms_from(v)?;
        Ok(())
    }

    fn check(&self) -> Result<(), String> {
        if self.recovered.len() != self.guesses.len() {
            return Err(format!(
                "summary `recovered` has {} byte(s) but the stream has {} `guess` line(s)",
                self.recovered.len(),
                self.guesses.len()
            ));
        }
        Ok(())
    }
}

/// Strictly parses one leakscope JSONL file; the error names the file,
/// the 1-based line and the offending field.
pub fn parse_leakscope_file(path: &Path) -> Result<ParsedLeak, String> {
    crate::fsutil::parse_stream_file(path, jsonl::read_framed)
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
    use ehs_telemetry::jsonl::read_framed;
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
        let parsed = read_framed::<ParsedLeak>(&text).expect("generated stream parses");
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
        let (line, err) = read_framed::<ParsedLeak>(&lines.join("\n")).unwrap_err();
        assert_eq!(line, 2);
        assert!(err.contains("`latency`"), "error must name the field: {err}");

        // Mistype a nested stats field in the summary.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let n = lines.len();
        lines[n - 1] = lines[n - 1].replacen("\"guesses\":300", "\"guesses\":\"many\"", 1);
        let (line, err) = read_framed::<ParsedLeak>(&lines.join("\n")).unwrap_err();
        assert_eq!(line, n);
        assert!(err.contains("`stats.guesses`"), "{err}");
    }

    #[test]
    fn unaccounted_guess_line_is_rejected() {
        let text = report_to_jsonl(&labels(), &sample_report());
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let n = lines.len();
        lines.insert(n - 1, "{\"kind\":\"guess\",\"byte_index\":2,\"value\":9}".into());
        let (line, err) = read_framed::<ParsedLeak>(&lines.join("\n")).unwrap_err();
        assert_eq!(line, n + 1);
        assert!(err.contains("`guess` line"), "{err}");
    }

    #[test]
    fn reports_cover_outcome_timeline_and_channel() {
        let parsed =
            read_framed::<ParsedLeak>(&report_to_jsonl(&labels(), &sample_report())).unwrap();
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
