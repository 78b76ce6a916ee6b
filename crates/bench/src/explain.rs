//! `repro explain` — render per-app decision reports from the
//! flight-record streams dumped by `repro energy_waste --telemetry DIR`
//! or `simrun --flight-record FILE`.
//!
//! Every stream is read *strictly* through the shared
//! [`ehs_telemetry::jsonl`] readers: every line of every
//! `flight_<app>.jsonl` must be valid JSON and a well-formed [`Stamped`]
//! event, and a malformed line fails the whole command with a
//! `file:line` diagnostic naming the field. CI uses this as the
//! parse-back gate for the flight-record schema.

use std::path::Path;

use ehs_telemetry::{jsonl, Event, FlightRecord, Stamped};
use serde_json::Value;

use crate::fsutil::{discover_streams, parse_stream_file};

/// How many mode switches / threshold adjustments the timeline prints
/// before eliding the middle.
const TIMELINE_HEAD: usize = 10;

/// Strictly parses one flight-record JSONL file: anything that does not
/// decode through [`Stamped::decode`] is an error naming the file, the
/// 1-based line *and* the offending field (missing, mistyped, or
/// unknown kind).
pub fn parse_flight_file(path: &Path) -> Result<Vec<Stamped>, String> {
    parse_stream_file(path, |text| jsonl::read_records(text, Stamped::decode))
}

/// The flight records of a stream, in emission order.
fn flights(events: &[Stamped]) -> Vec<&FlightRecord> {
    events
        .iter()
        .filter_map(|s| match &s.event {
            Event::FlightRecord(r) => Some(r),
            _ => None,
        })
        .collect()
}

fn fmt_pj(pj: f64) -> String {
    if pj.abs() >= 1e6 {
        format!("{:.2} µJ", pj / 1e6)
    } else if pj.abs() >= 1e3 {
        format!("{:.2} nJ", pj / 1e3)
    } else {
        format!("{pj:.1} pJ")
    }
}

/// Renders the per-app decision report.
///
/// `waste_baseline` is the optional `(acc_wasted_pj, kagura_wasted_pj)`
/// pair from `energy_waste.json`, used for the recovered-vs-baseline
/// line; without it the report still renders everything derivable from
/// the stream alone.
pub fn render_report(app: &str, events: &[Stamped], waste_baseline: Option<(f64, f64)>) -> String {
    let mut out = String::new();
    let fr = flights(events);
    let mut w = |s: String| out.push_str(&(s + "\n"));

    w(format!("=== {app} ==="));
    let insts: u64 = fr.iter().map(|r| r.insts).sum();
    let mem_ops: u64 = fr.iter().map(|r| r.mem_ops).sum();
    w(format!("  {} power cycle(s), {insts} instruction(s), {mem_ops} memory op(s)", fr.len()));

    // Energy ledger roll-up: the audited conservation identity, summed.
    let harvested: f64 = fr.iter().map(|r| r.harvested_pj).sum();
    let consumed: f64 = fr
        .iter()
        .map(|r| {
            r.compress_pj
                + r.decompress_pj
                + r.cache_other_pj
                + r.memory_pj
                + r.checkpoint_restore_pj
                + r.other_pj
        })
        .sum();
    let delta: f64 = fr.iter().map(|r| r.delta_stored_pj).sum();
    let residual = harvested - consumed - delta;
    let violations =
        events.iter().filter(|s| matches!(s.event, Event::LedgerImbalance { .. })).count();
    w(format!(
        "  ledger: harvested {} = consumed {} + stored Δ{}  (residual {}, {} violation(s))",
        fmt_pj(harvested),
        fmt_pj(consumed),
        fmt_pj(delta),
        fmt_pj(residual),
        violations
    ));

    // Governor mode machine: residency at cycle end + switch timeline.
    let cm = fr.iter().filter(|r| r.mode == "CM").count();
    let rm = fr.iter().filter(|r| r.mode == "RM").count();
    let switches: Vec<&Stamped> =
        events.iter().filter(|s| matches!(s.event, Event::ModeSwitch { .. })).collect();
    if cm + rm > 0 {
        w(format!("  mode at cycle end: {cm} CM / {rm} RM; {} mode switch(es)", switches.len()));
        for s in switches.iter().take(TIMELINE_HEAD) {
            if let Event::ModeSwitch { cm_to_rm, registers: r } = &s.event {
                let arrow = if *cm_to_rm { "CM->RM" } else { "RM->CM" };
                w(format!(
                    "    t={:<10.1}us cycle {:<4} {arrow}  R_prev={} R_mem={} R_adjust={} R_thres={}",
                    s.t_us, s.cycle, r.r_prev, r.r_mem, r.r_adjust, r.r_thres
                ));
            }
        }
        if switches.len() > TIMELINE_HEAD {
            w(format!("    ... {} more switch(es)", switches.len() - TIMELINE_HEAD));
        }
    } else {
        w("  governor has no Kagura mode machine (no CM/RM telemetry)".to_string());
    }

    // AIMD R_thres trajectory.
    let adjusts: Vec<(u64, u64, u64)> = events
        .iter()
        .filter_map(|s| match s.event {
            Event::ThresholdAdjust { old, new, evicted } => Some((old, new, evicted)),
            _ => None,
        })
        .collect();
    if let (Some(first), Some(last)) = (adjusts.first(), adjusts.last()) {
        let lo = adjusts.iter().map(|&(_, n, _)| n).min().unwrap_or(0);
        let hi = adjusts.iter().map(|&(_, n, _)| n).max().unwrap_or(0);
        let path: Vec<String> = adjusts.iter().map(|&(_, n, _)| n.to_string()).collect();
        let shown = if path.len() > TIMELINE_HEAD {
            format!("{} ... {}", path[..TIMELINE_HEAD].join(" "), path[path.len() - 1])
        } else {
            path.join(" ")
        };
        w(format!(
            "  R_thres: {} -> {} over {} adjustment(s) (range {lo}..{hi}): {shown}",
            first.0,
            last.1,
            adjusts.len()
        ));
    }

    // Estimator accuracy from the per-cycle predicted/actual pair.
    let pairs: Vec<(u64, u64)> = fr
        .iter()
        .filter(|r| r.predicted_remaining > 0 || r.actual_remaining > 0)
        .map(|r| (r.predicted_remaining, r.actual_remaining))
        .collect();
    if !pairs.is_empty() {
        let mae = pairs.iter().map(|&(p, a)| (p as f64 - a as f64).abs()).sum::<f64>()
            / pairs.len() as f64;
        let mape = pairs
            .iter()
            .map(|&(p, a)| (p as f64 - a as f64).abs() / (a.max(1) as f64))
            .sum::<f64>()
            / pairs.len() as f64;
        w(format!(
            "  estimator: MAE {mae:.1} mem ops, MAPE {:.1}% over {} cycle(s)",
            mape * 100.0,
            pairs.len()
        ));
    }

    // Counterfactual waste attribution.
    let wasted: u64 = fr.iter().map(|r| r.wasted_fills).sum();
    let late: u64 = fr.iter().map(|r| r.late_compressions).sum();
    let wasted_pj: f64 = fr.iter().map(|r| r.wasted_pj).sum();
    let compress_pj: f64 = fr.iter().map(|r| r.compress_pj).sum();
    let frac = if compress_pj > 0.0 {
        format!("{:.1}% of compression energy", wasted_pj / compress_pj * 100.0)
    } else {
        "no compression energy spent".to_string()
    };
    w(format!(
        "  waste: {wasted} never-re-referenced fill(s) ({late} past the last useful one) = {} ({frac})",
        fmt_pj(wasted_pj)
    ));
    if let Some((acc_pj, kagura_pj)) = waste_baseline {
        let recovered = acc_pj - kagura_pj;
        let pct = if acc_pj > 0.0 {
            format!(" ({:.1}% of the ACC waste)", recovered / acc_pj * 100.0)
        } else {
            String::new()
        };
        w(format!(
            "  vs baseline: ACC wasted {}, +Kagura wasted {} -> recovered {}{pct}",
            fmt_pj(acc_pj),
            fmt_pj(kagura_pj),
            fmt_pj(recovered)
        ));
    }

    // Checkpoint traffic.
    let ckpt: u64 = fr.iter().map(|r| r.checkpoint_bytes).sum();
    w(format!("  checkpoints: {ckpt} byte(s) persisted across all cycles"));
    out
}

/// Looks up the `(acc_wasted_pj, kagura_wasted_pj)` baseline pair for
/// `app` on the canonical NVSRAMCache design inside a parsed
/// `energy_waste.json` document; `None` when absent or malformed (the
/// report degrades gracefully).
pub fn waste_baseline(doc: &Value, app: &str) -> Option<(f64, f64)> {
    let rows = jsonl::array(doc, "rows").ok()?;
    let row = rows.iter().find(|r| {
        jsonl::str(r, "app") == Ok(app) && jsonl::str(r, "design") == Ok("NVSRAMCache")
    })?;
    let cells = jsonl::array(row, "cells").ok()?;
    let wasted = |key: &str| {
        let cell = cells.iter().find(|c| jsonl::str(c, "governor") == Ok(key))?;
        jsonl::f64(cell, "wasted_pj").ok()
    };
    Some((wasted("acc")?, wasted("acc_kagura")?))
}

/// Entry point for `repro explain DIR`: parses every flight stream,
/// every cachescope stream and every leakscope stream under `dir`
/// strictly, renders one report per stream (plus the cross-cell leak
/// table when more than one leakscope cell is present), and returns the
/// number of streams rendered.
pub fn explain_dir(dir: &Path) -> Result<usize, String> {
    let files = discover_streams(dir, "flight_")?;
    let scopes = discover_streams(dir, "cachescope_")?;
    let leaks = discover_streams(dir, "leakscope_")?;
    if files.is_empty() && scopes.is_empty() && leaks.is_empty() {
        return Err(format!(
            "no flight_<app>.jsonl, cachescope_<app>.jsonl or leakscope_<cell>.jsonl under \
             {dir} (run `repro energy_waste --telemetry {dir}`, `repro cachescope --telemetry \
             {dir}` or `repro leakscope --telemetry {dir}` first)",
            dir = dir.display(),
        ));
    }
    // Optional baseline: present when the experiment's JSON landed in
    // the same directory (e.g. `--out DIR --telemetry DIR`).
    let baseline_doc = std::fs::read_to_string(dir.join("energy_waste.json"))
        .ok()
        .and_then(|t| serde_json::from_str(&t).ok());
    for (app, path) in &files {
        let events = parse_flight_file(path)?;
        let baseline = baseline_doc.as_ref().and_then(|d| waste_baseline(d, app));
        print!("{}", render_report(app, &events, baseline));
        println!();
    }
    for (_, path) in &scopes {
        let parsed = crate::cachescope::parse_cachescope_file(path)?;
        print!("{}", crate::cachescope::render_report(&parsed));
        println!();
    }
    let mut leak_cells = Vec::with_capacity(leaks.len());
    for (_, path) in &leaks {
        let parsed = crate::leakscope::parse_leakscope_file(path)?;
        print!("{}", crate::leakscope::render_leak_report(&parsed));
        println!();
        leak_cells.push(parsed);
    }
    if leak_cells.len() > 1 {
        print!("{}", crate::leakscope::render_leak_table(&leak_cells));
        println!();
    }
    Ok(files.len() + scopes.len() + leaks.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehs_telemetry::Registers;

    fn stream() -> Vec<Stamped> {
        vec![
            Stamped {
                t_us: 10.0,
                cycle: 0,
                event: Event::ModeSwitch {
                    cm_to_rm: true,
                    registers: Registers {
                        r_prev: 50,
                        r_mem: 40,
                        r_adjust: -3,
                        r_thres: 32,
                        r_evict: 2,
                    },
                },
            },
            Stamped {
                t_us: 11.0,
                cycle: 0,
                event: Event::ThresholdAdjust { old: 32, new: 35, evicted: 9 },
            },
            Stamped {
                t_us: 12.0,
                cycle: 0,
                event: Event::FlightRecord(FlightRecord {
                    insts: 1000,
                    mem_ops: 40,
                    predicted_remaining: 50,
                    actual_remaining: 40,
                    mode: "RM",
                    late_compressions: 2,
                    wasted_fills: 5,
                    wasted_pj: 50.0,
                    compress_pj: 200.0,
                    harvested_pj: 1000.0,
                    other_pj: 800.0,
                    delta_stored_pj: 0.0,
                    ..FlightRecord::default()
                }),
            },
        ]
    }

    fn to_text(events: &[Stamped]) -> String {
        jsonl::to_string(&events.iter().map(Stamped::to_value).collect::<Vec<_>>())
    }

    #[test]
    fn strict_parse_round_trips_a_valid_stream() {
        let dir = std::env::temp_dir().join("kagura_explain_ok");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight_sha.jsonl");
        std::fs::write(&path, to_text(&stream())).unwrap();
        let events = parse_flight_file(&path).expect("valid stream parses");
        assert_eq!(events, stream());
        let found = discover_streams(&dir, "flight_").unwrap();
        assert!(found.iter().any(|(app, _)| app == "sha"));
    }

    #[test]
    fn strict_parse_names_file_line_and_field() {
        let dir = std::env::temp_dir().join("kagura_explain_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight_gsm.jsonl");
        let parse = |text: String| {
            std::fs::write(&path, text).unwrap();
            parse_flight_file(&path).unwrap_err()
        };

        // A single-bit flip in a field name ('d' ^ 0x02 = 'f') leaves the
        // line valid JSON but the event missing `old`.
        let good = to_text(&stream());
        let flipped = good.replacen("\"old\":", "\"olf\":", 1);
        assert_ne!(good, flipped, "fixture must contain a ThresholdAdjust line");
        let err = parse(flipped);
        assert!(err.contains("flight_gsm.jsonl:2: missing field `old`"), "got {err}");

        // A record without its stamp names the first missing stamp field.
        let err = parse(format!("{good}{{\"kind\": \"FlightRecord\", \"t_us\": 1.0}}\n"));
        assert!(err.contains("flight_gsm.jsonl:4: missing field `cycle`"), "got {err}");

        // A write torn mid-line (e.g. a killed dump) is an invalid-JSON
        // error on that line.
        let lines: Vec<&str> = good.lines().collect();
        let err = parse(format!("{}\n{}\n{}", lines[0], lines[1], &lines[2][..lines[2].len() / 2]));
        assert!(err.contains("flight_gsm.jsonl:3: invalid JSON"), "got {err}");
    }

    #[test]
    fn report_covers_every_section() {
        let report = render_report("sha", &stream(), Some((120.0, 50.0)));
        assert!(report.contains("=== sha ==="));
        assert!(report.contains("1 power cycle(s), 1000 instruction(s), 40 memory op(s)"));
        assert!(report.contains("0 violation(s)"));
        assert!(report.contains("1 CM / 1 RM") || report.contains("0 CM / 1 RM"));
        assert!(report.contains("CM->RM"));
        assert!(report.contains("R_thres: 32 -> 35 over 1 adjustment(s)"));
        assert!(report.contains("MAE 10.0 mem ops"));
        assert!(report.contains("5 never-re-referenced fill(s) (2 past the last useful one)"));
        assert!(report.contains("25.0% of compression energy"));
        assert!(report.contains("recovered 70.0 pJ"), "baseline delta: {report}");
    }

    #[test]
    fn baseline_lookup_matches_the_energy_waste_schema() {
        use serde_json::json;
        let doc = json!({
            "rows": [json!({
                "app": "sha", "design": "NVSRAMCache",
                "cells": [
                    json!({"governor": "always", "wasted_pj": 300.0}),
                    json!({"governor": "acc", "wasted_pj": 120.0}),
                    json!({"governor": "acc_kagura", "wasted_pj": 50.0}),
                ],
            })],
        });
        assert_eq!(waste_baseline(&doc, "sha"), Some((120.0, 50.0)));
        assert_eq!(waste_baseline(&doc, "crc32"), None);
    }

    #[test]
    fn ledger_residual_is_zero_for_a_balanced_stream() {
        let report = render_report("sha", &stream(), None);
        // 1000 harvested = 200 compress + 800 other + 0 Δstored.
        assert!(report.contains("residual 0.0 pJ"), "{report}");
        assert!(!report.contains("vs baseline"), "no baseline section without data");
    }
}
