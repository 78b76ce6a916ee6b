//! Counterfactual waste attribution: compression energy spent on blocks
//! that were never re-referenced before the outage.
//!
//! Every power cycle the flight recorder (see `ehs-sim`'s
//! [`ehs_telemetry::Event::FlightRecord`]) reports how many compressed
//! fills went unused and what their compression energy cost. Summed over
//! a run, that is the energy an oracle would not have spent — the
//! population Kagura's mode machine tries to shrink by switching to
//! regular mode when few memory operations remain. This experiment runs
//! the counterfactual grid (every EHS design × always-compress / ACC /
//! ACC+Kagura) and reports the waste fraction per cell plus how much of
//! the ACC waste Kagura recovers.

use ehs_sim::{runner::default_trace, EhsDesign, GovernorSpec, SimStats, Simulator};
use ehs_telemetry::{Event, Stamped, VecSink};
use ehs_workloads::App;
use kagura_core::KaguraConfig;
use serde_json::{json, Value};

use super::{cfg, mean_defined};
use crate::{parallel_map, print_table, ExpContext};

/// Governor columns of the counterfactual grid, in report order.
fn governors() -> [GovernorSpec; 3] {
    [
        GovernorSpec::AlwaysCompress,
        GovernorSpec::Acc,
        GovernorSpec::AccKagura(KaguraConfig::default()),
    ]
}

/// Short JSON/report keys matching [`governors`] order.
const GOV_KEYS: [&str; 3] = ["always", "acc", "acc_kagura"];

/// Per-run waste totals folded from the flight-record stream.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct WasteTotals {
    /// Power cycles that produced a flight record.
    cycles: u64,
    /// Compressed fills never re-referenced before their outage.
    wasted_fills: u64,
    /// Wasted fills after the last useful one (an ideal switch-off
    /// point would have avoided exactly these).
    late_compressions: u64,
    /// Compression energy spent on the wasted fills (pJ).
    wasted_pj: f64,
    /// Total compression energy (pJ) — the waste-fraction denominator.
    compress_pj: f64,
}

impl WasteTotals {
    /// Wasted fraction of all compression energy; NaN when the run
    /// compressed nothing (→ `null` in JSON, `n/a` in the table).
    fn waste_frac(&self) -> f64 {
        if self.compress_pj > 0.0 {
            self.wasted_pj / self.compress_pj
        } else {
            f64::NAN
        }
    }
}

/// Folds the flight records of one run into its waste totals.
fn fold_flights(events: &[Stamped]) -> WasteTotals {
    let mut t = WasteTotals::default();
    for s in events {
        if let Event::FlightRecord(r) = &s.event {
            t.cycles += 1;
            t.wasted_fills += r.wasted_fills;
            t.late_compressions += r.late_compressions;
            t.wasted_pj += r.wasted_pj;
            t.compress_pj += r.compress_pj;
        }
    }
    t
}

fn fmt_frac(f: f64) -> String {
    if f.is_finite() {
        format!("{:.1}%", f * 100.0)
    } else {
        "n/a".into()
    }
}

/// The counterfactual waste-attribution grid (tentpole part 3): wasted
/// compression energy per design × governor, with flight-record streams
/// dumped under `--telemetry DIR` for `repro explain`.
pub fn energy_waste(ctx: &ExpContext) -> Value {
    println!(
        "Energy waste: compression energy on never-re-referenced blocks (per design x governor)"
    );
    let jobs: Vec<(App, EhsDesign, usize)> = ctx
        .sens_apps
        .iter()
        .flat_map(|&app| {
            EhsDesign::ALL.iter().flat_map(move |&design| (0..3).map(move |g| (app, design, g)))
        })
        .collect();
    // The canonical cell whose raw stream `repro explain` reads.
    let canonical = |design: EhsDesign, g: usize| design == EhsDesign::NvsramCache && g == 2;
    type RunOut = (SimStats, WasteTotals, Option<Vec<Stamped>>);
    let runs: Vec<RunOut> = parallel_map(jobs.clone(), |&(app, design, g)| {
        let mut config = cfg(governors()[g]).with_design(design);
        config.audit_strict |= ctx.audit_strict;
        let (program, trace) = (app.build(ctx.scale), default_trace(&config));
        let mut sink = VecSink::new();
        let mut sim = Simulator::new(config, &program, &trace);
        sim.attach_telemetry(&mut sink);
        let stats = sim.run_observed().stats;
        let events = sink.into_events();
        let totals = fold_flights(&events);
        (stats, totals, canonical(design, g).then_some(events))
    });
    for (stats, _, _) in &runs {
        ctx.add_cell_stats(stats);
    }

    if let Some(dir) = &ctx.telemetry_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        for ((app, _, _), (_, _, events)) in jobs.iter().zip(&runs) {
            let Some(events) = events else { continue };
            let path = dir.join(format!("flight_{}.jsonl", app.name()));
            let lines: String = events
                .iter()
                .filter(|s| s.event.flight_relevant())
                .map(|s| serde_json::to_string(&s.to_value()).expect("serializable") + "\n")
                .collect();
            crate::fsutil::atomic_write(&path, lines.as_bytes())
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
        println!("  [flight records under {} — render with `repro explain`]", dir.display());
    }

    // Regroup the flat run list into (app, design) rows of three
    // governor cells each, preserving submission order.
    let mut rows = Vec::new();
    let mut out_rows = Vec::new();
    let mut frac_by_gov = vec![Vec::new(); 3];
    for (job_row, cells) in jobs.chunks(3).zip(runs.chunks(3)) {
        let (app, design, _) = job_row[0];
        let totals: Vec<WasteTotals> = cells.iter().map(|(_, t, _)| *t).collect();
        // Energy the mode machine recovered: ACC waste minus Kagura waste.
        let recovered_pj = totals[1].wasted_pj - totals[2].wasted_pj;
        rows.push(vec![
            app.name().to_string(),
            design.name().to_string(),
            fmt_frac(totals[0].waste_frac()),
            fmt_frac(totals[1].waste_frac()),
            fmt_frac(totals[2].waste_frac()),
            format!("{recovered_pj:.0}"),
            totals[2].cycles.to_string(),
        ]);
        let mut cells_json = Vec::new();
        for (key, t) in GOV_KEYS.iter().zip(&totals) {
            cells_json.push(json!({
                "governor": *key,
                "cycles": t.cycles,
                "wasted_fills": t.wasted_fills,
                "late_compressions": t.late_compressions,
                "wasted_pj": t.wasted_pj,
                "compress_pj": t.compress_pj,
                "waste_frac": t.waste_frac(),
            }));
        }
        out_rows.push(json!({
            "app": app.name(),
            "design": design.name(),
            "cells": Value::Array(cells_json),
            "kagura_recovered_pj": recovered_pj,
        }));
        for (slot, t) in totals.iter().enumerate() {
            if t.waste_frac().is_finite() {
                frac_by_gov[slot].push(t.waste_frac());
            }
        }
    }
    print_table(
        &["app", "design", "waste always", "waste ACC", "waste +Kagura", "recovered pJ", "cycles"],
        &rows,
    );
    let means: Vec<Value> = GOV_KEYS
        .iter()
        .zip(&frac_by_gov)
        .map(|(&key, f)| json!({ "governor": key, "mean_waste_frac": mean_defined(f) }))
        .collect();
    for mv in &means {
        if let (Some(k), Some(m)) = (mv.get("governor"), mv.get("mean_waste_frac")) {
            println!(
                "  mean waste fraction {}: {}",
                k.as_str().unwrap_or("?"),
                fmt_frac(m.as_f64().unwrap_or(f64::NAN))
            );
        }
    }
    println!("  (Kagura's claim: the +Kagura column should recover most of the ACC waste)");
    let out = json!({
        "experiment": "energy_waste",
        "rows": out_rows,
        "mean_waste_frac": means,
    });
    ctx.save("energy_waste", &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehs_telemetry::FlightRecord;

    fn flight(wasted_fills: u64, late: u64, wasted_pj: f64, compress_pj: f64) -> Stamped {
        let r = FlightRecord {
            wasted_fills,
            late_compressions: late,
            wasted_pj,
            compress_pj,
            ..FlightRecord::default()
        };
        Stamped { t_us: 1.0, cycle: 0, event: Event::FlightRecord(r) }
    }

    #[test]
    fn fold_sums_flight_records_and_ignores_the_rest() {
        let events = vec![
            flight(3, 1, 30.0, 100.0),
            Stamped { t_us: 2.0, cycle: 1, event: Event::Reboot { charge_us: 3.5, voltage: 2.0 } },
            flight(2, 2, 20.0, 50.0),
        ];
        let t = fold_flights(&events);
        assert_eq!(t.cycles, 2);
        assert_eq!(t.wasted_fills, 5);
        assert_eq!(t.late_compressions, 3);
        assert!((t.wasted_pj - 50.0).abs() < 1e-12);
        assert!((t.compress_pj - 150.0).abs() < 1e-12);
        assert!((t.waste_frac() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn waste_fraction_of_compressionless_run_is_undefined() {
        let t = fold_flights(&[]);
        assert_eq!(t.cycles, 0);
        assert!(t.waste_frac().is_nan(), "no compression -> n/a, not 0%");
    }

    #[test]
    fn governor_columns_match_their_keys() {
        let govs = governors();
        assert_eq!(govs.len(), GOV_KEYS.len());
        assert!(matches!(govs[0], GovernorSpec::AlwaysCompress));
        assert!(matches!(govs[1], GovernorSpec::Acc));
        assert!(matches!(govs[2], GovernorSpec::AccKagura(_)));
    }
}
