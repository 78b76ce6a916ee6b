//! Estimator-accuracy report: how well Kagura's `N_remain` estimators
//! predict the memory operations actually left in a power cycle.
//!
//! At every power failure the controller has just compared its prediction
//! `R_prev` against the oracle answer `R_mem` (the memory operations the
//! dying cycle really committed); with telemetry attached that comparison
//! is emitted as an [`ehs_telemetry::Event::EstimatorSample`]. This
//! experiment replays that stream for the simple and sophisticated
//! estimators (paper §VI-A) and reports per-app prediction error.

use ehs_sim::{runner::default_trace, GovernorSpec, SimConfig, Simulator};
use ehs_telemetry::{Event, Stamped, VecSink};
use ehs_workloads::App;
use kagura_core::{EstimatorKind, KaguraConfig};
use serde_json::{json, Value};

use super::{cfg, mean_defined};
use crate::{parallel_map, print_table, ExpContext};

/// `(prediction, oracle)` pairs pulled from one run's event stream.
fn sample_pairs(events: &[Stamped]) -> Vec<(u64, u64)> {
    events
        .iter()
        .filter_map(|s| match s.event {
            Event::EstimatorSample { predicted_remaining, actual_remaining } => {
                Some((predicted_remaining, actual_remaining))
            }
            _ => None,
        })
        .collect()
}

/// Accuracy summary of one `app × estimator` run.
struct Accuracy {
    n_samples: usize,
    /// Mean |predicted − actual| in memory operations.
    mae: f64,
    /// Mean |predicted − actual| / max(actual, 1), as a percentage.
    mape_pct: f64,
    /// Fraction of samples whose relative error is below 20 % — the same
    /// consistency yardstick the paper applies in Fig 12.
    within_20: f64,
}

fn accuracy(pairs: &[(u64, u64)]) -> Accuracy {
    let rel_errs: Vec<f64> =
        pairs.iter().map(|&(p, a)| (p as f64 - a as f64).abs() / (a.max(1) as f64)).collect();
    let abs_errs: Vec<f64> = pairs.iter().map(|&(p, a)| (p as f64 - a as f64).abs()).collect();
    let within = if pairs.is_empty() {
        f64::NAN
    } else {
        rel_errs.iter().filter(|&&e| e < 0.20).count() as f64 / pairs.len() as f64
    };
    Accuracy {
        n_samples: pairs.len(),
        mae: mean_defined(&abs_errs),
        mape_pct: mean_defined(&rel_errs) * 100.0,
        within_20: within,
    }
}

/// The headline telemetry experiment: per-app prediction error of the
/// simple vs sophisticated `N_remain` estimator against the oracle.
pub fn estimator_accuracy(ctx: &ExpContext) -> Value {
    println!("Estimator accuracy: N_remain prediction error vs oracle (per power failure)");
    let kinds =
        [(EstimatorKind::Simple, "simple"), (EstimatorKind::Sophisticated, "sophisticated")];
    let jobs: Vec<(App, EstimatorKind, &'static str)> =
        ctx.sens_apps.iter().flat_map(|&app| kinds.map(|(k, l)| (app, k, l))).collect();
    let streams: Vec<(App, &'static str, Vec<Stamped>)> =
        parallel_map(jobs, |&(app, estimator, label)| {
            let kcfg = KaguraConfig { estimator, ..Default::default() };
            let config: SimConfig = cfg(GovernorSpec::AccKagura(kcfg));
            let (program, trace) = (app.build(ctx.scale), default_trace(&config));
            let mut sink = VecSink::new();
            let mut sim = Simulator::new(config, &program, &trace);
            sim.attach_telemetry(&mut sink);
            sim.run_observed();
            (app, label, sink.into_events())
        });

    if let Some(dir) = &ctx.telemetry_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        for (app, label, events) in &streams {
            let path = dir.join(format!("estimator_{}_{label}.jsonl", app.name()));
            let lines: String = events
                .iter()
                .filter(|s| matches!(s.event, Event::EstimatorSample { .. }))
                .map(|s| serde_json::to_string(&s.to_value()).expect("serializable") + "\n")
                .collect();
            crate::fsutil::atomic_write(&path, lines.as_bytes())
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
        println!("  [estimator sample streams under {}]", dir.display());
    }

    let mut rows = Vec::new();
    let mut out_rows = Vec::new();
    let mut mape_by_kind = vec![Vec::new(); kinds.len()];
    for (app, label, events) in &streams {
        let acc = accuracy(&sample_pairs(events));
        rows.push(vec![
            app.name().to_string(),
            label.to_string(),
            acc.n_samples.to_string(),
            format!("{:.1}", acc.mae),
            format!("{:.2}%", acc.mape_pct),
            format!("{:.1}%", acc.within_20 * 100.0),
        ]);
        out_rows.push(json!({
            "app": app.name(), "estimator": *label, "n_samples": acc.n_samples,
            "mae": acc.mae, "mape_pct": acc.mape_pct, "within_20_frac": acc.within_20,
        }));
        let slot = kinds.iter().position(|&(_, l)| l == *label).expect("known estimator");
        if acc.mape_pct.is_finite() {
            mape_by_kind[slot].push(acc.mape_pct);
        }
    }
    print_table(&["app", "estimator", "samples", "MAE", "MAPE", "<20% err"], &rows);
    let means: Vec<Value> = kinds
        .iter()
        .zip(&mape_by_kind)
        .map(|(&(_, label), m)| json!({ "estimator": label, "mean_mape_pct": mean_defined(m) }))
        .collect();
    for mv in &means {
        if let (Some(l), Some(m)) = (mv.get("estimator"), mv.get("mean_mape_pct")) {
            println!(
                "  mean MAPE {}: {:.2}%",
                l.as_str().unwrap_or("?"),
                m.as_f64().unwrap_or(f64::NAN)
            );
        }
    }
    println!(
        "  (paper §VI-A claims the R_adjust term tracks the oracle closer — compare the means)"
    );
    let out = json!({
        "experiment": "estimator_accuracy",
        "rows": out_rows,
        "mean_mape_pct": means,
    });
    ctx.save("estimator_accuracy", &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_of_perfect_predictions_is_zero_error() {
        let acc = accuracy(&[(100, 100), (250, 250)]);
        assert_eq!(acc.n_samples, 2);
        assert_eq!(acc.mae, 0.0);
        assert_eq!(acc.mape_pct, 0.0);
        assert_eq!(acc.within_20, 1.0);
    }

    #[test]
    fn accuracy_flags_large_misses() {
        // 100 vs 50: |err| = 50, rel = 1.0; 90 vs 100: |err| = 10, rel = 0.1.
        let acc = accuracy(&[(100, 50), (90, 100)]);
        assert_eq!(acc.mae, 30.0);
        assert!((acc.mape_pct - 55.0).abs() < 1e-9);
        assert_eq!(acc.within_20, 0.5);
    }

    #[test]
    fn accuracy_of_empty_stream_degrades_to_nan() {
        let acc = accuracy(&[]);
        assert_eq!(acc.n_samples, 0);
        assert!(acc.mae.is_nan());
        assert!(acc.within_20.is_nan());
    }

    #[test]
    fn sample_pairs_selects_only_estimator_events() {
        let events = vec![
            Stamped { t_us: 1.0, cycle: 0, event: Event::PowerFailure { insts: 10, voltage: 2.0 } },
            Stamped {
                t_us: 2.0,
                cycle: 1,
                event: Event::EstimatorSample { predicted_remaining: 7, actual_remaining: 9 },
            },
        ];
        assert_eq!(sample_pairs(&events), vec![(7, 9)]);
    }
}
