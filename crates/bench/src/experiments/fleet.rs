//! `fleet` — population-scale campaign over heterogeneous deployment
//! cells.
//!
//! Samples `--fleet-size` cells (stratified over design × trace,
//! Latin-hypercube over app/NVM/capacitor; see `ehs_sim::fleet`), runs
//! each cell's baseline/Kagura pair through the shared worker pool in
//! shards of `--fleet-shard` cells, and streams every result into the
//! constant-memory [`FleetAggregate`] — peak RSS is flat whether the
//! population is 10³ or 10⁶ cells.
//!
//! Shards run sequentially (each shard's batch parallelizes internally
//! across `--jobs` workers) and every completed shard is journaled to
//! `fleet_journal.jsonl` with its exact-JSON aggregate, so a campaign
//! SIGKILLed mid-flight loses at most one shard and `repro fleet
//! --resume DIR` converges to byte-identical output. Because every
//! aggregate component merges exactly, `fleet.json`/`fleet.jsonl` are
//! also byte-identical at any `--jobs` value and any shard size.

use ehs_sim::fleet::FleetSpec;
use ehs_sim::parallel::SimJob;
use serde_json::{json, Value};

use crate::fleet::{
    parse_fleet_file, report_json, report_jsonl, FleetAggregate, FleetJournal, METRICS,
};
use crate::{fsutil, print_table, ExpContext};

/// Fleet cells cap the per-cell workload scale: a campaign is about
/// population breadth, not per-cell length, and 10⁴+ paired runs at
/// headline scale would take hours for no statistical gain.
const FLEET_SCALE_CAP: f64 = 0.01;

/// Runs cells `[start, end)` and returns the shard's aggregate plus
/// its failure records (for the shard journal).
fn run_shard(
    ctx: &ExpContext,
    spec: &FleetSpec,
    start: u64,
    end: u64,
) -> (FleetAggregate, Vec<Value>) {
    let cells: Vec<_> = (start..end).map(|i| spec.cell(i)).collect();
    let jobs: Vec<SimJob> = cells.iter().flat_map(|c| spec.cell_jobs(c)).collect();
    let results = ehs_sim::run_batch(jobs);
    let mut agg = FleetAggregate::new(spec.seed);
    let mut failures = Vec::new();
    for (cell, pair) in cells.iter().zip(results.chunks(2)) {
        for r in pair.iter().flatten() {
            ctx.add_cell_stats(r);
        }
        match (&pair[0], &pair[1]) {
            (Ok(base), Ok(kagura)) => agg.observe(cell, base, kagura),
            (base, kagura) => {
                for (governor, r) in [("baseline", base), ("kagura", kagura)] {
                    if let Err(failure) = r {
                        failures.push(json!({
                            "exp": ctx.exp_id.as_deref().unwrap_or("fleet"),
                            "cell": cell.index,
                            "app": cell.app.to_string(),
                            "stratum": cell.stratum(),
                            "governor": governor,
                            "kind": failure.kind(),
                            "detail": failure.to_string(),
                        }));
                    }
                }
                agg.record_failed(cell);
            }
        }
    }
    (agg, failures)
}

/// The `fleet` experiment entry point.
pub fn fleet(ctx: &ExpContext) -> Value {
    let params = ctx.fleet;
    let spec = FleetSpec {
        population: params.population,
        seed: params.seed,
        scale: ctx.scale.min(FLEET_SCALE_CAP),
        budget: ctx.job_budget,
        audit_strict: ctx.audit_strict,
    };
    println!(
        "fleet campaign: {} cells over {} strata (seed {:#x}, cell scale {}, {} cells/shard)",
        params.population,
        FleetSpec::STRATA,
        params.seed,
        spec.scale,
        params.shard_size,
    );

    // The shard journal fingerprints everything that changes a shard's
    // content — including the shard size, since shard boundaries decide
    // which cells each journal record covers.
    let fingerprint = json!({
        "population": params.population,
        "seed": params.seed,
        "shard_size": params.shard_size,
        "scale_bits": spec.scale.to_bits(),
        "audit_strict": spec.audit_strict,
    });
    let mut journal = if ctx.resume {
        FleetJournal::resume(&ctx.out_dir, fingerprint)
    } else {
        FleetJournal::create(&ctx.out_dir, fingerprint)
    }
    .unwrap_or_else(|e| panic!("fleet journal in {}: {e}", ctx.out_dir.display()));

    let shards = spec.shards(params.shard_size);
    let journaled = journal.len();
    if ctx.resume && journaled > 0 {
        println!(
            "  [resume: {journaled} of {} shard(s) already journaled in {}]",
            shards.len(),
            journal.path().display(),
        );
    }
    let mut agg = FleetAggregate::new(spec.seed);
    for (idx, &(start, end)) in shards.iter().enumerate() {
        let idx = idx as u64;
        // A journaled shard is folded back from its exact-JSON record —
        // bit-identical to re-running it — and its failure records are
        // re-fed so failures.json converges too.
        if let Some((shard_json, failures)) = journal.shard(idx) {
            let shard_agg = FleetAggregate::from_exact_json(shard_json)
                .unwrap_or_else(|e| panic!("corrupt journaled shard {idx}: {e}"));
            for f in failures.clone() {
                ctx.record_failure(f);
            }
            agg.merge(&shard_agg).unwrap_or_else(|e| panic!("shard {idx} merge: {e}"));
            continue;
        }
        let (shard_agg, failures) = run_shard(ctx, &spec, start, end);
        for f in &failures {
            ctx.record_failure(f.clone());
        }
        if let Err(e) = journal.record(idx, shard_agg.to_exact_json(), failures) {
            eprintln!("  [fleet] warning: could not journal shard {idx}: {e}");
        }
        agg.merge(&shard_agg).unwrap_or_else(|e| panic!("shard {idx} merge: {e}"));
        if !ctx.quiet {
            eprintln!("[fleet] shard {}/{} done ({} cells)", idx + 1, shards.len(), end - start);
        }
    }

    let report = report_json(&params, &spec, &agg);

    // Stream the report as JSONL and immediately parse it back strictly
    // — every campaign output is its own schema round-trip check, like
    // the cachescope streams — then print the table from the parsed rows.
    let jsonl_path = ctx.out_dir.join("fleet.jsonl");
    let stream = report_jsonl(&report);
    fsutil::atomic_write(&jsonl_path, stream.as_bytes())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", jsonl_path.display()));
    let parsed = parse_fleet_file(&jsonl_path)
        .unwrap_or_else(|e| panic!("fleet stream failed its own parse-back: {e}"));
    assert_eq!(
        parsed.cells, agg.overall.cells,
        "parsed stream disagrees with the aggregate on cell count"
    );

    // Per-stratum population table: speedup distribution with its 95 %
    // bootstrap CI, plus the waste-fraction median.
    let fmt = |x: Option<f64>| x.map_or_else(|| "n/a".into(), |x| format!("{x:.3}"));
    let rows: Vec<Vec<String>> = parsed
        .strata
        .iter()
        .map(|stratum| {
            let no_metric = (0, None, None, None, None);
            let (_, mean, p50, p99, ci) = stratum.metrics.get("speedup").unwrap_or(&no_metric);
            let waste_p50 = stratum.metrics.get("waste_fraction").and_then(|m| m.2);
            vec![
                stratum.stratum.clone(),
                stratum.cells.to_string(),
                stratum.failed.to_string(),
                fmt(*mean),
                fmt(*p50),
                fmt(*p99),
                ci.map_or_else(|| "n/a".into(), |(lo, hi)| format!("[{lo:.3}, {hi:.3}]")),
                fmt(waste_p50),
            ]
        })
        .collect();
    print_table(
        &["stratum", "cells", "fail", "speedup", "p50", "p99", "95% CI (mean)", "waste p50"],
        &rows,
    );
    println!("  (metrics: {})", METRICS.iter().map(|&(n, _)| n).collect::<Vec<_>>().join(", "));
    println!("  [fleet stream in {} (parse-back ok)]", jsonl_path.display());

    ctx.save("fleet", &report);
    report
}
