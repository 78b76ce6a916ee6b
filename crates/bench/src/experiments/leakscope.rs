//! Leakscope experiment: the compression timing side channel, measured.
//!
//! Every cell runs the sliding-window eviction-oracle attack of
//! [`ehs_sim::leakscope`] against one compressor × governor pair on the
//! Table-I dcache: the attacker co-resides with a victim holding a
//! planted 8-byte secret in shared sets and recovers it byte-at-a-time
//! through probe latencies alone. The grid spans all six compressors and
//! four governors — `always`, `acc`, `acc_kagura` (including its CM→RM
//! mode-switch boundaries) and the `rand_threshold` countermeasure — so
//! one table answers both "who leaks" and "does randomizing the
//! compression threshold help". Under `--telemetry DIR` each cell dumps
//! its stream as `leakscope_<cell>.jsonl`, the input `repro explain`
//! renders and CI parses back strictly.

use ehs_compress::Algorithm;
use ehs_sim::{CellAttackReport, GovernorSpec, LeakscopeOptions};
use ehs_telemetry::jsonl;
use kagura_core::{KaguraConfig, RandThresholdConfig};
use serde_json::{json, Value};

use super::cfg;
use crate::cachescope::ScopeLabels;
use crate::leakscope::{render_leak_table, report_to_jsonl, to_hex, write_jsonl, ParsedLeak};
use crate::{parallel_map, ExpContext};

/// Governor columns of the grid, in report order. The countermeasure
/// rides last so the table reads attack → defence left to right.
fn governors() -> [GovernorSpec; 4] {
    [
        GovernorSpec::AlwaysCompress,
        GovernorSpec::Acc,
        GovernorSpec::AccKagura(KaguraConfig::default()),
        GovernorSpec::RandThreshold(RandThresholdConfig::default()),
    ]
}

/// Short file/JSON keys matching [`governors`] order.
const GOV_KEYS: [&str; 4] = ["always", "acc", "acc_kagura", "rand_threshold"];

/// File-slug form of a compressor name (`C-Pack` → `cpack`).
pub(crate) fn algorithm_slug(alg: Algorithm) -> String {
    alg.name().to_ascii_lowercase().replace('-', "")
}

/// The leakscope grid: one attack report per compressor × governor.
pub fn leakscope(ctx: &ExpContext) -> Value {
    println!("Leakscope: compression timing side channel, per compressor x governor");
    let jobs: Vec<(Algorithm, usize)> = Algorithm::EXTENDED
        .iter()
        .flat_map(|&alg| (0..GOV_KEYS.len()).map(move |g| (alg, g)))
        .collect();
    let opts = LeakscopeOptions::default();
    let runs: Vec<CellAttackReport> = parallel_map(jobs.clone(), |&(alg, g)| {
        let mut config = cfg(governors()[g]);
        config.algorithm = alg;
        ehs_sim::attack_cell(&config, &opts)
    });

    let cell_slug = |alg: Algorithm, g: usize| format!("{}_{}", algorithm_slug(alg), GOV_KEYS[g]);
    if let Some(dir) = &ctx.telemetry_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        for (&(alg, g), report) in jobs.iter().zip(&runs) {
            let slug = cell_slug(alg, g);
            let labels = ScopeLabels::new(&slug, cfg(governors()[g]).design.name(), GOV_KEYS[g]);
            let path = dir.join(format!("leakscope_{slug}.jsonl"));
            write_jsonl(&path, &labels, report)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
        println!("  [leakscope streams under {} — render with `repro explain`]", dir.display());
    }

    // Round-trip each cell through the strict parser and print the
    // cross-cell table from the parsed form — the table exercises the
    // same path `repro explain` uses on the files.
    let parsed: Vec<_> = jobs
        .iter()
        .zip(&runs)
        .map(|(&(alg, g), report)| {
            let labels =
                ScopeLabels::new(cell_slug(alg, g), cfg(governors()[g]).design.name(), GOV_KEYS[g]);
            jsonl::read_framed::<ParsedLeak>(&report_to_jsonl(&labels, report))
                .unwrap_or_else(|(line, e)| panic!("self parse-back failed at line {line}: {e}"))
        })
        .collect();
    print!("{}", render_leak_table(&parsed));

    let out_rows: Vec<Value> = jobs
        .iter()
        .zip(&runs)
        .map(|(&(alg, g), r)| {
            json!({
                "algorithm": alg.name(),
                "governor": GOV_KEYS[g],
                "supported": r.supported,
                "recovered_bytes": r.stats.recovered_bytes,
                "secret_bytes": r.stats.secret_bytes,
                "recovered": r.stats.recovered(),
                "recovered_hex": to_hex(&r.recovered),
                "guesses": r.stats.guesses,
                "retries": r.stats.retries,
                "probe_accesses": r.stats.probe_accesses,
                "mi_bits": r.mi_bits,
                "capacity_bits": r.capacity_bits,
            })
        })
        .collect();

    // The headline claims the table must support.
    let recovered_algs: Vec<&str> = Algorithm::EXTENDED
        .iter()
        .filter(|&&alg| {
            jobs.iter()
                .zip(&runs)
                .any(|(&(a, g), r)| a == alg && GOV_KEYS[g] == "always" && r.stats.recovered())
        })
        .map(|a| a.name())
        .collect();
    let mi_of = |alg: Algorithm, key: &str| {
        jobs.iter()
            .zip(&runs)
            .find(|(&(a, g), _)| a == alg && GOV_KEYS[g] == key)
            .map(|(_, r)| r.mi_bits)
            .unwrap_or(f64::NAN)
    };
    let cpack_always = mi_of(Algorithm::CPack, "always");
    let cpack_rand = mi_of(Algorithm::CPack, "rand_threshold");
    println!(
        "  secret recovered through timing alone on: {} (always-compress)",
        recovered_algs.join(", ")
    );
    println!(
        "  countermeasure: C-Pack MI {cpack_always:.3} -> {cpack_rand:.3} bit(s) under \
         rand-threshold"
    );

    let out = json!({
        "experiment": "leakscope",
        "secret": to_hex(&opts.secret),
        "recovered_algorithms": recovered_algs,
        "cpack_mi_always": cpack_always,
        "cpack_mi_rand_threshold": cpack_rand,
        "rows": out_rows,
    });
    ctx.save("leakscope", &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn governor_columns_match_their_keys() {
        let govs = governors();
        assert_eq!(govs.len(), GOV_KEYS.len());
        assert!(matches!(govs[0], GovernorSpec::AlwaysCompress));
        assert!(matches!(govs[1], GovernorSpec::Acc));
        assert!(matches!(govs[2], GovernorSpec::AccKagura(_)));
        assert!(matches!(govs[3], GovernorSpec::RandThreshold(_)));
    }

    #[test]
    fn algorithm_slugs_are_filename_safe_and_unique() {
        let slugs: Vec<String> = Algorithm::EXTENDED.iter().map(|&a| algorithm_slug(a)).collect();
        for s in &slugs {
            assert!(s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()), "{s}");
        }
        let mut dedup = slugs.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), slugs.len());
    }
}
