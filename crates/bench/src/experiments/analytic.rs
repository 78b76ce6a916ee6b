//! Closed-form and characterisation experiments (no full simulation):
//! Fig 3 (break-even analysis), Fig 11 (power traces), §VIII-A (hardware
//! overhead).

use ehs_energy::{PowerTrace, TraceKind};
use ehs_model::Energy;
use kagura_core::analysis::{min_delta_rhit, CompressionMix};
use kagura_core::overhead::HardwareOverhead;
use serde_json::{json, Value};

use crate::{print_table, ExpContext};

/// Fig 3: minimum ΔR_hit surfaces over compression cost and miss penalty
/// for the paper's three (a, e, f) corners.
pub fn fig3(ctx: &ExpContext) -> Value {
    println!("Fig 3: minimum hit-rate improvement for compression to pay off (Eq. 4)");
    let mixes = [
        ("a=0.25 e=0.25 f=0.25", CompressionMix::new(0.25, 0.25, 0.25)),
        ("a=0.50 e=0.50 f=0.50", CompressionMix::new(0.50, 0.50, 0.50)),
        ("a=0.75 e=0.50 f=0.50", CompressionMix::new(0.75, 0.50, 0.50)),
        ("a=1.00 e=1.00 f=1.00", CompressionMix::new(1.00, 1.00, 1.00)),
    ];
    // Sweep the combined (de)compression cost and the miss penalty. The
    // decompressor is modelled at 1/6 of the combined cost, as in Table I
    // (0.65 vs 3.84 pJ).
    let costs_pj = [1.0, 2.0, 4.49, 8.0, 16.0];
    let miss_pj = [50.0, 100.0, 150.0, 300.0, 600.0];
    let mut series = Vec::new();
    for (label, mix) in mixes {
        println!("  {label}");
        let mut rows = Vec::new();
        let mut json_rows = Vec::new();
        for &c in &costs_pj {
            let e_decomp = Energy::from_picojoules(c / 6.0);
            let e_comp = Energy::from_picojoules(c * 5.0 / 6.0);
            let mut row = vec![format!("{c:.2} pJ")];
            for &m in &miss_pj {
                let t = min_delta_rhit(mix, e_comp, e_decomp, Energy::from_picojoules(m));
                row.push(format!("{:.4}", t));
                json_rows.push(json!({
                    "mix": label, "cost_pj": c, "miss_pj": m, "min_delta_rhit": t,
                }));
            }
            rows.push(row);
        }
        let headers: Vec<String> = std::iter::once("Ecomp+Edecomp".to_string())
            .chain(miss_pj.iter().map(|m| format!("Emiss={m}pJ")))
            .collect();
        print_table(&headers.iter().map(String::as_str).collect::<Vec<_>>(), &rows);
        series.push(json!({ "mix": label, "rows": json_rows }));
    }
    let out = json!({ "experiment": "fig3", "series": series });
    ctx.save("fig3", &out);
    out
}

/// Fig 11: statistics of the three synthetic ambient traces.
pub fn fig11(ctx: &ExpContext) -> Value {
    println!("Fig 11: ambient power traces (synthetic, statistically matched)");
    let mut rows = Vec::new();
    let mut out_rows = Vec::new();
    for kind in TraceKind::ALL {
        let trace = PowerTrace::generate(kind, 7, 500_000);
        let stats = trace.stats();
        rows.push(vec![
            kind.name().to_string(),
            format!("{:.1}", stats.mean.microwatts()),
            format!("{:.1}", stats.std_dev.microwatts()),
            format!("{:.1}%", stats.stable_fraction * 100.0),
        ]);
        // First 200 windows as a plottable series sample.
        let sample: Vec<f64> = trace.samples().take(200).map(|p| p.microwatts()).collect();
        out_rows.push(json!({
            "trace": kind.name(),
            "mean_uw": stats.mean.microwatts(),
            "std_uw": stats.std_dev.microwatts(),
            "stable_fraction": stats.stable_fraction,
            "sample_uw": sample,
        }));
    }
    print_table(&["trace", "mean (uW)", "std (uW)", "stable"], &rows);
    println!("  (paper: thermal most stable, solar next, RFHome burstiest)");
    let out = json!({ "experiment": "fig11", "traces": out_rows });
    ctx.save("fig11", &out);
    out
}

/// §VIII-A: Kagura's hardware overhead.
pub fn hw(ctx: &ExpContext) -> Value {
    println!("Hardware overhead (paper §VIII-A)");
    let mut rows = Vec::new();
    let mut out_rows = Vec::new();
    for bits in [1u32, 2, 3] {
        let hw = HardwareOverhead::with_counter_bits(bits);
        rows.push(vec![
            format!("5 regs + {bits}-bit counter"),
            hw.total_bits().to_string(),
            format!("{:.6}", hw.area_mm2()),
            format!("{:.2}%", hw.core_fraction() * 100.0),
        ]);
        out_rows.push(json!({
            "counter_bits": bits,
            "total_bits": hw.total_bits(),
            "area_mm2": hw.area_mm2(),
            "core_fraction": hw.core_fraction(),
        }));
    }
    print_table(&["configuration", "bits", "area (mm^2)", "% of core"], &rows);
    println!("  (paper: 162 bits, 0.000796 mm^2, 0.14% of the 0.538 mm^2 core)");
    let out = json!({ "experiment": "hw", "rows": out_rows });
    ctx.save("hw", &out);
    out
}
