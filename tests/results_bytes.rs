//! The committed `results/` are canonical bytes: regenerating an
//! analytic result (no simulation) reproduces its file byte for byte,
//! key order included.

use std::path::Path;

use kagura_bench::experiments::find;
use kagura_bench::ExpContext;

#[test]
fn regenerated_analytic_results_match_the_committed_bytes() {
    let out = std::env::temp_dir().join(format!("kagura-results-bytes-{}", std::process::id()));
    let ctx = ExpContext { out_dir: out.clone(), quiet: true, ..ExpContext::default() };
    for id in ["fig3", "fig11", "hw"] {
        find(id).expect("registered experiment")(&ctx);
        let regenerated = std::fs::read(out.join(format!("{id}.json"))).unwrap();
        let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("results/{id}.json"));
        assert!(
            regenerated == std::fs::read(&committed).unwrap(),
            "{id}.json differs from {}",
            committed.display()
        );
    }
    std::fs::remove_dir_all(&out).unwrap();
}
