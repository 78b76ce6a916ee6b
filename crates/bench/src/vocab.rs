//! One configuration vocabulary for the front ends.
//!
//! `simrun`'s flags, `simrun serve`'s query fields and `tracegen`'s
//! source argument name the same settings with the same spellings and
//! aliases, and are checked by the same rules: each front end only
//! decodes its own syntax (argument strings, JSON values) into
//! [`Settings`], and [`Settings::resolve`] does the rest. An unknown
//! spelling gets the did-you-mean wording of the CLI flag validators
//! ([`crate::cli::unknown_value_error`]); an invalid value is an error,
//! never a panic inside the simulator.

use ehs_cache::SEGMENT_BYTES;
use ehs_compress::Algorithm;
use ehs_energy::{CapacitorConfig, TraceKind};
use ehs_sim::{EhsDesign, Extension, GovernorSpec, SimConfig};
use ehs_workloads::App;

use crate::cli::unknown_value_error;

/// Every governor spelling and the spec it names. The first spelling of
/// each spec is its canonical name (the one `simrun serve` keys its
/// result cache by).
fn governors() -> [(&'static str, GovernorSpec); 9] {
    [
        ("baseline", GovernorSpec::NoCompression),
        ("none", GovernorSpec::NoCompression),
        ("always", GovernorSpec::AlwaysCompress),
        ("acc", GovernorSpec::Acc),
        ("kagura", GovernorSpec::AccKagura(Default::default())),
        ("ideal-acc", GovernorSpec::IdealAcc),
        ("ideal-kagura", GovernorSpec::IdealAccKagura(Default::default())),
        ("rand-threshold", GovernorSpec::RandThreshold(Default::default())),
        ("rand_threshold", GovernorSpec::RandThreshold(Default::default())),
    ]
}

const DESIGNS: [(&str, EhsDesign); 5] = [
    ("nvsram", EhsDesign::NvsramCache),
    ("nvsramcache", EhsDesign::NvsramCache),
    ("nvmr", EhsDesign::Nvmr),
    ("sweepcache", EhsDesign::SweepCache),
    ("sweep", EhsDesign::SweepCache),
];

/// Matched case-insensitively.
const ALGORITHMS: [(&str, Algorithm); 7] = [
    ("bdi", Algorithm::Bdi),
    ("fpc", Algorithm::Fpc),
    ("cpack", Algorithm::CPack),
    ("c-pack", Algorithm::CPack),
    ("dzc", Algorithm::Dzc),
    ("bpc", Algorithm::Bpc),
    ("fvc", Algorithm::Fvc),
];

/// Matched case-insensitively.
const TRACES: [(&str, TraceKind); 4] = [
    ("rfhome", TraceKind::RfHome),
    ("rf", TraceKind::RfHome),
    ("solar", TraceKind::Solar),
    ("thermal", TraceKind::Thermal),
];

fn extensions() -> [(&'static str, Extension); 3] {
    [("none", Extension::None), ("edbp", Extension::edbp()), ("ipex", Extension::ipex())]
}

/// The entry of `table` spelled `got`; an unknown spelling is an error
/// naming `field` and the nearest spelling, or every spelling when none
/// is near.
fn lookup<T: Copy>(field: &str, got: &str, table: &[(&'static str, T)]) -> Result<T, String> {
    if let Some(&(_, value)) = table.iter().find(|(name, _)| *name == got) {
        return Ok(value);
    }
    let names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
    Err(unknown_value_error(field, got, &names))
}

/// The workload named `name`.
pub fn app(name: &str) -> Result<App, String> {
    let apps: Vec<(&'static str, App)> = App::ALL.iter().map(|&a| (a.name(), a)).collect();
    lookup("app", name, &apps)
}

/// The ambient source named `name` (any case).
pub fn trace_kind(name: &str) -> Result<TraceKind, String> {
    lookup("trace", &name.to_ascii_lowercase(), &TRACES)
}

/// A workload scale, which must be positive (NaN is not).
pub fn scale(scale: f64) -> Result<f64, String> {
    if scale.is_nan() || scale <= 0.0 {
        return Err(format!("`scale` must be positive, got {scale}"));
    }
    Ok(scale)
}

/// One query as a front end names it: an app and, for every other
/// setting, a value or `None` for Table I's (scale 1.0, the baseline
/// governor).
#[derive(Debug, Clone, Default)]
pub struct Settings<'a> {
    pub app: &'a str,
    pub scale: Option<f64>,
    pub governor: Option<&'a str>,
    pub design: Option<&'a str>,
    pub algorithm: Option<&'a str>,
    pub trace: Option<&'a str>,
    pub seed: Option<u64>,
    /// Capacity of each cache, in bytes.
    pub cache: Option<u64>,
    pub ways: Option<u64>,
    /// Block size of each cache, in bytes.
    pub block: Option<u64>,
    /// Capacitance, in µF.
    pub cap: Option<f64>,
    pub extension: Option<&'a str>,
}

/// A validated query: the workload, its scale, the governor's canonical
/// name and the resolved configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Resolved {
    pub app: App,
    pub scale: f64,
    pub governor: &'static str,
    pub cfg: SimConfig,
}

impl Settings<'_> {
    /// Checks every setting, in field order, and resolves them onto
    /// Table I's configuration. The error names the first bad setting.
    pub fn resolve(&self) -> Result<Resolved, String> {
        let app = app(self.app)?;
        let scale = scale(self.scale.unwrap_or(1.0))?;
        let mut cfg = SimConfig::table1();
        let mut governor = "baseline";
        if let Some(g) = self.governor {
            let table = governors();
            cfg.governor = lookup("governor", g, &table)?;
            let canonical = table.iter().find(|(_, spec)| *spec == cfg.governor);
            governor = canonical.expect("a resolved spec has a spelling").0;
        }
        if let Some(d) = self.design {
            cfg.design = lookup("design", d, &DESIGNS)?;
        }
        if let Some(a) = self.algorithm {
            cfg.algorithm = lookup("algorithm", &a.to_ascii_lowercase(), &ALGORITHMS)?;
        }
        if let Some(t) = self.trace {
            cfg.trace_kind = trace_kind(t)?;
        }
        if let Some(seed) = self.seed {
            cfg.trace_seed = seed;
        }
        let small = |key: &str, n: u64| {
            u32::try_from(n).map_err(|_| format!("`{key}` is out of range, got {n}"))
        };
        let system = &mut cfg.system;
        for cache in [&mut system.icache, &mut system.dcache] {
            if let Some(bytes) = self.cache {
                *cache = cache.with_size(small("cache", bytes)?);
            }
            if let Some(ways) = self.ways {
                *cache = cache.with_ways(small("ways", ways)?);
            }
            if let Some(bytes) = self.block {
                *cache = cache.with_block_size(small("block", bytes)?);
            }
            let (size, ways, block) = (cache.size_bytes, cache.ways, cache.block_size);
            let bad = |e: &str| format!("bad cache ({size} B, {ways}-way, {block} B blocks): {e}");
            cache.check_geometry().map_err(bad)?;
            if !block.is_multiple_of(SEGMENT_BYTES) {
                return Err(bad(&format!("block size must be a multiple of {SEGMENT_BYTES}")));
            }
        }
        if let Some(uf) = self.cap {
            if uf.is_nan() || uf <= 0.0 {
                return Err(format!("`cap` must be positive, got {uf}"));
            }
            cfg.capacitor = CapacitorConfig::with_capacitance_uf(uf);
        }
        if let Some(e) = self.extension {
            cfg.extension = lookup("extension", e, &extensions())?;
        }
        Ok(Resolved { app, scale, governor, cfg })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sha() -> Settings<'static> {
        Settings { app: "sha", ..Settings::default() }
    }

    #[test]
    fn every_alias_resolves_to_its_canonical_governor() {
        let canonical = [
            "baseline",
            "baseline",
            "always",
            "acc",
            "kagura",
            "ideal-acc",
            "ideal-kagura",
            "rand-threshold",
            "rand-threshold",
        ];
        for ((spelling, spec), canonical) in governors().into_iter().zip(canonical) {
            let resolved = Settings { governor: Some(spelling), ..sha() }.resolve().unwrap();
            assert_eq!((resolved.governor, resolved.cfg.governor), (canonical, spec));
        }
        assert_eq!(sha().resolve().unwrap().governor, "baseline");
        assert_eq!(sha().resolve().unwrap().cfg, SimConfig::table1());
    }

    #[test]
    fn bad_values_are_errors_naming_the_setting() {
        let cases: [(Settings, &str); 10] = [
            (Settings { app: "shaa", ..sha() }, "did you mean \"sha\""),
            (Settings { scale: Some(f64::NAN), ..sha() }, "`scale` must be positive"),
            (Settings { governor: Some("kagora"), ..sha() }, "did you mean \"kagura\""),
            (Settings { design: Some("zzzzzzzz"), ..sha() }, "expected one of: nvsram"),
            (Settings { algorithm: Some("LZ77"), ..sha() }, "unknown algorithm \"lz77\""),
            (Settings { cache: Some(100), ..sha() }, "inconsistent cache geometry"),
            (Settings { cache: Some(0), ..sha() }, "set count must be a power of two"),
            (
                Settings { block: Some(4), cache: Some(16), ..sha() },
                "block size must be a multiple of 8",
            ),
            (Settings { ways: Some(1 << 32), ..sha() }, "`ways` is out of range"),
            (Settings { cap: Some(-1.0), ..sha() }, "`cap` must be positive, got -1"),
        ];
        for (settings, wanted) in cases {
            let err = settings.resolve().unwrap_err();
            assert!(err.contains(wanted), "{settings:?}: {err}");
        }
    }

    #[test]
    fn sources_match_in_any_case() {
        assert_eq!(trace_kind("RF"), Ok(TraceKind::RfHome));
        assert_eq!(trace_kind("Solar"), Ok(TraceKind::Solar));
        assert!(trace_kind("wind").unwrap_err().contains("unknown trace \"wind\""));
    }
}
