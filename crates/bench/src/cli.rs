//! Shared command-line parsing helpers for the harness binaries.
//!
//! The binaries (`repro`, `simrun`, `tracegen`) parse their flags by
//! hand; historically a misspelled flag was *silently ignored*
//! (`simrun`) or mis-filed as an experiment id (`repro`), so
//! `--cachescope-peroid 100` ran a full simulation with the option
//! simply dropped. These helpers make unknown flags a hard error that
//! names the nearest valid flag, and let `simrun`-style positional
//! scanners validate the whole argument vector up front (flag arity
//! included) before any simulation starts.

/// A binary-level failure carrying its process exit class.
///
/// The harness binaries distinguish three failure classes so scripted
/// callers (ci.sh, the serve soak tests) can assert on *why* an
/// invocation failed instead of pattern-matching stderr:
///
/// * [`CliError::Usage`] — the command line never parsed (unknown flag,
///   missing value, stray positional). Exit code **2**, the Unix
///   convention for usage errors.
/// * [`CliError::Config`] — the command line parsed but names something
///   invalid (unknown app, bad enum value, mismatched resume
///   fingerprint). Exit code **3**.
/// * [`CliError::Runtime`] — a valid invocation failed while running
///   (I/O error, failed simulation, strict-audit violation). Exit
///   code **1**.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Malformed command line; exit code 2.
    Usage(String),
    /// Valid syntax naming an invalid configuration; exit code 3.
    Config(String),
    /// A valid invocation that failed at runtime; exit code 1.
    Runtime(String),
}

impl CliError {
    /// The process exit code for this failure class.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Config(_) => 3,
            CliError::Runtime(_) => 1,
        }
    }

    /// The user-facing message, without the class prefix.
    pub fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Config(m) | CliError::Runtime(m) => m,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message())
    }
}

impl std::error::Error for CliError {}

/// Levenshtein edit distance between two ASCII-ish strings.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// The candidate closest to `input` in edit distance, when close
/// enough to plausibly be a typo (distance ≤ max(2, len/3)).
pub fn suggest<'a>(input: &str, candidates: &[&'a str]) -> Option<&'a str> {
    let budget = (input.len() / 3).max(2);
    candidates
        .iter()
        .map(|&c| (levenshtein(input, c), c))
        .min()
        .filter(|&(d, _)| d <= budget)
        .map(|(_, c)| c)
}

/// Error message for an unrecognized flag, naming the nearest valid
/// one when a plausible typo exists.
pub fn unknown_flag_error(flag: &str, known: &[&str]) -> String {
    match suggest(flag, known) {
        Some(nearest) => format!("unknown flag `{flag}` (did you mean `{nearest}`?)"),
        None => format!("unknown flag `{flag}`"),
    }
}

/// Error message for an unrecognized value of `field`, naming the
/// nearest candidate when a plausible typo exists, else every candidate.
pub fn unknown_value_error(field: &str, got: &str, candidates: &[&str]) -> String {
    match suggest(got, candidates) {
        Some(nearest) => format!("unknown {field} {got:?} (did you mean {nearest:?}?)"),
        None => format!("unknown {field} {got:?} (expected one of: {})", candidates.join(", ")),
    }
}

/// One recognized flag: its name and whether it consumes a value.
#[derive(Debug, Clone, Copy)]
pub struct FlagSpec {
    /// Flag literal, including the leading dashes (`--scale`).
    pub name: &'static str,
    /// Whether the next argument is this flag's value.
    pub takes_value: bool,
}

impl FlagSpec {
    /// A flag that consumes the following argument.
    pub const fn value(name: &'static str) -> Self {
        FlagSpec { name, takes_value: true }
    }

    /// A boolean switch.
    pub const fn switch(name: &'static str) -> Self {
        FlagSpec { name, takes_value: false }
    }
}

/// Validates a raw argument vector against a flag table: every
/// `--flag` must be known, value flags must have their value, and at
/// most `max_positionals` non-flag arguments may appear.
///
/// # Errors
///
/// Returns a user-facing message naming the offending argument — with
/// the nearest valid flag for plausible typos.
pub fn validate_args(
    args: &[String],
    flags: &[FlagSpec],
    max_positionals: usize,
) -> Result<(), String> {
    let known: Vec<&str> = flags.iter().map(|f| f.name).collect();
    let mut positionals = 0usize;
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if arg.starts_with('-') && arg.len() > 1 {
            let Some(spec) = flags.iter().find(|f| f.name == *arg) else {
                return Err(unknown_flag_error(arg, &known));
            };
            if spec.takes_value {
                i += 1;
                if i >= args.len() {
                    return Err(format!("flag `{}` needs a value", spec.name));
                }
            }
        } else {
            positionals += 1;
            if positionals > max_positionals {
                return Err(format!("unexpected argument `{arg}`"));
            }
        }
        i += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_error_classes_map_to_distinct_exit_codes() {
        assert_eq!(CliError::Usage("bad flag".into()).exit_code(), 2);
        assert_eq!(CliError::Config("bad governor".into()).exit_code(), 3);
        assert_eq!(CliError::Runtime("io error".into()).exit_code(), 1);
        assert_eq!(CliError::Config("x".into()).message(), "x");
        assert_eq!(CliError::Usage("y".into()).to_string(), "y");
    }

    #[test]
    fn edit_distance() {
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("--cachescope-peroid", "--cachescope-period"), 2);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
    }

    #[test]
    fn suggests_near_misses_only() {
        let known = ["--scale", "--cachescope-period", "--governor"];
        assert_eq!(suggest("--cachescope-peroid", &known), Some("--cachescope-period"));
        assert_eq!(suggest("--scal", &known), Some("--scale"));
        assert_eq!(suggest("--frobnicate", &known), None, "no wild guesses");
        assert!(unknown_flag_error("--scal", &known).contains("did you mean `--scale`"));
        assert!(!unknown_flag_error("--frobnicate", &known).contains("did you mean"));
    }

    #[test]
    fn validate_rejects_unknown_flags_and_missing_values() {
        let flags = [FlagSpec::value("--scale"), FlagSpec::switch("--json")];
        let ok = |v: &[&str]| {
            validate_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>(), &flags, 1)
        };
        assert!(ok(&["sha", "--scale", "0.5", "--json"]).is_ok());
        let err = ok(&["sha", "--scael", "0.5"]).unwrap_err();
        assert!(err.contains("--scale"), "{err}");
        assert!(ok(&["sha", "--scale"]).unwrap_err().contains("needs a value"));
        assert!(ok(&["sha", "extra"]).unwrap_err().contains("unexpected argument"));
        // A value that looks numeric is consumed by its flag, not
        // mistaken for a positional.
        assert!(ok(&["sha", "--scale", "-1"]).is_ok());
    }
}
