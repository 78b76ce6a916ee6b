//! Shared command-line parsing helpers for the harness binaries.
//!
//! The binaries (`repro`, `simrun`, `tracegen`) once parsed their flags
//! by hand, and a misspelled flag was *silently ignored* (`simrun`) or
//! mis-filed as an experiment id (`repro`), so `--cachescope-peroid 100`
//! ran a full simulation with the option simply dropped. These helpers
//! make unknown flags a hard error that names the nearest valid flag.
//! [`validate_args`] checks the whole argument vector up front (flag
//! arity and repeats included) before any simulation starts, and its
//! [`Args`] is the one place `repro`, `simrun`, `simrun serve` and
//! `tracegen` read their flags from.

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

/// A command line checked by [`validate_args`]: each given flag once,
/// with its value when it takes one, and the positionals in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    flags: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
}

impl Args {
    /// The value of flag `name`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| *n == name).and_then(|(_, v)| v.as_deref())
    }

    /// Whether flag `name` was given (a switch, or a flag with a value).
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    /// The non-flag arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The value of flag `name` parsed as a number, if given; `what`
    /// names it in the error (`bad {what}: …`).
    ///
    /// # Errors
    ///
    /// Returns the parse error when the value is not a `T`.
    pub fn number<T: std::str::FromStr>(&self, name: &str, what: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(name).map(|s| s.parse().map_err(|e| format!("bad {what}: {e}"))).transpose()
    }
}

/// Parses a raw argument vector against a flag table: every `--flag`
/// must be known and given at most once, value flags must have their
/// value, and at most `max_positionals` non-flag arguments may appear.
/// An argument that parses as a number (`-5`) is a positional.
///
/// # Errors
///
/// Returns a user-facing message naming the offending argument — with
/// the nearest valid flag for plausible typos.
pub fn validate_args(
    args: &[String],
    flags: &[FlagSpec],
    max_positionals: usize,
) -> Result<Args, String> {
    let known: Vec<&str> = flags.iter().map(|f| f.name).collect();
    let mut parsed = Args::default();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if arg.starts_with('-') && arg.len() > 1 && arg.parse::<f64>().is_err() {
            let Some(spec) = flags.iter().find(|f| f.name == *arg) else {
                return Err(unknown_flag_error(arg, &known));
            };
            if parsed.has(spec.name) {
                return Err(format!("flag `{}` given twice", spec.name));
            }
            let value = if spec.takes_value {
                let value = rest.next().ok_or_else(|| format!("flag `{arg}` needs a value"))?;
                Some(value.clone())
            } else {
                None
            };
            parsed.flags.push((spec.name, value));
        } else {
            if parsed.positionals.len() == max_positionals {
                return Err(format!("unexpected argument `{arg}`"));
            }
            parsed.positionals.push(arg.clone());
        }
    }
    Ok(parsed)
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
        assert_eq!(ok(&["sha", "--scale", "-1"]).unwrap().number("--scale", "scale"), Ok(Some(-1)));
        // Outside a flag's value, a number is a positional even when
        // negative: it is not looked up as a flag.
        assert_eq!(ok(&["-5"]).unwrap().positionals(), ["-5"]);
        assert!(ok(&["-5", "-1e3"]).unwrap_err().contains("unexpected argument `-1e3`"));
        // The parsed vector: each flag once, switches without a value.
        let args = ok(&["--json", "sha", "--scale", "0.5"]).unwrap();
        assert_eq!(args.positionals(), ["sha"]);
        assert_eq!(args.value("--scale"), Some("0.5"));
        assert!(args.has("--json") && args.value("--json").is_none());
        assert!(!ok(&["sha"]).unwrap().has("--scale"));
        let err = args.number::<u32>("--scale", "scale").unwrap_err();
        assert!(err.starts_with("bad scale: "), "{err}");
        for repeated in [["--scale", "1", "--scale", "nan"], ["--json", "sha", "--json", "x"]] {
            let err = ok(&repeated).unwrap_err();
            assert!(err.contains("given twice"), "{err}");
        }
    }
}
