//! End-to-end checks of the `perfbench` command.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use serde_json::Value;

/// The repository root: the benchmark runs from there.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository")
        .to_path_buf()
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("perfbench starts")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).lines().last().unwrap_or_default().to_string()
}

#[test]
fn a_perturbed_results_row_fails_the_run() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perturbed-results");
    std::fs::create_dir_all(&dir).expect("create scratch results");
    let text =
        std::fs::read_to_string(repo_root().join("results/fig13.json")).expect("committed fig13");
    let mut fig13: Value = serde_json::from_str(&text).expect("committed fig13 parses");
    // Nudge the first sha row's committed speedup by a millionth of a percent.
    let Value::Object(members) = &mut fig13 else { panic!("fig13 is an object") };
    let (_, Value::Array(rows)) =
        members.iter_mut().find(|(k, _)| k == "rows").expect("fig13 has rows")
    else {
        panic!("rows is an array")
    };
    let row = rows
        .iter_mut()
        .find(|r| r.get("app").and_then(Value::as_str) == Some("sha"))
        .expect("fig13 has a sha row");
    let Value::Object(fields) = row else { panic!("rows are objects") };
    let (_, speedup) =
        fields.iter_mut().find(|(k, _)| k == "speedup_pct").expect("rows carry a speedup");
    *speedup = Value::F64(speedup.as_f64().expect("a number") + 1e-6);
    let perturbed = serde_json::to_string_pretty(&fig13).expect("serializes");
    std::fs::write(dir.join("fig13.json"), perturbed).expect("write perturbed fig13");

    let out = perfbench(&[
        "--workload",
        "grid-compute",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--results",
        dir.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let result: Value =
        serde_json::from_str(&last_line(&out)).expect("the last line is the result");
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    let failed = result.get("failed").and_then(Value::as_u64).expect("failed count");
    let attempted = result.get("attempted").and_then(Value::as_u64).expect("attempted count");
    assert!(failed > 0 && attempted >= failed, "failed {failed} of {attempted}");
}

#[test]
fn unknown_workloads_and_flags_are_usage_errors() {
    assert_eq!(perfbench(&["--workload", "grid"]).status.code(), Some(2));
    assert_eq!(perfbench(&["--workload", "whatif", "--sede", "1"]).status.code(), Some(2));
}
