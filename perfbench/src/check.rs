//! Checking freshly simulated experiment payloads against the committed
//! `results/` files.

use std::path::Path;

use serde_json::Value;

/// Which fields identify a row of each checked experiment, so a fresh row
/// can be paired with the committed row covering the same cell.
pub fn row_key_fields(id: &str) -> &'static [&'static str] {
    match id {
        "fig13" => &["app", "config"],
        "fig23" => &["algorithm"],
        _ => &[],
    }
}

/// Reads and parses the committed `<dir>/<id>.json`.
pub fn load_committed(dir: &Path, id: &str) -> Result<Value, String> {
    let path = dir.join(format!("{id}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Serializes and re-parses `v`, so a value computed in memory compares
/// against one parsed from a file on equal terms.
fn normalized(v: &Value) -> Value {
    let text = serde_json::to_string(v).expect("experiment payloads serialize");
    serde_json::from_str(&text).expect("serialized payloads parse back")
}

/// JSON equality that ignores object member order (the stand-in
/// `serde_json` keeps insertion order, and committed files may order keys
/// differently from a fresh payload).
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Object(x), Value::Object(y)) => {
            x.len() == y.len() && x.iter().all(|(k, v)| b.get(k).is_some_and(|w| same(v, w)))
        }
        (Value::Array(x), Value::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(v, w)| same(v, w))
        }
        _ => a == b,
    }
}

/// Compares every row of the fresh payload of experiment `id` with the
/// committed row that has the same key fields. Returns how many rows were
/// checked and one message per row that is missing from the committed
/// file or differs from it in any field.
pub fn check_rows(id: &str, fresh: &Value, committed: &Value) -> (u64, Vec<String>) {
    let keys = row_key_fields(id);
    let fresh = normalized(fresh);
    let fresh_rows = fresh.get("rows").and_then(Value::as_array).unwrap_or(&[]);
    let committed_rows = committed.get("rows").and_then(Value::as_array).unwrap_or(&[]);
    let key_of =
        |row: &Value| -> Vec<Option<Value>> { keys.iter().map(|k| row.get(k).cloned()).collect() };
    let mut mismatches = Vec::new();
    if fresh_rows.is_empty() {
        mismatches.push(format!("{id}: the experiment produced no rows"));
    }
    for row in fresh_rows {
        let key = key_of(row);
        let label = format!(
            "{id} row {}",
            serde_json::to_string(&Value::from(
                key.iter().map(|k| k.clone().unwrap_or(Value::Null)).collect::<Vec<_>>()
            ))
            .expect("keys serialize")
        );
        match committed_rows.iter().find(|c| key_of(c) == key) {
            None => mismatches.push(format!("{label}: no committed row covers it")),
            Some(reference) if !same(reference, row) => {
                let mut fields: Vec<&String> =
                    reference.as_object().unwrap_or(&[]).iter().map(|(k, _)| k).collect();
                fields.extend(row.as_object().unwrap_or(&[]).iter().map(|(k, _)| k));
                fields.sort();
                fields.dedup();
                let differing: Vec<&str> = fields
                    .into_iter()
                    .filter(|k| !matches!((reference.get(k), row.get(k)), (Some(a), Some(b)) if same(a, b)))
                    .map(String::as_str)
                    .collect();
                mismatches
                    .push(format!("{label}: differs from the committed row in {differing:?}"));
            }
            Some(_) => {}
        }
    }
    (fresh_rows.len() as u64, mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).expect("test JSON parses")
    }

    fn committed() -> Value {
        parse(
            r#"{"experiment": "fig13", "rows": [
                {"app": "sha", "config": "ACC", "inst_per_cycle_increase_pct": 1.5, "speedup_pct": 2.25},
                {"app": "sha", "config": "ACC+Kagura", "inst_per_cycle_increase_pct": 3.0, "speedup_pct": null},
                {"app": "crc32", "config": "ACC", "inst_per_cycle_increase_pct": 0.5, "speedup_pct": 0.125}
            ]}"#,
        )
    }

    #[test]
    fn matching_rows_pass_in_any_field_order() {
        let fresh = parse(
            r#"{"experiment": "fig13", "rows": [
                {"app": "sha", "config": "ACC", "speedup_pct": 2.25, "inst_per_cycle_increase_pct": 1.5},
                {"app": "sha", "config": "ACC+Kagura", "speedup_pct": null, "inst_per_cycle_increase_pct": 3.0}
            ]}"#,
        );
        assert_eq!(check_rows("fig13", &fresh, &committed()), (2, vec![]));
    }

    #[test]
    fn a_perturbed_or_unknown_row_is_reported() {
        let fresh = parse(
            r#"{"rows": [
                {"app": "sha", "config": "ACC", "speedup_pct": 2.2500001, "inst_per_cycle_increase_pct": 1.5},
                {"app": "jpeg", "config": "ACC", "speedup_pct": 1.0, "inst_per_cycle_increase_pct": 1.0}
            ]}"#,
        );
        let (n, bad) = check_rows("fig13", &fresh, &committed());
        assert_eq!(n, 2);
        assert_eq!(bad.len(), 2, "{bad:?}");
        assert!(bad[0].contains("speedup_pct"), "{}", bad[0]);
        assert!(bad[1].contains("no committed row"), "{}", bad[1]);
    }

    #[test]
    fn an_empty_payload_fails() {
        let (n, bad) = check_rows("fig23", &parse(r#"{"rows": []}"#), &committed());
        assert_eq!((n, bad.len()), (0, 1));
    }
}
