//! The one strict JSONL codec every observer stream shares: flight
//! records, cachescope boundary rows, leakscope probes and fleet strata.
//!
//! * **Accessors** — typed reads over a dotted path with array indices
//!   (`"dcache.counters.hits"`, `"icache[3].blocks[0][1]"`). Every error
//!   names the whole path in one wording: ``missing field `a.b` `` or
//!   ``field `a.b` is not an unsigned integer``. [`nested`] and [`items`]
//!   hand a sub-document to its own decoder and re-root that decoder's
//!   errors, so they still name the path from the top.
//! * **Writer** — [`to_string`]: one compact JSON object per line, each
//!   line newline-terminated.
//! * **Readers** — they own the line loop: blank lines are skipped, a
//!   line that is not JSON is `invalid JSON`, every record carries a
//!   string `kind`, and every error is a `(1-based line, message)` pair.
//!   [`read_records`] reads a stream of independent records (flight
//!   records); [`read_framed`] reads a [`Framed`] stream whose header
//!   comes first and once and whose `summary` comes last and once
//!   (cachescope, leakscope, fleet).

use serde_json::Value;

/// A stream defect: the 1-based line it sits on and what is wrong.
pub type LineError = (usize, String);

/// The value at `path`: `.`-separated member names, each optionally
/// followed by `[i]` array indices. The empty path is `v` itself.
pub fn field<'a>(v: &'a Value, path: &str) -> Result<&'a Value, String> {
    let missing = || format!("missing field `{path}`");
    let (mut cur, mut rest) = (v, path);
    while !rest.is_empty() {
        let end = rest.find(['.', '[']).unwrap_or(rest.len());
        if end > 0 {
            cur = cur.get(&rest[..end]).ok_or_else(missing)?;
        }
        rest = &rest[end..];
        while let Some(tail) = rest.strip_prefix('[') {
            let (index, tail) = tail.split_once(']').ok_or_else(missing)?;
            let i: usize = index.parse().map_err(|_| missing())?;
            cur = cur.as_array().and_then(|items| items.get(i)).ok_or_else(missing)?;
            rest = tail;
        }
        rest = rest.strip_prefix('.').unwrap_or(rest);
    }
    Ok(cur)
}

fn typed<'a, T>(
    v: &'a Value,
    path: &str,
    what: &str,
    get: impl FnOnce(&'a Value) -> Option<T>,
) -> Result<T, String> {
    get(field(v, path)?).ok_or_else(|| format!("field `{path}` is not {what}"))
}

/// The unsigned integer at `path`.
pub fn u64(v: &Value, path: &str) -> Result<u64, String> {
    typed(v, path, "an unsigned integer", Value::as_u64)
}

/// The signed integer at `path`.
pub fn i64(v: &Value, path: &str) -> Result<i64, String> {
    typed(v, path, "an integer", Value::as_i64)
}

/// The number at `path` (integers widen to `f64`).
pub fn f64(v: &Value, path: &str) -> Result<f64, String> {
    typed(v, path, "a number", Value::as_f64)
}

/// The boolean at `path`.
pub fn bool(v: &Value, path: &str) -> Result<bool, String> {
    typed(v, path, "a boolean", Value::as_bool)
}

/// The string at `path`.
pub fn str<'a>(v: &'a Value, path: &str) -> Result<&'a str, String> {
    typed(v, path, "a string", Value::as_str)
}

/// The array at `path`.
pub fn array<'a>(v: &'a Value, path: &str) -> Result<&'a [Value], String> {
    typed(v, path, "an array", Value::as_array)
}

/// The array of unsigned integers at `path`.
pub fn u64s(v: &Value, path: &str) -> Result<Vec<u64>, String> {
    items(v, path, |x| u64(x, ""))
}

/// `None` when the field at `path` is `null`, otherwise `get(v, path)`.
pub fn nullable<T>(
    v: &Value,
    path: &str,
    get: fn(&Value, &str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match field(v, path)? {
        Value::Null => Ok(None),
        _ => get(v, path).map(Some),
    }
}

/// Decodes the sub-document at `path` with `decode`; its errors are
/// re-rooted at `path`.
pub fn nested<T>(
    v: &Value,
    path: &str,
    decode: impl FnOnce(&Value) -> Result<T, String>,
) -> Result<T, String> {
    decode(field(v, path)?).map_err(|e| within(path, e))
}

/// Decodes every item of the array at `path` with `decode`; an item's
/// errors are re-rooted at `path[i]`.
pub fn items<T>(
    v: &Value,
    path: &str,
    mut decode: impl FnMut(&Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let decode_at = |(i, item)| decode(item).map_err(|e| within(&format!("{path}[{i}]"), e));
    array(v, path)?.iter().enumerate().map(decode_at).collect()
}

/// Re-roots `e`, an error about the value at `path`: a message that
/// starts by naming a field (``missing field `p` ``, ``field `p` ``,
/// ``in `p`: ``) names `path` joined with `p`; any other message is
/// prefixed with ``in `path`: ``.
fn within(path: &str, e: String) -> String {
    for head in ["missing field `", "field `", "in `"] {
        if let Some(rest) = e.strip_prefix(head) {
            let sep = if rest.starts_with(['[', '`']) { "" } else { "." };
            return format!("{head}{path}{sep}{rest}");
        }
    }
    format!("in `{path}`: {e}")
}

/// Serializes `records` as JSONL: one compact object per line, each
/// line newline-terminated.
pub fn to_string(records: &[Value]) -> String {
    records.iter().map(|v| serde_json::to_string(v).expect("serializable") + "\n").collect()
}

/// The non-blank lines of `text` as `(1-based line, value)`.
fn lines(text: &str) -> impl Iterator<Item = Result<(usize, Value), LineError>> + '_ {
    text.lines().enumerate().filter(|(_, line)| !line.trim().is_empty()).map(|(i, line)| {
        serde_json::from_str(line)
            .map(|v| (i + 1, v))
            .map_err(|e| (i + 1, format!("invalid JSON: {e}")))
    })
}

/// Reads a stream of independent records: each non-blank line is
/// decoded by `decode(kind, value)`.
pub fn read_records<T>(
    text: &str,
    mut decode: impl FnMut(&str, &Value) -> Result<T, String>,
) -> Result<Vec<T>, LineError> {
    lines(text)
        .map(|line| {
            let (lineno, v) = line?;
            str(&v, "kind").and_then(|kind| decode(kind, &v)).map_err(|e| (lineno, e))
        })
        .collect()
}

/// A framed stream: one header line of kind [`Framed::HEADER`] first,
/// then any number of [`Framed::RECORDS`] lines, then one `summary`
/// line last. The header line builds the parsed stream; every later
/// line fills it in.
pub trait Framed: Sized {
    /// The header line's `kind`.
    const HEADER: &'static str;
    /// The `kind`s allowed between the header and the summary.
    const RECORDS: &'static [&'static str];

    /// Decodes the header line.
    fn header(v: &Value) -> Result<Self, String>;

    /// Decodes one record line; `kind` is one of [`Framed::RECORDS`].
    fn record(&mut self, kind: &str, v: &Value) -> Result<(), String>;

    /// Decodes the `summary` line.
    fn summary(&mut self, v: &Value) -> Result<(), String>;

    /// Whole-stream checks once every line is read; an error is
    /// reported on the last line.
    fn check(&self) -> Result<(), String>;
}

/// Reads a [`Framed`] stream strictly.
pub fn read_framed<T: Framed>(text: &str) -> Result<T, LineError> {
    let mut stream: Option<T> = None;
    let mut closed = false;
    for line in lines(text) {
        let (lineno, v) = line?;
        let at = |e: String| (lineno, e);
        if closed {
            return Err(at("unexpected line after the `summary` line".into()));
        }
        let kind = str(&v, "kind").map_err(at)?;
        match &mut stream {
            None if kind == T::HEADER => stream = Some(T::header(&v).map_err(at)?),
            None => {
                return Err(at(format!("first line must have kind `{}`, got `{kind}`", T::HEADER)))
            }
            Some(_) if kind == T::HEADER => {
                return Err(at(format!("duplicate `{kind}` header line")));
            }
            Some(s) if kind == "summary" => {
                s.summary(&v).map_err(at)?;
                closed = true;
            }
            Some(s) if T::RECORDS.contains(&kind) => s.record(kind, &v).map_err(at)?,
            Some(_) => return Err(at(format!("unknown line kind `{kind}`"))),
        }
    }
    let last = text.lines().count().max(1);
    let stream = stream
        .ok_or_else(|| (last, format!("empty stream: missing `{}` header line", T::HEADER)))?;
    if !closed {
        return Err((last, "stream ended without a `summary` line".into()));
    }
    stream.check().map_err(|e| (last, e))?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn accessors_walk_dotted_and_indexed_paths() {
        let v = json!({"a": {"b": 7, "neg": -3, "x": 1.5, "t": true, "s": "hi"},
                       "rows": [json!({"pair": [4, false]})], "gap": null});
        assert_eq!(u64(&v, "a.b"), Ok(7));
        assert_eq!(i64(&v, "a.neg"), Ok(-3));
        assert_eq!(f64(&v, "a.b"), Ok(7.0));
        assert_eq!(bool(&v, "a.t"), Ok(true));
        assert_eq!(str(&v, "a.s"), Ok("hi"));
        assert_eq!(u64(&v, "rows[0].pair[0]"), Ok(4));
        assert_eq!(bool(&v, "rows[0].pair[1]"), Ok(false));
        assert_eq!(array(&v, "rows").map(<[Value]>::len), Ok(1));
        assert_eq!(
            u64s(&v, "rows[0].pair"),
            Err("field `rows[0].pair[1]` is not an unsigned integer".into())
        );
        assert_eq!(u64s(&json!({"n": [1, 2]}), "n"), Ok(vec![1, 2]));
        assert_eq!(nullable(&v, "gap", u64), Ok(None));
        assert_eq!(nullable(&v, "a.b", u64), Ok(Some(7)));

        assert_eq!(u64(&v, "a.c"), Err("missing field `a.c`".into()));
        assert_eq!(u64(&v, "rows[1].pair"), Err("missing field `rows[1].pair`".into()));
        assert_eq!(u64(&v, "a.neg"), Err("field `a.neg` is not an unsigned integer".into()));
        assert_eq!(str(&v, "a.b"), Err("field `a.b` is not a string".into()));
        assert_eq!(array(&v, "a"), Err("field `a` is not an array".into()));
        assert_eq!(nullable(&v, "a.s", u64), Err("field `a.s` is not an unsigned integer".into()));
        assert_eq!(field(&v, "").unwrap(), &v);
    }

    #[test]
    fn sub_decoders_report_paths_from_the_top() {
        let v = json!({"a": {"s": "x"}, "rows": [json!({"n": 1}), json!({"n": [2, "y"]})]});
        let err = nested(&v, "a", |a| u64(a, "s")).unwrap_err();
        assert_eq!(err, "field `a.s` is not an unsigned integer");
        let err = items(&v, "rows", |row| u64(row, "n")).unwrap_err();
        assert_eq!(err, "field `rows[1].n` is not an unsigned integer");
        let err = items(&v, "rows", |row| items(row, "n", |n| u64(n, ""))).unwrap_err();
        assert_eq!(err, "field `rows[0].n` is not an array");
        let err = nested(&v, "rows[1]", |row| u64s(row, "n")).unwrap_err();
        assert_eq!(err, "field `rows[1].n[1]` is not an unsigned integer");
        let err = nested(&v, "rows", |rows| nested(rows, "[0]", |_| Err::<(), _>("odd".into())));
        assert_eq!(err.unwrap_err(), "in `rows[0]`: odd");
        let err = nested(&v, "a", |a| nested(a, "t", |t| u64(t, ""))).unwrap_err();
        assert_eq!(err, "missing field `a.t`");
    }

    #[test]
    fn records_round_trip_and_errors_name_the_line() {
        let text = to_string(&[json!({"kind": "a", "n": 1u64}), json!({"kind": "b", "n": 2u64})]);
        assert_eq!(text, "{\"kind\":\"a\",\"n\":1}\n{\"kind\":\"b\",\"n\":2}\n");
        let decode = |kind: &str, v: &Value| Ok((kind.to_string(), u64(v, "n")?));
        let blank = text.replacen('\n', "\n\n", 1);
        assert_eq!(read_records(&blank, decode), Ok(vec![("a".into(), 1), ("b".into(), 2)]));
        let err = read_records("{\"kind\":\"a\",\"n\":1}\n{\"kind\":\"a\"}\n", decode);
        assert_eq!(err, Err((2, "missing field `n`".into())));
        assert_eq!(read_records("{\"n\":1}", decode), Err((1, "missing field `kind`".into())));
        let (line, msg) = read_records("\n{\"kind\":", decode).unwrap_err();
        assert_eq!(line, 2);
        assert!(msg.starts_with("invalid JSON"), "{msg}");
    }

    /// A minimal framed stream: `demo` header, `row` records, `summary`.
    #[derive(Debug, PartialEq)]
    struct Demo {
        rows: Vec<u64>,
        total: u64,
    }

    impl Framed for Demo {
        const HEADER: &'static str = "demo";
        const RECORDS: &'static [&'static str] = &["row"];

        fn header(_: &Value) -> Result<Self, String> {
            Ok(Demo { rows: Vec::new(), total: 0 })
        }

        fn record(&mut self, _: &str, v: &Value) -> Result<(), String> {
            self.rows.push(u64(v, "n")?);
            Ok(())
        }

        fn summary(&mut self, v: &Value) -> Result<(), String> {
            self.total = u64(v, "total")?;
            Ok(())
        }

        fn check(&self) -> Result<(), String> {
            let sum: u64 = self.rows.iter().sum();
            (sum == self.total).then_some(()).ok_or_else(|| "rows do not add up to `total`".into())
        }
    }

    const HEADER: &str = "{\"kind\":\"demo\"}";
    const ROW: &str = "{\"kind\":\"row\",\"n\":2}";
    const SUMMARY: &str = "{\"kind\":\"summary\",\"total\":2}";

    #[test]
    fn framed_reader_enforces_header_first_and_summary_last() {
        let cases: [(&str, &[&str], usize, &str); 7] = [
            ("missing header", &[ROW, SUMMARY], 1, "first line must have kind `demo`, got `row`"),
            ("duplicate header", &[HEADER, HEADER, SUMMARY], 2, "duplicate `demo` header line"),
            ("missing summary", &[HEADER, ROW], 2, "stream ended without a `summary` line"),
            (
                "line after summary",
                &[HEADER, ROW, SUMMARY, ROW],
                4,
                "unexpected line after the `summary` line",
            ),
            ("unknown kind", &[HEADER, "{\"kind\":\"mystery\"}"], 2, "unknown line kind `mystery`"),
            ("empty stream", &[""], 1, "empty stream: missing `demo` header line"),
            ("failed check", &[HEADER, ROW, ROW, SUMMARY], 4, "rows do not add up to `total`"),
        ];
        for (name, lines, line, msg) in cases {
            let got = read_framed::<Demo>(&lines.join("\n"));
            assert_eq!(got, Err((line, msg.to_string())), "{name}");
        }
        let text = format!("{HEADER}\n{ROW}\n\n{SUMMARY}\n");
        assert_eq!(read_framed::<Demo>(&text), Ok(Demo { rows: vec![2], total: 2 }));
        let (line, msg) = read_framed::<Demo>(&format!("{HEADER}\n{{\"kind\":")).unwrap_err();
        assert_eq!(line, 2);
        assert!(msg.starts_with("invalid JSON"), "{msg}");
    }
}
