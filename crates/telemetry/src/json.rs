//! The `metrics.json` artifact: a stable, sorted rendering of a merged
//! [`Sheet`], plus a small JSON parser and schema validator so CI can check
//! the artifact with a plain Rust test (no `jq`, no serde).
//!
//! Schema `sops-metrics-v1`:
//!
//! ```json
//! {
//!   "schema": "sops-metrics-v1",
//!   "counters":   { "<name>": <u64>, ... },
//!   "gauges":     { "<name>": <f64|null>, ... },
//!   "histograms": { "<name>": { "count": <u64>, "min": <u64>, "max": <u64>,
//!                                "mean": <f64|null>, "p50": <u64>,
//!                                "p90": <u64>, "p99": <u64>,
//!                                "sum": <u128> }, ... }
//! }
//! ```
//!
//! Keys are sorted (the sheet's `BTreeMap`s guarantee it) and the rendering
//! is byte-stable for a given sheet, so artifacts diff cleanly across runs.
//! Non-finite floats render as `null` — JSON has no NaN/Infinity.

use crate::registry::Sheet;

/// Name of the current metrics schema, embedded in the artifact.
pub const SCHEMA: &str = "sops-metrics-v1";

/// Renders a merged sheet as the `metrics.json` document (2-space indent,
/// sorted keys, trailing newline).
#[must_use]
pub fn metrics_json(sheet: &Sheet) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": {},\n", quote(SCHEMA)));

    out.push_str("  \"counters\": {");
    push_entries(&mut out, sheet.counters().map(|(k, v)| (k, v.to_string())));
    out.push_str("},\n");

    out.push_str("  \"gauges\": {");
    push_entries(&mut out, sheet.gauges().map(|(k, v)| (k, number(v))));
    out.push_str("},\n");

    out.push_str("  \"histograms\": {");
    let mut first = true;
    for (name, h) in sheet.histograms() {
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
        out.push_str(&format!(
            "    {}: {{\"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \
             \"p50\": {}, \"p90\": {}, \"p99\": {}, \"sum\": {}}}",
            quote(name),
            h.count(),
            h.min(),
            h.max(),
            number(h.mean()),
            h.quantile(0.5),
            h.quantile(0.9),
            h.quantile(0.99),
            h.sum(),
        ));
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push_str("}\n}\n");
    out
}

fn push_entries<'a>(out: &mut String, entries: impl Iterator<Item = (&'a str, String)>) {
    let mut first = true;
    for (k, v) in entries {
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
        out.push_str(&format!("    {}: {v}", quote(k)));
    }
    if !first {
        out.push_str("\n  ");
    }
}

/// JSON string literal (adds the quotes): the one quoter of `metrics.json`
/// and of the engine's JSONL events.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders an `f64` as a JSON number, mapping non-finite values to `null`.
#[must_use]
pub fn number(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        // Keep integral gauges free of a noisy ".0"-vs-exponent ambiguity.
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON parser — just enough to validate the artifact in CI.
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`; `sum` fields may lose precision,
    /// which is fine for validation).
    Num(f64),
    /// String
    Str(String),
    /// Array
    Arr(Vec<Value>),
    /// Object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object members, or `None` for other kinds.
    #[must_use]
    pub fn members(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Number value, or `None` for other kinds.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses a JSON document. Errors carry a byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        members.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        // Surrogates are not produced by our renderer; map
                        // them to the replacement character rather than
                        // implementing pairing.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
            }
            _ => {
                // Re-sync to char boundaries for multibyte UTF-8.
                let start = *pos - 1;
                let ch_len = utf8_len(c);
                let chunk = b
                    .get(start..start + ch_len)
                    .and_then(|s| std::str::from_utf8(s).ok())
                    .ok_or("invalid utf-8 in string")?;
                out.push_str(chunk);
                *pos = start + ch_len;
            }
        }
    }
    Err("unterminated string".to_string())
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

// ---------------------------------------------------------------------------
// Schema validation
// ---------------------------------------------------------------------------

/// Validates a `metrics.json` document against schema [`SCHEMA`]. Returns a
/// human-readable error naming the first violation.
pub fn validate_metrics(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    if doc.get("schema") != Some(&Value::Str(SCHEMA.to_string())) {
        return Err(format!("\"schema\" must be {SCHEMA:?}"));
    }
    let counters = doc
        .get("counters")
        .and_then(Value::members)
        .ok_or("\"counters\" must be an object")?;
    for (name, v) in counters {
        let n = v
            .as_f64()
            .ok_or_else(|| format!("counter {name:?} must be a number"))?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!("counter {name:?} must be a nonnegative integer"));
        }
    }
    let gauges = doc
        .get("gauges")
        .and_then(Value::members)
        .ok_or("\"gauges\" must be an object")?;
    for (name, v) in gauges {
        if !matches!(v, Value::Num(_) | Value::Null) {
            return Err(format!("gauge {name:?} must be a number or null"));
        }
    }
    let histograms = doc
        .get("histograms")
        .and_then(Value::members)
        .ok_or("\"histograms\" must be an object")?;
    for (name, h) in histograms {
        for field in ["count", "min", "max", "p50", "p90", "p99", "sum"] {
            let n = h
                .get(field)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("histogram {name:?} missing numeric {field:?}"))?;
            if n < 0.0 {
                return Err(format!("histogram {name:?} field {field:?} negative"));
            }
        }
        if !matches!(h.get("mean"), Some(Value::Num(_) | Value::Null)) {
            return Err(format!(
                "histogram {name:?} \"mean\" must be number or null"
            ));
        }
        let sorted_keys_ok = ["count", "min", "max", "mean", "p50", "p90", "p99", "sum"]
            .iter()
            .all(|k| h.get(k).is_some());
        if !sorted_keys_ok {
            return Err(format!("histogram {name:?} has missing fields"));
        }
    }
    // Top-level key order is part of the stable schema.
    let keys: Vec<&str> = doc
        .members()
        .unwrap_or(&[])
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["schema", "counters", "gauges", "histograms"] {
        return Err(format!("unexpected top-level keys: {keys:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sheet() -> Sheet {
        let mut s = Sheet::new();
        s.add("chain.steps", 1000);
        s.add("chain.accepted", 437);
        s.gauge_add("local.sim_time", 12.5);
        s.gauge_add("rate.chain.steps_per_sec", 2.0e6);
        s.observe("kmc.dwell", 3);
        s.observe("kmc.dwell", 17);
        s.observe("kmc.dwell", u64::MAX);
        s
    }

    #[test]
    fn rendered_metrics_validate() {
        let text = metrics_json(&sample_sheet());
        validate_metrics(&text).unwrap();
    }

    #[test]
    fn empty_sheet_validates() {
        let text = metrics_json(&Sheet::new());
        validate_metrics(&text).unwrap();
        assert!(text.contains("\"counters\": {}"));
    }

    #[test]
    fn rendering_is_byte_stable() {
        let a = metrics_json(&sample_sheet());
        let b = metrics_json(&sample_sheet());
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn parser_round_trips_rendered_artifact() {
        let text = metrics_json(&sample_sheet());
        let doc = parse(&text).unwrap();
        assert_eq!(
            doc.get("counters").unwrap().get("chain.steps"),
            Some(&Value::Num(1000.0))
        );
        let dwell = doc.get("histograms").unwrap().get("kmc.dwell").unwrap();
        assert_eq!(dwell.get("count"), Some(&Value::Num(3.0)));
    }

    #[test]
    fn non_finite_gauges_render_null() {
        let mut s = Sheet::new();
        s.gauge_add("bad", f64::NAN);
        let text = metrics_json(&s);
        assert!(text.contains("\"bad\": null"), "{text}");
        validate_metrics(&text).unwrap();
    }

    #[test]
    fn validator_rejects_bad_documents() {
        assert!(validate_metrics("{}").is_err());
        assert!(validate_metrics("not json").is_err());
        assert!(validate_metrics(
            "{\"schema\": \"sops-metrics-v1\", \"counters\": {\"x\": -1}, \
             \"gauges\": {}, \"histograms\": {}}"
        )
        .is_err());
        assert!(validate_metrics(
            "{\"schema\": \"wrong\", \"counters\": {}, \"gauges\": {}, \
             \"histograms\": {}}"
        )
        .is_err());
    }

    #[test]
    fn parser_handles_escapes_arrays_and_literals() {
        let doc =
            parse("{\"s\": \"a\\n\\\"b\\u0041\", \"a\": [1, -2.5, true, false, null]}").unwrap();
        assert_eq!(doc.get("s"), Some(&Value::Str("a\n\"bA".to_string())));
        assert_eq!(
            doc.get("a"),
            Some(&Value::Arr(vec![
                Value::Num(1.0),
                Value::Num(-2.5),
                Value::Bool(true),
                Value::Bool(false),
                Value::Null,
            ]))
        );
        assert!(parse("{\"x\": 1} trailing").is_err());
        assert!(parse("{\"x\": }").is_err());
    }

    #[test]
    fn quote_escapes_control_characters() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn number_formatting() {
        assert_eq!(number(2.0), "2");
        assert_eq!(number(2.5), "2.5");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(-0.0), "0");
    }
}
