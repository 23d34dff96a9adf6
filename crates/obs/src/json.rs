//! A minimal JSON reader, the one JSON string writer, and the chrome-trace
//! structural validator.
//!
//! The workspace is fully offline (no serde); this is its one small, strict
//! JSON parser. The `omtrace check` CI step and the trace tests use it to
//! prove an emitted `--trace-json` file is well-formed and that its spans
//! nest properly; execution profiles, the `omkill` baseline and the
//! `reproduce check` figure gate are read with it too. It parses the full
//! JSON grammar except `\uXXXX` surrogate pairs (accepted, decoded as the
//! raw code unit when lone), and rejects duplicate object keys. Every JSON
//! writer in the workspace spells its strings with [`quote`].

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    /// A number, kept as its source literal so that integers above 2^53
    /// stay exact for [`JsonValue::as_u64`].
    Num(String),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Object field access (None on non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The exact value of a non-negative integer literal. Negative numbers,
    /// fractions, exponents and values above `u64::MAX` give `None`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if n.bytes().all(|b| b.is_ascii_digit()) => n.parse().ok(),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Compact JSON text: no whitespace, object keys in sorted order, numbers as
/// their source literal.
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Num(n) => f.write_str(n),
            JsonValue::Str(s) => f.write_str(&quote(s)),
            JsonValue::Arr(v) => {
                f.write_str("[")?;
                for (i, x) in v.iter().enumerate() {
                    write!(f, "{}{x}", if i > 0 { "," } else { "" })?;
                }
                f.write_str("]")
            }
            JsonValue::Obj(m) => {
                f.write_str("{")?;
                for (i, (k, x)) in m.iter().enumerate() {
                    write!(f, "{}{}:{x}", if i > 0 { "," } else { "" }, quote(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// `s` as a JSON string literal, quotes included: `"` and `\` are
/// backslash-escaped, `\n`/`\t`/`\r` take their short forms, and every
/// other control character becomes `\u00XX`. Everything else, multi-byte
/// UTF-8 included, passes through unchanged.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses one JSON document (rejecting trailing garbage and duplicate
/// object keys).
///
/// # Errors
///
/// Returns a position-tagged message for any syntax violation.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut at = 0usize;
    let v = value(bytes, &mut at)?;
    skip_ws(bytes, &mut at);
    if at != bytes.len() {
        return Err(format!("trailing garbage at byte {at}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], at: &mut usize) {
    while *at < b.len() && matches!(b[*at], b' ' | b'\t' | b'\n' | b'\r') {
        *at += 1;
    }
}

fn expect(b: &[u8], at: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, at);
    if b.get(*at) == Some(&c) {
        *at += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {at}", c as char))
    }
}

fn value(b: &[u8], at: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, at);
    match b.get(*at) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *at += 1;
            let mut m = BTreeMap::new();
            skip_ws(b, at);
            if b.get(*at) == Some(&b'}') {
                *at += 1;
                return Ok(JsonValue::Obj(m));
            }
            loop {
                skip_ws(b, at);
                let key_at = *at;
                let k = string(b, at)?;
                expect(b, at, b':')?;
                let v = value(b, at)?;
                if m.contains_key(&k) {
                    return Err(format!("duplicate key `{k}` at byte {key_at}"));
                }
                m.insert(k, v);
                skip_ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b'}') => {
                        *at += 1;
                        return Ok(JsonValue::Obj(m));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {at}")),
                }
            }
        }
        Some(b'[') => {
            *at += 1;
            let mut v = Vec::new();
            skip_ws(b, at);
            if b.get(*at) == Some(&b']') {
                *at += 1;
                return Ok(JsonValue::Arr(v));
            }
            loop {
                v.push(value(b, at)?);
                skip_ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b']') => {
                        *at += 1;
                        return Ok(JsonValue::Arr(v));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {at}")),
                }
            }
        }
        Some(b'"') => string(b, at).map(JsonValue::Str),
        Some(b't') => lit(b, at, "true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => lit(b, at, "false").map(|()| JsonValue::Bool(false)),
        Some(b'n') => lit(b, at, "null").map(|()| JsonValue::Null),
        Some(_) => number(b, at),
    }
}

fn lit(b: &[u8], at: &mut usize, word: &str) -> Result<(), String> {
    if b[*at..].starts_with(word.as_bytes()) {
        *at += word.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {at}"))
    }
}

/// Parses an RFC 8259 number: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
fn number(b: &[u8], at: &mut usize) -> Result<JsonValue, String> {
    let start = *at;
    let eat = |at: &mut usize, set: &[u8]| {
        let hit = b.get(*at).is_some_and(|c| set.contains(c));
        *at += hit as usize;
        hit
    };
    let digits = |at: &mut usize| {
        let from = *at;
        while eat(at, b"0123456789") {}
        *at - from
    };
    eat(at, b"-");
    let int = *at;
    let mut ok = match digits(at) {
        0 => false,
        1 => true,
        _ => b[int] != b'0',
    };
    if eat(at, b".") {
        ok &= digits(at) > 0;
    }
    if eat(at, b"eE") {
        eat(at, b"+-");
        ok &= digits(at) > 0;
    }
    if !ok {
        return Err(format!("bad number at byte {start}"));
    }
    // The grammar admits only ASCII, so the slice is valid UTF-8.
    let s = std::str::from_utf8(&b[start..*at]).map_err(|e| e.to_string())?;
    Ok(JsonValue::Num(s.to_string()))
}

fn string(b: &[u8], at: &mut usize) -> Result<String, String> {
    if b.get(*at) != Some(&b'"') {
        return Err(format!("expected string at byte {at}"));
    }
    *at += 1;
    let mut out = String::new();
    loop {
        match b.get(*at) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *at += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *at += 1;
                match b.get(*at) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*at + 1..*at + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *at += 4;
                    }
                    _ => return Err(format!("bad escape at byte {at}")),
                }
                *at += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 passes through unchanged.
                let len = match c {
                    0x00..=0x1f => return Err(format!("raw control byte at {at}")),
                    0x20..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = b.get(*at..*at + len).ok_or("truncated utf8")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *at += len;
            }
        }
    }
}

/// One span event pulled out of a chrome trace for validation.
#[derive(Debug, Clone)]
struct CheckSpan {
    name: String,
    tid: u64,
    start: f64,
    end: f64,
    depth: u64,
}

/// Validates a `--trace-json` document: parses, checks every `traceEvents`
/// entry is a well-formed complete/metadata event, and proves the complete
/// spans nest properly per thread (no partial overlap). Returns the span
/// names found.
///
/// # Errors
///
/// Returns a description of the first structural violation.
pub fn validate_chrome_trace(text: &str) -> Result<Vec<String>, String> {
    let doc = parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("missing traceEvents array")?;
    doc.get("counters")
        .and_then(|c| match c {
            JsonValue::Obj(_) => Some(()),
            _ => None,
        })
        .ok_or("missing counters object")?;

    let mut spans: Vec<CheckSpan> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or(format!("event {i}: missing ph"))?;
        match ph {
            "M" => continue, // metadata
            "X" => {}
            other => return Err(format!("event {i}: unsupported ph `{other}`")),
        }
        let name = e
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or(format!("event {i}: missing name"))?;
        if name.is_empty() {
            return Err(format!("event {i}: empty name"));
        }
        let num = |key: &str| {
            e.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or(format!("event {i}: missing {key}"))
        };
        let (ts, dur, tid) = (num("ts")?, num("dur")?, num("tid")?);
        if ts < 0.0 || dur < 0.0 {
            return Err(format!("event {i}: negative ts/dur"));
        }
        let depth = e
            .get("args")
            .and_then(|a| a.get("depth"))
            .and_then(JsonValue::as_f64)
            .ok_or(format!("event {i}: missing args.depth"))? as u64;
        spans.push(CheckSpan { name: name.to_string(), tid: tid as u64, start: ts, end: ts + dur, depth });
    }

    // Nesting check, per tid: sort by (start, deeper-last, longer-first) and
    // sweep with a stack. A span must be disjoint from, or fully contained
    // in, the enclosing one.
    let mut by_tid: BTreeMap<u64, Vec<&CheckSpan>> = BTreeMap::new();
    for s in &spans {
        by_tid.entry(s.tid).or_default().push(s);
    }
    for (tid, mut list) in by_tid {
        list.sort_by(|a, b| {
            a.start
                .partial_cmp(&b.start)
                .unwrap()
                .then(a.depth.cmp(&b.depth))
                .then(b.end.partial_cmp(&a.end).unwrap())
        });
        let mut stack: Vec<&CheckSpan> = Vec::new();
        for s in list {
            while let Some(top) = stack.last() {
                if s.start >= top.end {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                if s.end > top.end {
                    return Err(format!(
                        "tid {tid}: span `{}` [{}, {}] partially overlaps `{}` [{}, {}]",
                        s.name, s.start, s.end, top.name, top.start, top.end
                    ));
                }
                if s.depth != top.depth + 1 {
                    return Err(format!(
                        "tid {tid}: span `{}` depth {} inside `{}` depth {}",
                        s.name, s.depth, top.name, top.depth
                    ));
                }
            } else if s.depth != 0 {
                return Err(format!(
                    "tid {tid}: top-level span `{}` claims depth {}",
                    s.name, s.depth
                ));
            }
            stack.push(s);
        }
    }

    Ok(spans.into_iter().map(|s| s.name).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    #[test]
    fn parses_scalars_and_structures() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap().as_f64(), Some(-150.0));
        assert_eq!(parse(r#""a\nb\u0041""#).unwrap(), JsonValue::Str("a\nbA".into()));
        let v = parse(r#"{"a":[1,2,{"b":"c"}],"d":{}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert!(v.get("d").is_some());
    }

    #[test]
    fn as_u64_is_exact_for_non_negative_integers_only() {
        let max = u64::MAX.to_string();
        assert_eq!(parse(&max).unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
        for not_u64 in ["-1", "1.5", "1e3", "18446744073709551616", "\"7\"", "null"] {
            assert_eq!(parse(not_u64).unwrap().as_u64(), None, "{not_u64}");
        }
        // The f64 view of the same literal is unchanged (and rounded).
        assert_eq!(parse(&max).unwrap().as_f64(), Some(u64::MAX as f64));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\"}", "tru", "1 2", "\"\\x\"", "{\"a\":1,}"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_a_leading_plus() {
        assert!(parse("+1").is_err());
    }

    #[test]
    fn rejects_a_missing_integer_part() {
        assert!(parse(".5").is_err());
    }

    #[test]
    fn rejects_a_leading_zero() {
        assert!(parse("01").is_err());
    }

    #[test]
    fn rejects_an_empty_fraction() {
        assert!(parse("1.").is_err());
    }

    #[test]
    fn rejects_an_empty_exponent() {
        assert!(parse("1e").is_err());
    }

    #[test]
    fn rejects_a_doubled_sign() {
        assert!(parse("--1").is_err());
    }

    #[test]
    fn rejects_a_bare_minus() {
        assert!(parse("-").is_err());
    }

    #[test]
    fn accepts_every_rfc_8259_number_form() {
        for (text, v) in [("0", 0.0), ("-0", -0.0), ("-0.5e+3", -500.0), ("12E-2", 0.12)] {
            assert_eq!(parse(text).unwrap(), JsonValue::Num(text.into()), "{text}");
            assert_eq!(parse(text).unwrap().as_f64(), Some(v), "{text}");
        }
    }

    #[test]
    fn rejects_duplicate_keys_with_their_position() {
        let err = parse(r#"{"a":1,"b":2,"a":3}"#).unwrap_err();
        assert_eq!(err, "duplicate key `a` at byte 13");
        let err = parse(r#"[{"x":{"k":1,"k":1}}]"#).unwrap_err();
        assert!(err.contains("duplicate key `k`"), "{err}");
        // Equal keys in different objects are fine.
        assert!(parse(r#"[{"a":1},{"a":1}]"#).is_ok());
    }

    #[test]
    fn quote_and_display_round_trip() {
        assert_eq!(quote("plain.name"), r#""plain.name""#);
        assert_eq!(quote("q\"b\\n\nt\tr\r\u{1}é"), r#""q\"b\\n\nt\tr\r\u0001é""#);
        for s in ["", "we\"ird\\name\n.mod", "\u{1f}\u{7f}ü"] {
            assert_eq!(parse(&quote(s)).unwrap(), JsonValue::Str(s.into()), "{s:?}");
        }
        let text = r#"{"b":[1.0,-2e3,null],"a":{"s":"x\ty","t":true}}"#;
        let shown = parse(text).unwrap().to_string();
        assert_eq!(shown, r#"{"a":{"s":"x\ty","t":true},"b":[1.0,-2e3,null]}"#);
        assert_eq!(parse(&shown).unwrap(), parse(text).unwrap());
    }

    #[test]
    fn validates_a_real_trace() {
        let t = Trace::new();
        {
            let _g = t.install();
            let _a = crate::span("pipeline");
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                let _b = crate::span("pass.convert");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            {
                let _c = crate::span("pass.nullify");
            }
            crate::count("pass.convert.addr_loads_converted", 3);
        }
        let text = t.chrome_json("om");
        let names = validate_chrome_trace(&text).unwrap();
        assert!(names.contains(&"pipeline".to_string()));
        assert!(names.contains(&"pass.convert".to_string()));
        let doc = parse(&text).unwrap();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("pass.convert.addr_loads_converted"))
                .and_then(JsonValue::as_f64),
            Some(3.0)
        );
    }

    #[test]
    fn flags_partial_overlap() {
        let text = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":0.0,"dur":10.0,"tid":0,"args":{"depth":0}},
            {"name":"b","ph":"X","ts":5.0,"dur":10.0,"tid":0,"args":{"depth":1}}
        ],"counters":{}}"#;
        let err = validate_chrome_trace(text).unwrap_err();
        assert!(err.contains("partially overlaps"), "{err}");
    }

    #[test]
    fn flags_depth_lies() {
        let text = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":0.0,"dur":10.0,"tid":0,"args":{"depth":0}},
            {"name":"b","ph":"X","ts":2.0,"dur":2.0,"tid":0,"args":{"depth":2}}
        ],"counters":{}}"#;
        assert!(validate_chrome_trace(text).is_err());
    }
}
