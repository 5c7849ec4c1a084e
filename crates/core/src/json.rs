//! The workspace's one JSON codec: a tiny writer and its inverse.
//!
//! The writer is deliberately small (objects, arrays, strings, finite
//! numbers, booleans) — enough for `--json` on the regeneration commands,
//! the `BENCH_*.json` documents and the serving wire, with no external
//! serialization dependency. The reader is just enough
//! recursive-descent parsing to load those documents and the request
//! lines back into memory. Object members are kept as an ordered
//! `Vec<(String, Value)>` so a parse → re-render round trip preserves
//! the writer's stable key order (no hash containers; PVS005).
//! [`escape`] is the one string-escape function in the tree.

use crate::report::PerfReport;

/// Minimal JSON string escaping: quotes, backslashes, control chars.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Render a finite number (JSON has no NaN/Inf; they become null).
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A JSON object under construction.
#[derive(Debug, Default, Clone)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// Empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a string field.
    pub fn string(mut self, key: &str, value: &str) -> Self {
        self.fields
            .push((key.to_string(), format!("\"{}\"", escape(value))));
        self
    }

    /// Add a numeric field.
    pub fn number(mut self, key: &str, value: f64) -> Self {
        self.fields.push((key.to_string(), number(value)));
        self
    }

    /// Add a boolean field.
    pub fn boolean(mut self, key: &str, value: bool) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Add an already-rendered JSON value.
    pub fn raw(mut self, key: &str, value: String) -> Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Render.
    pub fn render(&self) -> String {
        let body = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", escape(k)))
            .collect::<Vec<_>>()
            .join(",");
        format!("{{{body}}}")
    }
}

/// Render a JSON array from already-rendered values.
pub fn array(values: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", values.into_iter().collect::<Vec<_>>().join(","))
}

/// Re-render compact JSON with two-space indentation, one member per
/// line, preserving member order byte-for-byte inside strings. The
/// emitters in this module write compact documents; pretty-printing the
/// final document (rather than threading an indent level through every
/// builder) keeps committed baselines like `BENCH_sweep.json` reviewable
/// line-by-line. Empty objects/arrays stay `{}`/`[]`.
pub fn pretty(json: &str) -> String {
    let mut out = String::with_capacity(json.len() * 2);
    let mut depth: usize = 0;
    let mut in_string = false;
    let mut escaped = false;
    let mut chars = json.chars().peekable();
    let indent = |out: &mut String, depth: usize| {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    };
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                let close = if c == '{' { '}' } else { ']' };
                if chars.peek() == Some(&close) {
                    out.push(c);
                    out.push(close);
                    chars.next();
                } else {
                    out.push(c);
                    depth += 1;
                    indent(&mut out, depth);
                }
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                indent(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                indent(&mut out, depth);
            }
            ':' => {
                out.push_str(": ");
            }
            // The compact emitters write no insignificant whitespace;
            // drop any that sneaks in so output is canonical.
            ' ' | '\t' | '\n' | '\r' => {}
            _ => out.push(c),
        }
    }
    out
}

/// Serialize a [`PerfReport`].
pub fn perf_report(r: &PerfReport) -> String {
    let phases = array(r.phases.iter().map(|p| {
        JsonObject::new()
            .string("name", &p.name)
            .number("seconds", p.seconds)
            .number("flops", p.flops)
            .boolean("is_comm", p.is_comm)
            .render()
    }));
    let mut obj = JsonObject::new()
        .string("machine", &r.machine)
        .number("procs", r.procs as f64)
        .number("time_s", r.time_s)
        .number("comm_s", r.comm_s)
        .number("gflops_per_p", r.gflops_per_p)
        .number("pct_peak", r.pct_peak);
    if let Some(avl) = r.avl() {
        obj = obj.number("avl", avl);
    }
    if let Some(vor) = r.vor_pct() {
        obj = obj.number("vor_pct", vor);
    }
    obj.raw("phases", phases).render()
}

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, like the writer emits).
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (first match wins); `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => {
                members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric member of an object.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Value::as_f64)
    }

    /// String member of an object.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Value::as_str)
    }
}

/// Parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

/// Parse one JSON document; trailing whitespace is allowed, trailing
/// content is not.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing content after document"));
    }
    Ok(value)
}

fn err(offset: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        offset,
        message: message.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), ParseError> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected '{}'", c as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Value,
) -> Result<Value, ParseError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected `{word}`")))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(members));
            }
            _ => return Err(err(*pos, "expected ',' or '}' in object")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']' in array")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err(*pos, "non-ASCII \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        // Surrogates never appear in the writers' output;
                        // map them to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so the slice
                // is always well-formed).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0b1100_0000 == 0b1000_0000 {
                    *pos += 1;
                }
                let scalar = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| err(start, "invalid UTF-8 in string"))?;
                out.push_str(scalar);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "bad number"))?;
    text.parse::<f64>()
        .map(Value::Number)
        .map_err(|_| err(start, format!("bad number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PhaseBreakdown;

    fn sample() -> PerfReport {
        PerfReport {
            machine: "ES".into(),
            procs: 64,
            time_s: 1.5,
            comm_s: 0.25,
            flops_per_p: 1e9,
            gflops_per_p: 4.2,
            pct_peak: 52.5,
            vector_metrics: None,
            phases: vec![PhaseBreakdown {
                name: "collision".into(),
                seconds: 1.25,
                flops: 1e9,
                is_comm: false,
            }],
        }
    }

    #[test]
    fn escaped_strings_parse_back_to_the_original() {
        let mut cases = vec!["plain".to_string(), "a\"b\\c\nd\te\r".to_string()];
        cases.extend((0u8..0x20).map(|c| format!("<{}>", c as char)));
        for s in cases {
            let rendered = JsonObject::new().string("s", &s).render();
            assert_eq!(parse(&rendered).unwrap().str("s"), Some(s.as_str()), "{rendered}");
        }
        assert_eq!(escape("a\tb\nc"), "a\\tb\\nc");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn written_documents_parse_back_compact_or_pretty() {
        let report = perf_report(&sample());
        let doc = parse(&report).unwrap();
        assert_eq!(parse(&pretty(&report)).unwrap(), doc);
        assert_eq!(doc.str("machine"), Some("ES"));
        assert_eq!(doc.num("gflops_per_p"), Some(4.2));
        let phase = &doc.get("phases").unwrap().as_array().unwrap()[0];
        assert_eq!(phase.get("is_comm").unwrap().as_bool(), Some(false));
        let list = parse(&array(vec!["1".to_string(), number(f64::NAN)])).unwrap();
        assert_eq!(list.as_array().unwrap()[1], Value::Null);
    }

    #[test]
    fn numbers_are_finite_or_null() {
        assert_eq!(number(2.5), "2.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn object_rendering() {
        let s = JsonObject::new()
            .string("k", "v")
            .number("n", 3.0)
            .boolean("b", true)
            .render();
        assert_eq!(s, "{\"k\":\"v\",\"n\":3,\"b\":true}");
    }

    #[test]
    fn perf_report_roundtrips_key_fields() {
        let s = perf_report(&sample());
        assert!(s.contains("\"machine\":\"ES\""));
        assert!(s.contains("\"gflops_per_p\":4.2"));
        assert!(s.contains("\"phases\":[{"));
        assert!(s.contains("\"is_comm\":false"));
        // No AVL for a superscalar report.
        assert!(!s.contains("avl"));
    }

    #[test]
    fn array_rendering() {
        assert_eq!(array(vec!["1".to_string(), "2".to_string()]), "[1,2]");
        assert_eq!(array(Vec::<String>::new()), "[]");
    }

    #[test]
    fn pretty_indents_and_preserves_content() {
        let compact = "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"x,y:{z}\"},\"e\":[]}";
        let p = pretty(compact);
        assert_eq!(
            p,
            "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    null\n  ],\n  \
             \"c\": {\n    \"d\": \"x,y:{z}\"\n  },\n  \"e\": []\n}"
        );
        // Parsing both forms yields the same value: pretty() changes
        // layout only.
        assert_eq!(parse(&p).unwrap(), parse(compact).unwrap());
    }

    #[test]
    fn pretty_keeps_string_contents_verbatim() {
        let compact = "{\"msg\":\"brace } bracket ] comma , colon : \\\" esc\"}";
        let p = pretty(compact);
        assert!(p.contains("brace } bracket ] comma , colon : \\\" esc"));
        assert_eq!(p.lines().count(), 3);
    }

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("3.25").unwrap(), Value::Number(3.25));
        assert_eq!(parse("-1e3").unwrap(), Value::Number(-1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::String("hi".into()));
    }

    #[test]
    fn nested_document_preserves_member_order() {
        let doc = parse("{\"z\":1,\"a\":[2,{\"k\":\"v\"}],\"m\":null}").unwrap();
        let Value::Object(members) = &doc else { panic!() };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m"], "document order, not sorted");
        assert_eq!(doc.num("z"), Some(1.0));
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn string_escapes_decode() {
        assert_eq!(
            parse("\"a\\\"b\\\\c\\nd\\u0041\"").unwrap(),
            Value::String("a\"b\\c\nd\u{41}".into())
        );
    }

    #[test]
    fn whitespace_everywhere_is_fine() {
        let doc = parse("  {\n  \"k\" :  [ 1 , 2 ]\n}  ").unwrap();
        assert_eq!(doc.get("k").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn errors_carry_offsets() {
        assert!(parse("{\"k\":}").is_err());
        assert!(parse("[1,2").is_err());
        assert!(parse("12 34").unwrap_err().message.contains("trailing"));
        assert!(parse("\"open").is_err());
        assert!(parse("").is_err());
    }
}
