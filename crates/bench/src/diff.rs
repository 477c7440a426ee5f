//! Structural comparison of bench JSON documents against committed
//! baselines — the engine behind the `bench_diff` binary.
//!
//! The simulation is deterministic, so a committed `BENCH_<name>.json`
//! is an exact promise: the same seed must reproduce every number, and
//! the comparison is exact. A deliberate recalibration re-commits the
//! baseline.
//!
//! Everything here is hand-rolled on purpose — the repo carries no JSON
//! dependency. The parser is a small recursive-descent reader for the
//! documents this workspace writes (objects, arrays, strings with the
//! escapes [`obs::json::escape`] emits, f64 numbers, booleans, null).

use std::fmt;

/// A parsed JSON value. Object keys keep insertion order (comparison is
/// key-based, but error paths read better in document order).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key of an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The f64 payload of a number value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// A parse failure with its byte offset.
#[derive(Debug)]
pub struct ParseError {
    pub at: usize,
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.at, self.msg)
    }
}

/// Parse one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        at: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            at: self.at,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.at += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("\\u escape out of range"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged).
                    let rest = &self.bytes[self.at..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.at;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E') | Some(b'0'..=b'9')
        ) {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("bad number '{text}'")))
    }
}

/// One baseline/current disagreement, with the JSON path that diverged.
#[derive(Clone, Debug)]
pub struct Mismatch {
    pub path: String,
    pub detail: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.detail)
    }
}

/// Compare `current` against `baseline` structurally and exactly:
/// scalars must be equal, arrays must match element-wise, and objects
/// must carry the same keys on both sides. Returns every disagreement
/// found, each under the JSON path that diverged.
pub fn compare(baseline: &Json, current: &Json) -> Vec<Mismatch> {
    let mut out = Vec::new();
    walk(baseline, current, "$", &mut out);
    out
}

fn push(out: &mut Vec<Mismatch>, path: &str, detail: String) {
    out.push(Mismatch {
        path: path.to_string(),
        detail,
    });
}

fn walk(b: &Json, c: &Json, path: &str, out: &mut Vec<Mismatch>) {
    match (b, c) {
        (Json::Obj(bf), Json::Obj(cf)) => {
            for (k, bv) in bf {
                match c.get(k) {
                    Some(cv) => walk(bv, cv, &format!("{path}.{k}"), out),
                    None => push(out, path, format!("missing key '{k}'")),
                }
            }
            for (k, _) in cf {
                if b.get(k).is_none() {
                    push(out, path, format!("unexpected key '{k}'"));
                }
            }
        }
        (Json::Arr(ba), Json::Arr(ca)) => {
            if ba.len() != ca.len() {
                push(
                    out,
                    path,
                    format!("length {} differs from baseline {}", ca.len(), ba.len()),
                );
            }
            for (i, (bv, cv)) in ba.iter().zip(ca).enumerate() {
                walk(bv, cv, &format!("{path}[{i}]"), out);
            }
        }
        _ if b == c => {}
        _ => push(
            out,
            path,
            format!("{} differs from baseline {}", render(c), render(b)),
        ),
    }
}

fn render(v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => n.to_string(),
        Json::Str(s) => format!("\"{s}\""),
        other => other.kind().into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{"bench":"unit","deterministic":true,"series":[
        {"label":"a \"quoted\" one","points":[
            {"x":8,"mean_us":100.0,"stddev":null,"mbps":12.5},
            {"x":16,"mean_us":2e2,"stddev":null,"mbps":-25.0}]}]}"#;

    #[test]
    fn parses_workspace_shaped_documents() {
        let v = parse(DOC).unwrap();
        assert_eq!(v.get("bench"), Some(&Json::Str("unit".into())));
        assert_eq!(v.get("deterministic"), Some(&Json::Bool(true)));
        let Some(Json::Arr(series)) = v.get("series") else {
            panic!("series array");
        };
        assert_eq!(
            series[0].get("label"),
            Some(&Json::Str("a \"quoted\" one".into()))
        );
        let Some(Json::Arr(points)) = series[0].get("points") else {
            panic!("points array");
        };
        assert_eq!(points[1].get("mean_us").unwrap().as_f64(), Some(200.0));
        assert_eq!(points[1].get("mbps").unwrap().as_f64(), Some(-25.0));
        assert_eq!(points[0].get("stddev"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn identical_documents_have_no_mismatches() {
        let b = parse(DOC).unwrap();
        let c = parse(DOC).unwrap();
        assert!(compare(&b, &c).is_empty());
    }

    #[test]
    fn any_numeric_difference_is_a_mismatch() {
        let b = parse(r#"{"series":[{"mean_us":100.0,"buckets":[[3,17]]}]}"#).unwrap();
        let c = parse(r#"{"series":[{"mean_us":100.000001,"buckets":[[3,18]]}]}"#).unwrap();
        let bad = compare(&b, &c);
        assert_eq!(bad.len(), 2, "{bad:?}");
        assert_eq!(bad[0].path, "$.series[0].mean_us");
        assert_eq!(bad[1].path, "$.series[0].buckets[0][1]");
        assert_eq!(bad[1].detail, "18 differs from baseline 17");
    }

    #[test]
    fn structural_changes_are_always_mismatches() {
        let b = parse(r#"{"series":[{"x":1},{"x":2}],"flag":true}"#).unwrap();
        let shorter = parse(r#"{"series":[{"x":1}],"flag":true}"#).unwrap();
        let retyped = parse(r#"{"series":[{"x":1},{"x":2}],"flag":"yes"}"#).unwrap();
        let missing = parse(r#"{"series":[{"x":1},{"x":2}]}"#).unwrap();
        let extra = parse(r#"{"series":[{"x":1},{"x":2}],"flag":true,"new":1}"#).unwrap();
        for doc in [&shorter, &retyped, &missing, &extra] {
            assert!(!compare(&b, doc).is_empty());
        }
    }
}
