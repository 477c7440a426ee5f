//! The workspace's one JSON codec: a value type, a renderer and a parser.
//!
//! Every document the workspace writes — `BENCH_*`/`PROFILE_*`, Chrome
//! traces, counter JSONL — is built as a [`Json`] value and rendered by
//! [`render`], and `bench_diff` reads the documents back with [`parse`].
//! Escaping, number format and layout are decided here and nowhere else.
//! The build carries no external crates, so all of it is hand-rolled.
//!
//! - Integers are kept exact ([`Json::Int`] spans `u64` and `i64`).
//! - Floats render as integers when integral and below 1e15, otherwise
//!   with six decimals; JSON has no NaN/Inf, so non-finite floats render
//!   as `null`.
//! - Layout is part of the value: a container built with
//!   [`Layout::Lines`] puts one element (or member) per line, everything
//!   else renders without whitespace. [`parse`] records the layout it
//!   reads, so a document this module wrote renders back byte for byte.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// How a container is laid out when rendered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Layout {
    /// No whitespace: `[a,b]`, `{"k":v,"l":w}`.
    #[default]
    Inline,
    /// One element per line. An array also opens and closes on lines of
    /// its own (`[\na,\nb\n]`); an object breaks only between members
    /// (`{"k":v,\n"l":w}`), so one with fewer than two members reads back
    /// as [`Layout::Inline`].
    Lines,
}

/// A JSON value. Object members keep insertion order, which is the
/// order they render in; keys a writer spells out stay borrowed.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// An integer, exact over the whole `u64` and `i64` range.
    Int(i128),
    /// A float; see the module docs for how it renders.
    Num(f64),
    Str(String),
    Arr(Vec<Json>, Layout),
    Obj(Vec<(Cow<'static, str>, Json)>, Layout),
}

impl Json {
    /// An inline array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect(), Layout::Inline)
    }

    /// An inline object.
    pub fn obj<K: Into<Cow<'static, str>>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(
            members.into_iter().map(|(k, v)| (k.into(), v)).collect(),
            Layout::Inline,
        )
    }

    /// The same container with one element per line (scalars are
    /// returned unchanged).
    pub fn lines(self) -> Json {
        match self {
            Json::Arr(items, _) => Json::Arr(items, Layout::Lines),
            Json::Obj(members, _) => Json::Obj(members, Layout::Lines),
            scalar => scalar,
        }
    }

    /// Look up a member of an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members, _) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Append this value's text to `out`. `tail`, if any, supplies more
    /// elements for the array that closes this value (the value itself,
    /// or its last member, recursively); a value that does not end in an
    /// array leaves `tail` unread.
    fn write(&self, out: &mut String, mut tail: Option<&mut dyn Iterator<Item = Json>>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("writing to a String"),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items, layout) => {
                let (open, sep, close) = match layout {
                    Layout::Inline => ("[", ",", "]"),
                    Layout::Lines => ("[\n", ",\n", "\n]"),
                };
                out.push_str(open);
                let tail = tail.into_iter().flatten().map(Cow::Owned);
                for (i, item) in items.iter().map(Cow::Borrowed).chain(tail).enumerate() {
                    if i > 0 {
                        out.push_str(sep);
                    }
                    item.write(out, None);
                }
                out.push_str(close);
            }
            Json::Obj(members, layout) => {
                let sep = if *layout == Layout::Lines { ",\n" } else { "," };
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(sep);
                    }
                    write_str(out, k);
                    out.push(':');
                    let last = i + 1 == members.len();
                    v.write(out, if last { tail.take() } else { None });
                }
                out.push('}');
            }
        }
    }
}

/// Compact text of the value (no trailing newline).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr;)*) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}

json_from! {
    bool => |b| Json::Bool(b);
    u32 => |i| Json::Int(i.into());
    u64 => |i| Json::Int(i.into());
    usize => |i| Json::Int(i as i128);
    i64 => |i| Json::Int(i.into());
    f64 => |v| Json::Num(v);
    &str => |s| Json::Str(s.to_string());
    String => |s| Json::Str(s);
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Render `doc` as a document: its text and a closing newline.
pub fn render(doc: &Json) -> String {
    render_streamed(doc, std::iter::empty())
}

/// [`render`] for a document too long to hold as one value (a trace of
/// every event in a run): the elements of `tail` are built and rendered
/// one at a time, after those already in the array that closes `doc`.
///
/// # Panics
///
/// If `tail` has elements and `doc` does not end in an array.
pub fn render_streamed(doc: &Json, mut tail: impl Iterator<Item = Json>) -> String {
    let mut out = String::new();
    doc.write(&mut out, Some(&mut tail));
    assert!(
        tail.next().is_none(),
        "render_streamed: the document does not end in an array to take the tail"
    );
    out.push('\n');
    out
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        // Short for integers; six decimals round-trip a measurement.
        write!(out, "{}", v as i64).expect("writing to a String");
    } else {
        write!(out, "{v:.6}").expect("writing to a String");
    }
}

/// Parse one JSON document (surrounding whitespace allowed, nothing
/// else); an error names the byte offset where parsing stopped.
/// Numbers without a fraction or exponent that fit an `i128` parse as
/// [`Json::Int`], all others as [`Json::Num`]; a container
/// whose whitespace after `[`, `{` or a `,` holds a newline parses as
/// [`Layout::Lines`].
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { src: input, at: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.at != input.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl fmt::Display) -> String {
        format!("byte {}: {msg}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.at).copied()
    }

    /// Skip whitespace; true if it held a newline.
    fn skip_ws(&mut self) -> bool {
        let mut newline = false;
        while let Some(b @ (b' ' | b'\t' | b'\n' | b'\r')) = self.peek() {
            newline |= b == b'\n';
            self.at += 1;
        }
        newline
    }

    /// Consume `word`, or fail naming it.
    fn expect(&mut self, word: &str) -> Result<(), String> {
        if !self.src[self.at..].starts_with(word) {
            return Err(self.err(format!("expected '{word}'")));
        }
        self.at += word.len();
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.container("}"),
            Some(b'[') => self.container("]"),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.expect("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.expect("null").map(|()| Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// An array (`close == "]"`) or an object (`close == "}"`).
    fn container(&mut self, close: &str) -> Result<Json, String> {
        let object = close == "}";
        self.at += 1;
        let (mut items, mut members) = (Vec::new(), Vec::new());
        let mut lines = self.skip_ws();
        if !self.src[self.at..].starts_with(close) {
            loop {
                if object {
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(":")?;
                    self.skip_ws();
                    members.push((key.into(), self.value()?));
                } else {
                    items.push(self.value()?);
                }
                self.skip_ws();
                if self.peek() != Some(b',') {
                    break;
                }
                self.at += 1;
                lines |= self.skip_ws();
            }
        }
        self.expect(close)?;
        let layout = if lines { Layout::Lines } else { Layout::Inline };
        Ok(if object {
            Json::Obj(members, layout)
        } else {
            Json::Arr(items, layout)
        })
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go:
            // both are ASCII, so the run ends on a char boundary.
            let rest = &self.src[self.at..];
            let run = rest.find(['"', '\\']).unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.at += run;
            if self.peek().is_none() {
                return Err(self.err("unterminated string"));
            }
            self.at += 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            let esc = self.peek();
            self.at += 1;
            out.push(match esc {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(b'r') => '\r',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let hex = self.src.get(self.at..self.at + 4);
                    self.at += 4;
                    hex.and_then(|h| u32::from_str_radix(h, 16).ok())
                        .and_then(char::from_u32)
                        .ok_or_else(|| self.err("bad \\u escape"))?
                }
                _ => return Err(self.err("bad escape")),
            });
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E') | Some(b'0'..=b'9')
        ) {
            self.at += 1;
        }
        let text = &self.src[start..self.at];
        if let Ok(i) = text.parse::<i128>() {
            return Ok(Json::Int(i));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("bad number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Integral floats read back as integers and non-finite ones as
    /// `null`; every other variant reads back as itself
    /// ([`parse_inverts_render`]).
    #[test]
    fn numbers() {
        let text = |v: f64| Json::from(v).to_string();
        assert_eq!(text(3.0), "3");
        assert_eq!(text(3.25), "3.250000");
        assert_eq!(text(1e15), "1000000000000000.000000");
        assert_eq!(text(f64::INFINITY), "null");
        assert_eq!(Json::from(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Json::from(i64::MIN).to_string(), "-9223372036854775808");
        assert_eq!(parse(&text(3.0)).unwrap(), Json::Int(3));
        assert_eq!(parse(&text(f64::NAN)).unwrap(), Json::Null);
    }

    #[test]
    fn layouts_and_streamed_tails() {
        let pair = || Json::arr([1u64.into(), 2u64.into()]);
        assert_eq!(pair().to_string(), "[1,2]");
        assert_eq!(pair().lines().to_string(), "[\n1,\n2\n]");
        assert_eq!(Json::arr([]).lines().to_string(), "[\n\n]");
        let obj = || Json::obj([("a", pair()), ("b", Json::Null)]);
        assert_eq!(obj().to_string(), "{\"a\":[1,2],\"b\":null}");
        assert_eq!(obj().lines().to_string(), "{\"a\":[1,2],\n\"b\":null}");
        // A tail extends the lines array that closes the document.
        let doc = Json::obj([("n", 1u64.into()), ("events", pair().lines())]);
        let tail = (3..5u64).map(Json::from);
        assert_eq!(
            render_streamed(&doc, tail),
            "{\"n\":1,\"events\":[\n1,\n2,\n3,\n4\n]}\n"
        );
        let empty = Json::obj([("events", Json::arr([]).lines())]);
        let tail = std::iter::once(Json::Null);
        assert_eq!(render_streamed(&empty, tail), "{\"events\":[\nnull\n]}\n");
    }

    /// A tail with nowhere to go is an error, not silently dropped.
    #[test]
    #[should_panic(expected = "does not end in an array")]
    fn streamed_tail_needs_a_closing_array() {
        let doc = Json::obj([("events", Json::arr([])), ("n", 1u64.into())]);
        render_streamed(&doc, std::iter::once(Json::Null));
    }

    /// Every variant, and layouts nested both ways, parses back equal.
    #[test]
    fn parse_inverts_render() {
        let inner = Json::obj([
            ("max", u64::MAX.into()),
            ("min", i64::MIN.into()),
            ("f", 3.25.into()),
            ("tiny", (-0.000_125).into()),
            ("big", 1.5e15.into()),
            ("s", "tab\t \"q\" \\ é ✓ \u{1f}".into()),
            ("t", true.into()),
            ("n", Json::Null),
            ("e", Json::arr([])),
            ("o", Json::obj::<&str>([])),
        ]);
        let nested = Json::arr([Json::arr([1u64.into()]).lines(), Json::arr([])]);
        let v = Json::obj([
            ("inline", inner.clone()),
            ("lines", Json::arr([inner.clone(), inner.lines()]).lines()),
            ("empty_lines", Json::arr([]).lines()),
            ("nested", nested.lines()),
        ])
        .lines();
        let doc = render(&v);
        assert_eq!(parse(&doc).unwrap(), v, "{doc}");
        assert_eq!(render(&parse(&doc).unwrap()), doc);
    }

    /// Multi-byte characters and every escape the renderer emits.
    #[test]
    fn strings_parse_back_exactly() {
        assert_eq!(Json::from("a\"b\\c\nd").to_string(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Json::from("\u{1}").to_string(), "\"\\u0001\"");
        let s: String = "ä€😀\"\\\n\r\t\u{0}\u{1b}/x"
            .chars()
            .cycle()
            .take(4096)
            .collect();
        let doc = Json::from(s.as_str()).to_string();
        assert!(doc.contains("\\u001b") && doc.contains("\\r") && doc.contains("\\t"));
        assert_eq!(parse(&doc).unwrap(), Json::Str(s));
        let other_escapes = parse(r#""\/\b\f\u00e9""#).unwrap();
        assert_eq!(other_escapes, Json::Str("/\u{8}\u{c}é".into()));
    }

    /// Whitespace the renderer never writes is accepted; a newline in it
    /// marks its container as lines.
    #[test]
    fn parses_foreign_whitespace_and_numbers() {
        let v = parse(" {\"a\" : [ 1 ,\n 2e2, -0.5 ], \"b\":\"x\"}\n").unwrap();
        let a = Json::arr([1u64.into(), 200.0.into(), (-0.5).into()]).lines();
        assert_eq!(v, Json::obj([("a", a), ("b", "x".into())]));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{\"a\":}",
            "[1,2",
            "[1 2]",
            "{} trailing",
            "\"unterminated",
            "\"dangling\\",
            "\"\\u12\"",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
