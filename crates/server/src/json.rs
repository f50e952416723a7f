//! A minimal JSON value, parser, and writer (std-only).
//!
//! The wire protocol is newline-delimited JSON; the build environment is
//! offline, so instead of `serde_json` this is a small recursive-descent
//! parser hardened for server use: depth-capped (malicious nesting can't
//! blow the stack), linear in the input (strings are copied in runs, so
//! a megabyte frame costs a megabyte of work), strict about trailing
//! garbage, and tolerant of nothing else. Numbers are kept as `f64` —
//! every number the protocol carries (ids, counts, milliseconds) fits
//! without loss.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object (stable output, no hashing needed).
    Obj(Vec<(String, Json)>),
}

/// Parse failure: byte offset + message.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Nesting cap: a parser for a line protocol never needs deep trees, and
/// the cap turns `[[[[…` bombs into a parse error instead of a stack
/// overflow that would kill the connection thread. Public so the hostile
/// -input tests can probe the exact boundary.
pub const MAX_DEPTH: usize = 64;

impl Json {
    /// Parses exactly one JSON value spanning the whole input.
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser { src: s, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience constructor for object literals.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Serializes into `out` (compact, no whitespace).
    pub fn write(&self, out: &mut String) {
        // Writing into a `String` cannot fail.
        let _ = self.write_to(out);
    }

    fn write_to(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(true) => out.write_str("true"),
            Json::Bool(false) => out.write_str("false"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    v.write_to(out)?;
                }
                out.write_char(']')
            }
            Json::Obj(fields) => {
                out.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_str(k, out)?;
                    out.write_char(':')?;
                    v.write_to(out)?;
                }
                out.write_char('}')
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

fn write_num(n: f64, out: &mut impl fmt::Write) -> fmt::Result {
    if !n.is_finite() {
        out.write_str("null") // JSON has no NaN/Inf
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    }
}

/// Writes `s` as a JSON string literal.
fn write_str(s: &str, out: &mut impl fmt::Write) -> fmt::Result {
    out.write_char('"')?;
    Esc(&mut *out).write_str(s)?;
    out.write_char('"')
}

/// A `fmt::Write` adapter that escapes whatever is written through it
/// for the inside of a JSON string literal, so a value's `Display` can
/// be written as a JSON string with no intermediate `String`. Runs that
/// need no escaping are copied whole; only `"`, `\` and control
/// characters break a run, and all of them are ASCII, so every run ends
/// on a char boundary and text written in pieces escapes as it would
/// whole.
pub(crate) struct Esc<'a, W>(pub(crate) &'a mut W);

impl<W: fmt::Write> fmt::Write for Esc<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let out = &mut *self.0;
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
                continue;
            }
            out.write_str(s.get(run..i).unwrap_or_default())?;
            match b {
                b'"' => out.write_str("\\\"")?,
                b'\\' => out.write_str("\\\\")?,
                b'\n' => out.write_str("\\n")?,
                b'\r' => out.write_str("\\r")?,
                b'\t' => out.write_str("\\t")?,
                _ => write!(out, "\\u{b:04x}")?,
            }
            run = i + 1;
        }
        out.write_str(s.get(run..).unwrap_or_default())
    }
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.src.as_bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self
            .src
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(lit))
        {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']' in array")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':', "expected ':' after object key")?;
                    self.skip_ws();
                    let val = self.value(depth + 1)?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.err("expected ',' or '}' in object")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = self
            .src
            .get(start..self.pos)
            .ok_or_else(|| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u', "expected low surrogate")?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy the run up to the next `"`, `\` or control
                    // byte. All three are ASCII, so the run ends on a char
                    // boundary of the input, and each byte is looked at
                    // once however long the string is.
                    let rest = self
                        .src
                        .get(self.pos..)
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    let len = rest
                        .bytes()
                        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    out.push_str(rest.get(..len).unwrap_or_default());
                    self.pos += len;
                }
            }
        }
    }

    /// Reads four hex digits (after `\u`), leaving `pos` past them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.src.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let text = self
            .src
            .get(self.pos..end)
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips() {
        for src in [
            r#"null"#,
            r#"true"#,
            r#"-12.5"#,
            r#""hi \"there\"\n""#,
            r#"[1,2,[3,null],{"a":false}]"#,
            r#"{"id":"q1","endpoint":"uni","lang":"cq","query":"q(x) :- Student(x)"}"#,
        ] {
            let v = Json::parse(src).unwrap();
            let out = v.to_string();
            assert_eq!(Json::parse(&out).unwrap(), v, "{src}");
        }
    }

    #[test]
    fn unicode_escapes() {
        let v = Json::parse(r#""caf\u00e9 \ud83d\ude00""#).unwrap();
        assert_eq!(v, Json::Str("café 😀".into()));
        // Control characters are escaped on output.
        assert_eq!(Json::Str("a\u{1}b".into()).to_string(), r#""a\u0001b""#);
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for src in [
            "",
            "{",
            "}",
            "[1,]",
            "{\"a\":}",
            "\"unterminated",
            "nul",
            "1 2",
            "{\"a\" 1}",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\u{7f}",
            "{\"a\":\"\\q\"}",
            "[\u{0}]",
        ] {
            assert!(Json::parse(src).is_err(), "{src:?} should fail");
        }
        // Depth bomb: error, not stack overflow.
        let bomb = "[".repeat(50_000);
        assert!(Json::parse(&bomb).is_err());
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n":3,"s":"x","b":true,"a":[1]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
    }
}
