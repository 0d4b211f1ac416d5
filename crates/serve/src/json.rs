//! A minimal JSON value parser for the daemon's request bodies.
//!
//! The build is offline (no serde); this is the read-side counterpart of
//! the hand-rolled JSON the workspace already *writes*
//! (`StoreMetrics::to_json`, `ServiceResponse::to_json`, the daemon's
//! error bodies, all escaped by `rtpf_engine::json_escape`). It parses the
//! full JSON grammar — objects, arrays, strings with escapes (including
//! `\uXXXX`), numbers, booleans, null — into a [`Value`] tree with the
//! few typed accessors request decoding needs. Arrays and objects nest
//! at most [`MAX_NESTING`] deep.

use std::fmt;

/// Deepest array/object nesting [`Value::parse`] accepts. The parser
/// recurses once per level, so an unbounded body would overflow a worker's
/// stack — an abort no `catch_unwind` contains. Requests nest 3 deep.
pub const MAX_NESTING: usize = 128;

/// A parsed JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string literal, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (duplicate keys keep the last).
    Obj(Vec<(String, Value)>),
}

/// Parse error with byte offset.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Parses one JSON document (rejecting trailing garbage).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] locating the first malformed byte.
    pub fn parse(s: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an unsigned integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53)).then_some(n as u64)
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {lit}")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_NESTING {
                    return Err(self.err(format!("nesting deeper than {MAX_NESTING}")));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse()
            .map(Value::Num)
            .map_err(|_| self.err(format!("bad number {text:?}")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&code) {
                                // Surrogate pair: the low half must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("bad low surrogate"));
                                    }
                                    let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.err("bad \\u escape"))?);
                        }
                        _ => return Err(self.err(format!("bad escape \\{}", esc as char))),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    if (c as u32) < 0x20 {
                        return Err(self.err("raw control character in string"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = Value::parse(
            r#"{"op": "analyze", "n": -2.5e1, "flags": [true, false, null],
                "config": {"cache": "2:16:512"}}"#,
        )
        .expect("parses");
        assert_eq!(v.get("op").and_then(Value::as_str), Some("analyze"));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(-25.0));
        assert_eq!(
            v.get("config")
                .and_then(|c| c.get("cache"))
                .and_then(Value::as_str),
            Some("2:16:512")
        );
        let Some(Value::Arr(flags)) = v.get("flags") else {
            panic!("array expected");
        };
        assert_eq!(flags.len(), 3);
    }

    #[test]
    fn unescapes_strings() {
        let v = Value::parse(r#""a\"b\\c\n\u0041\ud83d\ude00""#).expect("parses");
        assert_eq!(v.as_str(), Some("a\"b\\c\nA😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "[1,]",
            "123x",
            "{\"a\":1} extra",
            "\"\\q\"",
            "nul",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Value::parse(&nested(MAX_NESTING)).is_ok());
        let err = Value::parse(&nested(MAX_NESTING + 1)).unwrap_err();
        assert!(err.message.contains("nesting deeper than"), "{err}");
        assert_eq!(err.at, MAX_NESTING);
        let objects = "{\"a\":".repeat(MAX_NESTING + 1) + "1" + &"}".repeat(MAX_NESTING + 1);
        assert!(Value::parse(&objects).is_err());
        // A 1 MiB body of `[`: an error, not a stack overflow.
        assert!(Value::parse(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn integer_accessor_rejects_fractions_and_negatives() {
        assert_eq!(Value::parse("7").expect("parses").as_u64(), Some(7));
        assert_eq!(Value::parse("7.5").expect("parses").as_u64(), None);
        assert_eq!(Value::parse("-7").expect("parses").as_u64(), None);
    }
}
