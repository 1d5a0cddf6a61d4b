//! A small, complete JSON parser and serializer (RFC 8259), written
//! in-repo so world configurations can be loaded from files without an
//! external dependency.
//!
//! Supports the full grammar: nested objects/arrays, escape sequences
//! including `\uXXXX` surrogate pairs, and scientific-notation numbers.
//! Object key order is preserved.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, key order preserved.
    Obj(Vec<(String, Json)>),
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            message: message.into(),
            offset: self.pos,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
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
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected '{word}'"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => self.err(format!("unexpected byte '{}'", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => self.err(format!("bad number '{text}'")),
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let c = match self.bump() {
                Some(c) => c,
                None => return self.err("truncated \\u escape"),
            };
            let d = match c {
                b'0'..=b'9' => c - b'0',
                b'a'..=b'f' => c - b'a' + 10,
                b'A'..=b'F' => c - b'A' + 10,
                _ => return self.err("bad hex digit"),
            };
            v = (v << 4) | u16::from(d);
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return self.err("unterminated string"),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        if (0xD800..0xDC00).contains(&hi) {
                            // A high surrogate is only valid as the first
                            // half of a `\uD8xx\uDCxx` pair; anything else
                            // (closing quote, EOF, ordinary text) is an
                            // unpaired surrogate, not a missing delimiter.
                            if self.peek() != Some(b'\\')
                                || self.bytes.get(self.pos + 1) != Some(&b'u')
                            {
                                return self.err("unpaired high surrogate");
                            }
                            self.pos += 2;
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return self.err("bad low surrogate");
                            }
                            let c = 0x10000
                                + ((u32::from(hi) - 0xD800) << 10)
                                + (u32::from(lo) - 0xDC00);
                            match char::from_u32(c) {
                                Some(ch) => out.push(ch),
                                None => return self.err("bad surrogate pair"),
                            }
                        } else if (0xDC00..0xE000).contains(&hi) {
                            return self.err("lone low surrogate");
                        } else {
                            match char::from_u32(u32::from(hi)) {
                                Some(ch) => out.push(ch),
                                None => return self.err("bad \\u escape"),
                            }
                        }
                    }
                    _ => return self.err("bad escape"),
                },
                Some(c) if c < 0x20 => return self.err("raw control character in string"),
                Some(c) => {
                    // Re-assemble UTF-8 multibyte sequences.
                    let len = match c {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return self.err("bad UTF-8"),
                    };
                    let start = self.pos - 1;
                    let end = start + len;
                    if end > self.bytes.len() {
                        return self.err("truncated UTF-8");
                    }
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return self.err("bad UTF-8"),
                    }
                    self.pos = end;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(fields)),
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

impl Json {
    /// Parse a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return p.err("trailing data");
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Number accessor.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Integer accessor (lossless only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    /// Signed integer accessor.
    pub(crate) fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(v) if v.fract() == 0.0 && v.abs() <= 2f64.powi(53) => Some(*v as i64),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize compactly (no whitespace).
    pub(crate) fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.fract() == 0.0 && v.abs() < 2f64.powi(53) {
                    out.push_str(&format!("{}", *v as i64));
                } else {
                    out.push_str(&format!("{v}"));
                }
            }
            Json::Str(s) => {
                out.push('"');
                for ch in s.chars() {
                    match ch {
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
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("3.25").unwrap(), Json::Num(3.25));
        assert_eq!(Json::parse("-17").unwrap(), Json::Num(-17.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("2.5E-2").unwrap(), Json::Num(0.025));
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\nd""#).unwrap(),
            Json::Str("a\"b\\c\nd".to_owned())
        );
        assert_eq!(Json::parse(r#""éA""#).unwrap(), Json::Str("éA".to_owned()));
        // Surrogate pair: 😀 U+1F600.
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".to_owned()));
        // Raw multibyte UTF-8 passes through.
        assert_eq!(
            Json::parse("\"∅ and 中\"").unwrap(),
            Json::Str("∅ and 中".to_owned())
        );
    }

    #[test]
    fn nested_structures() {
        let v = Json::parse(r#"{"a":[1,{"b":null},"x"],"c":{"d":true}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn errors_have_offsets() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "tru",
            "1.2.3",
            "{\"a\" 1}",
            "[1] x",
            "\"\\q\"",
            r#""\ud83d""#,
            "\"\u{1}\"",
        ] {
            let e = Json::parse(bad).expect_err(bad);
            assert!(!e.message.is_empty());
            assert!(e.to_string().contains("JSON error"));
        }
    }

    #[test]
    fn unpaired_surrogates_are_named_errors() {
        // Every way a \uD800-range escape can fail to form a pair gets a
        // specific message, not a generic "expected" complaint.
        for (bad, want) in [
            (r#""\ud800""#, "unpaired high surrogate"),
            (r#""\ud83d""#, "unpaired high surrogate"),
            (r#""\ud800x""#, "unpaired high surrogate"),
            (r#""\ud800\n""#, "unpaired high surrogate"),
            (r#""\ud800"#, "unpaired high surrogate"),
            (r#""\ud800\u"#, "truncated \\u escape"),
            (r#""\ud800\udc"#, "truncated \\u escape"),
            (r#""\ud800\ud800""#, "bad low surrogate"),
            (r#""\udc00""#, "lone low surrogate"),
        ] {
            let e = Json::parse(bad).expect_err(bad);
            assert_eq!(e.message, want, "{bad}");
        }
    }

    #[test]
    fn surrogate_pairs_round_trip_in_jsonl_records() {
        // A JSONL record line carrying astral-plane text, both as raw
        // UTF-8 and as escaped surrogate pairs, parses to the same value
        // and survives re-emission.
        let escaped = concat!(
            r#"{"flow":7,"sni":""#,
            "\\ud83d\\ude00",
            r#".example","note":""#,
            "\\ud801\\udc37",
            r#""}"#
        );
        let raw = "{\"flow\":7,\"sni\":\"\u{1F600}.example\",\"note\":\"\u{10437}\"}";
        let a = Json::parse(escaped).unwrap();
        let b = Json::parse(raw).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.get("sni").unwrap().as_str(), Some("\u{1F600}.example"));
        let emitted = a.to_compact_string();
        assert_eq!(Json::parse(&emitted).unwrap(), a);
    }

    #[test]
    fn round_trip_compact() {
        let text = r#"{"name":"x","rates":[0.5,1,2.25],"deep":{"ok":true,"none":null}}"#;
        let v = Json::parse(text).unwrap();
        let emitted = v.to_compact_string();
        assert_eq!(Json::parse(&emitted).unwrap(), v);
        assert_eq!(emitted, text);
    }

    #[test]
    fn accessors_are_strict() {
        let v = Json::parse("[1.5]").unwrap();
        let n = &v.as_array().unwrap()[0];
        assert_eq!(n.as_f64(), Some(1.5));
        assert_eq!(n.as_u64(), None);
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(Json::parse("-7").unwrap().as_u64(), None);
    }
}
