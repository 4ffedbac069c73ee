//! A minimal hand-rolled JSON reader, mirroring the workspace's
//! hand-rolled writers.
//!
//! The workspace is registry-offline (no serde), and its reports
//! (`EXPLORE_report.json`, JSON-Lines streams) are emitted by hand-rolled
//! writers with a stable key order. Resuming a campaign and merging shard
//! reports need to read those artifacts back, so this module provides the
//! matching reader: a small recursive-descent parser producing a
//! [`JsonValue`] tree plus the accessors report parsing needs.
//!
//! Numbers are parsed as `f64` (every writer in this workspace emits
//! either integers that fit exactly in an `f64` mantissa — ids, counters —
//! or floats formatted by Rust's shortest-round-trip `Display`, so
//! `write → parse → write` is lossless for our reports).
//!
//! The parser recurses once per nested array or object, so nesting deeper
//! than 128 levels is rejected with a located [`JsonError`] instead of
//! overflowing the stack on a hostile or corrupt file.

use std::fmt;

/// Deepest array/object nesting [`JsonValue::parse`] accepts. Campaign
/// reports nest at most five levels (report → points → point → sweep →
/// load point), so this leaves ample headroom while keeping the
/// recursion far from the stack limit.
pub(crate) const MAX_DEPTH: usize = 128;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (the writers use it for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as an ordered key/value list (reports never repeat keys,
    /// and preserving order keeps `parse → write` stable).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(p.error("trailing characters after JSON document"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer (rejects fractions and values
    /// beyond exact `f64` integer range).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53)).then_some(n as u64)
    }

    /// [`as_u64`](Self::as_u64) narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|n| n as usize)
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// `true` for `null` (writers emit it where a float was non-finite).
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

/// A parse failure with its byte offset into the document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where parsing stopped. A document cut short by an
    /// interrupted write fails at its end, so an earlier offset marks
    /// malformed text rather than a truncated one.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.at,
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        let rest = &self.bytes[self.at..];
        if rest.starts_with(word.as_bytes()) {
            self.at += word.len();
            return Ok(value);
        }
        if word.as_bytes().starts_with(rest) {
            // The input ends inside the literal.
            self.at = self.bytes.len();
        }
        Err(self.error(format!("expected '{word}'")))
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses an array or object one level deeper, failing at its
    /// opening byte when that would exceed [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let escape = self.peek().ok_or_else(|| self.error("dangling escape"))?;
                    self.at += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: our writers never emit them
                            // (only control characters are \u-escaped), but
                            // decode them anyway for robustness.
                            let c = if (0xd800..0xdc00).contains(&code) {
                                if self.bytes[self.at..].starts_with(b"\\u") {
                                    self.at += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((code - 0xd800) << 10)
                                        + (low.wrapping_sub(0xdc00) & 0x3ff);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.error("invalid \\u escape"))?);
                        }
                        other => {
                            return Err(self.error(format!("invalid escape '\\{}'", other as char)))
                        }
                    }
                }
                Some(byte) if byte < 0x20 => {
                    return Err(self.error("raw control character in string"))
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (the input is a &str, so byte
                    // boundaries are guaranteed valid).
                    let rest = &self.bytes[self.at..];
                    let len = match rest[0] {
                        b if b < 0x80 => 1,
                        b if b < 0xe0 => 2,
                        b if b < 0xf0 => 3,
                        _ => 4,
                    };
                    out.push_str(std::str::from_utf8(&rest[..len]).expect("valid UTF-8"));
                    self.at += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.at + 4;
        if end > self.bytes.len() {
            self.at = self.bytes.len();
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.at..end])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape digits"))?;
        self.at = end;
        Ok(hex)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ASCII number");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.error(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(
            JsonValue::parse(" -1.5e3 ").unwrap(),
            JsonValue::Number(-1500.0)
        );
        assert_eq!(
            JsonValue::parse("\"a\\\"b\\nc\"").unwrap(),
            JsonValue::String("a\"b\nc".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = JsonValue::parse(r#"{"xs": [1, 2, {"k": "v"}], "empty": [], "o": {}}"#).unwrap();
        let xs = v.get("xs").unwrap().as_array().unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[2].get("k").unwrap().as_str(), Some("v"));
        assert_eq!(v.get("empty").unwrap().as_array(), Some(&[][..]));
        assert_eq!(v.get("o"), Some(&JsonValue::Object(vec![])));
    }

    #[test]
    fn integer_accessors_reject_fractions() {
        assert_eq!(JsonValue::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(JsonValue::parse("42.5").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn float_display_round_trips() {
        // The writers format floats with Rust's shortest-round-trip
        // Display; parsing must recover the exact bits.
        for v in [0.1, 1.5e-9, 12.25, f64::MAX, 5e-324] {
            let text = format!("{v}");
            assert_eq!(JsonValue::parse(&text).unwrap().as_f64(), Some(v));
        }
    }

    #[test]
    fn control_escapes_round_trip() {
        assert_eq!(
            JsonValue::parse("\"\\u0007x\"").unwrap().as_str(),
            Some("\u{0007}x")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"k\" 1}",
            "tru",
            "1 2",
            "\"\\q\"",
            "\"unterminated",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_limited_without_overflowing_the_stack() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&at_limit).is_ok());
        // One level too deep fails at the offending bracket.
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = JsonValue::parse(&over).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        // Far deeper input — enough to overflow an unbounded recursive
        // descent — fails the same way, objects included.
        let deep = "[".repeat(200_000);
        assert_eq!(JsonValue::parse(&deep).unwrap_err().offset, MAX_DEPTH);
        let deep_objects = "{\"a\": ".repeat(200_000);
        let err = JsonValue::parse(&deep_objects).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH * 6);
        assert!(err.to_string().contains(&format!("byte {}", MAX_DEPTH * 6)));
    }

    #[test]
    fn truncated_documents_fail_at_their_end() {
        let doc = r#"{"a": [true, false, null], "b": "x\u0007y", "c": -1.5e3}"#;
        assert!(JsonValue::parse(doc).is_ok());
        for cut in 1..doc.len() {
            let err = JsonValue::parse(&doc[..cut]).unwrap_err();
            assert_eq!(err.offset, cut, "prefix {:?}: {err}", &doc[..cut]);
        }
    }

    #[test]
    fn errors_carry_offsets() {
        let err = JsonValue::parse("[1, }").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }
}
