//! The workspace's JSON codec: one reader for every artifact another
//! process writes — campaign reports, their JSON-Lines point streams and
//! telemetry traces — plus the string escaper and float formatter every
//! writer shares.
//!
//! The workspace is registry-offline (no serde), so the writers are
//! hand-rolled with fixed key orders, and this module is the matching
//! reader: a small recursive-descent parser producing a [`JsonValue`]
//! tree, and the required-field accessors the artifact readers build on.
//!
//! Numbers are exact. A literal of digits only that fits in a `u64` reads
//! as [`JsonValue::U64`]; any other number reads as [`JsonValue::F64`],
//! which the writers' [`Float`] formatter (shortest round-trip `Display`)
//! makes lossless. [`JsonValue::as_u64`] also accepts integral floats, so
//! a hand-edited `3.0` reads as 3, and [`JsonValue::as_f64`] reads `null`
//! as NaN, because [`Float`] writes every non-finite value as `null`.
//!
//! The parser recurses once per nested array or object, so nesting deeper
//! than [`MAX_DEPTH`] levels is rejected with a located [`JsonError`]
//! instead of overflowing the stack on a hostile or corrupt file.

use std::fmt::{self, Write};

/// Deepest array/object nesting [`JsonValue::parse`] accepts. Campaign
/// reports nest at most five levels (report → points → point → sweep →
/// load point), so this leaves ample headroom while keeping the
/// recursion far from the stack limit.
pub const MAX_DEPTH: usize = 128;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (the writers use it for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A literal of digits only that fits in a `u64`.
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as an ordered key/value list (the writers never repeat
    /// keys, and preserving order keeps `parse → write` stable).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            text,
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

    /// Object member lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as a float; `null` reads as NaN (the writers' encoding
    /// of a non-finite float).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::U64(n) => Some(n as f64),
            JsonValue::F64(x) => Some(x),
            JsonValue::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The number as a `u64`: an exact integer, or an integral float in
    /// range (fractions, negatives and values ≥ 2⁶⁴ are rejected).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::U64(n) => Some(n),
            JsonValue::F64(x) if x >= 0.0 && x.fract() == 0.0 && x < 2f64.powi(64) => {
                Some(x as u64)
            }
            _ => None,
        }
    }

    /// [`as_u64`](Self::as_u64) narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
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
        match *self {
            JsonValue::Bool(b) => Some(b),
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

    /// Member `key` read by `read`; the error names the key and says
    /// whether it was absent or held something other than `what`.
    fn need<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        read: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<T, String> {
        match self.get(key) {
            None => Err(format!("missing '{key}'")),
            Some(v) => read(v).ok_or_else(|| format!("'{key}' must be {what}")),
        }
    }

    /// Optional member `key`: `None` when absent, otherwise read by
    /// `need` (one of the `need_*` accessors), so a present member of the
    /// wrong type is an error rather than a silent default.
    pub fn optional<'a, T>(
        &'a self,
        key: &str,
        need: impl FnOnce(&'a JsonValue, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.get(key).map(|_| need(self, key)).transpose()
    }

    /// Required member `key` as a `u64` (see [`as_u64`](Self::as_u64)).
    pub fn need_u64(&self, key: &str) -> Result<u64, String> {
        self.need(key, "a non-negative integer", Self::as_u64)
    }

    /// Required member `key` as a `usize`.
    pub fn need_usize(&self, key: &str) -> Result<usize, String> {
        self.need(key, "a non-negative integer", Self::as_usize)
    }

    /// Required member `key` as a float (`null` reads as NaN).
    pub fn need_f64(&self, key: &str) -> Result<f64, String> {
        self.need(key, "a number", Self::as_f64)
    }

    /// Required member `key` as a string.
    pub fn need_str(&self, key: &str) -> Result<&str, String> {
        self.need(key, "a string", Self::as_str)
    }

    /// Required member `key` as a boolean.
    pub fn need_bool(&self, key: &str) -> Result<bool, String> {
        self.need(key, "a bool", Self::as_bool)
    }

    /// Required member `key` as an array.
    pub fn need_array(&self, key: &str) -> Result<&[JsonValue], String> {
        self.need(key, "an array", Self::as_array)
    }

    /// Required member `key` as an array of strings.
    pub fn need_strings(&self, key: &str) -> Result<Vec<String>, String> {
        self.need(key, "an array of strings", |v| {
            v.as_array()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect()
        })
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

/// Formats a string as a quoted JSON literal: `"` `\` and newline,
/// carriage return and tab get their short escapes, every other control
/// character a `\u00xx` escape.
#[derive(Debug)]
pub struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        let mut run = 0;
        // Every escaped character is ASCII, so byte offsets are char
        // boundaries.
        for (i, b) in self.0.bytes().enumerate() {
            let short = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            f.write_str(&self.0[run..i])?;
            if short.is_empty() {
                write!(f, "\\u{b:04x}")?;
            } else {
                f.write_str(short)?;
            }
            run = i + 1;
        }
        f.write_str(&self.0[run..])?;
        f.write_char('"')
    }
}

/// Formats a float as JSON: Rust's shortest round-trip `Display`, or
/// `null` when the value is not finite (JSON has no NaN or infinity).
#[derive(Debug)]
pub struct Float(pub f64);

impl fmt::Display for Float {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
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
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(JsonValue::Object(members));
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
            // Copy the run up to the next quote, escape or control
            // character; it stops only at ASCII bytes, so the slice is on
            // char boundaries.
            let run = self.at;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.at += 1;
            }
            out.push_str(&self.text[run..self.at]);
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
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(self.error(format!("invalid escape '\\{}'", other as char)))
                        }
                    }
                }
                Some(_) => return Err(self.error("raw control character in string")),
            }
        }
    }

    /// The character of a `\u` escape whose `\u` was just consumed,
    /// including a surrogate pair (the writers never emit one, but other
    /// tools may).
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = self.hex4()?;
        let code = if (0xd800..0xdc00).contains(&code) {
            let rest = &self.bytes[self.at..];
            if !rest.starts_with(b"\\u") {
                if b"\\u".starts_with(rest) {
                    // The input ends before the low half.
                    self.at = self.bytes.len();
                }
                return Err(self.error("unpaired surrogate in \\u escape"));
            }
            self.at += 2;
            let low = self.hex4()?;
            if !(0xdc00..0xe000).contains(&low) {
                return Err(self.error("invalid low surrogate in \\u escape"));
            }
            0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
        } else {
            code
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.at + 4;
        if end > self.bytes.len() {
            self.at = self.bytes.len();
            return Err(self.error("truncated \\u escape"));
        }
        let digits = &self.bytes[self.at..end];
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.error("invalid \\u escape digits"));
        }
        self.at = end;
        Ok(digits.iter().fold(0, |code, &d| {
            code * 16 + (d as char).to_digit(16).unwrap_or(0)
        }))
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
        let text = &self.text[start..self.at];
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse() {
                return Ok(JsonValue::U64(n));
            }
        }
        text.parse()
            .map(JsonValue::F64)
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
            JsonValue::F64(-1500.0)
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
        // Integers are exact across the whole u64 range; a hand-edited
        // integral float still reads as an integer.
        let max = JsonValue::parse("18446744073709551615").unwrap();
        assert_eq!(max, JsonValue::U64(u64::MAX));
        assert_eq!(max.as_u64(), Some(u64::MAX));
        assert_eq!(JsonValue::parse("3.0").unwrap().as_u64(), Some(3));
        let past = JsonValue::parse("18446744073709551616").unwrap();
        assert!(matches!(past, JsonValue::F64(_)));
        assert_eq!(past.as_u64(), None);
        assert_eq!(JsonValue::parse("1e999").unwrap().as_u64(), None);
    }

    #[test]
    fn float_display_round_trips() {
        // The writers format floats with `Float` (shortest round-trip
        // Display); parsing must recover the exact bits, whichever
        // variant the text lands in.
        for v in [0.1, 1.5e-9, 12.25, 16.0, -0.0, 1e20, f64::MAX, 5e-324] {
            let text = Float(v).to_string();
            let parsed = JsonValue::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{text}");
        }
        assert_eq!(Float(f64::NAN).to_string(), "null");
        assert_eq!(Float(f64::NEG_INFINITY).to_string(), "null");
        assert!(JsonValue::parse("null").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn control_escapes_round_trip() {
        assert_eq!(
            JsonValue::parse("\"\\u0007x\"").unwrap().as_str(),
            Some("\u{0007}x")
        );
        let s = "q\"b\\n\nr\rt\tbell\u{0007}\u{001f} é 🎉";
        let quoted = Quoted(s).to_string();
        assert_eq!(quoted, "\"q\\\"b\\\\n\\nr\\rt\\tbell\\u0007\\u001f é 🎉\"");
        assert_eq!(JsonValue::parse(&quoted).unwrap().as_str(), Some(s));
        assert_eq!(
            JsonValue::parse("\"\\ud83c\\udf89\"").unwrap().as_str(),
            Some("🎉")
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
            "\"\\u+041\"",
            "\"\\ud83c\"",
            "\"\\ud83c\\u0041\"",
            "-",
            "1e",
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

    #[test]
    fn required_accessors_name_the_key() {
        let v = JsonValue::parse(r#"{"n": 3, "x": null, "s": "a", "xs": ["a", 1]}"#).unwrap();
        assert_eq!(v.need_u64("n"), Ok(3));
        assert!(v.need_f64("x").unwrap().is_nan());
        assert_eq!(v.need_str("s"), Ok("a"));
        assert_eq!(v.need_u64("gone"), Err("missing 'gone'".to_string()));
        assert_eq!(v.need_bool("s"), Err("'s' must be a bool".to_string()));
        assert_eq!(
            v.need_strings("xs"),
            Err("'xs' must be an array of strings".to_string())
        );
        assert_eq!(v.optional("n", JsonValue::need_u64), Ok(Some(3)));
        assert_eq!(v.optional("gone", JsonValue::need_u64), Ok(None));
        assert!(v.optional("s", JsonValue::need_u64).is_err());
    }
}
