//! The telemetry event model and its JSON-Lines codec.
//!
//! Events are flat, schema-stable records: a fixed header (`seq`, `t_us`,
//! `kind`, `name`), two optional numeric payloads (`dur_us` for spans,
//! `value` for counter/gauge snapshots) and an ordered bag of typed
//! `fields`. The writer emits keys in a fixed order and the reader
//! preserves field order, so `write → read → write` reproduces a stream
//! byte for byte — the invariant the round-trip tests lock.
//!
//! Lines are read through [`crate::json`], the workspace's one JSON
//! reader, and mapped strictly onto the event schema.

use std::fmt::{self, Write};

use crate::json::{Float, JsonValue, Quoted};

/// A typed field value on an [`Event`].
///
/// The closed set keeps the codec exact: `u64` for ids and counts, `f64`
/// for rates and metrics, strings for labels, bools for flags. Non-finite
/// floats serialize as `null` (JSON has no NaN) and read back as NaN.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// An unsigned integer (ids, counts, ordinals).
    U64(u64),
    /// A float (rates, metric values). Written with a decimal point so it
    /// re-reads as a float.
    F64(f64),
    /// A label or path.
    Str(String),
    /// A flag.
    Bool(bool),
}

impl From<u64> for Field {
    fn from(v: u64) -> Self {
        Field::U64(v)
    }
}

impl From<u32> for Field {
    fn from(v: u32) -> Self {
        Field::U64(u64::from(v))
    }
}

impl From<usize> for Field {
    fn from(v: usize) -> Self {
        Field::U64(v as u64)
    }
}

impl From<f64> for Field {
    fn from(v: f64) -> Self {
        Field::F64(v)
    }
}

impl From<&str> for Field {
    fn from(v: &str) -> Self {
        Field::Str(v.to_string())
    }
}

impl From<String> for Field {
    fn from(v: String) -> Self {
        Field::Str(v)
    }
}

impl From<bool> for Field {
    fn from(v: bool) -> Self {
        Field::Bool(v)
    }
}

impl Field {
    /// The value as a u64, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Field::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a float (floats and integers both qualify).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Field::F64(v) => Some(*v),
            Field::U64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Field::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A point-in-time occurrence (a wave dealt, a cutoff tripped).
    Event,
    /// A scoped duration; carries [`Event::dur_us`].
    Span,
    /// A counter snapshot; carries [`Event::value`].
    Counter,
    /// A gauge snapshot; carries [`Event::value`].
    Gauge,
    /// A histogram snapshot; `count`/`min`/`max`/`sum` ride in the fields.
    Hist,
}

impl EventKind {
    /// The wire label (`"event"`, `"span"`, …).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Event => "event",
            EventKind::Span => "span",
            EventKind::Counter => "counter",
            EventKind::Gauge => "gauge",
            EventKind::Hist => "hist",
        }
    }

    /// Parses a wire label back.
    pub fn from_label(label: &str) -> Option<Self> {
        Some(match label {
            "event" => EventKind::Event,
            "span" => EventKind::Span,
            "counter" => EventKind::Counter,
            "gauge" => EventKind::Gauge,
            "hist" => EventKind::Hist,
            _ => return None,
        })
    }
}

/// One telemetry record: what happened (`kind` + `name`), when (`t_us`
/// microseconds since the [`Telemetry`](crate::Telemetry) handle's epoch),
/// in what order (`seq`, strictly increasing per handle), and the typed
/// payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Strictly increasing sequence number (deterministic for a
    /// deterministic instrumented program; timestamps are not).
    pub seq: u64,
    /// Microseconds since the emitting handle's epoch.
    pub t_us: u64,
    /// Record kind.
    pub kind: EventKind,
    /// Dotted event name, e.g. `campaign.synthesize`.
    pub name: String,
    /// Span duration in microseconds (spans only).
    pub dur_us: Option<u64>,
    /// Snapshot value (counter/gauge records only).
    pub value: Option<u64>,
    /// Ordered typed fields.
    pub fields: Vec<(String, Field)>,
}

impl Event {
    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&Field> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Serializes to one JSON line (no trailing newline), with the fixed
    /// key order the round-trip invariant relies on. Integral floats keep
    /// a `.0` so they re-read as [`Field::F64`].
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"seq\":{},\"t_us\":{},\"kind\":\"{}\",\"name\":{}",
            self.seq,
            self.t_us,
            self.kind.label(),
            Quoted(&self.name)
        );
        // Writing into a String cannot fail.
        if let Some(dur) = self.dur_us {
            let _ = write!(out, ",\"dur_us\":{dur}");
        }
        if let Some(value) = self.value {
            let _ = write!(out, ",\"value\":{value}");
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (key, value)) in self.fields.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                let key = Quoted(key);
                let _ = match value {
                    Field::U64(v) => write!(out, "{sep}{key}:{v}"),
                    Field::F64(v) if v.is_finite() && v.fract() == 0.0 => {
                        write!(out, "{sep}{key}:{v}.0")
                    }
                    Field::F64(v) => write!(out, "{sep}{key}:{}", Float(*v)),
                    Field::Str(s) => write!(out, "{sep}{key}:{}", Quoted(s)),
                    Field::Bool(b) => write!(out, "{sep}{key}:{b}"),
                };
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Parses one JSON line produced by [`Event::to_json`]: exactly its
    /// keys, `seq`, `t_us`, `kind` and `name` required, scalar fields
    /// only, `null` read as NaN.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] locating malformed JSON by byte offset,
    /// or naming the offending key.
    pub fn from_json(line: &str) -> Result<Event, ParseError> {
        let v = JsonValue::parse(line).map_err(|e| ParseError::from(e.to_string()))?;
        let JsonValue::Object(members) = &v else {
            return Err(ParseError::from("an event must be a JSON object"));
        };
        if let Some((key, _)) = members.iter().find(|(k, _)| !KEYS.contains(&k.as_str())) {
            return Err(ParseError::from(format!("unknown event key '{key}'")));
        }
        let fields = match v.get("fields") {
            None => Vec::new(),
            Some(JsonValue::Object(fields)) => fields
                .iter()
                .map(|(key, value)| Ok((key.clone(), Field::from_json(key, value)?)))
                .collect::<Result<_, String>>()?,
            Some(_) => return Err(ParseError::from("'fields' must be an object")),
        };
        Ok(Event {
            seq: v.need_u64("seq")?,
            t_us: v.need_u64("t_us")?,
            kind: EventKind::from_label(v.need_str("kind")?)
                .ok_or("'kind' must be event, span, counter, gauge or hist")?,
            name: v.need_str("name")?.to_string(),
            dur_us: v.optional("dur_us", JsonValue::need_u64)?,
            value: v.optional("value", JsonValue::need_u64)?,
            fields,
        })
    }
}

/// The keys [`Event::to_json`] writes, in order.
const KEYS: [&str; 7] = ["seq", "t_us", "kind", "name", "dur_us", "value", "fields"];

impl Field {
    /// The field `key` as read back from its JSON value.
    fn from_json(key: &str, value: &JsonValue) -> Result<Field, String> {
        Ok(match value {
            JsonValue::U64(v) => Field::U64(*v),
            JsonValue::F64(v) => Field::F64(*v),
            // Non-finite floats serialize as null.
            JsonValue::Null => Field::F64(f64::NAN),
            JsonValue::String(s) => Field::Str(s.clone()),
            JsonValue::Bool(b) => Field::Bool(*b),
            JsonValue::Array(_) | JsonValue::Object(_) => {
                return Err(format!("field '{key}' must be a scalar"))
            }
        })
    }
}

/// Renders events as a JSON-Lines document (one event per line, trailing
/// newline).
pub fn write_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event.to_json());
        out.push('\n');
    }
    out
}

/// Parses a JSON-Lines event stream (blank lines ignored).
///
/// # Errors
///
/// Returns the first line-level [`ParseError`], tagged with its line
/// number.
pub fn read_jsonl(text: &str) -> Result<Vec<Event>, ParseError> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = Event::from_json(line)
            .map_err(|e| ParseError::from(format!("line {}: {}", lineno + 1, e.message)))?;
        events.push(event);
    }
    Ok(events)
}

/// A malformed event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    message: String,
}

impl From<String> for ParseError {
    fn from(message: String) -> Self {
        ParseError { message }
    }
}

impl From<&str> for ParseError {
    fn from(message: &str) -> Self {
        message.to_string().into()
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Event {
        Event {
            seq: 7,
            t_us: 1234,
            kind: EventKind::Span,
            name: "campaign.measure".into(),
            dur_us: Some(456),
            value: None,
            fields: vec![
                ("scenario_id".into(), Field::U64(3)),
                ("rate".into(), Field::F64(0.25)),
                ("label".into(), Field::Str("fig5 \"quoted\"\npath".into())),
                ("reused".into(), Field::Bool(true)),
            ],
        }
    }

    #[test]
    fn round_trips_byte_identically() {
        let events = vec![
            sample(),
            Event {
                seq: 8,
                t_us: 2000,
                kind: EventKind::Counter,
                name: "decompose.nodes_visited".into(),
                dur_us: None,
                value: Some(99),
                fields: Vec::new(),
            },
        ];
        let text = write_jsonl(&events);
        let reread = read_jsonl(&text).unwrap();
        assert_eq!(reread, events);
        assert_eq!(write_jsonl(&reread), text);
    }

    #[test]
    fn integral_floats_keep_their_decimal_point() {
        let event = Event {
            seq: 0,
            t_us: 0,
            kind: EventKind::Event,
            name: "x".into(),
            dur_us: None,
            value: None,
            fields: vec![("rate".into(), Field::F64(2.0))],
        };
        let line = event.to_json();
        assert!(line.contains("\"rate\":2.0"), "{line}");
        let reread = Event::from_json(&line).unwrap();
        assert_eq!(reread.field("rate"), Some(&Field::F64(2.0)));
        assert_eq!(reread.to_json(), line);
    }

    #[test]
    fn non_finite_floats_become_null_and_read_back_nan() {
        let event = Event {
            seq: 0,
            t_us: 0,
            kind: EventKind::Event,
            name: "x".into(),
            dur_us: None,
            value: None,
            fields: vec![("bad".into(), Field::F64(f64::INFINITY))],
        };
        let line = event.to_json();
        assert!(line.contains("\"bad\":null"), "{line}");
        let reread = Event::from_json(&line).unwrap();
        assert!(reread.field("bad").unwrap().as_f64().unwrap().is_nan());
        assert_eq!(reread.to_json(), line);
    }

    #[test]
    fn negative_and_exponent_numbers_parse_as_floats() {
        let line = r#"{"seq":0,"t_us":0,"kind":"event","name":"x","fields":{"a":-2.5,"b":1e3}}"#;
        let event = Event::from_json(line).unwrap();
        assert_eq!(event.field("a"), Some(&Field::F64(-2.5)));
        assert_eq!(event.field("b"), Some(&Field::F64(1000.0)));
    }

    #[test]
    fn malformed_lines_error_with_position() {
        for bad in [
            "{",
            "{}",
            r#"{"seq":1}"#,
            r#"{"seq":1,"t_us":2,"kind":"nope","name":"x"}"#,
            r#"{"seq":1,"t_us":2,"kind":"event","name":"x","bogus":3}"#,
            r#"{"seq":1,"t_us":2,"kind":"event","name":"x"} trailing"#,
        ] {
            assert!(Event::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn blank_lines_are_ignored() {
        let text = format!("\n{}\n\n", sample().to_json());
        assert_eq!(read_jsonl(&text).unwrap().len(), 1);
    }

    #[test]
    fn control_characters_escape_and_round_trip() {
        let event = Event {
            seq: 0,
            t_us: 0,
            kind: EventKind::Event,
            name: "weird\u{0001}name".into(),
            dur_us: None,
            value: None,
            fields: vec![("k".into(), Field::Str("tab\there".into()))],
        };
        let line = event.to_json();
        assert!(line.contains("\\u0001"), "{line}");
        let reread = Event::from_json(&line).unwrap();
        assert_eq!(reread, event);
        assert_eq!(reread.to_json(), line);
    }
}
