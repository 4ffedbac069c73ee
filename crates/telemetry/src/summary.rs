//! Aggregating an event stream into the phase-time/counter table that
//! `explore events --summarize` renders.

use crate::event::{Event, EventKind};

/// Aggregate of every span event sharing one name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Span name.
    pub name: String,
    /// Occurrences.
    pub count: u64,
    /// Summed duration, microseconds.
    pub total_us: u64,
    /// Longest single occurrence, microseconds.
    pub max_us: u64,
}

impl SpanSummary {
    /// Mean duration in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / 1e3 / self.count as f64
        }
    }
}

/// A histogram snapshot read back from a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Sum of all samples.
    pub sum: u64,
}

/// Everything [`summarize`] extracts from a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSummary {
    /// Total records in the stream.
    pub events: usize,
    /// Span aggregates, largest total first.
    pub spans: Vec<SpanSummary>,
    /// Point-event occurrence counts by name, alphabetical.
    pub event_counts: Vec<(String, u64)>,
    /// Final counter values by name (last snapshot wins), alphabetical.
    pub counters: Vec<(String, u64)>,
    /// Final gauge levels by name, alphabetical.
    pub gauges: Vec<(String, u64)>,
    /// Histogram snapshots by name, alphabetical.
    pub hists: Vec<(String, HistSummary)>,
    /// Events the producer dropped (from the `telemetry.dropped`
    /// counter), if any.
    pub dropped: u64,
}

/// Folds a stream into per-name aggregates.
pub fn summarize(events: &[Event]) -> StreamSummary {
    use std::collections::BTreeMap;
    let mut spans: BTreeMap<&str, SpanSummary> = BTreeMap::new();
    let mut event_counts: BTreeMap<&str, u64> = BTreeMap::new();
    let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<&str, u64> = BTreeMap::new();
    let mut hists: BTreeMap<&str, HistSummary> = BTreeMap::new();
    for event in events {
        match event.kind {
            EventKind::Span => {
                let dur = event.dur_us.unwrap_or(0);
                let entry = spans.entry(&event.name).or_insert_with(|| SpanSummary {
                    name: event.name.clone(),
                    count: 0,
                    total_us: 0,
                    max_us: 0,
                });
                entry.count += 1;
                // Saturating: a corrupt trace can claim spans near u64::MAX.
                entry.total_us = entry.total_us.saturating_add(dur);
                entry.max_us = entry.max_us.max(dur);
            }
            EventKind::Event => *event_counts.entry(&event.name).or_insert(0) += 1,
            EventKind::Counter => {
                counters.insert(&event.name, event.value.unwrap_or(0));
            }
            EventKind::Gauge => {
                gauges.insert(&event.name, event.value.unwrap_or(0));
            }
            EventKind::Hist => {
                let get = |key: &str| event.field(key).and_then(|f| f.as_u64()).unwrap_or(0);
                hists.insert(
                    &event.name,
                    HistSummary {
                        count: get("count"),
                        min: get("min"),
                        max: get("max"),
                        sum: get("sum"),
                    },
                );
            }
        }
    }
    let dropped = counters.get("telemetry.dropped").copied().unwrap_or(0);
    let mut spans: Vec<SpanSummary> = spans.into_values().collect();
    spans.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
    StreamSummary {
        events: events.len(),
        spans,
        event_counts: event_counts
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        counters: counters
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        gauges: gauges
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        hists: hists.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        dropped,
    }
}

impl StreamSummary {
    /// Renders the aligned text table `explore events --summarize`
    /// prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{} event(s)\n", self.events));
        if self.dropped > 0 {
            out.push_str(&format!(
                "warning: producer dropped {} event(s) at its log bound\n",
                self.dropped
            ));
        }
        if !self.spans.is_empty() {
            out.push_str(&format!(
                "\n{:<40} {:>8} {:>12} {:>12} {:>12}\n",
                "span", "count", "total ms", "mean ms", "max ms"
            ));
            for s in &self.spans {
                out.push_str(&format!(
                    "{:<40} {:>8} {:>12.2} {:>12.3} {:>12.2}\n",
                    s.name,
                    s.count,
                    s.total_us as f64 / 1e3,
                    s.mean_ms(),
                    s.max_us as f64 / 1e3,
                ));
            }
        }
        if !self.event_counts.is_empty() {
            out.push_str(&format!("\n{:<40} {:>8}\n", "event", "count"));
            for (name, count) in &self.event_counts {
                out.push_str(&format!("{name:<40} {count:>8}\n"));
            }
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("\n{:<40} {:>12}\n", "counter", "value"));
            for (name, value) in &self.counters {
                out.push_str(&format!("{name:<40} {value:>12}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str(&format!("\n{:<40} {:>12}\n", "gauge", "last"));
            for (name, value) in &self.gauges {
                out.push_str(&format!("{name:<40} {value:>12}\n"));
            }
        }
        if !self.hists.is_empty() {
            out.push_str(&format!(
                "\n{:<40} {:>8} {:>10} {:>10} {:>12}\n",
                "histogram", "count", "min", "max", "sum"
            ));
            for (name, h) in &self.hists {
                out.push_str(&format!(
                    "{:<40} {:>8} {:>10} {:>10} {:>12}\n",
                    name, h.count, h.min, h.max, h.sum
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Field;

    fn span(name: &str, dur_us: u64) -> Event {
        Event {
            seq: 0,
            t_us: 0,
            kind: EventKind::Span,
            name: name.into(),
            dur_us: Some(dur_us),
            value: None,
            fields: Vec::new(),
        }
    }

    #[test]
    fn aggregates_spans_counters_and_events() {
        let events = vec![
            span("measure", 1000),
            span("measure", 3000),
            span("synth", 500),
            Event {
                seq: 3,
                t_us: 9,
                kind: EventKind::Event,
                name: "deal".into(),
                dur_us: None,
                value: None,
                fields: Vec::new(),
            },
            Event {
                seq: 4,
                t_us: 9,
                kind: EventKind::Counter,
                name: "nodes".into(),
                dur_us: None,
                value: Some(42),
                fields: Vec::new(),
            },
            Event {
                seq: 5,
                t_us: 9,
                kind: EventKind::Hist,
                name: "lat".into(),
                dur_us: None,
                value: None,
                fields: vec![
                    ("count".into(), Field::U64(2)),
                    ("min".into(), Field::U64(1)),
                    ("max".into(), Field::U64(9)),
                    ("sum".into(), Field::U64(10)),
                ],
            },
        ];
        let summary = summarize(&events);
        assert_eq!(summary.events, 6);
        assert_eq!(summary.spans[0].name, "measure");
        assert_eq!(summary.spans[0].count, 2);
        assert_eq!(summary.spans[0].total_us, 4000);
        assert_eq!(summary.spans[0].max_us, 3000);
        assert_eq!(summary.spans[0].mean_ms(), 2.0);
        assert_eq!(summary.event_counts, vec![("deal".to_string(), 1)]);
        assert_eq!(summary.counters, vec![("nodes".to_string(), 42)]);
        assert_eq!(summary.hists[0].1.sum, 10);
        assert_eq!(summary.dropped, 0);

        let table = summary.render();
        assert!(table.contains("measure"));
        assert!(table.contains("42"));
        assert!(table.contains("histogram"));
    }

    #[test]
    fn span_totals_saturate_instead_of_overflowing() {
        // A corrupt or hostile trace can claim spans of ~2^63 µs.
        let events = vec![span("x", 1 << 63), span("x", 1 << 63), span("x", 5)];
        let summary = summarize(&events);
        assert_eq!(summary.spans[0].total_us, u64::MAX);
        assert_eq!(summary.spans[0].max_us, 1 << 63);
        assert!(summary.render().contains('x'));
    }

    #[test]
    fn dropped_counter_surfaces_as_warning() {
        let events = vec![Event {
            seq: 0,
            t_us: 0,
            kind: EventKind::Counter,
            name: "telemetry.dropped".into(),
            dur_us: None,
            value: Some(7),
            fields: Vec::new(),
        }];
        let summary = summarize(&events);
        assert_eq!(summary.dropped, 7);
        assert!(summary.render().contains("dropped 7 event(s)"));
    }
}
