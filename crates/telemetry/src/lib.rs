//! `noc-telemetry`: structured observability for the NoC synthesis
//! workspace — scoped spans with monotonic timing, lock-free atomic
//! counters/gauges/histograms, and a bounded event log that drains to a
//! JSON-Lines trace.
//!
//! # Design
//!
//! A [`Telemetry`] handle is either **recording** (an `Arc`-shared state
//! block) or **disabled** (a `None` inner — every operation is a branch
//! and a return). The crate holds one process-wide slot, empty by
//! default: instrumented layers ask [`active()`] for the global handle
//! and do nothing when none is installed, so *disabled telemetry costs
//! one relaxed atomic load per instrumented operation* — and the
//! instrumented operations are run/scenario/wave-grained, never
//! per-search-node. The `decompose_scaling` bench measures this fast
//! path and CI asserts the disabled overhead stays under 2% of an n=30
//! decomposition.
//!
//! Three instrument families, one event log:
//!
//! * **Spans** ([`Telemetry::span`]) time a scope monotonically
//!   ([`std::time::Instant`]) and record a `span` event on drop;
//!   [`Telemetry::span_event`] records an externally-timed duration (the
//!   decomposer's phase accumulators already own their timing).
//! * **Counters/gauges/histograms** are plain `AtomicU64` cells behind
//!   cloneable handles — updates are lock-free; the registry lookup by
//!   name takes a short lock, so hot paths should hold a handle.
//! * **Events** ([`Telemetry::event`]) record point-in-time occurrences
//!   with typed fields.
//!
//! The event log is bounded ([`Telemetry::with_capacity`]): a full log
//! drops new events and counts the drops, so a runaway campaign cannot
//! eat the heap. [`Telemetry::take_trace`] drains the log and appends a
//! snapshot of every counter/gauge/histogram (plus a
//! `telemetry.dropped` counter if anything was lost) — the JSON-Lines
//! document written beside campaign reports by `explore … --trace`.
//!
//! The crate also owns the workspace's one JSON codec, [`json`]: the
//! reader behind [`read_jsonl`] and `noc-explore`'s campaign reports and
//! streams, and the string escaper and float formatter every writer
//! shares.
//!
//! # Example
//!
//! ```
//! use noc_telemetry::{summarize, Telemetry};
//!
//! let telemetry = Telemetry::recording();
//! {
//!     let _span = telemetry.span("demo.work").field("items", 3u64);
//!     telemetry.add("demo.items", 3);
//! }
//! let events = telemetry.take_trace();
//! assert_eq!(events[0].name, "demo.work");
//! let text = noc_telemetry::write_jsonl(&events);
//! let reread = noc_telemetry::read_jsonl(&text).unwrap();
//! assert_eq!(noc_telemetry::write_jsonl(&reread), text);
//! println!("{}", summarize(&reread).render());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
pub mod json;
mod summary;

pub use event::{read_jsonl, write_jsonl, Event, EventKind, Field, ParseError};
pub use summary::{summarize, HistSummary, SpanSummary, StreamSummary};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Default bound on the in-memory event log.
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 16;

/// A telemetry handle: recording (shared, cloneable) or disabled (every
/// operation is a no-op). See the [crate docs](crate).
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => f
                .debug_struct("Telemetry")
                .field("events", &inner.log.lock().expect("telemetry log").len())
                .field("dropped", &inner.dropped.load(Ordering::Relaxed))
                .finish(),
            None => f.write_str("Telemetry(disabled)"),
        }
    }
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("capacity", &self.capacity)
            .finish()
    }
}

struct Inner {
    epoch: Instant,
    capacity: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
    log: Mutex<Vec<Event>>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    hists: Mutex<BTreeMap<String, Arc<HistCells>>>,
}

/// Lock-free cells behind a [`Histogram`] handle.
struct HistCells {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistCells {
    fn new() -> Self {
        HistCells {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A lock-free counter handle (no-op when obtained from a disabled
/// handle). Cache it outside loops to skip the by-name registry lookup.
#[derive(Debug, Clone)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A lock-free gauge handle: a last-write-wins level (queue depths,
/// fleet sizes).
#[derive(Debug, Clone)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the level.
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Current level (0 when disabled).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A lock-free histogram handle: count/sum/min/max of recorded values
/// (typically microseconds).
#[derive(Debug, Clone)]
pub struct Histogram(Option<Arc<HistCells>>);

impl std::fmt::Debug for HistCells {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistCells")
            .field("count", &self.count.load(Ordering::Relaxed))
            .finish()
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        if let Some(cells) = &self.0 {
            cells.count.fetch_add(1, Ordering::Relaxed);
            cells.sum.fetch_add(v, Ordering::Relaxed);
            cells.min.fetch_min(v, Ordering::Relaxed);
            cells.max.fetch_max(v, Ordering::Relaxed);
        }
    }
}

/// A scoped span: created by [`Telemetry::span`], records a `span` event
/// with its monotonic duration when dropped. Inert (no clock reads) when
/// the handle is disabled.
#[derive(Debug)]
pub struct Span {
    active: Option<SpanActive>,
}

#[derive(Debug)]
struct SpanActive {
    inner: Arc<Inner>,
    name: String,
    fields: Vec<(String, Field)>,
    start: Instant,
}

impl Span {
    /// Attaches a field (builder form).
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Field>) -> Self {
        self.add_field(key, value);
        self
    }

    /// Attaches a field in place — for values only known mid-scope.
    pub fn add_field(&mut self, key: &str, value: impl Into<Field>) {
        if let Some(active) = &mut self.active {
            active.fields.push((key.to_string(), value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let dur = active.start.elapsed();
            active.inner.push(
                EventKind::Span,
                &active.name,
                Some(dur.as_micros() as u64),
                None,
                active.fields,
            );
        }
    }
}

impl Telemetry {
    /// A recording handle with the default event-log bound.
    pub fn recording() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A recording handle bounding the event log at `capacity` events
    /// (further events are dropped and counted).
    pub fn with_capacity(capacity: usize) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                capacity: capacity.max(1),
                seq: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                log: Mutex::new(Vec::new()),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                hists: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// The disabled handle: every operation no-ops.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A counter handle (no-op handle when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|inner| {
            inner
                .counters
                .lock()
                .expect("telemetry counters")
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0)))
                .clone()
        }))
    }

    /// Adds `n` to the named counter.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Current value of the named counter (0 if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counter(name).value()
    }

    /// A gauge handle (no-op handle when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|inner| {
            inner
                .gauges
                .lock()
                .expect("telemetry gauges")
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0)))
                .clone()
        }))
    }

    /// Sets the named gauge.
    pub fn gauge_set(&self, name: &str, v: u64) {
        self.gauge(name).set(v);
    }

    /// A histogram handle (no-op handle when disabled).
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|inner| {
            inner
                .hists
                .lock()
                .expect("telemetry histograms")
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(HistCells::new()))
                .clone()
        }))
    }

    /// Records one sample into the named histogram.
    pub fn record(&self, name: &str, v: u64) {
        self.histogram(name).record(v);
    }

    /// Records a point-in-time event with typed fields.
    pub fn event(&self, name: &str, fields: &[(&str, Field)]) {
        if let Some(inner) = &self.inner {
            let owned = fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect();
            inner.push(EventKind::Event, name, None, None, owned);
        }
    }

    /// Opens a scoped span; its monotonic duration is recorded as a
    /// `span` event when the returned guard drops.
    pub fn span(&self, name: &str) -> Span {
        Span {
            active: self.inner.as_ref().map(|inner| SpanActive {
                inner: inner.clone(),
                name: name.to_string(),
                fields: Vec::new(),
                start: Instant::now(),
            }),
        }
    }

    /// Records a span whose duration was measured externally (e.g. the
    /// decomposer's thread-local phase accumulators).
    pub fn span_event(&self, name: &str, duration: Duration, fields: &[(&str, Field)]) {
        if let Some(inner) = &self.inner {
            let owned = fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect();
            inner.push(
                EventKind::Span,
                name,
                Some(duration.as_micros() as u64),
                None,
                owned,
            );
        }
    }

    /// Events dropped so far by the bounded log.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// Drains the event log (counters/gauges/histograms keep
    /// accumulating).
    pub fn drain(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => std::mem::take(&mut *inner.log.lock().expect("telemetry log")),
            None => Vec::new(),
        }
    }

    /// Drains the event log and appends a snapshot of every counter,
    /// gauge and histogram (sorted by name, deterministic) — the full
    /// trace document for [`write_jsonl`]. A nonzero drop count appends
    /// a final `telemetry.dropped` counter record.
    pub fn take_trace(&self) -> Vec<Event> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut events = self.drain();
        let t_us = inner.now_us();
        let mut push = |kind, name: &str, value, fields| {
            events.push(Event {
                seq: inner.seq.fetch_add(1, Ordering::Relaxed),
                t_us,
                kind,
                name: name.to_string(),
                dur_us: None,
                value,
                fields,
            });
        };
        for (name, cell) in inner.counters.lock().expect("telemetry counters").iter() {
            push(
                EventKind::Counter,
                name,
                Some(cell.load(Ordering::Relaxed)),
                Vec::new(),
            );
        }
        for (name, cell) in inner.gauges.lock().expect("telemetry gauges").iter() {
            push(
                EventKind::Gauge,
                name,
                Some(cell.load(Ordering::Relaxed)),
                Vec::new(),
            );
        }
        for (name, cells) in inner.hists.lock().expect("telemetry histograms").iter() {
            let count = cells.count.load(Ordering::Relaxed);
            let fields = vec![
                ("count".to_string(), Field::U64(count)),
                (
                    "min".to_string(),
                    Field::U64(if count == 0 {
                        0
                    } else {
                        cells.min.load(Ordering::Relaxed)
                    }),
                ),
                (
                    "max".to_string(),
                    Field::U64(cells.max.load(Ordering::Relaxed)),
                ),
                (
                    "sum".to_string(),
                    Field::U64(cells.sum.load(Ordering::Relaxed)),
                ),
            ];
            push(EventKind::Hist, name, None, fields);
        }
        let dropped = inner.dropped.load(Ordering::Relaxed);
        if dropped > 0 {
            push(
                EventKind::Counter,
                "telemetry.dropped",
                Some(dropped),
                Vec::new(),
            );
        }
        events
    }
}

impl Inner {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn push(
        &self,
        kind: EventKind,
        name: &str,
        dur_us: Option<u64>,
        value: Option<u64>,
        fields: Vec<(String, Field)>,
    ) {
        let mut log = self.log.lock().expect("telemetry log");
        if log.len() >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let event = Event {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            t_us: self.now_us(),
            kind,
            name: name.to_string(),
            dur_us,
            value,
            fields,
        };
        log.push(event);
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// Installs `telemetry` as the process-wide handle that [`active()`]
/// hands to instrumented layers. First enabled install wins; returns
/// `false` (and changes nothing) on a disabled handle or a second
/// install.
pub fn install(telemetry: Telemetry) -> bool {
    if !telemetry.is_enabled() {
        return false;
    }
    let installed = GLOBAL.set(telemetry).is_ok();
    if installed {
        ACTIVE.store(true, Ordering::Release);
    }
    installed
}

/// Whether a global handle is installed — the single relaxed load on
/// every disabled-telemetry fast path.
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// The installed global handle, if any. Instrumented layers call this
/// once per run/scenario/wave — never per inner-loop iteration.
pub fn active() -> Option<&'static Telemetry> {
    if !is_active() {
        return None;
    }
    GLOBAL.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_noops_everything() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.add("c", 5);
        t.gauge_set("g", 9);
        t.record("h", 100);
        t.event("e", &[("k", Field::U64(1))]);
        let span = t.span("s").field("k", 2u64);
        drop(span);
        t.span_event("s2", Duration::from_millis(1), &[]);
        assert_eq!(t.counter_value("c"), 0);
        assert!(t.take_trace().is_empty());
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let t = Telemetry::recording();
        let c = t.counter("work.items");
        c.add(3);
        t.add("work.items", 4);
        assert_eq!(t.counter_value("work.items"), 7);

        t.gauge_set("queue", 5);
        t.gauge_set("queue", 2);
        assert_eq!(t.gauge("queue").value(), 2);

        let h = t.histogram("lat");
        h.record(10);
        h.record(30);
        let trace = t.take_trace();
        let hist = trace
            .iter()
            .find(|e| e.kind == EventKind::Hist && e.name == "lat")
            .unwrap();
        assert_eq!(hist.field("count"), Some(&Field::U64(2)));
        assert_eq!(hist.field("min"), Some(&Field::U64(10)));
        assert_eq!(hist.field("max"), Some(&Field::U64(30)));
        assert_eq!(hist.field("sum"), Some(&Field::U64(40)));
    }

    #[test]
    fn spans_record_duration_and_fields() {
        let t = Telemetry::recording();
        {
            let mut span = t.span("outer").field("static", "yes");
            std::thread::sleep(Duration::from_millis(5));
            span.add_field("late", 7u64);
        }
        let events = t.drain();
        assert_eq!(events.len(), 1);
        let span = &events[0];
        assert_eq!(span.kind, EventKind::Span);
        assert_eq!(span.name, "outer");
        assert!(span.dur_us.unwrap() >= 4_000, "dur {:?}", span.dur_us);
        assert_eq!(span.field("static").unwrap().as_str(), Some("yes"));
        assert_eq!(span.field("late"), Some(&Field::U64(7)));
    }

    #[test]
    fn sequence_numbers_are_strictly_increasing() {
        let t = Telemetry::recording();
        for i in 0..10u64 {
            t.event("tick", &[("i", Field::U64(i))]);
        }
        let events = t.take_trace();
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
        }
    }

    #[test]
    fn bounded_log_drops_and_counts() {
        let t = Telemetry::with_capacity(3);
        for _ in 0..5 {
            t.event("e", &[]);
        }
        assert_eq!(t.dropped(), 2);
        let trace = t.take_trace();
        assert_eq!(trace.iter().filter(|e| e.name == "e").count(), 3);
        let drop_note = trace
            .iter()
            .find(|e| e.name == "telemetry.dropped")
            .expect("drop counter recorded");
        assert_eq!(drop_note.value, Some(2));
    }

    #[test]
    fn drain_keeps_counters() {
        let t = Telemetry::recording();
        t.add("kept", 2);
        t.event("gone", &[]);
        assert_eq!(t.drain().len(), 1);
        assert!(t.drain().is_empty());
        assert_eq!(t.counter_value("kept"), 2);
    }

    #[test]
    fn trace_round_trips_through_jsonl() {
        let t = Telemetry::recording();
        t.event("a", &[("rate", Field::F64(0.5))]);
        t.add("c", 9);
        t.record("h", 12);
        let events = t.take_trace();
        let text = write_jsonl(&events);
        let reread = read_jsonl(&text).unwrap();
        assert_eq!(reread, events);
        assert_eq!(write_jsonl(&reread), text);
    }

    #[test]
    fn global_slot_installs_once() {
        // Shares process state with nothing else in this crate's tests.
        assert!(active().is_none() || is_active());
        let first = install(Telemetry::disabled());
        assert!(!first, "disabled handles never install");
        let installed = install(Telemetry::recording());
        let second = install(Telemetry::recording());
        assert!(installed || is_active());
        assert!(!second || !installed, "two installs cannot both win");
        assert!(active().is_some());
        active().unwrap().add("global.test", 1);
    }
}
