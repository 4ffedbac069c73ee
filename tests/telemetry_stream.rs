//! The telemetry contract, proven on the real decomposer: an installed
//! trace must never change engine results, the event stream must be
//! deterministic in everything but its timestamps, and the JSON Lines
//! wire format must round-trip byte-identically.
//!
//! The process-wide handle installs at most once per process, so every
//! assertion that needs a "before install" and an "after install" state
//! lives in ONE test function, sequenced explicitly.

use noc::prelude::*;
use noc::telemetry::{self, Event, EventKind, Telemetry};
use noc::workloads::pajek;

fn grid_cost_model(acg: &Acg) -> CostModel {
    let side = (acg.core_count() as f64).sqrt().ceil() as usize;
    CostModel::new(
        EnergyModel::new(TechnologyProfile::cmos_180nm()),
        Placement::grid(side, side, 2.0, 2.0),
        Objective::Links,
    )
}

fn decompose_fig5() -> Decomposition {
    let acg = pajek::fig5_benchmark();
    let library = CommLibrary::standard();
    Decomposer::new(&acg, &library, grid_cost_model(&acg))
        .run()
        .best
        .expect("fig5 decomposes")
}

/// The deterministic projection of a drained event: everything except
/// `seq`/`t_us`/`dur_us` (sequence numbers shift with interleaving and
/// wall-clock values never repeat; names, kinds, snapshot values and
/// typed fields must).
fn deterministic_view(events: &[Event]) -> Vec<(&'static str, String, Option<u64>, String)> {
    events
        .iter()
        .map(|e| {
            let fields = e
                .fields
                .iter()
                .map(|(k, v)| format!("{k}={v:?}"))
                .collect::<Vec<_>>()
                .join(",");
            (e.kind.label(), e.name.clone(), e.value, fields)
        })
        .collect()
}

#[test]
fn traced_decomposition_is_equivalent_and_the_stream_round_trips() {
    // 1. Baseline: no handle installed — the untraced engine result.
    let baseline = decompose_fig5();

    // 2. Install the process-wide recording handle. First install wins;
    //    a second (and a disabled one) must refuse without clobbering.
    assert!(telemetry::install(Telemetry::recording()));
    assert!(!telemetry::install(Telemetry::recording()));
    assert!(!telemetry::install(Telemetry::disabled()));
    let tel = telemetry::active().expect("handle just installed");

    // 3. Engine equivalence: tracing only adds clock reads, so the
    //    traced run must reproduce the baseline bit for bit.
    let traced = decompose_fig5();
    assert_eq!(
        traced.total_cost.value(),
        baseline.total_cost.value(),
        "tracing changed the proven optimum"
    );
    assert_eq!(
        traced.all_edges(&CommLibrary::standard()),
        baseline.all_edges(&CommLibrary::standard()),
        "tracing changed the edge partition"
    );

    // 4. The stream reconstructs the run: one run span with its phase
    //    breakdown, counters consistent with one traced decomposition.
    assert_eq!(tel.counter_value("decompose.runs"), 1);
    let first = tel.drain();
    let run_spans: Vec<&Event> = first
        .iter()
        .filter(|e| e.kind == EventKind::Span && e.name == "decompose.run")
        .collect();
    assert_eq!(run_spans.len(), 1, "one run span per decomposition");
    let run = run_spans[0];
    assert!(run.dur_us.is_some(), "spans carry a duration");
    let field = |name: &str| {
        run.fields
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("decompose.run is missing field {name:?}"))
            .1
            .clone()
    };
    assert_eq!(
        field("vertices"),
        telemetry::Field::U64(pajek::fig5_benchmark().core_count() as u64)
    );
    assert_eq!(field("timed_out"), telemetry::Field::Bool(false));
    for phase in ["root", "match_enum", "bound", "frontier", "leaf"] {
        let name = format!("decompose.phase.{phase}");
        assert_eq!(
            first.iter().filter(|e| e.name == name).count(),
            1,
            "exactly one {name} span per run"
        );
    }
    // Sequence numbers are strictly increasing within a drain.
    for pair in first.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "seq must be strictly increasing");
    }

    // 5. Determinism: a second identical run drains an event stream
    //    whose deterministic projection matches the first run's exactly.
    let again = decompose_fig5();
    assert_eq!(again.total_cost.value(), baseline.total_cost.value());
    let second = tel.drain();
    assert_eq!(
        deterministic_view(&first),
        deterministic_view(&second),
        "identical runs must trace identically (timestamps aside)"
    );
    assert_eq!(tel.counter_value("decompose.runs"), 2);

    // 6. Wire format: write → read → write is byte-identical, and the
    //    full trace document (with counter/gauge/hist snapshots) renders
    //    a summary that names the decomposer span.
    let trace = tel.take_trace();
    assert!(!trace.is_empty(), "snapshots alone make a non-empty trace");
    let jsonl = telemetry::write_jsonl(&trace);
    let parsed = telemetry::read_jsonl(&jsonl).expect("own output re-parses");
    assert_eq!(parsed, trace, "decoded events match the originals");
    assert_eq!(
        telemetry::write_jsonl(&parsed),
        jsonl,
        "round trip must be byte-identical"
    );
    let summary = telemetry::summarize(&trace);
    assert_eq!(summary.dropped, 0);
    assert!(summary.render().contains("decompose.runs"));
}

#[test]
fn a_disabled_handle_records_nothing_and_allocates_nothing() {
    let tel = Telemetry::disabled();
    assert!(!tel.is_enabled());
    tel.add("x", 3);
    tel.gauge_set("g", 7);
    tel.record("h", 1);
    tel.event("e", &[("k", 1u64.into())]);
    drop(tel.span("s").field("k", true));
    assert_eq!(tel.counter_value("x"), 0);
    assert_eq!(tel.dropped(), 0);
    assert!(tel.take_trace().is_empty());
}
