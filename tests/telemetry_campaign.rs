//! Trace reconstruction at the campaign and coordinator layers: the
//! event stream must account for every scenario dealt, synthesized and
//! measured (each in exactly one architecture's measure span) — and
//! recording it must never change the front.
//!
//! Every handle here is an explicit per-run [`Telemetry`] (the
//! `.telemetry()` builders), not the process-wide one: the global
//! installs at most once per process, and these tests run concurrently
//! under the default test runner. The global path is proven in
//! `telemetry_stream.rs` and by the CI `--trace` smoke run.

use std::collections::BTreeSet;
use std::path::PathBuf;

use noc_explore::coordinate::{coordinate, CoordinatorConfig, ThreadTransport};
use noc_explore::prelude::*;
use noc_telemetry::{Event, EventKind, Field, Telemetry};

fn count(trace: &[Event], kind: EventKind, name: &str) -> usize {
    trace
        .iter()
        .filter(|e| e.kind == kind && e.name == name)
        .count()
}

fn u64_field(event: &Event, key: &str) -> u64 {
    match event.fields.iter().find(|(k, _)| k == key) {
        Some((_, Field::U64(v))) => *v,
        other => panic!("{} has no u64 field {key:?} ({other:?})", event.name),
    }
}

#[test]
fn campaign_trace_accounts_for_every_scenario_and_changes_nothing() {
    let baseline = Campaign::new(ScenarioGrid::smoke()).threads(1).run();
    let tel = Telemetry::recording();
    let traced = Campaign::new(ScenarioGrid::smoke())
        .threads(1)
        .telemetry(tel.clone())
        .run();

    // Equivalence first: an attached trace must not perturb the results.
    assert_eq!(traced.front, baseline.front, "tracing changed the front");
    assert_eq!(traced.hypervolume, baseline.hypervolume);
    assert_eq!(traced.points.len(), baseline.points.len());

    assert_eq!(tel.counter_value("campaign.plans"), 1);
    assert_eq!(
        tel.counter_value("campaign.points"),
        traced.points.len() as u64
    );
    let trace = tel.take_trace();

    // One run span wrapping the whole plan, with the grid size on it.
    let runs: Vec<&Event> = trace
        .iter()
        .filter(|e| e.kind == EventKind::Span && e.name == "campaign.run")
        .collect();
    assert_eq!(runs.len(), 1);
    assert_eq!(u64_field(runs[0], "scenarios"), traced.points.len() as u64);
    assert_eq!(u64_field(runs[0], "carried"), 0);

    // Synthesis runs once per unique synthesis key, and the rest of the
    // points are the reported artifact reuse.
    let synth = count(&trace, EventKind::Span, "campaign.synthesize");
    assert_eq!(synth, traced.flows_synthesized);
    assert_eq!(traced.points.len() - synth, traced.synthesis_reused);

    // Measurement runs once per architecture: the smoke grid's 12 points
    // simulate 4 distinct architectures, each under both sim specs, so 4
    // of its 8 sweeps serve a second point.
    let measures: Vec<&Event> = trace
        .iter()
        .filter(|e| e.kind == EventKind::Span && e.name == "campaign.measure")
        .collect();
    assert_eq!(measures.len(), 4);
    assert_eq!(tel.counter_value("campaign.sweeps_shared"), 4);
    let sweeps: u64 = measures.iter().map(|e| u64_field(e, "sweeps")).sum();
    assert_eq!(sweeps, 8);

    // Every scenario id appears in exactly one measure span's ids.
    let mut ids: BTreeSet<u64> = BTreeSet::new();
    for span in &measures {
        let csv = match span.fields.iter().find(|(k, _)| k == "ids") {
            Some((_, Field::Str(s))) => s.clone(),
            other => panic!("measure span without an ids csv ({other:?})"),
        };
        for id in csv.split(',') {
            assert!(
                ids.insert(id.parse().expect("numeric scenario id")),
                "id {id} measured twice"
            );
        }
    }
    assert_eq!(ids, (0..traced.points.len() as u64).collect());

    // The cache rollup event matches the report's own statistics.
    let rollups: Vec<&Event> = trace
        .iter()
        .filter(|e| e.kind == EventKind::Event && e.name == "campaign.match_cache")
        .collect();
    assert_eq!(rollups.len(), 1);
    let hits: u64 = traced.match_cache.iter().map(|c| c.hits).sum();
    let misses: u64 = traced.match_cache.iter().map(|c| c.misses).sum();
    assert_eq!(u64_field(rollups[0], "hits"), hits);
    assert_eq!(u64_field(rollups[0], "misses"), misses);
}

#[test]
fn coordinator_trace_mirrors_the_wave_records() {
    let campaign = Campaign::new(ScenarioGrid::smoke());
    let work: PathBuf = std::env::temp_dir().join(format!("noc_tel_coord_{}", std::process::id()));
    std::fs::remove_dir_all(&work).ok();
    let tel = Telemetry::recording();
    let config = CoordinatorConfig::new(3)
        .work_dir(&work)
        .telemetry(tel.clone());
    let mut transport = ThreadTransport::new(campaign.clone());
    let report = coordinate(&campaign, &config, &mut transport).expect("coordination");
    std::fs::remove_dir_all(&work).ok();
    let provenance = report.coordinator.as_ref().expect("coordinator record");
    let trace = tel.take_trace();

    // A healthy fleet: one deal and one completion per worker, a wave
    // span per recorded wave, and no kills, salvages or re-deals.
    assert_eq!(count(&trace, EventKind::Event, "coordinator.deal"), 3);
    assert_eq!(count(&trace, EventKind::Event, "coordinator.complete"), 3);
    assert_eq!(count(&trace, EventKind::Event, "coordinator.kill"), 0);
    assert_eq!(count(&trace, EventKind::Event, "coordinator.salvage"), 0);
    assert_eq!(count(&trace, EventKind::Event, "coordinator.redeal"), 0);
    assert_eq!(
        count(&trace, EventKind::Span, "coordinator.wave"),
        provenance.waves.len()
    );

    // The dealt id lists partition the grid: every scenario id exactly
    // once, covering 0..n — the stream alone reconstructs the deal.
    let mut ids: BTreeSet<u64> = BTreeSet::new();
    let mut dealt = 0u64;
    for event in trace
        .iter()
        .filter(|e| e.kind == EventKind::Event && e.name == "coordinator.deal")
    {
        assert_eq!(u64_field(event, "wave"), 0);
        let csv = match event.fields.iter().find(|(k, _)| k == "ids") {
            Some((_, Field::Str(s))) => s.clone(),
            other => panic!("deal event without ids csv ({other:?})"),
        };
        for id in csv.split(',') {
            assert!(
                ids.insert(id.parse().expect("numeric scenario id")),
                "id {id} dealt twice"
            );
            dealt += 1;
        }
        assert_eq!(u64_field(event, "scenarios"), csv.split(',').count() as u64);
    }
    assert_eq!(ids, (0..dealt).collect());
    assert_eq!(dealt as usize, report.points.len());

    // The wave span totals agree with the provenance record.
    let wave = trace
        .iter()
        .find(|e| e.kind == EventKind::Span && e.name == "coordinator.wave")
        .expect("wave span");
    assert_eq!(u64_field(wave, "completed"), 3);
    assert_eq!(u64_field(wave, "killed"), 0);
    assert_eq!(u64_field(wave, "redealt"), 0);
}
