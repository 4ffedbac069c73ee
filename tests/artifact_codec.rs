//! The artifact codec against golden files and mutants of them.
//!
//! `tests/golden/` holds artifacts as the writers emitted them before the
//! readers were merged into `noc_telemetry::json`:
//!
//! * `report_v5.json` — [`golden_report`] written by
//!   `CampaignReport::to_json`: a failed point, a verify witness with
//!   quotes, a newline and `\u0007`, a credit-router point, a sampler with
//!   seed `u64::MAX`, a coordinator object.
//! * `report_v4.json` … `report_v1.json` — its downgrades: v4 drops
//!   `router_fidelity`; v3 also drops every `verify` object, and adds
//!   `warm_hits` to the `match_cache` rows and a `warm_cache` object; v2
//!   also drops those warm fields and the coordinator; v1 also drops the
//!   sampler and `schema_version`.
//! * `stream_torn.jsonl` — the report's points as `JsonLinesSink` streams
//!   them, then one more record cut off two thirds of the way through, as
//!   a kill mid-write leaves it.
//! * `trace.jsonl` — [`golden_trace`] written by `write_jsonl`: every
//!   event kind and field type, an integral float, a NaN and a span name
//!   that repeats.
//!
//! Every artifact must read back to the records that wrote it, the v5
//! report and the trace byte for byte. Then mutants of all seven files —
//! every splice token in place of every value, and seeded random edits —
//! go through every reader and the merge and summary behind them: none
//! may panic, and every error must locate malformed JSON by byte offset
//! or name the offending key.

use noc_explore::report::SweepPointRecord;
use noc_explore::{
    merge_reports, CacheSizeRecord, CampaignReport, CoordinatorRecord, ObjectiveKind, PointRecord,
    SamplerRecord, SamplerRoundRecord, VerifyRecord, WaveRecord,
};
use noc_telemetry::{Event, EventKind, Field};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const REPORT_V5: &str = include_str!("golden/report_v5.json");
const REPORT_V4: &str = include_str!("golden/report_v4.json");
const REPORT_V3: &str = include_str!("golden/report_v3.json");
const REPORT_V2: &str = include_str!("golden/report_v2.json");
const REPORT_V1: &str = include_str!("golden/report_v1.json");
const STREAM_TORN: &str = include_str!("golden/stream_torn.jsonl");
const TRACE: &str = include_str!("golden/trace.jsonl");

fn sweep(points: &[(f64, f64, f64, f64)]) -> Vec<SweepPointRecord> {
    points
        .iter()
        .map(
            |&(rate, latency_cycles, throughput_bits_per_cycle, energy_joules)| SweepPointRecord {
                rate,
                latency_cycles,
                throughput_bits_per_cycle,
                energy_joules,
            },
        )
        .collect()
}

fn point(id: usize, router_fidelity: &str, objectives: Vec<f64>) -> PointRecord {
    PointRecord {
        scenario_id: id,
        label: format!("fig5/dfs/Links/cmos_180nm/fp1/ramp/{router_fidelity}/{id}"),
        workload: "fig5".into(),
        nodes: 8,
        engine: "dfs".into(),
        synthesis_objective: "Links".into(),
        technology: "cmos_180nm".into(),
        sim: "ramp".into(),
        router_fidelity: router_fidelity.into(),
        objectives,
        on_front: false,
        reused_synthesis: false,
        total_cost: 17.0,
        nodes_visited: 42,
        cache_hits: 7,
        synth_ms: 0.5,
        verify: Some(VerifyRecord {
            deadlock_free: true,
            num_vcs: 2,
            cdg_vertices: 9,
            cdg_edges: 6,
            routes_checked: 12,
            verify_ms: 0.25,
            cycle: Vec::new(),
            lint: Vec::new(),
        }),
        sweep: sweep(&[(0.05, 12.25, 3.0, 1.5e-9), (0.15, 14.5, 9.0, 4.5e-9)]),
        saturated: false,
        error: None,
    }
}

/// The schema-v5 report behind `tests/golden/report_v5.json`.
fn golden_report() -> CampaignReport {
    let mut witness = point(0, "ideal", vec![1.5e-9, 12.25, 16.0]);
    witness.verify = Some(VerifyRecord {
        deadlock_free: false,
        num_vcs: 1,
        cdg_vertices: 4,
        cdg_edges: 4,
        routes_checked: 4,
        verify_ms: 0.125,
        cycle: vec![
            "0->1@vc0 => 1->2@vc0 via 0->2 [assigned]".into(),
            "witness with \"quotes\"\nand a bell \u{0007}".into(),
        ],
        lint: vec!["route 1->1 in set 'assigned' has bad endpoints".into()],
    });
    let mut failed = point(1, "ideal", Vec::new());
    failed.error = Some("no legal decomposition".into());
    failed.total_cost = f64::NAN;
    failed.verify = None;
    failed.sweep.clear();
    let mut credit = point(2, "credit", vec![2.0e-9, 10.5, 20.0]);
    credit.saturated = true;
    credit.sweep = sweep(&[(0.05, 10.5, 3.0, 2.0e-9), (0.3, 61.0, 12.0, 1.2e-8)]);
    let mut reused = point(5, "ideal", vec![3.0e-9, 20.0, 30.0]);
    reused.reused_synthesis = true;
    reused.synth_ms = 0.75;

    let mut report = CampaignReport::assemble(
        ObjectiveKind::DEFAULT.to_vec(),
        vec![witness, failed, credit, reused],
    );
    report.threads = 2;
    report.flows_synthesized = 3;
    report.synthesis_reused = 1;
    report.carried_points = 1;
    report.wall_ms = 12.5;
    report.match_cache = vec![
        CacheSizeRecord {
            vertex_count: 8,
            hits: 3,
            misses: 10,
        },
        CacheSizeRecord {
            vertex_count: 10,
            hits: 1,
            misses: 9,
        },
    ];
    report.sampler = Some(SamplerRecord {
        policy: "bandit".into(),
        seed: u64::MAX,
        budget: 4,
        flows_spent: 4,
        grid_len: 12,
        rounds: vec![
            SamplerRoundRecord {
                round: 0,
                flows: 2,
                hypervolume: 0.9,
                arms: vec!["workload=fig5".into(), "sim=ramp\"hot\"".into()],
            },
            SamplerRoundRecord {
                round: 1,
                flows: 2,
                hypervolume: 0.95,
                arms: vec!["workload=a\\b\nc".into()],
            },
        ],
    });
    report.coordinator = Some(CoordinatorRecord {
        workers: 2,
        deadline_ms: 30000.0,
        waves: vec![
            WaveRecord {
                wave: 0,
                workers: 2,
                completed: 1,
                killed: 1,
                salvaged_points: 2,
                redealt: 4,
            },
            WaveRecord {
                wave: 1,
                workers: 1,
                completed: 1,
                killed: 0,
                salvaged_points: 0,
                redealt: 0,
            },
        ],
    });
    report
}

/// The trace behind `tests/golden/trace.jsonl`: every event kind and every
/// field type, an integral float, a NaN and a repeated span name.
fn golden_trace() -> Vec<Event> {
    let event = |seq: u64, kind, name: &str, dur_us, value, fields: Vec<(&str, Field)>| Event {
        seq,
        t_us: 100 * seq,
        kind,
        name: name.into(),
        dur_us,
        value,
        fields: fields.into_iter().map(|(k, v)| (k.into(), v)).collect(),
    };
    vec![
        event(
            0,
            EventKind::Event,
            "coordinator.deal",
            None,
            None,
            vec![
                ("wave", Field::U64(0)),
                ("ids", Field::Str("0,2,4".into())),
                ("rate", Field::F64(2.0)),
                ("healthy", Field::Bool(true)),
            ],
        ),
        event(
            1,
            EventKind::Span,
            "campaign.synthesize",
            Some(1234),
            None,
            vec![
                ("scenario_id", Field::U64(3)),
                (
                    "label",
                    Field::Str("fig5 \"quoted\"\npath\twith\r\\ and \u{0007}".into()),
                ),
                ("reused", Field::Bool(false)),
                ("ratio", Field::F64(f64::NAN)),
                ("delta", Field::F64(-2.5)),
                ("energy", Field::F64(1.5e-9)),
                ("big", Field::U64(u64::MAX)),
            ],
        ),
        event(
            2,
            EventKind::Span,
            "decompose.run",
            Some(0),
            None,
            Vec::new(),
        ),
        event(
            3,
            EventKind::Counter,
            "decompose.nodes_visited",
            None,
            Some(99),
            Vec::new(),
        ),
        event(
            4,
            EventKind::Gauge,
            "campaign.inflight",
            None,
            Some(2),
            Vec::new(),
        ),
        event(
            5,
            EventKind::Hist,
            "decompose.run_us",
            None,
            None,
            vec![
                ("count", Field::U64(3)),
                ("min", Field::U64(10)),
                ("max", Field::U64(250)),
                ("sum", Field::U64(400)),
            ],
        ),
        // A second span of one name, so `summarize` adds durations.
        event(
            6,
            EventKind::Span,
            "decompose.run",
            Some(7),
            None,
            Vec::new(),
        ),
    ]
}

/// Asserts `parsed` holds exactly `expected`'s records, front, metrics and
/// provenance: the writer is deterministic, so equal output means equal
/// reports (and NaN fields compare equal, unlike with `PartialEq`).
fn assert_same_report(parsed: &CampaignReport, expected: &CampaignReport) {
    assert_eq!(parsed.to_json(), expected.to_json());
}

#[test]
fn v5_report_round_trips_byte_for_byte() {
    assert_eq!(golden_report().to_json(), REPORT_V5, "the writer drifted");
    let parsed = CampaignReport::from_json(REPORT_V5).expect("golden v5 report parses");
    assert_eq!(parsed.to_json(), REPORT_V5);
    assert_eq!(parsed.sampler.as_ref().unwrap().seed, u64::MAX);
    assert_eq!(parsed.front, vec![0, 2]);
    assert_eq!(parsed.points[0].verify, golden_report().points[0].verify);
}

#[test]
fn older_schema_versions_parse_to_the_expected_records() {
    let mut expected = golden_report();
    // v4 predates the router-fidelity axis: every point ran ideal.
    for p in &mut expected.points {
        p.router_fidelity = "ideal".into();
    }
    assert_same_report(&CampaignReport::from_json(REPORT_V4).unwrap(), &expected);
    // v3 predates static verification; its warm-cache fields are ignored.
    for p in &mut expected.points {
        p.verify = None;
    }
    assert_same_report(&CampaignReport::from_json(REPORT_V3).unwrap(), &expected);
    // v2 predates coordination.
    expected.coordinator = None;
    assert_same_report(&CampaignReport::from_json(REPORT_V2).unwrap(), &expected);
    // v1 predates sampling and the version field itself.
    expected.sampler = None;
    assert_same_report(&CampaignReport::from_json(REPORT_V1).unwrap(), &expected);
}

#[test]
fn torn_stream_recovers_every_complete_line() {
    let recovered = CampaignReport::from_json_lines(STREAM_TORN, &ObjectiveKind::DEFAULT)
        .expect("a torn last line is dropped, not fatal");
    let expected =
        CampaignReport::assemble(ObjectiveKind::DEFAULT.to_vec(), golden_report().points);
    assert_same_report(&recovered, &expected);
    assert_eq!(STREAM_TORN.lines().count(), expected.points.len() + 1);
}

#[test]
fn trace_round_trips_byte_for_byte() {
    assert_eq!(noc_telemetry::write_jsonl(&golden_trace()), TRACE);
    let events = noc_telemetry::read_jsonl(TRACE).expect("golden trace parses");
    assert_eq!(noc_telemetry::write_jsonl(&events), TRACE);
    let synth = &events[1];
    assert!(synth.field("ratio").unwrap().as_f64().unwrap().is_nan());
    assert_eq!(synth.field("big"), Some(&Field::U64(u64::MAX)));
    assert_eq!(events[0].field("rate"), Some(&Field::F64(2.0)));
    let expected = golden_trace();
    assert_eq!(events[2..], expected[2..]);
}

/// Tokens spliced into mutants: what hand edits and foreign writers
/// produce, and what broke the readers before.
fn splice_tokens() -> Vec<String> {
    vec![
        "null".into(),
        "-1".into(),
        "1e999".into(),
        "18446744073709551615".into(),
        "18446744073709551616".into(),
        "[]".into(),
        "[".repeat(200),
        "\"\\u00".into(),
    ]
}

/// The byte span of the value after every `:` in `text`: bracket-matched
/// for arrays and objects, up to the next `,` `}` `]` or newline
/// otherwise.
fn value_spans(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    for colon in (0..bytes.len()).filter(|&i| bytes[i] == b':') {
        let mut start = colon + 1;
        while bytes.get(start) == Some(&b' ') {
            start += 1;
        }
        let mut depth = 0;
        let mut end = start;
        while end < bytes.len() {
            match bytes[end] {
                b'[' | b'{' => depth += 1,
                b']' | b'}' if depth > 1 => depth -= 1,
                b']' | b'}' if depth == 1 => {
                    end += 1;
                    break;
                }
                b',' | b']' | b'}' | b'\n' if depth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        spans.push((start, end));
    }
    spans
}

/// One random edit of `bytes`: truncation, a bit flip, a deleted or
/// duplicated range, or a token spliced in at a random offset.
fn mutate(bytes: &mut Vec<u8>, rng: &mut StdRng, tokens: &[String]) {
    let at = rng.gen_range(0..bytes.len());
    let end = (at + rng.gen_range(1..128usize)).min(bytes.len());
    match rng.gen_range(0..5) {
        0 => bytes.truncate(at),
        // Flips below bit 7 keep ASCII text ASCII.
        1 => bytes[at] ^= 1 << rng.gen_range(0..7u32),
        2 => {
            bytes.drain(at..end);
        }
        3 => {
            let copy = bytes[at..end].to_vec();
            bytes.splice(at..at, copy);
        }
        _ => {
            let token = &tokens[rng.gen_range(0..tokens.len())];
            bytes.splice(at..at, token.bytes());
        }
    }
}

/// A reader error is located when it gives a byte offset or quotes a key
/// (possibly the empty one).
fn located(err: &str) -> bool {
    err.contains(" at byte ") || err.matches('\'').count() >= 2
}

/// Stream errors also say which line failed.
fn line_located(err: &str) -> bool {
    err.strip_prefix("line ")
        .and_then(|rest| rest.split_once(':'))
        .is_some_and(|(n, _)| n.parse::<usize>().is_ok())
        && located(err)
}

/// Feeds `text` to every reader, and what they accept to the consumers
/// downstream of them; returns how many readers accepted it.
fn exercise(text: &str, golden: &CampaignReport) -> usize {
    let mut accepted = 0;
    let mut merge = |report: CampaignReport| {
        accepted += 1;
        let _ = merge_reports(&[golden.clone(), report.clone()]);
        let _ = merge_reports(&[report.clone(), report]).map(|m| m.to_json());
    };
    match CampaignReport::from_json(text) {
        Ok(report) => merge(report),
        Err(e) => assert!(located(&e), "unlocated report error: {e}"),
    }
    match CampaignReport::from_json_lines(text, &ObjectiveKind::DEFAULT) {
        Ok(report) => merge(report),
        Err(e) => assert!(line_located(&e), "unlocated stream error: {e}"),
    }
    match noc_telemetry::read_jsonl(text) {
        Ok(events) => {
            accepted += 1;
            let _ = noc_telemetry::summarize(&events).render();
        }
        Err(e) => {
            let e = e.to_string();
            assert!(line_located(&e), "unlocated trace error: {e}");
        }
    }
    accepted
}

#[test]
fn mutated_artifacts_never_panic_and_errors_are_located() {
    let goldens = [
        REPORT_V5,
        REPORT_V4,
        REPORT_V3,
        REPORT_V2,
        REPORT_V1,
        STREAM_TORN,
        TRACE,
    ];
    let golden = CampaignReport::from_json(REPORT_V5).unwrap();
    let tokens = splice_tokens();
    let check = |name: &str, text: &str| match std::panic::catch_unwind(|| exercise(text, &golden))
    {
        Ok(accepted) => accepted,
        Err(payload) => {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("(no message)");
            panic!("{name}: {message}\n{text}")
        }
    };
    let mut mutants = 0;
    let mut accepted = 0;
    // Every token in place of every value of every golden.
    for (g, source) in goldens.iter().enumerate() {
        for (start, end) in value_spans(source) {
            for token in &tokens {
                let text = format!("{}{token}{}", &source[..start], &source[end..]);
                accepted += check(&format!("golden {g}, {token:.8} at {start}"), &text);
                mutants += 1;
            }
        }
    }
    // Then random structural edits, one or two per mutant.
    let mut rng = StdRng::seed_from_u64(0x00c0_dec5);
    for i in 0..3000 {
        let g = i % goldens.len();
        let mut bytes = goldens[g].as_bytes().to_vec();
        for _ in 0..rng.gen_range(1..3) {
            if !bytes.is_empty() {
                mutate(&mut bytes, &mut rng, &tokens);
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        accepted += check(&format!("random mutant {i} of golden {g}"), &text);
        mutants += 1;
    }
    assert!(mutants > 10_000, "only {mutants} mutants");
    // Some mutants stay valid (a token in place of a string, a flipped
    // digit), so the consumers behind the readers are exercised too.
    assert!(accepted > 1_000, "only {accepted} mutants parsed");
}
