//! The `explore --smoke` and `--full` campaign reports against
//! `tests/golden/campaign_smoke.json` and `tests/golden/campaign_full.json`.
//!
//! Each grid runs at one worker thread and again at two, and every report
//! field is compared with the golden report, floats by their bits, except
//! the timing fields (`wall_ms`, `threads`, per-point `synth_ms` and
//! `verify.verify_ms`; the golden file holds them as zeros). At two
//! threads, per-point `cache_hits` and the `match_cache` rows are skipped
//! too: which worker reaches a shared match-cache entry first is up to the
//! scheduler.
//!
//! A mismatch names the point label (or `report`) and the field, and says
//! whether a *result* moved (costs, objectives, sweep points, verdicts,
//! the front, the hypervolume) or a *work counter* (`nodes_visited`,
//! `cache_hits`, `match_cache`). A moved result is a bug; a moved counter
//! is accepted only by regenerating the files on purpose and saying so in
//! the change log. Regenerate with
//! `NOC_BLESS=1 cargo test -p noc-explore --test campaign_golden`; a
//! normal run never writes them.

use noc_explore::{Campaign, CampaignReport, ScenarioGrid};
use noc_telemetry::json::JsonValue;

/// Fields that differ between any two runs.
const TIMING: [&str; 4] = ["wall_ms", "threads", "synth_ms", "verify_ms"];

/// Fields that depend on the order in which campaign workers reach the
/// shared match cache.
const SCHEDULED: [&str; 2] = ["cache_hits", "match_cache"];

/// Fields that count how much work the search did rather than what it
/// found.
const WORK_COUNTERS: [&str; 3] = ["nodes_visited", "cache_hits", "match_cache"];

/// `report` with its timing fields zeroed, as the golden file holds it.
fn without_timing(mut report: CampaignReport) -> CampaignReport {
    report.wall_ms = 0.0;
    report.threads = 0;
    for point in &mut report.points {
        point.synth_ms = 0.0;
        if let Some(verify) = &mut point.verify {
            verify.verify_ms = 0.0;
        }
    }
    report
}

/// Collects the differences between a report and the golden one.
struct Diff<'a> {
    skip: &'a [&'a str],
    out: Vec<String>,
}

impl Diff<'_> {
    /// Compares `got` with `want` at `field` of point `at`.
    fn value(&mut self, at: &str, field: &str, got: &JsonValue, want: &JsonValue) {
        let same = match (got, want) {
            (JsonValue::Object(members), JsonValue::Object(golden)) => {
                let keys = golden
                    .iter()
                    .chain(members.iter().filter(|(k, _)| want.get(k).is_none()))
                    .map(|(k, _)| k);
                for key in keys.filter(|k| !self.skip.contains(&k.as_str())) {
                    let sub = if field.is_empty() {
                        key.clone()
                    } else {
                        format!("{field}.{key}")
                    };
                    match (got.get(key), want.get(key)) {
                        (Some(g), Some(w)) => self.value(at, &sub, g, w),
                        (g, w) => self.moved(at, &sub, g, w),
                    }
                }
                return;
            }
            (JsonValue::Array(items), JsonValue::Array(golden)) if items.len() == golden.len() => {
                for (i, (g, w)) in items.iter().zip(golden).enumerate() {
                    if field == "points" {
                        let label = g.get("label").and_then(JsonValue::as_str);
                        self.value(label.unwrap_or("(unlabelled point)"), "", g, w);
                    } else {
                        self.value(at, &format!("{field}[{i}]"), g, w);
                    }
                }
                return;
            }
            (JsonValue::F64(g), JsonValue::F64(w)) => g.to_bits() == w.to_bits(),
            (JsonValue::Object(_) | JsonValue::Array(_), _) => false,
            _ => got == want,
        };
        if !same {
            self.moved(at, field, Some(got), Some(want));
        }
    }

    fn moved(&mut self, at: &str, field: &str, got: Option<&JsonValue>, want: Option<&JsonValue>) {
        let head = field.split(['.', '[']).next().unwrap_or(field);
        let kind = if WORK_COUNTERS.contains(&head) {
            "work counter"
        } else {
            "result"
        };
        self.out.push(format!(
            "{kind} moved: {at} {field} = {}, golden {}",
            show(got),
            show(want)
        ));
    }
}

fn show(v: Option<&JsonValue>) -> String {
    match v {
        None => "(absent)".to_string(),
        Some(JsonValue::U64(n)) => n.to_string(),
        Some(JsonValue::F64(x)) => format!("{x} (bits {:#x})", x.to_bits()),
        Some(JsonValue::Array(items)) => format!("{} entries {v:?}", items.len()),
        Some(v) => format!("{v:?}"),
    }
}

fn diff(report: &CampaignReport, golden: &JsonValue, skip: &[&str]) -> Vec<String> {
    let got = JsonValue::parse(&report.to_json()).expect("the report writer emits valid JSON");
    let mut diff = Diff {
        skip,
        out: Vec::new(),
    };
    diff.value("report", "", &got, golden);
    diff.out
}

/// Runs `grid` at one and two threads against `tests/golden/campaign_{name}.json`.
fn check(name: &str, grid: ScenarioGrid) {
    let path = format!(
        "{}/../../tests/golden/campaign_{name}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let sequential = Campaign::new(grid.clone()).threads(1).run();
    let text = if std::env::var_os("NOC_BLESS").is_some_and(|v| v == "1") {
        let text = without_timing(sequential.clone()).to_json();
        std::fs::write(&path, &text).expect("write the campaign golden report");
        text
    } else {
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{path}: {e} (NOC_BLESS=1 regenerates it)"))
    };
    let golden = JsonValue::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut mismatches = diff(&sequential, &golden, &TIMING);
    let parallel = Campaign::new(grid).threads(2).run();
    let skip: Vec<&str> = TIMING.iter().chain(&SCHEDULED).copied().collect();
    mismatches.extend(
        diff(&parallel, &golden, &skip)
            .into_iter()
            .map(|m| format!("at 2 threads, {m}")),
    );
    assert!(
        mismatches.is_empty(),
        "{} mismatch(es) against tests/golden/campaign_{name}.json:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

#[test]
fn smoke_campaign_matches_the_golden_report() {
    check("smoke", ScenarioGrid::smoke());
}

#[test]
fn full_campaign_matches_the_golden_report() {
    check("full", ScenarioGrid::full());
}
