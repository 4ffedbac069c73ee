//! Retro-verification of existing campaign reports.
//!
//! Reports written before schema v4 (and points whose campaign predates
//! the verify gate) carry no [`VerifyRecord`]. [`Campaign::verify_report`]
//! fills the gap: it re-synthesizes each *synthesis key* the report's
//! points share — once, exactly as the campaign engine would — runs the
//! static deadlock verifier against the resulting model (the check the
//! campaign's measure jobs run), and writes a fresh verdict into every
//! point. Synthesis is deterministic per grid, so the re-synthesized
//! architecture is the one the report's measurements came from; the
//! verdict is retroactively trustworthy.
//!
//! ```
//! use noc::workloads::WorkloadFamily;
//! use noc_explore::{Campaign, ScenarioGrid, WorkloadSpec};
//!
//! let campaign = Campaign::new(
//!     ScenarioGrid::new().workloads([WorkloadSpec::fixed(WorkloadFamily::Fig5)]),
//! );
//! let mut report = campaign.run();
//! // Strip the verdicts, as if the report had been written by a pre-v4 run.
//! for point in &mut report.points {
//!     point.verify = None;
//! }
//! let summary = campaign.verify_report(&mut report).unwrap();
//! assert_eq!((summary.verified, summary.failed.len()), (1, 0));
//! assert!(report.points[0].verify.as_ref().unwrap().deadlock_free);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

use noc::prelude::*;

use crate::campaign::{Campaign, Placements, CACHE_CAPACITY};
use crate::report::{CampaignReport, VerifyRecord};

/// What [`Campaign::verify_report`] did: coverage counts plus the ids of
/// every point whose architecture failed verification. A fresh
/// [`VerifyRecord`] lands in each verified point; this summary is the
/// aggregate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifySummary {
    /// Points that now carry a verdict (fresh or refreshed).
    pub verified: usize,
    /// Points whose verdict proves deadlock freedom.
    pub passed: usize,
    /// Scenario ids whose architecture is **not** verified deadlock-free,
    /// ascending. Non-empty means the report records measurements of an
    /// unproven design.
    pub failed: Vec<usize>,
    /// Points skipped because their synthesis fails (no model exists to
    /// verify; such points already carry a synthesis error).
    pub skipped: usize,
    /// Distinct synthesis keys re-synthesized.
    pub synthesis_runs: usize,
}

impl VerifySummary {
    /// `true` when every point with a model verified deadlock-free.
    pub fn all_clear(&self) -> bool {
        self.failed.is_empty()
    }
}

impl fmt::Display for VerifySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} points verified ({} deadlock-free, {} failed, {} skipped) over {} synthesis runs",
            self.verified,
            self.passed,
            self.failed.len(),
            self.skipped,
            self.synthesis_runs
        )
    }
}

impl Campaign {
    /// Verifies every point of `report` against this campaign's grid,
    /// writing a fresh [`VerifyRecord`] into each (replacing any prior
    /// one) and returning the coverage summary.
    ///
    /// Each synthesis key is re-synthesized once, sequentially; points
    /// sharing a key share the verdict, exactly like a live campaign.
    /// Points whose synthesis fails keep `verify: None` and count as
    /// skipped.
    ///
    /// Fails without touching `report` when a point does not belong to
    /// this grid — an id beyond the grid, or a label that disagrees with
    /// the grid's scenario under the same id (the report came from a
    /// different campaign; verifying re-synthesized architectures against
    /// it would silently certify the wrong designs).
    pub fn verify_report(&self, report: &mut CampaignReport) -> Result<VerifySummary, String> {
        let scenarios = self.grid.enumerate();
        for point in &report.points {
            let scenario = scenarios.get(point.scenario_id).ok_or_else(|| {
                format!(
                    "point {} is outside this grid ({} scenarios)",
                    point.scenario_id,
                    scenarios.len()
                )
            })?;
            if scenario.label() != point.label {
                return Err(format!(
                    "point {} is \"{}\" in the report but \"{}\" in this grid — wrong campaign",
                    point.scenario_id,
                    point.label,
                    scenario.label()
                ));
            }
        }

        let match_cache = SharedMatchCache::new(CACHE_CAPACITY);
        let placements = Placements::default();
        // Per synthesis key: the verdict, or `None` when synthesis fails.
        let mut verdicts: HashMap<String, Option<VerifyRecord>> = HashMap::new();
        let mut summary = VerifySummary::default();
        let t0 = Instant::now();
        let span = self.resolved_telemetry().map(|t| {
            t.span("verify.report")
                .field("points", report.points.len() as u64)
        });
        for point in &mut report.points {
            let scenario = &scenarios[point.scenario_id];
            let key = scenario.synthesis_key();
            let verdict = verdicts.entry(key).or_insert_with(|| {
                summary.synthesis_runs += 1;
                self.synthesize(scenario, &match_cache, &placements)
                    .ok()
                    .map(|artifacts| artifacts.verify(self.resolved_telemetry()))
            });
            match verdict {
                Some(verify) => {
                    let verify = verify.clone();
                    summary.verified += 1;
                    if verify.deadlock_free {
                        summary.passed += 1;
                    } else {
                        summary.failed.push(point.scenario_id);
                    }
                    point.verify = Some(verify);
                }
                None => summary.skipped += 1,
            }
        }
        drop(span);
        if let Some(t) = self.resolved_telemetry() {
            t.add("verify.report_points", summary.verified as u64);
            t.event(
                "verify.report",
                &[
                    ("passed", (summary.passed as u64).into()),
                    ("failed", (summary.failed.len() as u64).into()),
                    ("wall_ms", (t0.elapsed().as_secs_f64() * 1e3).into()),
                ],
            );
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ScenarioGrid, WorkloadSpec};
    use noc::workloads::WorkloadFamily;

    fn small_campaign() -> Campaign {
        Campaign::new(
            ScenarioGrid::new()
                .workloads([WorkloadSpec::fixed(WorkloadFamily::Fig5)])
                .synthesis_objectives([Objective::Links, Objective::Energy]),
        )
    }

    #[test]
    fn backfills_stripped_reports_and_matches_the_live_verdict() {
        let campaign = small_campaign();
        let live = campaign.run();
        let mut stripped = live.clone();
        for point in &mut stripped.points {
            point.verify = None;
        }

        let summary = campaign.verify_report(&mut stripped).unwrap();
        assert_eq!(summary.verified, 2);
        assert_eq!(summary.passed, 2);
        assert!(summary.all_clear());
        assert_eq!(summary.skipped, 0);
        assert_eq!(summary.synthesis_runs, 2);

        // Synthesis is deterministic: the retro verdict equals the live
        // one in everything but wall-time.
        for (retro, live) in stripped.points.iter().zip(&live.points) {
            let (r, l) = (
                retro.verify.as_ref().unwrap(),
                live.verify.as_ref().unwrap(),
            );
            assert_eq!(
                (
                    r.deadlock_free,
                    r.num_vcs,
                    r.cdg_vertices,
                    r.cdg_edges,
                    r.routes_checked
                ),
                (
                    l.deadlock_free,
                    l.num_vcs,
                    l.cdg_vertices,
                    l.cdg_edges,
                    l.routes_checked
                ),
                "point {}",
                retro.label
            );
            assert!(r.cycle.is_empty() && r.lint.is_empty());
        }
    }

    #[test]
    fn points_sharing_a_synthesis_key_share_one_run() {
        let campaign = Campaign::new(ScenarioGrid::smoke());
        let mut report = campaign.run();
        let summary = campaign.verify_report(&mut report).unwrap();
        assert_eq!(summary.verified, 12);
        // The smoke grid has 6 synthesis keys feeding 12 points.
        assert_eq!(summary.synthesis_runs, 6);
        assert!(summary.all_clear());
    }

    #[test]
    fn rejects_reports_from_a_different_grid() {
        let campaign = small_campaign();
        let mut report = campaign.run();
        report.points[1].label = "someone/else/entirely".into();
        let err = campaign.verify_report(&mut report).unwrap_err();
        assert!(err.contains("wrong campaign"), "{err}");
        // Untouched on failure.
        assert!(report.points[0].verify.is_some());

        let mut out_of_range = campaign.run();
        out_of_range.points[0].scenario_id = 99;
        let err = campaign.verify_report(&mut out_of_range).unwrap_err();
        assert!(err.contains("outside this grid"), "{err}");
    }

    #[test]
    fn summary_renders_counts() {
        let s = VerifySummary {
            verified: 3,
            passed: 2,
            failed: vec![7],
            skipped: 1,
            synthesis_runs: 2,
        };
        assert_eq!(
            s.to_string(),
            "3 points verified (2 deadlock-free, 1 failed, 1 skipped) over 2 synthesis runs"
        );
        assert!(!s.all_clear());
    }
}
