//! Distributed sharding: partition a scenario grid into disjoint id sets
//! and merge the shards' reports back into one front.
//!
//! Scenario ids are stable grid positions (see
//! [`ScenarioGrid::enumerate`](crate::ScenarioGrid::enumerate)), so a
//! coordinator can deal a [`ShardManifest`] to each machine, let each run
//! its slice with `Campaign::run_plan`, and [`merge_reports`] afterwards —
//! no shared state, no coordination during the run. Merging re-offers
//! every shard's records to a fresh Pareto front; the front's permutation
//! invariance (property-tested in `tests/pareto_props.rs`) guarantees the
//! merged front equals the single-shot front over the same grid.

use std::collections::HashMap;

use crate::report::{CacheSizeRecord, CampaignReport, PointRecord};

/// How a [`ShardManifest`] carves scenario ids out of a grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// `id % count == index`. Interleaves neighbors across shards —
    /// balances heterogeneous grids (adjacent ids share workloads, hence
    /// similar cost), but splits synthesis-sharing groups.
    Modulo,
    /// Contiguous blocks of `ceil(total / count)` ids. Keeps
    /// synthesis-key neighbors (which differ only in sim spec) on one
    /// shard, preserving intra-shard artifact reuse.
    Range,
}

impl ShardMode {
    /// Stable CLI / report label.
    pub fn label(self) -> &'static str {
        match self {
            ShardMode::Modulo => "modulo",
            ShardMode::Range => "range",
        }
    }

    /// Parses [`label`](Self::label) back.
    pub fn from_label(label: &str) -> Option<ShardMode> {
        match label {
            "modulo" => Some(ShardMode::Modulo),
            "range" => Some(ShardMode::Range),
            _ => None,
        }
    }
}

/// One shard's slice of a grid: shard `index` of `count`, under a
/// partitioning [`ShardMode`]. The `count` manifests with indices
/// `0..count` partition every grid exactly (each id lands in precisely
/// one shard, for any grid size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardManifest {
    /// This shard's position, `< count`.
    pub index: usize,
    /// Total number of shards in the partition.
    pub count: usize,
    /// The partitioning function.
    pub mode: ShardMode,
}

impl ShardManifest {
    /// Shard `index` of `count` under [`ShardMode::Modulo`].
    ///
    /// # Panics
    ///
    /// Panics unless `index < count`.
    pub fn modulo(index: usize, count: usize) -> Self {
        Self::new(index, count, ShardMode::Modulo)
    }

    /// Shard `index` of `count` under [`ShardMode::Range`].
    ///
    /// # Panics
    ///
    /// Panics unless `index < count`.
    pub fn range(index: usize, count: usize) -> Self {
        Self::new(index, count, ShardMode::Range)
    }

    /// Shard `index` of `count` under `mode`.
    ///
    /// # Panics
    ///
    /// Panics unless `index < count`.
    pub fn new(index: usize, count: usize, mode: ShardMode) -> Self {
        assert!(
            index < count,
            "shard index {index} out of range for {count} shard(s)"
        );
        ShardManifest { index, count, mode }
    }

    /// Whether scenario `id` of a `total`-point grid belongs to this
    /// shard.
    pub fn contains(&self, id: usize, total: usize) -> bool {
        match self.mode {
            ShardMode::Modulo => id % self.count == self.index,
            ShardMode::Range => {
                let chunk = total.div_ceil(self.count).max(1);
                id / chunk == self.index
            }
        }
    }

    /// The scenario ids of a `total`-point grid in this shard, ascending.
    pub fn ids(&self, total: usize) -> Vec<usize> {
        (0..total).filter(|&id| self.contains(id, total)).collect()
    }

    /// `"shard 1/4 (range)"` — for logs and CLI output.
    pub fn label(&self) -> String {
        format!(
            "shard {}/{} ({})",
            self.index,
            self.count,
            self.mode.label()
        )
    }
}

/// All `count` manifests of a partition, index-ascending.
pub fn partition(count: usize, mode: ShardMode) -> Vec<ShardManifest> {
    assert!(count > 0, "a partition needs at least one shard");
    (0..count)
        .map(|index| ShardManifest::new(index, count, mode))
        .collect()
}

/// Merges shard (or otherwise partial) reports into one report: records
/// are pooled, deduplicated by scenario id (identical duplicates
/// tolerated, conflicting ones rejected), and re-folded into a fresh
/// Pareto front with recomputed front-quality metrics. Provenance is
/// summed: `flows_synthesized`, `synthesis_reused` and `wall_ms`
/// accumulate (wall-time is *total compute*, not the makespan of a
/// parallel fleet), per-size cache traffic adds up row-wise, and every
/// merged-in record counts as carried.
///
/// Requires at least one report and identical objective vectors
/// everywhere; `threads` reports the maximum over the inputs. Counts
/// saturate instead of overflowing.
pub fn merge_reports(reports: &[CampaignReport]) -> Result<CampaignReport, String> {
    let first = reports.first().ok_or("nothing to merge")?;
    let mut points: Vec<PointRecord> = Vec::new();
    let mut by_id: HashMap<usize, usize> = HashMap::new(); // scenario id → points index
    let mut cache: Vec<CacheSizeRecord> = Vec::new();
    for (i, report) in reports.iter().enumerate() {
        if report.objective_kinds != first.objective_kinds {
            return Err(format!(
                "report {i} ranks {:?}, expected {:?} — refusing to merge fronts over different objectives",
                report.objective_kinds, first.objective_kinds
            ));
        }
        for record in &report.points {
            match by_id.get(&record.scenario_id) {
                None => {
                    by_id.insert(record.scenario_id, points.len());
                    points.push(record.clone());
                }
                Some(&at) => {
                    // Overlap is fine only when the records agree on what
                    // was measured; a label mismatch means different
                    // grids, a value mismatch means nondeterministic
                    // objectives (e.g. SynthTimeMs) or an error/success
                    // divergence — keeping either would make the merge
                    // order-dependent.
                    let kept = &points[at];
                    if kept.label != record.label {
                        return Err(format!(
                            "conflicting records for scenario {}: '{}' vs '{}' — shards came from different grids",
                            record.scenario_id, kept.label, record.label
                        ));
                    }
                    if kept.objectives != record.objectives || kept.error != record.error {
                        return Err(format!(
                            "conflicting measurements for scenario {} ('{}'): {:?}/{:?} vs {:?}/{:?} — nondeterministic objective or diverging reruns",
                            record.scenario_id,
                            record.label,
                            kept.objectives,
                            kept.error,
                            record.objectives,
                            record.error,
                        ));
                    }
                }
            }
        }
        for row in &report.match_cache {
            match cache
                .iter_mut()
                .find(|c| c.vertex_count == row.vertex_count)
            {
                Some(c) => {
                    c.hits = c.hits.saturating_add(row.hits);
                    c.misses = c.misses.saturating_add(row.misses);
                }
                None => cache.push(*row),
            }
        }
    }
    cache.sort_by_key(|c| c.vertex_count);
    let carried = points.len();
    let mut merged = CampaignReport::assemble(first.objective_kinds.clone(), points);
    merged.threads = reports.iter().map(|r| r.threads).max().unwrap_or(0);
    // Counts come from other processes' reports: saturate rather than
    // overflow on absurd ones.
    let total = |count: fn(&CampaignReport) -> usize| {
        reports
            .iter()
            .fold(0, |sum: usize, r| sum.saturating_add(count(r)))
    };
    merged.flows_synthesized = total(|r| r.flows_synthesized);
    merged.synthesis_reused = total(|r| r.synthesis_reused);
    merged.carried_points = carried;
    merged.wall_ms = reports.iter().map(|r| r.wall_ms).sum();
    merged.match_cache = cache;
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::ObjectiveKind;
    use crate::report::SweepPointRecord;

    #[test]
    fn every_partition_is_exact() {
        for total in [0usize, 1, 7, 12, 100] {
            for count in [1usize, 2, 3, 5, 12] {
                for mode in [ShardMode::Modulo, ShardMode::Range] {
                    let mut seen = vec![0u32; total];
                    for shard in partition(count, mode) {
                        for id in shard.ids(total) {
                            seen[id] += 1;
                        }
                    }
                    assert!(
                        seen.iter().all(|&n| n == 1),
                        "{mode:?} {count} shards of {total}: {seen:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn range_shards_are_contiguous() {
        let ids = ShardManifest::range(1, 3).ids(8); // chunk = 3
        assert_eq!(ids, vec![3, 4, 5]);
        assert_eq!(ShardManifest::range(2, 3).ids(8), vec![6, 7]);
    }

    #[test]
    fn modulo_shards_interleave() {
        assert_eq!(ShardManifest::modulo(1, 3).ids(8), vec![1, 4, 7]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_must_be_below_count() {
        ShardManifest::modulo(3, 3);
    }

    fn point(id: usize, objectives: Vec<f64>) -> PointRecord {
        PointRecord {
            scenario_id: id,
            label: format!("p{id}"),
            workload: "w".into(),
            nodes: 8,
            engine: "dfs".into(),
            synthesis_objective: "Links".into(),
            technology: "t".into(),
            sim: "s".into(),
            router_fidelity: "ideal".into(),
            objectives,
            on_front: false,
            reused_synthesis: false,
            total_cost: 1.0,
            nodes_visited: 1,
            cache_hits: 0,
            synth_ms: 1.0,
            verify: None,
            sweep: vec![SweepPointRecord {
                rate: 0.05,
                latency_cycles: 1.0,
                throughput_bits_per_cycle: 1.0,
                energy_joules: 1e-9,
            }],
            saturated: false,
            error: None,
        }
    }

    fn partial(points: Vec<PointRecord>) -> CampaignReport {
        let mut r = CampaignReport::assemble(
            vec![ObjectiveKind::EnergyJoules, ObjectiveKind::AvgLatencyCycles],
            points,
        );
        r.flows_synthesized = r.points.len();
        r.wall_ms = 10.0;
        r.match_cache = vec![CacheSizeRecord {
            vertex_count: 8,
            hits: 2,
            misses: 5,
        }];
        r
    }

    #[test]
    fn merged_counts_saturate_instead_of_overflowing() {
        // Reports read from other processes can carry any u64.
        let mut a = partial(vec![point(0, vec![1.0, 1.0])]);
        a.match_cache[0].hits = u64::MAX;
        a.flows_synthesized = usize::MAX;
        let b = partial(vec![point(1, vec![2.0, 0.5])]);
        let merged = merge_reports(&[a, b]).unwrap();
        assert_eq!(merged.match_cache[0].hits, u64::MAX);
        assert_eq!(merged.match_cache[0].misses, 10);
        assert_eq!(merged.flows_synthesized, usize::MAX);
    }

    #[test]
    fn merge_refolds_the_front_across_shards() {
        // Shard A's lone point is locally on the front but globally
        // dominated by shard B's point.
        let a = partial(vec![point(0, vec![2e-9, 10.0])]);
        assert_eq!(a.front, vec![0]);
        let b = partial(vec![point(1, vec![1e-9, 5.0]), point(2, vec![3e-9, 4.0])]);
        let merged = merge_reports(&[a, b]).unwrap();
        assert_eq!(merged.front, vec![1, 2]);
        assert_eq!(merged.points.len(), 3);
        assert!(!merged.point(0).unwrap().on_front);
        assert_eq!(merged.carried_points, 3);
        assert_eq!(merged.flows_synthesized, 3);
        assert_eq!(merged.wall_ms, 20.0);
        assert_eq!(
            merged.match_cache,
            vec![CacheSizeRecord {
                vertex_count: 8,
                hits: 4,
                misses: 10,
            }]
        );
    }

    #[test]
    fn merge_is_permutation_invariant() {
        let a = partial(vec![point(0, vec![2e-9, 10.0]), point(3, vec![5e-9, 1.0])]);
        let b = partial(vec![point(1, vec![1e-9, 5.0])]);
        let c = partial(vec![point(2, vec![4e-9, 2.0])]);
        let fwd = merge_reports(&[a.clone(), b.clone(), c.clone()]).unwrap();
        let rev = merge_reports(&[c, b, a]).unwrap();
        assert_eq!(fwd.front, rev.front);
        assert_eq!(fwd.hypervolume, rev.hypervolume);
        assert_eq!(fwd.points.len(), rev.points.len());
    }

    #[test]
    fn merge_tolerates_identical_overlap_but_rejects_conflicts() {
        let a = partial(vec![point(0, vec![2e-9, 10.0])]);
        let same = merge_reports(&[a.clone(), a.clone()]).unwrap();
        assert_eq!(same.points.len(), 1);

        let mut conflicting = point(0, vec![1e-9, 1.0]);
        conflicting.label = "different".into();
        let b = partial(vec![conflicting]);
        let err = merge_reports(&[a.clone(), b]).unwrap_err();
        assert!(err.contains("conflicting records"), "{err}");

        // Same id and label but diverging measurements (nondeterministic
        // objective, or error vs success) is also a refusal — keeping
        // either record would make the merge order-dependent.
        let c = partial(vec![point(0, vec![9e-9, 9.0])]);
        let err = merge_reports(&[a, c]).unwrap_err();
        assert!(err.contains("conflicting measurements"), "{err}");
    }

    #[test]
    fn merge_rejects_mismatched_objectives() {
        let a = partial(vec![point(0, vec![2e-9, 10.0])]);
        let mut b =
            CampaignReport::assemble(vec![ObjectiveKind::AreaMm2], vec![point(1, vec![4.0])]);
        b.threads = 1;
        let err = merge_reports(&[a, b]).unwrap_err();
        assert!(err.contains("different objectives"), "{err}");
        assert!(merge_reports(&[]).is_err());
    }
}
