//! Shared helpers for the reproduction harness: the workloads and flows
//! behind every table and figure of the paper's evaluation (Section 5).
//!
//! The `reproduce` binary prints the paper-style tables; the Criterion
//! benches under `benches/` measure the same computations. Both call into
//! this module so the workload definitions exist in exactly one place.

#![warn(missing_docs)]

use std::time::{Duration, Instant};

use noc::prelude::*;
use noc::synthesis::SearchStats;
use noc::workloads::{automotive_18, pajek, tgff, TgffConfig};

/// Node counts swept for the Figure 4a TGFF experiment.
pub const FIG4A_SIZES: [usize; 6] = [5, 8, 10, 12, 15, 18];

/// Node counts swept for the Figure 4b Pajek experiment.
pub const FIG4B_SIZES: [usize; 7] = [10, 15, 20, 25, 30, 35, 40];

/// Seeds per size for Figure 4b averaging (the paper used "more than 60
/// larger graphs"; 9 seeds x 7 sizes = 63 instances).
pub const FIG4B_SEEDS: u64 = 9;

/// The TGFF-style workload for a given size (Figure 4a).
pub fn fig4a_workload(tasks: usize) -> Acg {
    tgff(&TgffConfig {
        tasks,
        seed: tasks as u64,
        ..TgffConfig::default()
    })
}

/// The automotive 18-node benchmark highlighted in Figure 4a.
pub fn fig4a_automotive() -> Acg {
    automotive_18()
}

/// The Pajek-style workload for a given size and seed (Figure 4b). The
/// scaling recipe lives in `noc-workloads::scenarios` so exploration
/// campaigns sweep exactly these instances.
pub fn fig4b_workload(n: usize, seed: u64) -> Acg {
    noc::workloads::scenarios::planted_sized(n, seed)
}

/// The Figure 5 benchmark (reconstructed from the paper's output).
pub fn fig5_workload() -> Acg {
    pajek::fig5_benchmark()
}

/// Runs the decomposition exactly as the runtime figures measure it: the
/// floorplan is a precomputed grid ("the core coordinates are given as
/// inputs to the algorithm"), and only the search is timed — the returned
/// duration is [`SearchStats::elapsed`], not the glue and constraint check
/// (with its bisection) around it.
pub fn timed_decomposition(acg: &Acg) -> (noc::FlowResult, Duration) {
    timed_decomposition_with(acg, DecomposerConfig::default())
}

/// [`timed_decomposition`] under an explicit engine configuration
/// (bound, canonical ordering, cache and match-cap settings).
pub fn timed_decomposition_with(
    acg: &Acg,
    config: DecomposerConfig,
) -> (noc::FlowResult, Duration) {
    let side = (acg.core_count() as f64).sqrt().ceil() as usize;
    let placement = Placement::grid(side, side, 2.0, 2.0);
    let result = SynthesisFlow::new(acg.clone())
        .placement(placement)
        .decomposer_config(config)
        .run()
        .expect("decomposition always succeeds without constraints");
    let elapsed = result.stats.elapsed;
    (result, elapsed)
}

/// Decomposition under an explicit config (for the ablation studies).
pub fn decompose_with(
    acg: &Acg,
    library: CommLibrary,
    config: DecomposerConfig,
) -> (Option<Decomposition>, SearchStats, Duration) {
    let side = (acg.core_count() as f64).sqrt().ceil() as usize;
    let placement = Placement::grid(side, side, 2.0, 2.0);
    let cost = CostModel::new(
        EnergyModel::new(TechnologyProfile::cmos_180nm()),
        placement,
        Objective::Links,
    );
    let t0 = Instant::now();
    let outcome = Decomposer::new(acg, &library, cost).config(config).run();
    (outcome.best, outcome.stats, t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        assert_eq!(fig4a_workload(10), fig4a_workload(10));
        assert_eq!(fig4b_workload(20, 3), fig4b_workload(20, 3));
        assert_eq!(fig5_workload().graph().edge_count(), 25);
    }

    #[test]
    fn timed_decomposition_returns_result() {
        let (result, elapsed) = timed_decomposition(&fig5_workload());
        assert!(result.decomposition.remainder.is_edgeless());
        assert!(elapsed.as_secs() < 60);
    }

    #[test]
    fn noncanonical_search_proves_the_same_optimum_on_fig5() {
        let noncanonical = DecomposerConfig {
            use_canonical_ordering: false,
            ..DecomposerConfig::default()
        };
        let (canonical, _) = timed_decomposition(&fig5_workload());
        let (result, _) = timed_decomposition_with(&fig5_workload(), noncanonical);
        // Same optimum, and the root-image filter keeps the enumeration
        // count flat even though the permutation blowup multiplies visits.
        assert_eq!(
            canonical.decomposition.total_cost.value(),
            result.decomposition.total_cost.value()
        );
        assert_eq!(
            canonical.stats.cache_misses, result.stats.cache_misses,
            "stats: {:?}",
            result.stats
        );
    }

    #[test]
    fn decompose_with_honors_config() {
        let acg = fig5_workload();
        let (best, stats, _) = decompose_with(
            &acg,
            CommLibrary::standard(),
            DecomposerConfig {
                use_lower_bound: false,
                ..DecomposerConfig::default()
            },
        );
        assert!(best.is_some());
        assert_eq!(stats.branches_pruned, 0);
    }
}
