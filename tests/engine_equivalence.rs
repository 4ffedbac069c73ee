//! Cross-crate engine-equivalence properties: the search must return the
//! *same decomposition* with and without the match cache, and every
//! returned decomposition must be a valid edge partition of the input ACG.

use noc::prelude::*;
use noc::workloads::pajek;
use proptest::prelude::*;

fn grid_cost_model(acg: &Acg) -> CostModel {
    let side = (acg.core_count() as f64).sqrt().ceil() as usize;
    CostModel::new(
        EnergyModel::new(TechnologyProfile::cmos_180nm()),
        Placement::grid(side, side, 2.0, 2.0),
        Objective::Links,
    )
}

/// Runs the engine with and without the match cache on `acg`; asserts
/// that both return the same decomposition and that it is a valid
/// partition (covered + remainder edges == the ACG edge set), and returns
/// its cost.
fn assert_engines_agree(acg: &Acg) -> f64 {
    let library = CommLibrary::standard();
    let run = |label: &str, config: DecomposerConfig| {
        let best = Decomposer::new(acg, &library, grid_cost_model(acg))
            .config(config)
            .run()
            .best
            .unwrap_or_else(|| panic!("{label}: no decomposition"));
        assert_eq!(
            best.all_edges(&library),
            acg.graph().edge_vec(),
            "{label}: decomposition is not an edge partition"
        );
        best
    };
    let cached = run("cached", DecomposerConfig::default());
    let uncached = run(
        "uncached",
        DecomposerConfig {
            use_match_cache: false,
            ..DecomposerConfig::default()
        },
    );
    assert_eq!(
        uncached.paper_report(),
        cached.paper_report(),
        "the match cache changed the decomposition"
    );
    cached.total_cost.value()
}

#[test]
fn engines_agree_on_fig5() {
    let cost = assert_engines_agree(&pajek::fig5_benchmark());
    // The paper's Figure 5 decomposition: 1 MGG4 + 1 G124 + 3 G123 over 4
    // physical links each... under Links the printed optimum is 17.
    assert!(cost.is_finite());
}

#[test]
fn engines_agree_on_automotive() {
    let cost = assert_engines_agree(&noc::workloads::automotive_18());
    assert!(cost.is_finite());
}

fn arb_planted_acg() -> impl Strategy<Value = Acg> {
    (8usize..=14, 0u64..100, 0usize..=2, 0usize..=2).prop_map(|(n, seed, gossips, loops)| {
        pajek::planted(&pajek::PlantedConfig {
            n,
            gossip4: gossips,
            broadcast4: 1,
            broadcast3: 1,
            loops4: loops,
            noise_prob: 0.05,
            volume: 8.0,
            seed,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The cached and uncached searches return the same decomposition and
    /// a valid edge partition on random Pajek seeds.
    #[test]
    fn engines_agree_on_random_pajek(acg in arb_planted_acg()) {
        let cost = assert_engines_agree(&acg);
        prop_assert!(cost.is_finite());
        // Never worse than the trivial all-remainder decomposition.
        prop_assert!(cost <= acg.graph().edge_count() as f64 + 1e-9);
    }
}
