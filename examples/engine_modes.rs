//! The decomposer's knobs in action: the VF2 match cache on and off, and
//! canonical sibling ordering off — all proving the same optimum on the
//! paper's Figure 5 benchmark and a 40-node Figure 4b-style graph.
//!
//! Run with: `cargo run --release --example engine_modes`

use std::time::Instant;

use noc::prelude::*;
use noc::workloads::pajek;

fn run(acg: &Acg, label: &str, flow: SynthesisFlow) {
    let t0 = Instant::now();
    let result = flow.run().expect("synthesis succeeds without constraints");
    let stats = result.stats;
    println!(
        "{label:<28} cost {:<6} {:>8.2?}  nodes {:<6} pruned {:<6} cache {}/{}",
        result.decomposition.total_cost.value(),
        t0.elapsed(),
        stats.nodes_visited,
        stats.branches_pruned,
        stats.cache_hits,
        stats.cache_hits + stats.cache_misses,
    );
    let _ = acg;
}

fn sweep(name: &str, acg: Acg, show_noncanonical: bool) {
    println!(
        "=== {name}: {} nodes, {} edges ===",
        acg.core_count(),
        acg.graph().edge_count()
    );
    let side = (acg.core_count() as f64).sqrt().ceil() as usize;
    let placement = Placement::grid(side, side, 2.0, 2.0);
    let base = || SynthesisFlow::new(acg.clone()).placement(placement.clone());

    run(&acg, "default", base());
    run(
        &acg,
        "cache off",
        base().decomposer_config(DecomposerConfig {
            use_match_cache: false,
            ..DecomposerConfig::default()
        }),
    );
    // Canonical ordering off: the engine re-reaches identical remaining
    // graphs along permuted paths, and the match cache absorbs the
    // re-enumeration (watch the hit count). Only sensible on small
    // graphs — the permutation blowup is factorial in the matching count.
    if show_noncanonical {
        run(
            &acg,
            "permutations via cache",
            base().decomposer_config(DecomposerConfig {
                use_canonical_ordering: false,
                ..DecomposerConfig::default()
            }),
        );
    }
    println!();
}

fn main() {
    sweep("Figure 5 benchmark", pajek::fig5_benchmark(), true);
    sweep(
        "Figure 4b-style, n = 40",
        pajek::planted(&pajek::PlantedConfig {
            n: 40,
            gossip4: 5,
            broadcast4: 4,
            broadcast3: 5,
            loops4: 4,
            noise_prob: 0.01,
            volume: 8.0,
            seed: 7,
        }),
        false,
    );
    println!("every mode proves the same optimum; see DESIGN.md for why");
}
