//! Equivalence of the in-place annealer with the reference annealer:
//! `SlicingFloorplanner::run` must reproduce `noc_floorplan::reference::run`
//! bit for bit — every core centre, the chip width and the chip height
//! under `to_bits()` — for any cores, seed, weight and connections.

use noc::prelude::SynthesisFlow;
use noc::workloads::WorkloadFamily;
use noc_floorplan::{reference, Core, Placement, SlicingFloorplanner};
use noc_graph::NodeId;
use proptest::prelude::*;

/// A placement's numbers as bit patterns: centres, then chip width and
/// height.
fn bits(p: &Placement) -> (Vec<(u64, u64)>, u64, u64) {
    let centers = (0..p.core_count())
        .map(|i| {
            let (x, y) = p.center(NodeId(i));
            (x.to_bits(), y.to_bits())
        })
        .collect();
    (
        centers,
        p.chip_width_mm().to_bits(),
        p.chip_height_mm().to_bits(),
    )
}

/// The core sets the suite covers, from raw `(a, b)` dimension draws.
fn cores(kind: u8, n: usize, dims: &[(u32, u32)]) -> Vec<Core> {
    let core =
        |i: usize, w: u32, h: u32| Core::new(format!("c{i}"), w as f64 / 2.0, h as f64 / 2.0);
    match kind {
        // All identical squares: the campaign's case, where every operand
        // swap and every rotation takes an exact shortcut.
        0 => (0..n).map(|i| core(i, dims[0].0, dims[0].0)).collect(),
        // Squares of mixed sizes: rotations skip, some swaps do.
        1 => (0..n).map(|i| core(i, dims[i].0, dims[i].0)).collect(),
        // Rectangles from a small alphabet, so equal footprints (possibly
        // through a rotation) still turn up.
        2 => (0..n).map(|i| core(i, dims[i].0, dims[i].1)).collect(),
        _ => vec![core(0, dims[0].0, dims[0].1)],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn in_place_annealer_matches_the_reference(
        kind in 0u8..4,
        n in 2usize..=12,
        dims in proptest::collection::vec((1u32..8, 1u32..8), 12),
        seed in 0u64..1_000_000,
        weight_kind in 0u8..3,
        random_weight in 0.0f64..2.0,
        raw in proptest::collection::vec((0usize..12, 0usize..12, 0u32..200), 0..24),
    ) {
        let cores = cores(kind, n, &dims);
        let n = cores.len();
        let weight = [0.0, 0.1, random_weight][weight_kind as usize];
        let mut connections: Vec<(usize, usize, f64)> = raw
            .iter()
            .map(|&(s, d, v)| (s % n, d % n, v as f64 / 10.0))
            .collect();
        if let Some(&(s, d, v)) = connections.first() {
            connections.push((s, s, v)); // a self-loop
            connections.push((s, d, v + 1.0)); // a repeated pair
        }
        let planner = SlicingFloorplanner::new(cores)
            .seed(seed)
            .wirelength(weight, connections);
        prop_assert_eq!(bits(&planner.run()), bits(&reference::run(&planner)));
    }
}

/// A deterministic draw below `bound` for the cases past one bitset word:
/// a 64-bit LCG (Knuth's MMIX constants), read from its high bits.
fn draws(seed: u64) -> impl FnMut(u32) -> u32 {
    let mut state = seed;
    move |bound| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 33) % u64::from(bound)) as u32
    }
}

/// Holds the annealer to the reference on `n` cores of `kind` (as in the
/// proptest) with `2n` drawn connections, a self-loop and a repeated pair.
fn assert_matches_reference_past_one_word(kind: u8, n: usize, weight: f64, seed: u64) {
    // The operator bitset holds 2n - 1 positions, 64 to a word.
    assert!(2 * n - 1 > 64);
    let mut draw = draws(seed);
    let dims: Vec<(u32, u32)> = (0..n).map(|_| (1 + draw(7), 1 + draw(7))).collect();
    let mut connections: Vec<(usize, usize, f64)> = (0..2 * n)
        .map(|_| {
            let (s, d) = (draw(n as u32) as usize, draw(n as u32) as usize);
            (s, d, f64::from(draw(200)) / 10.0)
        })
        .collect();
    let (s, d, v) = connections[0];
    connections.push((s, s, v));
    connections.push((s, d, v + 1.0));
    let planner = SlicingFloorplanner::new(cores(kind, n, &dims))
        .seed(seed)
        .wirelength(weight, connections);
    assert_eq!(bits(&planner.run()), bits(&reference::run(&planner)));
}

/// 33 identical squares: 65 positions, so the root operator sits alone in
/// the bitset's second word.
#[test]
fn identical_squares_past_one_word_match_the_reference() {
    assert_matches_reference_past_one_word(0, 33, 0.1, 7);
}

/// 40 rectangles from the proptest's dimension alphabet: 79 positions.
#[test]
fn rectangles_past_one_word_match_the_reference() {
    assert_matches_reference_past_one_word(2, 40, 0.35, 11);
}

/// Four pairs of identical 2:1 rectangles, on three seeds: an M1 swap
/// within a pair keeps the shape, so later candidates are costed from
/// recorded slot geometry, and every rotation changes a footprint and
/// with it the shape. On these seeds a rotation costed from the geometry
/// recorded before its core's slot moved, or a rotation that leaves the
/// shape current, changes an accept decision.
#[test]
fn identical_rectangle_pairs_match_the_reference() {
    let n = 8;
    for seed in [1, 4, 6] {
        let mut draw = draws(seed);
        let cores = (0..n)
            .map(|i| {
                let h = 0.5 + (i / 2) as f64 / 4.0;
                Core::new(format!("r{i}"), 2.0 * h, h)
            })
            .collect();
        let connections = (0..2 * n)
            .map(|_| {
                let (s, d) = (draw(n as u32) as usize, draw(n as u32) as usize);
                (s, d, f64::from(1 + draw(200)) / 10.0)
            })
            .collect();
        let planner = SlicingFloorplanner::new(cores)
            .seed(seed)
            .wirelength(0.1, connections);
        assert_eq!(
            bits(&planner.run()),
            bits(&reference::run(&planner)),
            "seed {seed}"
        );
    }
}

/// The `explore --full` campaign's applications, each through
/// `SynthesisFlow::auto_placement` as a campaign floorplans it (seed 1,
/// 1 mm² cores), equal the reference on the same cores and connections.
#[test]
fn auto_placement_matches_the_reference_on_the_full_grid_applications() {
    let mut apps = vec![
        WorkloadFamily::Fig5.instantiate(0, 0),
        WorkloadFamily::Automotive.instantiate(0, 0),
        WorkloadFamily::Multimedia.instantiate(0, 0),
    ];
    for seed in [1, 2] {
        for n in [8, 12, 15] {
            apps.push(WorkloadFamily::Tgff.instantiate(n, seed));
        }
        for n in [10, 16] {
            apps.push(WorkloadFamily::PajekPlanted.instantiate(n, seed));
        }
    }
    assert_eq!(apps.len(), 13);
    let mut total_area = 0.0;
    for acg in apps {
        let cores = (0..acg.core_count())
            .map(|i| Core::new(acg.core_name(NodeId(i)), 1.0, 1.0))
            .collect();
        let connections = acg
            .demands()
            .map(|(e, d)| (e.src.index(), e.dst.index(), d.volume))
            .collect();
        let planner = SlicingFloorplanner::new(cores)
            .seed(1)
            .wirelength(0.1, connections);
        let placement = SynthesisFlow::new(acg)
            .seed(1)
            .core_area_mm2(1.0)
            .auto_placement();
        assert_eq!(bits(&placement), bits(&reference::run(&planner)));
        total_area += placement.chip_area_mm2();
    }
    // The campaign benchmark's `floorplan.chip_area_mm2`.
    assert_eq!(total_area, 228.0);
}
