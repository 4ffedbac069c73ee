//! Cross-validation of the VF2 engine against a naive brute-force
//! enumerator on small graphs. Every match set must agree exactly, for
//! both monomorphism and induced semantics — the strongest correctness
//! anchor the matcher has.

use noc_graph::{
    iso::{Mapping, Semantics, Vf2},
    DiGraph, Edge, NodeId,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Enumerates all injective mappings pattern -> target by brute force and
/// filters by the semantics.
fn brute_force(pattern: &DiGraph, target: &DiGraph, semantics: Semantics) -> Vec<Vec<NodeId>> {
    let np = pattern.node_count();
    let nt = target.node_count();
    let mut out = Vec::new();
    let mut assignment: Vec<NodeId> = Vec::with_capacity(np);
    let mut used = vec![false; nt];

    fn recurse(
        pattern: &DiGraph,
        target: &DiGraph,
        semantics: Semantics,
        assignment: &mut Vec<NodeId>,
        used: &mut Vec<bool>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        let depth = assignment.len();
        if depth == pattern.node_count() {
            out.push(assignment.clone());
            return;
        }
        for cand in 0..target.node_count() {
            if used[cand] {
                continue;
            }
            // Check consistency with all previously assigned vertices.
            let v = NodeId(cand);
            let u = NodeId(depth);
            let mut ok = true;
            for (w_idx, &fw) in assignment.iter().enumerate() {
                let w = NodeId(w_idx);
                let p_fwd = pattern.has_edge(u, w);
                let p_bwd = pattern.has_edge(w, u);
                let t_fwd = target.has_edge(v, fw);
                let t_bwd = target.has_edge(fw, v);
                match semantics {
                    Semantics::Monomorphism => {
                        if (p_fwd && !t_fwd) || (p_bwd && !t_bwd) {
                            ok = false;
                            break;
                        }
                    }
                    Semantics::Induced => {
                        if p_fwd != t_fwd || p_bwd != t_bwd {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if !ok {
                continue;
            }
            assignment.push(v);
            used[cand] = true;
            recurse(pattern, target, semantics, assignment, used, out);
            assignment.pop();
            used[cand] = false;
        }
    }
    recurse(
        pattern,
        target,
        semantics,
        &mut assignment,
        &mut used,
        &mut out,
    );
    out.sort();
    out
}

fn arb_graph(max_n: usize) -> impl Strategy<Value = DiGraph> {
    arb_dense_graph(2, max_n, 0.35)
}

/// A random digraph on `min_n..=max_n` vertices keeping each ordered pair
/// with probability `density`.
fn arb_dense_graph(min_n: usize, max_n: usize, density: f64) -> impl Strategy<Value = DiGraph> {
    (min_n..=max_n).prop_flat_map(move |n| {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| (0..n).filter(move |&v| v != u).map(move |v| (u, v)))
            .collect();
        let m = pairs.len();
        proptest::collection::vec(proptest::bool::weighted(density), m).prop_map(move |mask| {
            let mut g = DiGraph::new(n);
            for (keep, &(u, v)) in mask.iter().zip(&pairs) {
                if *keep {
                    g.add_edge(NodeId(u), NodeId(v));
                }
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// VF2 monomorphism results equal brute force exactly.
    #[test]
    fn vf2_equals_brute_force_monomorphism(
        pattern in arb_graph(4),
        target in arb_graph(6),
    ) {
        let expected = brute_force(&pattern, &target, Semantics::Monomorphism);
        let mut got: Vec<Vec<NodeId>> = Vf2::new(&pattern, &target)
            .find_all()
            .matches
            .into_iter()
            .map(|m| m.images().to_vec())
            .collect();
        got.sort();
        prop_assert_eq!(got, expected);
    }

    /// VF2 induced results equal brute force exactly.
    #[test]
    fn vf2_equals_brute_force_induced(
        pattern in arb_graph(4),
        target in arb_graph(6),
    ) {
        let expected = brute_force(&pattern, &target, Semantics::Induced);
        let mut got: Vec<Vec<NodeId>> = Vf2::new(&pattern, &target)
            .semantics(Semantics::Induced)
            .find_all()
            .matches
            .into_iter()
            .map(|m| m.images().to_vec())
            .collect();
        got.sort();
        prop_assert_eq!(got, expected);
    }

    /// Distinct-image counts equal the brute-force image-set count.
    #[test]
    fn distinct_image_count_matches_brute_force(
        pattern in arb_graph(4),
        target in arb_graph(6),
    ) {
        let raw = brute_force(&pattern, &target, Semantics::Monomorphism);
        let expected: std::collections::BTreeSet<Vec<_>> = raw
            .into_iter()
            .map(|images| Mapping::new(images).image_edges(&pattern))
            .collect();
        let got = Vf2::new(&pattern, &target).distinct_images();
        prop_assert!(got.complete);
        prop_assert_eq!(got.matches.len(), expected.len());
    }

    /// The symmetry-broken `distinct_images` equals the naive reference —
    /// full enumeration deduplicated by image edge set — *exactly*:
    /// same images, same representative mappings, same order. Slightly
    /// larger graphs than the raw-enumeration tests, since this is the
    /// invariant the decomposition engine's bit-identical results ride on.
    #[test]
    fn distinct_images_equal_naive_reference(
        pattern in arb_graph(5),
        target in arb_graph(7),
        induced in proptest::bool::ANY,
    ) {
        let semantics = if induced { Semantics::Induced } else { Semantics::Monomorphism };
        check_distinct_images(&pattern, &target, semantics)?;
    }

    /// `distinct_images_equal_naive_reference` under large automorphism
    /// groups, which random sparse patterns rarely have: `K_4` (24
    /// automorphisms, three stabiliser levels), the 4- and 6-cycles and
    /// the 3- and 4-vertex out-stars, on dense 6–8-vertex targets so the
    /// patterns have images to canonicalise. On those five the symmetry-
    /// broken survivor is already canonical, so the last pattern is one
    /// whose matching order (3, 5, 2, 4, 0, 1) disagrees with the base
    /// points (0, then 2): 4 automorphisms on two levels, and half its
    /// survivors are not canonical. Without it, skipping the
    /// canonicalisation passes this suite.
    #[test]
    fn distinct_images_equal_naive_reference_under_large_symmetry_groups(
        pattern in proptest::sample::select(vec![
            DiGraph::complete(4),
            DiGraph::cycle(4),
            DiGraph::cycle(6),
            DiGraph::out_star(3),
            DiGraph::out_star(4),
            DiGraph::from_edges(
                6,
                [(3, 1), (3, 2), (3, 4), (3, 5), (5, 0), (5, 2), (5, 3), (5, 4)],
            )
            .unwrap(),
        ]),
        target in proptest::sample::select(vec![0.6, 0.8, 1.0])
            .prop_flat_map(|density| arb_dense_graph(6, 8, density)),
        induced in proptest::bool::ANY,
    ) {
        let semantics = if induced { Semantics::Induced } else { Semantics::Monomorphism };
        check_distinct_images(&pattern, &target, semantics)?;
    }

    /// A capped `distinct_images` returns a subset of the reference images
    /// (each with a valid representative) and reports itself incomplete
    /// when it was truncated.
    #[test]
    fn distinct_images_cap_yields_reference_subset(
        pattern in arb_graph(4),
        target in arb_graph(7),
        cap in 1usize..=6,
    ) {
        let reference = reference_distinct(&pattern, &target, Semantics::Monomorphism);
        let all_images: std::collections::BTreeSet<Vec<_>> = reference
            .iter()
            .map(|m| m.image_edges(&pattern))
            .collect();
        let got = Vf2::new(&pattern, &target)
            .max_matches(cap)
            .distinct_images();
        prop_assert!(got.matches.len() <= cap);
        if got.complete {
            // An uncapped run would have returned everything.
            prop_assert_eq!(got.matches.len(), all_images.len());
        }
        let mut seen = std::collections::BTreeSet::new();
        for m in &got.matches {
            let image = m.image_edges(&pattern);
            prop_assert!(all_images.contains(&image), "image not in reference set");
            prop_assert!(seen.insert(image), "duplicate image under cap");
        }
    }
}

/// `distinct_images` equals [`reference_distinct`] exactly, and
/// `distinct_image_edges` returns the same mappings, each with its
/// `image_edges`, the lists strictly ascending.
fn check_distinct_images(
    pattern: &DiGraph,
    target: &DiGraph,
    semantics: Semantics,
) -> Result<(), TestCaseError> {
    let expected = reference_distinct(pattern, target, semantics);
    let matcher = Vf2::new(pattern, target).semantics(semantics);
    let got = matcher.distinct_images();
    prop_assert!(got.complete);
    prop_assert_eq!(&got.matches, &expected);
    let with_edges = matcher.distinct_image_edges();
    prop_assert!(with_edges.complete);
    prop_assert_eq!(with_edges.nodes_expanded, got.nodes_expanded);
    let (mappings, edges): (Vec<Mapping>, Vec<Vec<Edge>>) = with_edges.matches.into_iter().unzip();
    prop_assert_eq!(&mappings, &expected);
    for (m, e) in mappings.iter().zip(&edges) {
        prop_assert_eq!(&m.image_edges(pattern), e);
    }
    prop_assert!(
        edges.windows(2).all(|w| w[0] < w[1]),
        "image edge lists are not strictly ascending"
    );
    Ok(())
}

/// The naive specification of `distinct_images`: enumerate every injective
/// mapping by brute force in VF2's deterministic order (full enumeration is
/// itself property-tested above), then keep the first mapping per image
/// edge set, sorted by image.
fn reference_distinct(pattern: &DiGraph, target: &DiGraph, semantics: Semantics) -> Vec<Mapping> {
    let raw = Vf2::new(pattern, target).semantics(semantics).find_all();
    assert!(raw.complete);
    let mut by_image: std::collections::BTreeMap<Vec<_>, Mapping> =
        std::collections::BTreeMap::new();
    for m in raw.matches {
        by_image.entry(m.image_edges(pattern)).or_insert(m);
    }
    by_image.into_values().collect()
}

/// A deadline already in the past aborts `distinct_images` on both the
/// symmetry-broken path (pattern with automorphisms) and the dedup
/// fallback (pattern with an isolated vertex), and marks the outcome
/// incomplete instead of returning a wrong "complete" answer.
#[test]
fn distinct_images_deadline_marks_incomplete() {
    use std::time::{Duration, Instant};
    let past = Instant::now() - Duration::from_millis(1);
    let symmetric = DiGraph::cycle(4);
    let dense = DiGraph::complete(12);
    let out = Vf2::new(&symmetric, &dense)
        .deadline(past)
        .distinct_images();
    assert!(!out.complete);

    // Vertex 3 isolated -> fallback path. Big enough that the search
    // reaches the (256-expansion granularity) deadline check.
    let mut isolated = DiGraph::new(4);
    isolated.add_edge(NodeId(0), NodeId(1));
    isolated.add_edge(NodeId(1), NodeId(2));
    let out = Vf2::new(&isolated, &dense).deadline(past).distinct_images();
    assert!(!out.complete);
}

/// A couple of fixed regression cases worth pinning precisely.
#[test]
fn fixed_cases() {
    // Pattern with an isolated vertex: it may map anywhere unused.
    let mut pattern = DiGraph::new(3);
    pattern.add_edge(NodeId(0), NodeId(1)); // vertex 2 isolated
    let target = DiGraph::from_edges(4, [(2, 3)]).unwrap();
    let expected = brute_force(&pattern, &target, Semantics::Monomorphism);
    assert_eq!(expected.len(), 2); // (0,1)->(2,3); 2 -> {0 or 1}
    let got = Vf2::new(&pattern, &target).find_all();
    assert_eq!(got.matches.len(), 2);

    // Antiparallel pair needs both directions.
    let two_cycle = DiGraph::from_edges(2, [(0, 1), (1, 0)]).unwrap();
    let one_way = DiGraph::from_edges(2, [(0, 1)]).unwrap();
    assert!(brute_force(&two_cycle, &one_way, Semantics::Monomorphism).is_empty());
    assert!(!Vf2::new(&two_cycle, &one_way).exists());
}
