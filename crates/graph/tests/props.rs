//! Property-based tests for the graph foundation.

use noc_graph::{algo, iso, ops, DiGraph, NodeId};
use proptest::prelude::*;

/// Strategy: a random digraph of order 2..=10 with each possible edge
/// present independently.
fn arb_digraph() -> impl Strategy<Value = DiGraph> {
    (2usize..=10).prop_flat_map(|n| {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| (0..n).filter(move |&v| v != u).map(move |v| (u, v)))
            .collect();
        let m = pairs.len();
        proptest::collection::vec(proptest::bool::ANY, m).prop_map(move |mask| {
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

/// Strategy: a digraph plus a random subset of its edges.
fn graph_and_edge_subset() -> impl Strategy<Value = (DiGraph, Vec<(usize, usize)>)> {
    arb_digraph().prop_flat_map(|g| {
        let edges: Vec<(usize, usize)> =
            g.edges().map(|e| (e.src.index(), e.dst.index())).collect();
        let m = edges.len();
        proptest::collection::vec(proptest::bool::ANY, m).prop_map(move |mask| {
            let sub: Vec<(usize, usize)> = mask
                .iter()
                .zip(&edges)
                .filter_map(|(keep, &e)| keep.then_some(e))
                .collect();
            (g.clone(), sub)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (G - S) + S == G for any edge subset S of G.
    #[test]
    fn difference_then_sum_round_trips((g, sub) in graph_and_edge_subset()) {
        let s = ops::edge_induced(&g, sub.iter().copied()).unwrap();
        let r = ops::difference(&g, &s).unwrap();
        let back = ops::sum(&r, &s).unwrap();
        prop_assert_eq!(back, g);
    }

    /// Difference never loses or duplicates edges: |G - S| = |G| - |S|.
    #[test]
    fn difference_edge_count((g, sub) in graph_and_edge_subset()) {
        let s = ops::edge_induced(&g, sub.iter().copied()).unwrap();
        let r = ops::difference(&g, &s).unwrap();
        prop_assert_eq!(r.edge_count(), g.edge_count() - s.edge_count());
        // No subtracted edge survives.
        for e in s.edges() {
            prop_assert!(!r.has_edge(e.src, e.dst));
        }
    }

    /// A planted pattern is always found by VF2 (monomorphism).
    #[test]
    fn vf2_finds_planted_pattern(
        host_n in 5usize..=12,
        pattern_kind in 0usize..4,
        seed in proptest::sample::select(vec![1usize, 3, 5, 7, 11, 13]),
    ) {
        let pattern = match pattern_kind {
            0 => DiGraph::complete(3),
            1 => DiGraph::cycle(4),
            2 => DiGraph::out_star(4),
            _ => DiGraph::path(3),
        };
        let k = pattern.node_count();
        prop_assume!(k <= host_n);
        // Deterministic injective embedding derived from the seed.
        let mut images = Vec::new();
        let mut v = seed % host_n;
        while images.len() < k {
            if !images.contains(&NodeId(v)) {
                images.push(NodeId(v));
            }
            v = (v + seed) % host_n;
            if images.len() < k && images.contains(&NodeId(v)) {
                v = (v + 1) % host_n;
            }
        }
        let host = ops::embed(&pattern, host_n, &images).unwrap();
        let found = iso::Vf2::new(&pattern, &host).find_first();
        prop_assert!(found.is_some());
        // Every reported match maps pattern edges onto host edges.
        let all = iso::Vf2::new(&pattern, &host).find_all();
        prop_assert!(all.complete);
        for m in &all.matches {
            for e in pattern.edges() {
                prop_assert!(host.has_edge(m.target_of(e.src), m.target_of(e.dst)));
            }
        }
    }

    /// Every match found in a random host is a valid monomorphism.
    #[test]
    fn vf2_matches_are_valid(g in arb_digraph()) {
        let pattern = DiGraph::cycle(3);
        let out = iso::Vf2::new(&pattern, &g).find_all();
        for m in &out.matches {
            for e in pattern.edges() {
                prop_assert!(g.has_edge(m.target_of(e.src), m.target_of(e.dst)));
            }
            // Injectivity.
            let mut seen = std::collections::BTreeSet::new();
            for &v in m.images() {
                prop_assert!(seen.insert(v));
            }
        }
    }

    /// Distinct images are pairwise different edge sets and a subset of the
    /// full enumeration.
    #[test]
    fn distinct_images_are_distinct(g in arb_digraph()) {
        let pattern = DiGraph::cycle(3);
        let distinct = iso::Vf2::new(&pattern, &g).distinct_images();
        let mut seen = std::collections::BTreeSet::new();
        for m in &distinct.matches {
            prop_assert!(seen.insert(m.image_edges(&pattern)));
        }
        let full = iso::Vf2::new(&pattern, &g).find_all();
        let full_images: std::collections::BTreeSet<_> =
            full.matches.iter().map(|m| m.image_edges(&pattern)).collect();
        prop_assert_eq!(seen, full_images);
    }

    /// Graph isomorphism is invariant under vertex relabeling.
    #[test]
    fn isomorphism_invariant_under_relabel(g in arb_digraph(), rot in 1usize..5) {
        let n = g.node_count();
        let perm: Vec<NodeId> = (0..n).map(|v| NodeId((v + rot) % n)).collect();
        let mut h = DiGraph::new(n);
        for e in g.edges() {
            h.add_edge(perm[e.src.index()], perm[e.dst.index()]);
        }
        prop_assert!(iso::isomorphic(&g, &h));
    }

    /// BFS distances satisfy the triangle property along edges:
    /// d(u) + 1 >= d(v) for every edge u -> v with u reachable.
    #[test]
    fn bfs_distances_are_consistent(g in arb_digraph()) {
        let d = algo::bfs_distances(&g, NodeId(0));
        for e in g.edges() {
            if let Some(du) = d[e.src.index()] {
                let dv = d[e.dst.index()].expect("successor of reachable vertex is reachable");
                prop_assert!(dv <= du + 1);
            }
        }
    }

    /// SCC partition covers each vertex exactly once.
    #[test]
    fn scc_is_a_partition(g in arb_digraph()) {
        let comps = algo::strongly_connected_components(&g);
        let mut seen = vec![false; g.node_count()];
        for c in &comps {
            for v in c {
                prop_assert!(!seen[v.index()], "vertex {v} in two components");
                seen[v.index()] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// find_cycle agrees with the SCC-based acyclicity test.
    #[test]
    fn cycle_detection_matches_scc(g in arb_digraph()) {
        let has_cycle = algo::find_cycle(&g).is_some();
        let scc_nontrivial = algo::strongly_connected_components(&g)
            .iter()
            .any(|c| c.len() > 1);
        prop_assert_eq!(has_cycle, scc_nontrivial);
    }

    /// Bisection returns a balanced partition whose reported weight matches
    /// a direct recount.
    #[test]
    fn bisection_is_balanced_and_consistent(g in arb_digraph()) {
        let p = algo::bisection_bandwidth(&g);
        let n = g.node_count();
        prop_assert_eq!(p.side_a.len() + p.side_b.len(), n);
        prop_assert!((p.side_a.len() as isize - p.side_b.len() as isize).abs() <= 1);
        let in_a: Vec<bool> = {
            let mut m = vec![false; n];
            for v in &p.side_a {
                m[v.index()] = true;
            }
            m
        };
        let recount = g
            .edges()
            .filter(|e| in_a[e.src.index()] != in_a[e.dst.index()])
            .count();
        prop_assert_eq!(p.cut_edges, recount);
    }
}
