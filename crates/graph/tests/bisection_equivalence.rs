//! Equivalence of the bitset bisection with the reference: the sides and
//! the cut of `bisection_bandwidth` (and of `kernighan_lin` from a given
//! seed) must equal those of `noc_graph::algo::partition::reference` with
//! unit weights — on seeded random digraphs across the exact path, the
//! n = 20 / 21 boundary and the Kernighan–Lin path, on graphs where many
//! balanced cuts tie, and on the glued topologies of planted Figure 4b
//! applications.

use noc::prelude::{Placement, SynthesisFlow};
use noc::workloads::scenarios::planted_sized;
use noc_graph::algo::partition::{self, reference, EXACT_BISECTION_MAX_NODES};
use noc_graph::{DiGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_same_bisection(g: &DiGraph, what: &str) {
    let got = partition::bisection_bandwidth(g);
    let want = reference::bisection_bandwidth(g, |_, _| 1.0);
    assert_eq!(got.side_a, want.side_a, "{what}: side A");
    assert_eq!(got.side_b, want.side_b, "{what}: side B");
    assert_eq!(got.cut_edges as f64, want.cut_weight, "{what}: cut");
}

/// A digraph on `n` vertices keeping each ordered pair with probability
/// `density`; `symmetric` adds every kept edge in both directions.
fn random_digraph(rng: &mut StdRng, n: usize, density: f64, symmetric: bool) -> DiGraph {
    let mut g = DiGraph::new(n);
    for u in 0..n {
        for v in 0..n {
            if u != v && (!symmetric || u < v) && rng.gen_bool(density) {
                g.add_edge(NodeId(u), NodeId(v));
                if symmetric {
                    g.add_edge(NodeId(v), NodeId(u));
                }
            }
        }
    }
    g
}

#[test]
fn random_digraphs_match_the_reference_on_both_paths() {
    let mut rng = StdRng::seed_from_u64(15);
    // Every size through the boundary, then a stride: the reference's
    // Kernighan–Lin is O(n⁴) per pass and dominates a debug run.
    for n in (2..=24).chain((28..=40).step_by(4)) {
        for symmetric in [true, false] {
            // Sparse like a glued topology, up to half the pairs.
            let density = rng.gen_range(0.05..0.5);
            let g = random_digraph(&mut rng, n, density, symmetric);
            assert_same_bisection(&g, &format!("n {n}, p {density:.2}, sym {symmetric}"));
        }
    }
}

#[test]
fn degenerate_graphs_match_at_the_exact_to_kl_boundary() {
    // Every cut ties on an edgeless or complete graph, so only the
    // tie-break decides the sides.
    let boundary = EXACT_BISECTION_MAX_NODES;
    for n in [2, 3, boundary, boundary + 1] {
        assert_same_bisection(&DiGraph::new(n), &format!("edgeless n {n}"));
        assert_same_bisection(&DiGraph::complete(n), &format!("complete n {n}"));
        assert_same_bisection(&DiGraph::cycle(n), &format!("cycle n {n}"));
    }
}

#[test]
fn kernighan_lin_matches_the_reference_from_any_seed() {
    let mut rng = StdRng::seed_from_u64(7);
    for n in [2, 5, 9, 16, 24, 33] {
        for symmetric in [true, false] {
            let g = random_digraph(&mut rng, n, 0.3, symmetric);
            // Unbalanced seeds too: the refinement never rebalances.
            let seed: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
            let got = partition::kernighan_lin(&g, &seed);
            let want = reference::kernighan_lin(&g, &seed, |_, _| 1.0);
            assert_eq!(got.side_a, want.side_a, "n {n}, sym {symmetric}");
            assert_eq!(got.side_b, want.side_b, "n {n}, sym {symmetric}");
            assert_eq!(got.cut_edges as f64, want.cut_weight, "n {n}");
        }
    }
}

#[test]
fn sparse_to_half_dense_exact_graphs_match_the_reference() {
    // Low densities leave many balanced cuts tied at the minimum, so the
    // smallest-mask tie-break decides the sides.
    let mut rng = StdRng::seed_from_u64(21);
    for n in 14..=EXACT_BISECTION_MAX_NODES {
        for density in [0.1, 0.2, 0.3, 0.4, 0.5] {
            let symmetric = rng.gen_bool(0.5);
            let g = random_digraph(&mut rng, n, density, symmetric);
            assert_same_bisection(&g, &format!("n {n}, p {density}, sym {symmetric}"));
        }
    }
}

/// Bidirectional `w` × `h` mesh.
fn mesh(w: usize, h: usize) -> DiGraph {
    let mut g = DiGraph::new(w * h);
    for v in 0..w * h {
        if v % w + 1 < w {
            g.add_edge(NodeId(v), NodeId(v + 1));
            g.add_edge(NodeId(v + 1), NodeId(v));
        }
        if v + w < w * h {
            g.add_edge(NodeId(v), NodeId(v + w));
            g.add_edge(NodeId(v + w), NodeId(v));
        }
    }
    g
}

/// Disjoint complete digraphs of the given sizes, numbered in turn.
fn cliques(sizes: &[usize]) -> DiGraph {
    let mut g = DiGraph::new(sizes.iter().sum());
    let mut base = 0;
    for &k in sizes {
        for u in base..base + k {
            for v in base..base + k {
                if u != v {
                    g.add_edge(NodeId(u), NodeId(v));
                }
            }
        }
        base += k;
    }
    g
}

#[test]
fn symmetric_graphs_with_many_tied_cuts_match_the_reference() {
    // Meshes tie along every straight cut and their mirror images.
    assert_same_bisection(&mesh(4, 5), "4x5 mesh");
    assert_same_bisection(&mesh(5, 5), "5x5 mesh");
    // Equal cliques split at cut 0; unequal ones tie over every choice of
    // the vertices that cross over from the larger clique.
    for sizes in [[10, 10], [12, 8], [11, 11], [13, 12]] {
        assert_same_bisection(&cliques(&sizes), &format!("cliques {sizes:?}"));
    }
    let mut bridged = cliques(&[5, 5]);
    bridged.add_edge(NodeId(4), NodeId(5));
    bridged.add_edge(NodeId(5), NodeId(4));
    assert_same_bisection(&bridged, "two K5s joined by one edge");
}

/// Figure 4b planted applications synthesized on the square grid
/// placement: the undirected link graph that `Architecture::stats`
/// bisects, for every generator seed on both sides of the exact-to-KL
/// boundary and for seed 0 at n = 40, and each seed-0 directed topology.
#[test]
fn glued_planted_topologies_match_the_reference() {
    for (n, seeds) in [(20, 9), (25, 9), (40, 1)] {
        let side = (n as f64).sqrt().ceil() as usize;
        for seed in 0..seeds {
            let result = SynthesisFlow::new(planted_sized(n, seed))
                .placement(Placement::grid(side, side, 2.0, 2.0))
                .run()
                .expect("an unconstrained flow finds a decomposition");
            let topology = result.architecture.topology();
            let what = format!("planted n {n} seed {seed}");
            if seed == 0 {
                assert_same_bisection(topology, &format!("{what} topology"));
            }
            let mut links = DiGraph::new(n);
            for e in topology.edges() {
                links.add_edge(e.src, e.dst);
                links.add_edge(e.dst, e.src);
            }
            assert_same_bisection(&links, &format!("{what} links"));
        }
    }
}
