//! Equivalence of the bitset bisection with the reference: the sides and
//! the cut of `bisection_bandwidth` (and of `kernighan_lin` from a given
//! seed) must equal those of `noc_graph::algo::partition::reference` with
//! unit weights — on seeded random digraphs across the exact path, the
//! n = 20 / 21 boundary and the Kernighan–Lin path, and on the glued
//! topologies of planted Figure 4b applications.

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

/// Figure 4b planted applications (seed 0) synthesized on the square grid
/// placement: both the directed topology and the undirected link graph
/// that `Architecture::stats` bisects.
#[test]
fn glued_planted_topologies_match_the_reference() {
    for n in [20, 25, 40] {
        let side = (n as f64).sqrt().ceil() as usize;
        let result = SynthesisFlow::new(planted_sized(n, 0))
            .placement(Placement::grid(side, side, 2.0, 2.0))
            .run()
            .expect("an unconstrained flow finds a decomposition");
        let topology = result.architecture.topology();
        assert_same_bisection(topology, &format!("planted n {n} topology"));
        let mut links = DiGraph::new(n);
        for e in topology.edges() {
            links.add_edge(e.src, e.dst);
            links.add_edge(e.dst, e.src);
        }
        assert_same_bisection(&links, &format!("planted n {n} links"));
    }
}
