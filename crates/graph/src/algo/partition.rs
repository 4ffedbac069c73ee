//! Balanced bipartitioning and bisection bandwidth.
//!
//! Section 4.2 of the paper checks wiring feasibility "by comparing the
//! bisection bandwidth of the customized architecture with the maximum
//! bisection bandwidth the particular technology provides". The bisection
//! bandwidth of a topology is the minimum number of links crossing any
//! balanced two-way vertex partition. Exact bisection is NP-hard; we
//! compute it exactly for small graphs (at most
//! [`EXACT_BISECTION_MAX_NODES`] vertices, a pruned search over balanced
//! subsets) and fall back to multi-start Kernighan–Lin for larger ones,
//! which is the standard EDA practice.
//!
//! Links have unit capacity, so cuts are integer counts over the graph's
//! `u64` adjacency rows. Integer cuts are what let both paths reorder their
//! work and still return exactly the partition of
//! [`reference`](mod@reference), the weighted code as first written.

// Index loops below walk several parallel arrays; indexing is clearer.
#![allow(clippy::needless_range_loop)]

pub mod reference;

use crate::{BitSet, DiGraph, NodeId};

/// Largest vertex count whose bisection [`bisection_bandwidth`] computes
/// exactly; larger graphs take multi-start Kernighan–Lin.
pub const EXACT_BISECTION_MAX_NODES: usize = 20;

/// A two-way partition of the vertex set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bipartition {
    /// Vertices on side A (sorted).
    pub side_a: Vec<NodeId>,
    /// Vertices on side B (sorted).
    pub side_b: Vec<NodeId>,
    /// Number of directed edges crossing the cut (both directions).
    pub cut_edges: usize,
}

impl Bipartition {
    /// The partition of `g` whose side A is `in_a`.
    fn from_side_a(g: &DiGraph, in_a: &BitSet) -> Self {
        let (side_a, side_b): (Vec<NodeId>, Vec<NodeId>) =
            g.nodes().partition(|v| in_a.contains(v.index()));
        let in_b = vertex_set(g.node_count(), side_b.iter().map(|v| v.index()));
        let cut_edges = side_a.iter().map(|&v| links(g, v, &in_b)).sum();
        Bipartition {
            side_a,
            side_b,
            cut_edges,
        }
    }
}

/// Directed edges, in either direction, between `v` and the vertices of
/// `side`.
fn links(g: &DiGraph, v: NodeId, side: &BitSet) -> usize {
    g.succ_set(v).intersection_len(side) + g.pred_set(v).intersection_len(side)
}

/// `members` as a set of vertices of an `n`-vertex graph.
fn vertex_set(n: usize, members: impl IntoIterator<Item = usize>) -> BitSet {
    let mut set = BitSet::new(n);
    set.extend(members);
    set
}

/// Exact minimum balanced bisection by a pruned depth-first search.
///
/// Vertex 0 is fixed on side A, which halves the symmetric search space.
/// The search assigns the free vertices from the highest index down, side B
/// before side A, so complete assignments arrive in ascending order of
/// their side-A mask; no side may exceed `⌈n/2⌉` vertices. The cut grows
/// by two popcounts per assigned vertex, and a branch whose partial cut
/// already reaches the best complete cut is cut off. A later leaf with an
/// equal cut has a larger mask, so the result is the numerically smallest
/// mask among the minimum cuts — the reference's tie-break.
fn exact_bisection(g: &DiGraph) -> Bipartition {
    // Successor and predecessor rows, one `u64` word per vertex.
    struct Search {
        succ: Vec<u64>,
        pred: Vec<u64>,
        cap: usize,
        best_cut: usize,
        best_a: u64,
    }

    impl Search {
        fn descend(&mut self, v: usize, in_a: u64, in_b: u64, size_a: usize, cut: usize) {
            if cut >= self.best_cut {
                return;
            }
            if v == 0 {
                self.best_cut = cut;
                self.best_a = in_a;
                return;
            }
            let (succ, pred, flag) = (self.succ[v], self.pred[v], 1 << v);
            // Assigned so far: vertex 0 and vertices v + 1..n.
            let size_b = self.succ.len() - v - size_a;
            if size_b < self.cap {
                let added = (succ & in_a).count_ones() + (pred & in_a).count_ones();
                self.descend(v - 1, in_a, in_b | flag, size_a, cut + added as usize);
            }
            if size_a < self.cap {
                let added = (succ & in_b).count_ones() + (pred & in_b).count_ones();
                self.descend(v - 1, in_a | flag, in_b, size_a + 1, cut + added as usize);
            }
        }
    }

    let n = g.node_count();
    debug_assert!((2..=EXACT_BISECTION_MAX_NODES).contains(&n));
    let row = |set: &BitSet| set.words()[0];
    let mut search = Search {
        succ: g.nodes().map(|v| row(g.succ_set(v))).collect(),
        pred: g.nodes().map(|v| row(g.pred_set(v))).collect(),
        cap: n.div_ceil(2),
        best_cut: usize::MAX,
        best_a: 0,
    };
    search.descend(n - 1, 1, 0, 1, 0);
    let in_a = vertex_set(n, (0..n).filter(|v| (search.best_a >> v) & 1 != 0));
    Bipartition::from_side_a(g, &in_a)
}

/// Kernighan–Lin refinement of an initial partition: passes of locked
/// pair swaps, each applying its best positive-gain prefix, until a pass
/// gains nothing.
///
/// Every step swaps the unlocked pair (`a` on side A, `b` on side B) of
/// largest gain `D(a) + D(b) − 2·c(a, b)`, the first in `(a, b)` order on
/// ties, where `D` is a vertex's external minus internal edge count
/// against the current sides and `c` counts the edges between the pair.
/// Each directed edge is one unit of capacity; the cut counts both
/// directions.
pub fn kernighan_lin(g: &DiGraph, initial_in_a: &[bool]) -> Bipartition {
    let n = g.node_count();
    assert_eq!(
        initial_in_a.len(),
        n,
        "partition mask must cover all vertices"
    );
    let mut in_a = vertex_set(n, (0..n).filter(|&v| initial_in_a[v]));
    let mut locked = vec![false; n];
    let mut d = vec![0i64; n];
    let mut gains: Vec<i64> = Vec::with_capacity(n / 2);
    let mut swaps: Vec<(usize, usize)> = Vec::with_capacity(n / 2);
    loop {
        let mut work_a = in_a.clone();
        let mut work_b = vertex_set(n, (0..n).filter(|&v| !in_a.contains(v)));
        locked.fill(false);
        gains.clear();
        swaps.clear();
        for _ in 0..n / 2 {
            for v in g.nodes() {
                if !locked[v.index()] {
                    let (own, other) = if work_a.contains(v.index()) {
                        (&work_a, &work_b)
                    } else {
                        (&work_b, &work_a)
                    };
                    d[v.index()] = links(g, v, other) as i64 - links(g, v, own) as i64;
                }
            }
            let mut best: Option<(i64, usize, usize)> = None;
            for a in 0..n {
                if locked[a] || !work_a.contains(a) {
                    continue;
                }
                for b in 0..n {
                    if locked[b] || !work_b.contains(b) {
                        continue;
                    }
                    let (u, v) = (NodeId(a), NodeId(b));
                    let pair = i64::from(g.has_edge(u, v)) + i64::from(g.has_edge(v, u));
                    let gain = d[a] + d[b] - 2 * pair;
                    if best.is_none_or(|(bg, _, _)| gain > bg) {
                        best = Some((gain, a, b));
                    }
                }
            }
            let Some((gain, a, b)) = best else { break };
            work_a.remove(a);
            work_a.insert(b);
            work_b.remove(b);
            work_b.insert(a);
            locked[a] = true;
            locked[b] = true;
            gains.push(gain);
            swaps.push((a, b));
        }

        // The prefix of swaps with the largest positive cumulative gain.
        let mut best_k = 0;
        let mut best_sum = 0;
        let mut sum = 0;
        for (k, &gain) in gains.iter().enumerate() {
            sum += gain;
            if sum > best_sum {
                best_sum = sum;
                best_k = k + 1;
            }
        }
        if best_k == 0 {
            break;
        }
        for &(a, b) in &swaps[..best_k] {
            in_a.remove(a);
            in_a.insert(b);
        }
    }
    Bipartition::from_side_a(g, &in_a)
}

/// Minimum balanced cut of the topology, counting each directed edge as
/// one link: exact for at most [`EXACT_BISECTION_MAX_NODES`] vertices,
/// multi-start Kernighan–Lin otherwise.
///
/// # Panics
///
/// Panics if the graph has fewer than two vertices.
pub fn bisection_bandwidth(g: &DiGraph) -> Bipartition {
    let n = g.node_count();
    assert!(n >= 2, "bisection bandwidth needs at least two vertices");
    if n <= EXACT_BISECTION_MAX_NODES {
        return exact_bisection(g);
    }
    // Multi-start KL with deterministic rotations of an alternating seed.
    let mut best: Option<Bipartition> = None;
    for start in 0..8usize {
        let in_a: Vec<bool> = (0..n)
            .map(|v| (v + start) % 2 == 0 || v % (start + 2) == 0)
            .collect();
        // Rebalance the seed mask to exactly n/2 on side A.
        let mut mask = in_a;
        let half = n / 2;
        let mut count = mask.iter().filter(|&&x| x).count();
        for v in 0..n {
            if count == half {
                break;
            }
            if count > half && mask[v] {
                mask[v] = false;
                count -= 1;
            } else if count < half && !mask[v] {
                mask[v] = true;
                count += 1;
            }
        }
        let p = kernighan_lin(g, &mask);
        if best.as_ref().is_none_or(|b| p.cut_edges < b.cut_edges) {
            best = Some(p);
        }
    }
    best.expect("at least one start")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bidirectional ring on n vertices.
    fn ring(n: usize) -> DiGraph {
        let mut g = DiGraph::new(n);
        for v in 0..n {
            g.add_edge(NodeId(v), NodeId((v + 1) % n));
            g.add_edge(NodeId((v + 1) % n), NodeId(v));
        }
        g
    }

    /// Bidirectional w x h mesh.
    fn mesh(w: usize, h: usize) -> DiGraph {
        let mut g = DiGraph::new(w * h);
        let id = |x: usize, y: usize| NodeId(y * w + x);
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    g.add_edge(id(x, y), id(x + 1, y));
                    g.add_edge(id(x + 1, y), id(x, y));
                }
                if y + 1 < h {
                    g.add_edge(id(x, y), id(x, y + 1));
                    g.add_edge(id(x, y + 1), id(x, y));
                }
            }
        }
        g
    }

    #[test]
    fn ring_bisection_is_four_directed_edges() {
        // Cutting a bidirectional ring anywhere severs 2 undirected = 4
        // directed edges.
        let p = bisection_bandwidth(&ring(8));
        assert_eq!(p.cut_edges, 4);
        assert_eq!(p.side_a.len(), 4);
        assert_eq!(p.side_b.len(), 4);
    }

    #[test]
    fn mesh_4x4_bisection_is_eight_directed_edges() {
        // The classic result: bisection width of a 4x4 mesh is 4 links =
        // 8 directed edges.
        let p = bisection_bandwidth(&mesh(4, 4));
        assert_eq!(p.cut_edges, 8);
    }

    #[test]
    fn two_cliques_with_bridge() {
        // Two K4 cliques joined by one bidirectional bridge: min cut = 2.
        let mut g = DiGraph::new(8);
        for base in [0, 4] {
            for i in 0..4 {
                for j in 0..4 {
                    if i != j {
                        g.add_edge(NodeId(base + i), NodeId(base + j));
                    }
                }
            }
        }
        g.add_edge(NodeId(0), NodeId(4));
        g.add_edge(NodeId(4), NodeId(0));
        let p = bisection_bandwidth(&g);
        assert_eq!(p.cut_edges, 2);
        let a: Vec<usize> = p.side_a.iter().map(|v| v.index()).collect();
        assert!(a == vec![0, 1, 2, 3] || a == vec![4, 5, 6, 7]);
    }

    #[test]
    fn odd_vertex_count_is_handled() {
        let p = bisection_bandwidth(&ring(5));
        assert_eq!(p.side_a.len() + p.side_b.len(), 5);
        assert!((p.side_a.len() as isize - p.side_b.len() as isize).abs() <= 1);
        assert_eq!(p.cut_edges, 4);
    }

    #[test]
    fn kernighan_lin_improves_bad_seed() {
        // Two triangles bridged once; seed splits both triangles.
        let mut g = DiGraph::new(6);
        for (a, b) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            g.add_edge(NodeId(a), NodeId(b));
            g.add_edge(NodeId(b), NodeId(a));
        }
        g.add_edge(NodeId(0), NodeId(3));
        g.add_edge(NodeId(3), NodeId(0));
        let seed = [true, false, true, false, true, false];
        let p = kernighan_lin(&g, &seed);
        assert_eq!(p.cut_edges, 2);
    }

    #[test]
    fn large_graph_uses_heuristic_and_stays_reasonable() {
        let g = mesh(5, 5); // 25 vertices -> heuristic path
        let p = bisection_bandwidth(&g);
        // True bisection of a 5x5 mesh is 5 links = 10 directed edges; the
        // heuristic should be close.
        assert!(p.cut_edges <= 14, "cut {} too large", p.cut_edges);
        assert!((p.side_a.len() as isize - 12).abs() <= 1);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_vertex_panics() {
        bisection_bandwidth(&DiGraph::new(1));
    }
}
