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
//! Links have unit capacity, so cuts are integer counts: both paths read a
//! table of `c(u, v)`, the directed edges between two vertices in either
//! direction, and keep their counts current as vertices are assigned or
//! swapped. Integer cuts are what let both paths reorder their work, prune
//! on bounds and still return exactly the partition of
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
    /// The search effort that found this partition.
    pub work: BisectionWork,
}

/// Search effort of one bisection, summed over every Kernighan–Lin start:
/// what `Architecture::stats` adds to the `graph.bisection.*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BisectionWork {
    /// Nodes the exact search entered, pruned ones included.
    pub exact_nodes: u64,
    /// Kernighan–Lin passes, each start's final pass that gains nothing
    /// included.
    pub kl_passes: u64,
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
            work: BisectionWork::default(),
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
/// their side-A mask; no side may exceed `⌈n/2⌉` vertices. Each
/// unassigned vertex keeps its link counts to the assigned vertices of
/// either side; assigning a vertex adds the count towards the other side
/// to the cut. A branch is cut off once its partial cut, plus the smaller
/// of the two counts of every unassigned vertex, reaches the best complete
/// cut. That sum is a lower bound: each unassigned vertex ends on one side
/// and then crosses at least the smaller count, over links disjoint from
/// the other vertices'. Every leaf of a cut-off branch has a cut at least
/// the best one and, arriving later, a larger mask, so the result is the
/// numerically smallest mask among the minimum cuts — the reference's
/// tie-break.
fn exact_bisection(g: &DiGraph) -> Bipartition {
    const MAX: usize = EXACT_BISECTION_MAX_NODES;

    struct Search {
        n: usize,
        /// `c[u][v]`: directed edges, in either direction, between u and v.
        c: [[usize; MAX]; MAX],
        /// Links from each unassigned vertex to the assigned vertices of
        /// side A, and of side B.
        to_a: [usize; MAX],
        to_b: [usize; MAX],
        cap: usize,
        best_cut: usize,
        best_a: u64,
        nodes: u64,
    }

    impl Search {
        fn descend(&mut self, v: usize, in_a: u64, size_a: usize, cut: usize) {
            self.nodes += 1;
            // The partial cut plus the least the unassigned vertices
            // 1..=v still add.
            let mut bound = cut;
            for u in 1..=v {
                bound += self.to_a[u].min(self.to_b[u]);
            }
            if bound >= self.best_cut {
                return;
            }
            if v == 0 {
                self.best_cut = cut;
                self.best_a = in_a;
                return;
            }
            // Assigned so far: vertex 0 and vertices v + 1..n.
            if self.n - v - size_a < self.cap {
                for u in 1..v {
                    self.to_b[u] += self.c[v][u];
                }
                self.descend(v - 1, in_a, size_a, cut + self.to_a[v]);
                for u in 1..v {
                    self.to_b[u] -= self.c[v][u];
                }
            }
            if size_a < self.cap {
                for u in 1..v {
                    self.to_a[u] += self.c[v][u];
                }
                self.descend(v - 1, in_a | 1 << v, size_a + 1, cut + self.to_b[v]);
                for u in 1..v {
                    self.to_a[u] -= self.c[v][u];
                }
            }
        }
    }

    let n = g.node_count();
    debug_assert!((2..=MAX).contains(&n));
    let mut search = Search {
        n,
        c: [[0; MAX]; MAX],
        to_a: [0; MAX],
        to_b: [0; MAX],
        cap: n.div_ceil(2),
        best_cut: usize::MAX,
        best_a: 0,
        nodes: 0,
    };
    for e in g.edges() {
        let (u, v) = (e.src.index(), e.dst.index());
        search.c[u][v] += 1;
        search.c[v][u] += 1;
    }
    for u in 1..n {
        search.to_a[u] = search.c[u][0];
    }
    search.descend(n - 1, 1, 1, 0);
    let in_a = vertex_set(n, (0..n).filter(|v| (search.best_a >> v) & 1 != 0));
    let mut p = Bipartition::from_side_a(g, &in_a);
    p.work.exact_nodes = search.nodes;
    p
}

/// `D(v)`: directed edges, in either direction, between `v` and the other
/// side minus those within its own side.
fn external_minus_internal(g: &DiGraph, v: usize, work_a: &BitSet, work_b: &BitSet) -> i64 {
    let (own, other) = if work_a.contains(v) {
        (work_a, work_b)
    } else {
        (work_b, work_a)
    };
    links(g, NodeId(v), other) as i64 - links(g, NodeId(v), own) as i64
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
///
/// `D` is counted from the adjacency rows once per pass and then kept
/// current: swapping `a` and `b` moves each unlocked `D(v)` on side A by
/// `2·(c(v, a) − c(v, b))` and each on side B by the negation, read from
/// an n × n table of `c`. The scan skips an `a` whose `D(a)` plus the
/// largest unlocked `D` on side B cannot strictly beat the best gain so
/// far; as `c ≥ 0`, none of its pairs could have been picked.
pub fn kernighan_lin(g: &DiGraph, initial_in_a: &[bool]) -> Bipartition {
    let n = g.node_count();
    assert_eq!(
        initial_in_a.len(),
        n,
        "partition mask must cover all vertices"
    );
    // c(u, v) at `c[u * n + v]`.
    let mut c = vec![0i64; n * n];
    for e in g.edges() {
        let (u, v) = (e.src.index(), e.dst.index());
        c[u * n + v] += 1;
        c[v * n + u] += 1;
    }
    let mut in_a = vertex_set(n, (0..n).filter(|&v| initial_in_a[v]));
    let mut d = vec![0i64; n];
    // The unlocked vertices of each side, ascending.
    let mut free_a: Vec<usize> = Vec::with_capacity(n);
    let mut free_b: Vec<usize> = Vec::with_capacity(n);
    let mut gains: Vec<i64> = Vec::with_capacity(n / 2);
    let mut swaps: Vec<(usize, usize)> = Vec::with_capacity(n / 2);
    let mut passes = 0;
    loop {
        passes += 1;
        let mut work_a = in_a.clone();
        let mut work_b = vertex_set(n, (0..n).filter(|&v| !in_a.contains(v)));
        free_a.clear();
        free_b.clear();
        for v in 0..n {
            d[v] = external_minus_internal(g, v, &work_a, &work_b);
            if work_a.contains(v) {
                free_a.push(v);
            } else {
                free_b.push(v);
            }
        }
        gains.clear();
        swaps.clear();
        for _ in 0..n / 2 {
            if free_a.is_empty() || free_b.is_empty() {
                break;
            }
            if cfg!(debug_assertions) {
                for &v in free_a.iter().chain(&free_b) {
                    let recount = external_minus_internal(g, v, &work_a, &work_b);
                    debug_assert_eq!(d[v], recount, "D({v}) disagrees with the rows");
                }
            }
            let max_b = free_b.iter().map(|&b| d[b]).fold(i64::MIN, i64::max);
            // (gain, position in free_a, position in free_b). Every gain
            // beats i64::MIN, so the first pair scanned is taken.
            let mut best = (i64::MIN, 0, 0);
            for (i, &a) in free_a.iter().enumerate() {
                if d[a] + max_b <= best.0 {
                    continue;
                }
                let row = &c[a * n..(a + 1) * n];
                for (j, &b) in free_b.iter().enumerate() {
                    let gain = d[a] + d[b] - 2 * row[b];
                    if gain > best.0 {
                        best = (gain, i, j);
                    }
                }
            }
            let (gain, i, j) = best;
            let (a, b) = (free_a.remove(i), free_b.remove(j));
            work_a.remove(a);
            work_a.insert(b);
            work_b.remove(b);
            work_b.insert(a);
            let (row_a, row_b) = (&c[a * n..(a + 1) * n], &c[b * n..(b + 1) * n]);
            for &v in &free_a {
                d[v] += 2 * (row_a[v] - row_b[v]);
            }
            for &v in &free_b {
                d[v] += 2 * (row_b[v] - row_a[v]);
            }
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
    let mut p = Bipartition::from_side_a(g, &in_a);
    p.work.kl_passes = passes;
    p
}

/// The Kernighan–Lin starts of [`bisection_bandwidth`] whose seeds differ.
/// For an even start `s`, both seed terms, `(v + s) % 2 == 0` and
/// `v % (s + 2) == 0`, select exactly the even vertices: starts 2, 4 and 6
/// would rerun start 0, and the strict `<` pick could never choose them.
const KL_STARTS: [usize; 5] = [0, 1, 3, 5, 7];

/// Start `start`'s seed on `n` vertices: a rotation of an alternating
/// mask, rebalanced to exactly `n/2` vertices on side A by flipping the
/// lowest vertices first.
fn kl_seed(n: usize, start: usize) -> Vec<bool> {
    let mut mask: Vec<bool> = (0..n)
        .map(|v| (v + start).is_multiple_of(2) || v.is_multiple_of(start + 2))
        .collect();
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
    mask
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
    // Multi-start KL with deterministic rotations of an alternating seed;
    // the first start with the smallest cut wins.
    let mut best: Option<Bipartition> = None;
    let mut kl_passes = 0;
    for start in KL_STARTS {
        let p = kernighan_lin(g, &kl_seed(n, start));
        kl_passes += p.work.kl_passes;
        if best.as_ref().is_none_or(|b| p.cut_edges < b.cut_edges) {
            best = Some(p);
        }
    }
    let mut best = best.expect("at least one start");
    best.work.kl_passes = kl_passes;
    best
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
    fn even_starts_rerun_start_zero_and_the_kept_starts_differ() {
        for n in 21..=128 {
            let zero = kl_seed(n, 0);
            for start in [2, 4, 6] {
                assert_eq!(kl_seed(n, start), zero, "n {n}, start {start}");
            }
            for (i, &s) in KL_STARTS.iter().enumerate() {
                for &t in &KL_STARTS[i + 1..] {
                    assert_ne!(kl_seed(n, s), kl_seed(n, t), "n {n}, starts {s} and {t}");
                }
            }
        }
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
