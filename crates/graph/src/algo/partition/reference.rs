//! The reference bisection: the weighted partition code as first
//! written, kept unchanged in behaviour as the golden oracle for
//! [`super::bisection_bandwidth`] and [`super::kernighan_lin`].
//!
//! The exact path recounts every edge's weight for each balanced mask;
//! Kernighan–Lin recomputes each `D` value through `has_edge` calls for
//! every candidate pair and picks the prefix gain with an epsilon. It is
//! deliberately *not* optimized — its value is that every comparison is
//! manifest in straight-line code, so the equivalence suite
//! (`crates/graph/tests/bisection_equivalence.rs`) can hold the bitset
//! implementation to "the same sides and cut as this" with unit weights.
//! The exact-to-KL split stays the literal `n <= 20` here, so that suite
//! also pins [`super::EXACT_BISECTION_MAX_NODES`].

// Index loops below walk several parallel arrays; indexing is clearer.
#![allow(clippy::needless_range_loop)]

use crate::{DiGraph, NodeId};

/// A two-way partition of the vertex set.
#[derive(Debug, Clone, PartialEq)]
pub struct Bipartition {
    /// Vertices on side A (sorted).
    pub side_a: Vec<NodeId>,
    /// Vertices on side B (sorted).
    pub side_b: Vec<NodeId>,
    /// Total weight of directed edges crossing the cut (both directions).
    pub cut_weight: f64,
}

impl Bipartition {
    fn from_mask(g: &DiGraph, in_a: &[bool], weight: &impl Fn(NodeId, NodeId) -> f64) -> Self {
        let mut side_a = Vec::new();
        let mut side_b = Vec::new();
        for v in g.nodes() {
            if in_a[v.index()] {
                side_a.push(v);
            } else {
                side_b.push(v);
            }
        }
        let cut_weight = cut_weight(g, in_a, weight);
        Bipartition {
            side_a,
            side_b,
            cut_weight,
        }
    }
}

fn cut_weight(g: &DiGraph, in_a: &[bool], weight: &impl Fn(NodeId, NodeId) -> f64) -> f64 {
    g.edges()
        .filter(|e| in_a[e.src.index()] != in_a[e.dst.index()])
        .map(|e| weight(e.src, e.dst))
        .sum()
}

/// Exact minimum balanced bisection by exhaustive subset enumeration.
///
/// Sides have sizes `⌈n/2⌉` and `⌊n/2⌋`. Only call for small `n`;
/// [`bisection_bandwidth`] dispatches automatically.
fn exact_bisection(g: &DiGraph, weight: &impl Fn(NodeId, NodeId) -> f64) -> Bipartition {
    let n = g.node_count();
    assert!(n >= 2, "bisection needs at least two vertices");
    let half = n / 2;
    // Vertex 0 is fixed on side A (halves the symmetric search space), so
    // a free-vertex mask of popcount k puts k + 1 vertices on side A.
    // Enumerate only the balanced popcount classes with Gosper's hack
    // instead of scanning all 2^(n-1) masks, and test each edge against
    // the mask directly — no per-candidate allocation.
    let edges: Vec<(u32, u32, f64)> = g
        .edges()
        .map(|e| {
            (
                e.src.index() as u32,
                e.dst.index() as u32,
                weight(e.src, e.dst),
            )
        })
        .collect();
    let cut_of = |mask: u64| -> f64 {
        // Bit v of `full` = vertex v on side A.
        let full = (mask << 1) | 1;
        let mut w = 0.0;
        for &(src, dst, ew) in &edges {
            if ((full >> src) ^ (full >> dst)) & 1 != 0 {
                w += ew;
            }
        }
        w
    };
    let mut classes = [half - 1, n - half - 1];
    classes.sort_unstable();
    let limit = 1u64 << (n - 1);
    // Ties keep the numerically smallest mask — exactly what the old
    // ascending full scan's strict `<` produced.
    let mut best: Option<(f64, u64)> = None;
    let consider = |mask: u64, best: &mut Option<(f64, u64)>| {
        let w = cut_of(mask);
        if best.is_none_or(|(bw, bm)| w < bw || (w == bw && mask < bm)) {
            *best = Some((w, mask));
        }
    };
    for (i, &k) in classes.iter().enumerate() {
        if i > 0 && classes[i] == classes[i - 1] {
            continue; // n even: both balanced class sizes coincide.
        }
        if k == 0 {
            consider(0, &mut best);
            continue;
        }
        let mut mask = (1u64 << k) - 1;
        while mask < limit {
            consider(mask, &mut best);
            // Gosper's hack: next mask with the same popcount.
            let c = mask & mask.wrapping_neg();
            let r = mask + c;
            mask = (((r ^ mask) >> 2) / c) | r;
        }
    }
    let (_, mask) = best.expect("at least one balanced partition exists");
    let mut in_a = vec![false; n];
    in_a[0] = true;
    for v in 1..n {
        if mask & (1 << (v - 1)) != 0 {
            in_a[v] = true;
        }
    }
    Bipartition::from_mask(g, &in_a, weight)
}

/// Kernighan–Lin refinement of an initial partition: passes of
/// locked pair swaps, each applying its best positive-gain prefix, until
/// a pass gains nothing.
///
/// Returns the refined partition. `weight` gives the capacity of each
/// directed edge; the cut counts both directions.
pub fn kernighan_lin(
    g: &DiGraph,
    initial_in_a: &[bool],
    weight: impl Fn(NodeId, NodeId) -> f64,
) -> Bipartition {
    let n = g.node_count();
    assert_eq!(
        initial_in_a.len(),
        n,
        "partition mask must cover all vertices"
    );
    let mut in_a = initial_in_a.to_vec();

    // Undirected weight between u and v (sum of both directions).
    let pair_w = |u: NodeId, v: NodeId| -> f64 {
        let mut w = 0.0;
        if g.has_edge(u, v) {
            w += weight(u, v);
        }
        if g.has_edge(v, u) {
            w += weight(v, u);
        }
        w
    };

    loop {
        // D[v] = external cost - internal cost.
        let d = |in_a: &[bool], v: NodeId| -> f64 {
            let mut ext = 0.0;
            let mut int = 0.0;
            for u in g.nodes() {
                if u == v {
                    continue;
                }
                let w = pair_w(v, u);
                if w == 0.0 {
                    continue;
                }
                if in_a[u.index()] == in_a[v.index()] {
                    int += w;
                } else {
                    ext += w;
                }
            }
            ext - int
        };

        let mut locked = vec![false; n];
        let mut gains: Vec<f64> = Vec::new();
        let mut swaps: Vec<(usize, usize)> = Vec::new();
        let mut work = in_a.clone();

        let pairs = n / 2;
        for _ in 0..pairs {
            let mut best: Option<(f64, usize, usize)> = None;
            for a in 0..n {
                if locked[a] || !work[a] {
                    continue;
                }
                for b in 0..n {
                    if locked[b] || work[b] {
                        continue;
                    }
                    let gain = d(&work, NodeId(a)) + d(&work, NodeId(b))
                        - 2.0 * pair_w(NodeId(a), NodeId(b));
                    if best.is_none_or(|(bg, _, _)| gain > bg) {
                        best = Some((gain, a, b));
                    }
                }
            }
            let Some((gain, a, b)) = best else { break };
            work.swap(a, b);
            locked[a] = true;
            locked[b] = true;
            gains.push(gain);
            swaps.push((a, b));
        }

        // Find the prefix of swaps with the maximum cumulative gain.
        let mut best_k = 0;
        let mut best_sum = 0.0;
        let mut sum = 0.0;
        for (k, &gain) in gains.iter().enumerate() {
            sum += gain;
            if sum > best_sum + 1e-12 {
                best_sum = sum;
                best_k = k + 1;
            }
        }
        if best_k == 0 {
            break;
        }
        for &(a, b) in &swaps[..best_k] {
            in_a.swap(a, b);
        }
    }
    Bipartition::from_mask(g, &in_a, &weight)
}

/// Minimum balanced-cut capacity of the topology: exact for `n <= 20`,
/// multi-start Kernighan–Lin otherwise.
///
/// `weight(u, v)` is the capacity of the directed link `u -> v`; use
/// `|_, _| 1.0` to count links.
///
/// # Panics
///
/// Panics if the graph has fewer than two vertices.
pub fn bisection_bandwidth(g: &DiGraph, weight: impl Fn(NodeId, NodeId) -> f64) -> Bipartition {
    let n = g.node_count();
    assert!(n >= 2, "bisection bandwidth needs at least two vertices");
    if n <= 20 {
        return exact_bisection(g, &weight);
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
        let p = kernighan_lin(g, &mask, &weight);
        if best.as_ref().is_none_or(|b| p.cut_weight < b.cut_weight) {
            best = Some(p);
        }
    }
    best.expect("at least one start")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_cut_prefers_light_edges() {
        // Square 0-1-2-3 with one heavy pair: partition avoids cutting it.
        let g = DiGraph::from_edges(
            4,
            [
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 1),
                (2, 3),
                (3, 2),
                (3, 0),
                (0, 3),
            ],
        )
        .unwrap();
        let w = |a: NodeId, b: NodeId| {
            if (a.index().min(b.index()), a.index().max(b.index())) == (0, 1) {
                100.0
            } else {
                1.0
            }
        };
        let p = bisection_bandwidth(&g, w);
        // Optimal: {0,1} vs {2,3}: cuts edges 1-2 and 3-0 = weight 4.
        assert_eq!(p.cut_weight, 4.0);
    }
}
