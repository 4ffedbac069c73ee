//! The explicit search frontier: an arena of open search-tree nodes and
//! the depth-first stack over it.
//!
//! The engine is an *iterative* tree search — nodes live on an explicit
//! stack instead of the call stack. Children are committed in reverse and
//! popped LIFO, so the search visits nodes in exactly the preorder of the
//! classic recursive branch-and-bound (and prints the paper's
//! decompositions).
//!
//! # Arena layout
//!
//! A node is *not* a materialized graph: it is an edge bitmask (bit
//! `src * n + dst`, the same layout as [`noc_graph::DiGraph::edge_bitset`]
//! and the match-cache keys), the live root-image row (bit *i* set iff
//! root image *i* still fits in the mask, see `LiveIndex` in the parent
//! module) plus scalar metadata. The frontier owns a struct-of-arrays
//! slab: all masks live in one flat `Vec<u64>` indexed by `slot * stride`,
//! the canonical-ordering min-keys in a second, the live rows in a third,
//! and the scalars (cost, bound, edge count, path link) in a parallel
//! `Vec`. Freed slots are recycled through a free list, so a depth-first
//! search reuses a working set of O(depth × branching) slots with zero
//! steady-state allocation. Children are *staged* into the slab while a
//! node expands and committed in one batch.
//!
//! Popping copies the node out into a caller-owned [`PoppedNode`] (the slab
//! slot is recycled immediately). No node carries a graph: the engine
//! builds a `DiGraph` from the mask only where one is read — at a leaf, and
//! for a primitive whose root enumeration was truncated.
//!
//! Paths are shared structurally: each node holds an `Rc` link to its
//! parent's matching, so sibling subtrees share their common prefix
//! instead of cloning the whole matching list per node.

use std::rc::Rc;

use noc_primitives::PrimitiveId;

use super::Matching;
use crate::cost::Cost;

/// One matching on the path from the root, linked toward the root.
#[derive(Debug)]
pub(crate) struct PathLink {
    pub(crate) matching: Matching,
    pub(crate) parent: Option<Rc<PathLink>>,
}

/// Materializes a path link chain into root-to-leaf order.
pub(crate) fn path_to_vec(path: &Option<Rc<PathLink>>) -> Vec<Matching> {
    let mut out = Vec::new();
    let mut cursor = path;
    while let Some(link) = cursor {
        out.push(link.matching.clone());
        cursor = &link.parent;
    }
    out.reverse();
    out
}

/// A search-tree node copied out of the arena: the unit the engine expands.
#[derive(Debug)]
pub(crate) struct PoppedNode {
    /// Uncovered edges as a bitmask (bit `src * n + dst`).
    pub(crate) mask: Vec<u64>,
    /// Live root-image row: bit *i* is set iff every edge root image *i*
    /// covers survives in `mask`.
    pub(crate) live: Vec<u64>,
    /// Image mask of the canonical-ordering cut (valid iff `min_prim` is
    /// set): children may only use images of `min_prim` exceeding this, or
    /// later primitives.
    pub(crate) min_mask: Vec<u64>,
    /// Cost accumulated along the path (Σ matching costs).
    pub(crate) cost: Cost,
    /// Optimistic completion bound (`cost` plus the admissible remaining
    /// bound).
    pub(crate) bound: f64,
    /// Popcount of `mask`.
    pub(crate) edges: u32,
    /// Primitive of the canonical-ordering cut, if any.
    pub(crate) min_prim: Option<PrimitiveId>,
    /// Matchings subtracted so far, shared with sibling subtrees.
    pub(crate) path: Option<Rc<PathLink>>,
}

impl PoppedNode {
    /// An all-zero node with `stride`-word masks and a `live_stride`-word
    /// live row, ready for `pop_into`.
    pub(crate) fn empty(stride: usize, live_stride: usize) -> Self {
        PoppedNode {
            mask: vec![0; stride],
            live: vec![0; live_stride],
            min_mask: vec![0; stride],
            cost: Cost(0.0),
            bound: 0.0,
            edges: 0,
            min_prim: None,
            path: None,
        }
    }

    /// The search root over `mask` with live row `live` (nothing matched
    /// yet).
    pub(crate) fn root(mask: Vec<u64>, live: Vec<u64>, edges: u32) -> Self {
        let stride = mask.len();
        PoppedNode {
            mask,
            live,
            min_mask: vec![0; stride],
            cost: Cost(0.0),
            bound: 0.0,
            edges,
            min_prim: None,
            path: None,
        }
    }
}

/// `a <= b` on equal-cardinality edge masks, equivalent to `<=` on their
/// sorted `Vec<Edge>` forms: scanning words from low to high, the lowest
/// differing bit decides — if it belongs to `a`, then `a`'s edge list has
/// the smaller edge at the first differing position.
///
/// The equivalence needs equal popcounts (with unequal counts a strict
/// subset could order either way); the engine only compares images of the
/// *same* primitive, which always cover the same number of edges.
pub(crate) fn mask_le(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(
        a.iter().map(|w| w.count_ones()).sum::<u32>(),
        b.iter().map(|w| w.count_ones()).sum::<u32>(),
        "mask_le compares equal-cardinality edge sets only"
    );
    for (&x, &y) in a.iter().zip(b) {
        let d = x ^ y;
        if d != 0 {
            let low = d & d.wrapping_neg();
            return x & low != 0;
        }
    }
    true
}

/// Is every bit of `sub` also set in `sup`? (Edge-set inclusion: "this
/// image survives in the remaining graph", the invariant the live rows
/// carry; debug builds check the rows against it on every expansion.)
pub(crate) fn mask_subset(sub: &[u64], sup: &[u64]) -> bool {
    sub.iter().zip(sup).all(|(&a, &b)| a & !b == 0)
}

/// The indices of the set bits of `words`, ascending.
pub(crate) fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + b
            })
        })
    })
}

/// Scalar metadata of an arena slot (the masks live in the flat rows).
#[derive(Debug, Default)]
struct NodeMeta {
    cost: Cost,
    bound: f64,
    edges: u32,
    min_prim: Option<PrimitiveId>,
    path: Option<Rc<PathLink>>,
}

/// The arena slab plus the open stack of slots.
#[derive(Debug)]
pub(crate) struct Frontier {
    /// Words per mask row: `(n * n).div_ceil(64)`.
    stride: usize,
    /// Words per live row.
    live_stride: usize,
    /// Edge masks, `stride` words per slot.
    masks: Vec<u64>,
    /// Live root-image rows, `live_stride` words per slot.
    lives: Vec<u64>,
    /// Canonical-cut image masks, `stride` words per slot.
    min_masks: Vec<u64>,
    meta: Vec<NodeMeta>,
    /// Recycled slots.
    free: Vec<u32>,
    /// Children staged by the current expansion, in generated order.
    staged: Vec<u32>,
    /// Open slots, LIFO: staged children enter in reverse so the first
    /// child pops first.
    open: Vec<u32>,
}

impl Frontier {
    /// An empty frontier for masks of `stride` words and live rows of
    /// `live_stride` words.
    pub(crate) fn new(stride: usize, live_stride: usize) -> Self {
        Frontier {
            stride,
            live_stride,
            masks: Vec::new(),
            lives: Vec::new(),
            min_masks: Vec::new(),
            meta: Vec::new(),
            free: Vec::new(),
            staged: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The live row of `slot`.
    fn live_row(&mut self, slot: u32) -> &mut [u64] {
        let base = slot as usize * self.live_stride;
        &mut self.lives[base..base + self.live_stride]
    }

    /// Grabs a slot off the free list or grows the slab by one row.
    fn alloc(&mut self) -> u32 {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        let slot = u32::try_from(self.meta.len()).expect("frontier slab exceeds u32 slots");
        self.masks.resize(self.masks.len() + self.stride, 0);
        self.lives.resize(self.lives.len() + self.live_stride, 0);
        self.min_masks.resize(self.min_masks.len() + self.stride, 0);
        self.meta.push(NodeMeta::default());
        slot
    }

    /// Adds an owned node (the search root) directly to the open stack.
    pub(crate) fn push_node(&mut self, node: PoppedNode) {
        debug_assert_eq!(node.mask.len(), self.stride);
        let slot = self.alloc();
        let base = slot as usize * self.stride;
        self.masks[base..base + self.stride].copy_from_slice(&node.mask);
        self.live_row(slot).copy_from_slice(&node.live);
        self.min_masks[base..base + self.stride].copy_from_slice(&node.min_mask);
        self.meta[slot as usize] = NodeMeta {
            cost: node.cost,
            bound: node.bound,
            edges: node.edges,
            min_prim: node.min_prim,
            path: node.path,
        };
        self.open.push(slot);
    }

    /// Stages a child of the node being expanded; staged children enter
    /// the open list together on [`Frontier::commit_staged`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn stage(
        &mut self,
        mask: &[u64],
        live: &[u64],
        min_key: Option<(PrimitiveId, &[u64])>,
        cost: Cost,
        bound: f64,
        edges: u32,
        path: Option<Rc<PathLink>>,
    ) {
        debug_assert_eq!(mask.len(), self.stride);
        let slot = self.alloc();
        let base = slot as usize * self.stride;
        self.masks[base..base + self.stride].copy_from_slice(mask);
        self.live_row(slot).copy_from_slice(live);
        let min_prim = match min_key {
            Some((id, min_mask)) => {
                self.min_masks[base..base + self.stride].copy_from_slice(min_mask);
                Some(id)
            }
            None => {
                self.min_masks[base..base + self.stride].fill(0);
                None
            }
        };
        self.meta[slot as usize] = NodeMeta {
            cost,
            bound,
            edges,
            min_prim,
            path,
        };
        self.staged.push(slot);
    }

    /// Commits the staged children so that they pop in their generated
    /// (canonical) order.
    pub(crate) fn commit_staged(&mut self) {
        self.open.extend(self.staged.drain(..).rev());
    }

    /// Pops the next node into `out`, recycling its slot; returns whether
    /// a node was available.
    pub(crate) fn pop_into(&mut self, out: &mut PoppedNode) -> bool {
        let Some(slot) = self.open.pop() else {
            return false;
        };
        let base = slot as usize * self.stride;
        out.mask.clear();
        out.mask
            .extend_from_slice(&self.masks[base..base + self.stride]);
        out.live.clear();
        out.live.extend_from_slice(self.live_row(slot));
        out.min_mask.clear();
        out.min_mask
            .extend_from_slice(&self.min_masks[base..base + self.stride]);
        let meta = &mut self.meta[slot as usize];
        out.cost = meta.cost;
        out.bound = meta.bound;
        out.edges = meta.edges;
        out.min_prim = meta.min_prim;
        out.path = meta.path.take();
        self.free.push(slot);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_graph::{DiGraph, Edge, NodeId};

    const STRIDE: usize = 1;
    const LIVE_STRIDE: usize = 2;

    fn node(bound: f64, edges: u32) -> PoppedNode {
        PoppedNode {
            mask: vec![edges as u64; STRIDE],
            live: vec![!0; LIVE_STRIDE],
            min_mask: vec![0; STRIDE],
            cost: Cost(0.0),
            bound,
            edges,
            min_prim: None,
            path: None,
        }
    }

    fn stage(f: &mut Frontier, bound: f64, edges: u32) {
        let mask = vec![edges as u64; STRIDE];
        let live = vec![0; LIVE_STRIDE];
        f.stage(&mask, &live, None, Cost(0.0), bound, edges, None);
    }

    fn pop(f: &mut Frontier) -> Option<PoppedNode> {
        let mut out = PoppedNode::empty(STRIDE, LIVE_STRIDE);
        f.pop_into(&mut out).then_some(out)
    }

    #[test]
    fn dfs_pops_children_in_generated_order() {
        let mut f = Frontier::new(STRIDE, LIVE_STRIDE);
        stage(&mut f, 0.0, 10);
        stage(&mut f, 1.0, 11);
        stage(&mut f, 2.0, 12);
        assert!(
            pop(&mut f).is_none(),
            "staged nodes are not open until commit"
        );
        f.commit_staged();
        assert_eq!(pop(&mut f).unwrap().bound, 0.0);
        assert_eq!(pop(&mut f).unwrap().bound, 1.0);
        assert_eq!(pop(&mut f).unwrap().bound, 2.0);
        assert!(pop(&mut f).is_none());
    }

    #[test]
    fn slots_are_recycled_and_contents_survive_reuse() {
        let mut f = Frontier::new(STRIDE, LIVE_STRIDE);
        f.push_node(node(1.0, 7));
        let a = pop(&mut f).unwrap();
        assert_eq!(a.mask, vec![7u64]);
        // The slab should not grow: the freed slot is reused.
        f.push_node(node(2.0, 9));
        assert_eq!(f.meta.len(), 1);
        let b = pop(&mut f).unwrap();
        assert_eq!(b.mask, vec![9u64]);
        assert_eq!(b.bound, 2.0);
    }

    #[test]
    fn min_key_round_trips_through_the_slab() {
        let mut f = Frontier::new(STRIDE, LIVE_STRIDE);
        let mask = vec![0b1100u64];
        let live = vec![0b101u64, 1 << 63];
        let min_mask = vec![0b0011u64];
        f.stage(
            &mask,
            &live,
            Some((PrimitiveId(3), &min_mask[..])),
            Cost(1.5),
            2.5,
            2,
            None,
        );
        f.commit_staged();
        let n = pop(&mut f).unwrap();
        assert_eq!(n.min_prim, Some(PrimitiveId(3)));
        assert_eq!(n.min_mask, min_mask);
        assert_eq!(n.mask, mask);
        assert_eq!(n.live, live);
        assert_eq!(n.cost, Cost(1.5));
        assert_eq!(n.edges, 2);
    }

    /// Exhaustively checks `mask_le` against the `Vec<Edge>` comparison it
    /// replaces, over every pair of equal-cardinality edge sets of a
    /// 4-vertex graph (the decomposer compares same-primitive images, which
    /// always have equal edge counts).
    #[test]
    fn mask_le_matches_edge_vec_ordering() {
        let n = 4usize;
        let valid: Vec<usize> = (0..n * n).filter(|i| i / n != i % n).collect();
        // All 3-edge subsets of the 12 valid edge slots.
        let mut sets: Vec<(u64, Vec<Edge>)> = Vec::new();
        for a in 0..valid.len() {
            for b in (a + 1)..valid.len() {
                for c in (b + 1)..valid.len() {
                    let bits = [valid[a], valid[b], valid[c]];
                    let mask = bits.iter().fold(0u64, |m, &i| m | (1 << i));
                    let mut g = DiGraph::new(n);
                    for &i in &bits {
                        g.add_edge(NodeId(i / n), NodeId(i % n));
                    }
                    sets.push((mask, g.edge_vec()));
                }
            }
        }
        for (ma, ea) in &sets {
            for (mb, eb) in &sets {
                assert_eq!(
                    mask_le(&[*ma], &[*mb]),
                    ea <= eb,
                    "mask_le diverged on {ea:?} vs {eb:?}"
                );
            }
        }
    }

    #[test]
    fn ones_lists_set_bits_in_ascending_order() {
        assert_eq!(
            ones(&[0b1010, 0, 1 << 63 | 1]).collect::<Vec<_>>(),
            vec![1, 3, 128, 191]
        );
        assert_eq!(ones(&[]).count(), 0);
    }

    #[test]
    fn path_to_vec_is_root_to_leaf() {
        use noc_graph::iso::Mapping;
        let m = |label: &str| Matching {
            primitive: PrimitiveId(0),
            label: label.to_string(),
            mapping: Mapping::new(vec![NodeId(0)]),
            cost: Cost(1.0),
        };
        let root = Rc::new(PathLink {
            matching: m("a"),
            parent: None,
        });
        let leaf = Some(Rc::new(PathLink {
            matching: m("b"),
            parent: Some(root),
        }));
        let labels: Vec<String> = path_to_vec(&leaf).into_iter().map(|m| m.label).collect();
        assert_eq!(labels, vec!["a", "b"]);
        assert!(path_to_vec(&None).is_empty());
    }
}
