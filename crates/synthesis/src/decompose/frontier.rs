//! The explicit search frontier: an arena of open search-tree nodes, the
//! depth-first stack over it, and the path stack of the node being
//! expanded.
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
//! the live rows in a second, and the scalars ([`NodeMeta`]: cost, bound,
//! edge count, depth and the node's own [`Step`]) in a parallel `Vec`.
//! Freed slots are recycled through a free list, so a depth-first search
//! reuses a working set of O(depth × branching) slots with zero
//! steady-state allocation. Children are *staged* into the slab while a
//! node expands and committed in one batch.
//!
//! Popping copies the node out into a caller-owned [`PoppedNode`] (the slab
//! slot is recycled immediately). No node carries a graph: the engine
//! builds a `DiGraph` from the mask only where one is read — at a leaf, and
//! for a primitive whose root enumeration was truncated.
//!
//! # The path stack
//!
//! A node does not hold its path, only its depth and the [`Step`] that
//! produced it. Popping cuts the caller's path stack back to the node's
//! parent's depth and pushes the node's step. That is exact because the
//! order is depth-first: every node popped since the parent was expanded
//! lies in the parent's subtree, at least as deep as the node, so it only
//! rewrote steps past the parent's path. The engine builds the
//! `Matching`s (label, mapping) from the stack only when a leaf becomes
//! the incumbent.

use noc_primitives::PrimitiveId;

use super::cache::ImageList;
use crate::cost::Cost;

/// One matching on a search path: the primitive, the image's index in its
/// list and the matching's cost.
#[derive(Debug, Clone)]
pub(crate) struct Step {
    pub(crate) primitive: PrimitiveId,
    /// Index of the image in `list`, or in the primitive's stored root
    /// list when `list` is `None`.
    pub(crate) image: usize,
    /// The matching's cost contribution (Equation 5).
    pub(crate) cost: Cost,
    /// The per-node enumeration `image` indexes, for a primitive whose root
    /// enumeration was truncated.
    pub(crate) list: Option<ImageList>,
}

/// Scalar metadata of an arena slot (the masks live in the flat rows).
#[derive(Debug, Default)]
pub(crate) struct NodeMeta {
    /// Cost accumulated along the path (Σ matching costs).
    pub(crate) cost: Cost,
    /// Optimistic completion bound (`cost` plus the admissible remaining
    /// bound).
    pub(crate) bound: f64,
    /// Popcount of the node's mask.
    pub(crate) edges: u32,
    /// Matchings on the node's path (0 at the root).
    pub(crate) depth: u32,
    /// The matching that produced the node (`None` at the root).
    pub(crate) step: Option<Step>,
}

/// A search-tree node copied out of the arena: the unit the engine expands.
/// Its path is the caller's path stack after the pop.
#[derive(Debug)]
pub(crate) struct PoppedNode {
    /// Uncovered edges as a bitmask (bit `src * n + dst`).
    pub(crate) mask: Vec<u64>,
    /// Live root-image row: bit *i* is set iff every edge root image *i*
    /// covers survives in `mask`.
    pub(crate) live: Vec<u64>,
    /// Cost accumulated along the path (Σ matching costs).
    pub(crate) cost: Cost,
    /// Optimistic completion bound (`cost` plus the admissible remaining
    /// bound).
    pub(crate) bound: f64,
    /// Popcount of `mask`.
    pub(crate) edges: u32,
    /// Matchings on the node's path.
    pub(crate) depth: u32,
}

impl PoppedNode {
    /// An all-zero node with `stride`-word masks and a `live_stride`-word
    /// live row, ready for `pop_into`.
    pub(crate) fn empty(stride: usize, live_stride: usize) -> Self {
        PoppedNode {
            mask: vec![0; stride],
            live: vec![0; live_stride],
            cost: Cost(0.0),
            bound: 0.0,
            edges: 0,
            depth: 0,
        }
    }
}

/// Is every bit of `sub` also set in `sup`? (Edge-set inclusion: "this
/// image survives in the remaining graph", the invariant the live rows
/// carry; debug builds check the rows against it on every expansion.)
pub(crate) fn mask_subset(sub: &[u64], sup: &[u64]) -> bool {
    sub.iter().zip(sup).all(|(&a, &b)| a & !b == 0)
}

/// The indices of the set bits of `words`, ascending.
pub(crate) fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    ones_from(words, 0)
}

/// The indices of the set bits of `words` at or after bit `start`,
/// ascending (none when `start` is past the end).
pub(crate) fn ones_from(words: &[u64], start: usize) -> impl Iterator<Item = usize> + '_ {
    let first = start / 64;
    words
        .iter()
        .enumerate()
        .skip(first)
        .flat_map(move |(w, &word)| {
            let mut bits = if w == first {
                word & (u64::MAX << (start % 64))
            } else {
                word
            };
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + b
                })
            })
        })
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
        self.meta.push(NodeMeta::default());
        slot
    }

    /// Stages a node (a child of the node being expanded, or the root);
    /// staged nodes enter the open list together on
    /// [`Frontier::commit_staged`].
    pub(crate) fn stage(&mut self, mask: &[u64], live: &[u64], meta: NodeMeta) {
        debug_assert_eq!(mask.len(), self.stride);
        let slot = self.alloc();
        let base = slot as usize * self.stride;
        self.masks[base..base + self.stride].copy_from_slice(mask);
        self.live_row(slot).copy_from_slice(live);
        self.meta[slot as usize] = meta;
        self.staged.push(slot);
    }

    /// Commits the staged children so that they pop in their generated
    /// (canonical) order.
    pub(crate) fn commit_staged(&mut self) {
        self.open.extend(self.staged.drain(..).rev());
    }

    /// Pops the next node into `out`, recycling its slot, and makes `path`
    /// the node's path: cut back to its parent's depth, plus its own step.
    /// Returns whether a node was available.
    pub(crate) fn pop_into(&mut self, out: &mut PoppedNode, path: &mut Vec<Step>) -> bool {
        let Some(slot) = self.open.pop() else {
            return false;
        };
        let base = slot as usize * self.stride;
        out.mask.clear();
        out.mask
            .extend_from_slice(&self.masks[base..base + self.stride]);
        out.live.clear();
        out.live.extend_from_slice(self.live_row(slot));
        let meta = &mut self.meta[slot as usize];
        out.cost = meta.cost;
        out.bound = meta.bound;
        out.edges = meta.edges;
        out.depth = meta.depth;
        path.truncate(meta.depth.saturating_sub(1) as usize);
        path.extend(meta.step.take());
        debug_assert_eq!(path.len(), meta.depth as usize, "path stack out of step");
        self.free.push(slot);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use noc_graph::{iso::Mapping, Edge, NodeId};

    const STRIDE: usize = 1;
    const LIVE_STRIDE: usize = 2;

    fn stage(f: &mut Frontier, bound: f64, edges: u32) {
        let mask = vec![edges as u64; STRIDE];
        let live = vec![0; LIVE_STRIDE];
        f.stage(
            &mask,
            &live,
            NodeMeta {
                bound,
                edges,
                ..NodeMeta::default()
            },
        );
    }

    fn step(primitive: usize, image: usize) -> Step {
        Step {
            primitive: PrimitiveId(primitive),
            image,
            cost: Cost(1.0),
            list: None,
        }
    }

    /// Stages one child at `depth` reached by `step`.
    fn stage_step(f: &mut Frontier, depth: u32, step: Step) {
        f.stage(
            &[0; STRIDE],
            &[0; LIVE_STRIDE],
            NodeMeta {
                depth,
                step: Some(step),
                ..NodeMeta::default()
            },
        );
    }

    fn pop(f: &mut Frontier) -> Option<PoppedNode> {
        let mut out = PoppedNode::empty(STRIDE, LIVE_STRIDE);
        let mut path = Vec::new();
        f.pop_into(&mut out, &mut path).then_some(out)
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
        stage(&mut f, 1.0, 7);
        f.commit_staged();
        let a = pop(&mut f).unwrap();
        assert_eq!(a.mask, vec![7u64]);
        // The slab should not grow: the freed slot is reused.
        stage(&mut f, 2.0, 9);
        f.commit_staged();
        assert_eq!(f.meta.len(), 1);
        let b = pop(&mut f).unwrap();
        assert_eq!(b.mask, vec![9u64]);
        assert_eq!(b.bound, 2.0);
    }

    #[test]
    fn step_round_trips_through_the_slab() {
        let mut f = Frontier::new(STRIDE, LIVE_STRIDE);
        let mask = vec![0b1100u64];
        let live = vec![0b101u64, 1 << 63];
        let list: ImageList = Arc::new(vec![(
            Mapping::new(vec![NodeId(1), NodeId(0)]),
            vec![Edge::new(NodeId(1), NodeId(0))],
        )]);
        f.stage(
            &mask,
            &live,
            NodeMeta {
                cost: Cost(1.5),
                bound: 2.5,
                edges: 2,
                depth: 1,
                step: Some(Step {
                    primitive: PrimitiveId(3),
                    image: 7,
                    cost: Cost(0.5),
                    list: Some(list.clone()),
                }),
            },
        );
        f.commit_staged();
        let mut n = PoppedNode::empty(STRIDE, LIVE_STRIDE);
        let mut path = Vec::new();
        assert!(f.pop_into(&mut n, &mut path));
        assert_eq!(
            (n.mask, n.live, n.cost, n.bound, n.edges, n.depth),
            (mask, live, Cost(1.5), 2.5, 2, 1)
        );
        let [s] = &path[..] else {
            panic!("one step expected, got {path:?}");
        };
        assert_eq!(
            (s.primitive, s.image, s.cost),
            (PrimitiveId(3), 7, Cost(0.5))
        );
        assert!(Arc::ptr_eq(s.list.as_ref().unwrap(), &list));
        // The slot gave its step away: it holds no reference to the list.
        assert_eq!(Arc::strong_count(&list), 2);
        assert!(f.meta[0].step.is_none());
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
    fn ones_from_skips_the_bits_before_the_start() {
        // Bits 62, 63, 64, 65 and 127 straddle the first word boundary.
        let words = [3 << 62, 1 << 63 | 0b11];
        let from = |start| ones_from(&words, start).collect::<Vec<_>>();
        assert_eq!(from(0), vec![62, 63, 64, 65, 127]);
        assert_eq!(from(63), vec![63, 64, 65, 127]);
        assert_eq!(from(64), vec![64, 65, 127]);
        assert_eq!(from(65), vec![65, 127]);
        assert_eq!(from(66), vec![127]);
        assert_eq!(from(127), vec![127]);
        assert_eq!(from(128), Vec::<usize>::new());
        assert_eq!(from(1000), Vec::<usize>::new());
        assert_eq!(ones_from(&[], 5).count(), 0);
    }

    #[test]
    fn path_stack_is_cut_back_to_the_popped_depth() {
        // Root (no step) → children a, b; a → children c, d; c is a leaf.
        // Preorder: root, a, c, d, b. Each pop leaves its node's path.
        let mut f = Frontier::new(STRIDE, LIVE_STRIDE);
        f.stage(&[0; STRIDE], &[0; LIVE_STRIDE], NodeMeta::default());
        f.commit_staged();
        let mut node = PoppedNode::empty(STRIDE, LIVE_STRIDE);
        let mut path = vec![step(9, 9)]; // stale steps are cut away
        let images = |path: &[Step]| path.iter().map(|s| s.image).collect::<Vec<_>>();

        assert!(f.pop_into(&mut node, &mut path));
        assert_eq!((node.depth, images(&path)), (0, vec![]));
        stage_step(&mut f, 1, step(0, 1)); // a
        stage_step(&mut f, 1, step(1, 2)); // b
        f.commit_staged();

        assert!(f.pop_into(&mut node, &mut path));
        assert_eq!((node.depth, images(&path)), (1, vec![1]));
        stage_step(&mut f, 2, step(0, 3)); // c
        stage_step(&mut f, 2, step(2, 4)); // d
        f.commit_staged();

        assert!(f.pop_into(&mut node, &mut path));
        assert_eq!(images(&path), vec![1, 3]);
        assert!(f.pop_into(&mut node, &mut path));
        assert_eq!(images(&path), vec![1, 4]);
        assert!(f.pop_into(&mut node, &mut path));
        assert_eq!((node.depth, images(&path)), (1, vec![2]));
        assert_eq!(path[0].primitive, PrimitiveId(1));
        assert!(!f.pop_into(&mut node, &mut path));
    }
}
