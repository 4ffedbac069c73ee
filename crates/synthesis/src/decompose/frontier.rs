//! The search's depth-first stack: one reused frame per depth of the
//! current path.
//!
//! The engine is an *iterative* tree search. Frame `d` holds the node at
//! depth `d` of the path being explored, plus the children its expansion
//! kept, in generated order, and a cursor over them. Descending into the
//! next child derives the child's rows into frame `d + 1`; a frame whose
//! cursor is used up pops. So the search visits nodes in exactly the
//! preorder of the classic recursive branch-and-bound (and prints the
//! paper's decompositions), and the path of the node at depth `d` is the
//! steps of frames `1..=d`.
//!
//! A node is *not* a materialized graph: it is an edge bitmask (bit
//! `src * n + dst`, the same layout as [`noc_graph::DiGraph::edge_bitset`]
//! and the match-cache keys), the live root-image row (bit *i* set iff
//! root image *i* still fits in the mask, see `LiveIndex` in the parent
//! module) plus scalars. A kept child is scalars only: its rows are
//! written once, when the search descends into it, and never for a child
//! the bound prunes first. Frames and their buffers are reused, so a
//! search allocates only when it first reaches a depth or a wider
//! fan-out. The engine builds a `DiGraph` from a mask only where one is
//! read — at a leaf, and for a primitive whose root enumeration was
//! truncated.

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

/// A child an expansion kept: the step to it and its scalars.
#[derive(Debug)]
pub(crate) struct Child {
    pub(crate) step: Step,
    /// Cost accumulated along the child's path (Σ matching costs).
    pub(crate) cost: Cost,
    /// Optimistic completion bound (`cost` plus the admissible remaining
    /// bound).
    pub(crate) bound: f64,
    /// Popcount of the child's mask.
    pub(crate) edges: u32,
}

/// The node at one depth of the current path and its kept children.
#[derive(Debug, Default)]
pub(crate) struct Frame {
    /// Uncovered edges as a bitmask (bit `src * n + dst`).
    pub(crate) mask: Vec<u64>,
    /// Live root-image row: bit *i* is set iff every edge root image *i*
    /// covers survives in `mask`.
    pub(crate) live: Vec<u64>,
    /// Cost accumulated along the path (Σ matching costs).
    pub(crate) cost: Cost,
    /// Popcount of `mask`.
    pub(crate) edges: u32,
    /// The matching that produced the node (`None` at the root).
    pub(crate) step: Option<Step>,
    /// The children the node's expansion kept, in generated order.
    pub(crate) children: Vec<Child>,
    /// Index of the next child to descend into.
    pub(crate) next: usize,
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
