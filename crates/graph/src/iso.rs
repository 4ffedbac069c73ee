//! VF2-style (sub)graph isomorphism for directed graphs.
//!
//! The DATE'05 decomposition algorithm repeatedly searches the application
//! graph for subgraphs isomorphic to a library *representation graph*
//! (Definition 3 / "matching" in the paper, which cites the VF2 algorithm of
//! Cordella et al. for this step). This module provides:
//!
//! * [`Vf2`] — a configurable matcher with monomorphism or induced
//!   semantics, deterministic enumeration order, optional deadline (the
//!   paper suggests terminating the isomorphism search "after a time-out
//!   period rather than trying all permutations") and match caps.
//! * [`Mapping`] — an injective assignment of pattern vertices to target
//!   vertices.
//! * [`distinct images`](Vf2::distinct_images) — matches deduplicated by
//!   their *image edge set*, which collapses pattern automorphisms (a gossip
//!   pattern `K_4` has 24 automorphisms but only one image per vertex
//!   subset, and the decomposition tree branches on images, not mappings).
//!
//! # Example
//!
//! Find all directed 3-cycles in a complete graph on 4 vertices:
//!
//! ```
//! use noc_graph::{iso::Vf2, DiGraph};
//!
//! let pattern = DiGraph::cycle(3);
//! let target = DiGraph::complete(4);
//! let images = Vf2::new(&pattern, &target).distinct_images();
//! // Each 3-subset of vertices hosts two directed triangles (cw + ccw).
//! assert_eq!(images.matches.len(), 8);
//! assert!(images.complete);
//! ```

use std::collections::BTreeSet;
use std::time::Instant;

use crate::{bitset::BitSet, DiGraph, Edge, NodeId};

/// Matching semantics for the VF2 engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Semantics {
    /// Every pattern edge must exist in the target image; extra target edges
    /// among image vertices are permitted. This is the semantics the
    /// decomposition algorithm needs: un-matched edges simply stay in the
    /// remaining graph.
    #[default]
    Monomorphism,
    /// Pattern edges and non-edges must both be mirrored in the image
    /// (classic induced subgraph isomorphism).
    Induced,
}

/// An injective map from pattern vertices to target vertices.
///
/// `mapping.target_of(u)` is the image of pattern vertex `u`. The paper
/// prints these as `Mapping: (1 1), (2 2), (3 5), (4 6)` — pattern vertex,
/// then image vertex, 1-based; [`Mapping::paper_format`] reproduces that.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Mapping(Vec<NodeId>);

impl Mapping {
    /// Creates a mapping from a dense vector: pattern vertex `i` maps to
    /// `images[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `images` repeats a target vertex (mappings are injective).
    pub fn new(images: Vec<NodeId>) -> Self {
        let unique: BTreeSet<_> = images.iter().collect();
        assert_eq!(unique.len(), images.len(), "mapping must be injective");
        Mapping(images)
    }

    /// The image of pattern vertex `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range for the pattern.
    pub fn target_of(&self, u: NodeId) -> NodeId {
        self.0[u.index()]
    }

    /// Number of pattern vertices mapped.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` for the empty mapping (empty pattern).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates `(pattern vertex, target vertex)` pairs in pattern order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.0.iter().enumerate().map(|(i, &v)| (NodeId(i), v))
    }

    /// The image vertices in pattern-vertex order.
    pub fn images(&self) -> &[NodeId] {
        &self.0
    }

    /// The image of the pattern's edge set under this mapping, sorted.
    ///
    /// Two mappings that differ only by a pattern automorphism produce the
    /// same image edge set; the decomposition deduplicates on this.
    pub fn image_edges(&self, pattern: &DiGraph) -> Vec<Edge> {
        let mut edges: Vec<Edge> = pattern
            .edges()
            .map(|e| Edge::new(self.target_of(e.src), self.target_of(e.dst)))
            .collect();
        edges.sort();
        edges
    }

    /// Formats the mapping the way the paper's tool prints it:
    /// `(1 1), (2 2), (3 5), (4 6)` with 1-based vertex numbers.
    pub fn paper_format(&self) -> String {
        self.0
            .iter()
            .enumerate()
            .map(|(i, v)| format!("({} {})", i + 1, v.index() + 1))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

impl std::fmt::Display for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.paper_format())
    }
}

/// Result of a match enumeration.
///
/// `complete` is `false` when the search stopped early (deadline expired or
/// the match cap was reached), in which case `matches` holds the results
/// found so far. The decomposition layer treats an incomplete enumeration as
/// "no further matchings from this branch", exactly as the paper's time-out
/// suggestion prescribes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchOutcome<T> {
    /// The matches found (deterministic order).
    pub matches: Vec<T>,
    /// `true` iff the search space was exhausted.
    pub complete: bool,
    /// Number of search-tree nodes expanded (a machine-independent cost
    /// metric, useful for the runtime figures).
    pub nodes_expanded: u64,
}

/// A VF2-style matcher from a `pattern` graph into a `target` graph.
///
/// Construction is cheap; each query walks the search tree with
/// most-constrained-first vertex ordering, bitset candidate intersection and
/// unmapped-neighbor-count look-ahead pruning (safe for both semantics).
#[derive(Debug, Clone)]
pub struct Vf2<'a> {
    pattern: &'a DiGraph,
    target: &'a DiGraph,
    semantics: Semantics,
    deadline: Option<Instant>,
    max_matches: Option<usize>,
}

impl<'a> Vf2<'a> {
    /// Creates a matcher with [`Semantics::Monomorphism`] and no limits.
    pub fn new(pattern: &'a DiGraph, target: &'a DiGraph) -> Self {
        Vf2 {
            pattern,
            target,
            semantics: Semantics::Monomorphism,
            deadline: None,
            max_matches: None,
        }
    }

    /// Sets the matching semantics.
    pub fn semantics(mut self, semantics: Semantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// Aborts the search at `deadline`, marking the outcome incomplete.
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Stops after `max` matches, marking the outcome incomplete if more
    /// could exist.
    pub fn max_matches(mut self, max: usize) -> Self {
        self.max_matches = Some(max);
        self
    }

    /// Returns the first match in deterministic order, if any.
    pub fn find_first(&self) -> Option<Mapping> {
        let mut this = self.clone();
        this.max_matches = Some(1);
        this.run().matches.into_iter().next()
    }

    /// Returns `true` if at least one match exists (and the search finished
    /// or found one before any deadline).
    pub fn exists(&self) -> bool {
        self.find_first().is_some()
    }

    /// Enumerates every match (every injective mapping).
    pub fn find_all(&self) -> SearchOutcome<Mapping> {
        self.run()
    }

    /// Enumerates matches deduplicated by image edge set.
    ///
    /// Each distinct image is reported once, represented by the first
    /// mapping the engine's deterministic enumeration would produce for it;
    /// images are sorted by their edge lists so the output order is
    /// canonical.
    ///
    /// When the pattern has no isolated vertices, the search *breaks the
    /// pattern's symmetries up front* (Grochow–Kellis ordering conditions
    /// derived from the automorphism group) so each image is enumerated
    /// exactly once instead of `|Aut(pattern)|` times and deduplicated
    /// after the fact. With a [`max_matches`](Self::max_matches) cap the
    /// cap therefore bounds *images* on this path, rather than raw
    /// mappings — strictly more results for the same budget; truncated
    /// enumerations are marked incomplete either way.
    pub fn distinct_images(&self) -> SearchOutcome<Mapping> {
        let out = self.distinct_image_edges();
        SearchOutcome {
            matches: out.matches.into_iter().map(|(m, _)| m).collect(),
            complete: out.complete,
            nodes_expanded: out.nodes_expanded,
        }
    }

    /// [`distinct_images`](Self::distinct_images) with each mapping's
    /// [`image_edges`](Mapping::image_edges): the sorted edge list the
    /// output is ordered by, so the lists ascend strictly.
    pub fn distinct_image_edges(&self) -> SearchOutcome<(Mapping, Vec<Edge>)> {
        if let Some(sym) = SymmetryBreak::for_pattern(self.pattern, self.deadline) {
            let raw = self.run_inner(Some(&sym));
            let order = matching_order(self.pattern);
            let mut keyed: Vec<(Mapping, Vec<Edge>)> = raw
                .matches
                .into_iter()
                .map(|m| {
                    let canon = sym.canonicalize(m.images(), &order);
                    let edges = canon.image_edges(self.pattern);
                    (canon, edges)
                })
                .collect();
            keyed.sort_by(|a, b| a.1.cmp(&b.1));
            return SearchOutcome {
                matches: keyed,
                complete: raw.complete,
                nodes_expanded: raw.nodes_expanded,
            };
        }
        // Fallback (isolated pattern vertices, oversized patterns, or a
        // deadline during automorphism discovery): enumerate everything and
        // deduplicate. With isolated vertices an image edge set does not
        // pin the vertex image, so automorphism classes under-count and
        // only full dedup is exact.
        let raw = self.run_inner(None);
        let mut by_image: std::collections::BTreeMap<Vec<Edge>, Mapping> =
            std::collections::BTreeMap::new();
        for m in raw.matches {
            let key = m.image_edges(self.pattern);
            by_image.entry(key).or_insert(m);
        }
        SearchOutcome {
            matches: by_image.into_iter().map(|(edges, m)| (m, edges)).collect(),
            complete: raw.complete,
            nodes_expanded: raw.nodes_expanded,
        }
    }

    fn run(&self) -> SearchOutcome<Mapping> {
        self.run_inner(None)
    }

    fn run_inner(&self, sym: Option<&SymmetryBreak>) -> SearchOutcome<Mapping> {
        let np = self.pattern.node_count();
        let nt = self.target.node_count();
        if np == 0 {
            return SearchOutcome {
                matches: vec![Mapping(Vec::new())],
                complete: true,
                nodes_expanded: 0,
            };
        }
        if np > nt {
            return SearchOutcome {
                matches: Vec::new(),
                complete: true,
                nodes_expanded: 0,
            };
        }
        let order = matching_order(self.pattern);
        // Position of each pattern vertex in the matching order, for
        // splitting its neighbors into already-mapped vs not-yet-mapped.
        let mut pos = vec![0usize; np];
        for (d, &u) in order.iter().enumerate() {
            pos[u.index()] = d;
        }
        let mapped_succs: Vec<Vec<usize>> = order
            .iter()
            .enumerate()
            .map(|(d, &u)| {
                self.pattern
                    .successors(u)
                    .map(NodeId::index)
                    .filter(|&w| pos[w] < d)
                    .collect()
            })
            .collect();
        let mapped_preds: Vec<Vec<usize>> = order
            .iter()
            .enumerate()
            .map(|(d, &u)| {
                self.pattern
                    .predecessors(u)
                    .map(NodeId::index)
                    .filter(|&w| pos[w] < d)
                    .collect()
            })
            .collect();
        // Static degree-compatibility candidate sets: pattern vertex u can
        // only map onto targets with at least its in/out degree (the same
        // test the per-candidate feasibility check used to repeat).
        let static_cands: Vec<BitSet> = (0..np)
            .map(|u| {
                let u = NodeId(u);
                let mut s = BitSet::new(nt);
                for v in 0..nt {
                    let v_id = NodeId(v);
                    if self.target.out_degree(v_id) >= self.pattern.out_degree(u)
                        && self.target.in_degree(v_id) >= self.pattern.in_degree(u)
                    {
                        s.insert(v);
                    }
                }
                s
            })
            .collect();
        let mut state = State {
            pattern: self.pattern,
            target: self.target,
            semantics: self.semantics,
            order,
            mapped_succs,
            mapped_preds,
            static_cands,
            scratch: (0..np).map(|_| BitSet::new(nt)).collect(),
            core_p: vec![None; np],
            unmapped_p: (0..np).collect(),
            unmapped_t: (0..nt).collect(),
            sym,
            matches: Vec::new(),
            nodes_expanded: 0,
            deadline: self.deadline,
            max_matches: self.max_matches,
            stopped: false,
        };
        state.search(0);
        SearchOutcome {
            complete: !state.stopped,
            matches: state.matches,
            nodes_expanded: state.nodes_expanded,
        }
    }
}

/// Grochow–Kellis symmetry breaking: ordering conditions on the images of
/// pattern vertices such that, of the `|Aut(pattern)|` mappings producing
/// any one image, exactly one satisfies every condition.
///
/// Built by repeatedly picking a vertex `u` with a nontrivial orbit under
/// the (progressively stabilized) automorphism group, emitting
/// `m(u) < m(w)` for every other orbit member `w`, and restricting the
/// group to the stabilizer of `u`. See `DESIGN.md` for the exactness
/// argument.
struct SymmetryBreak {
    /// Every automorphism of the pattern (`a[u]` = image of vertex `u`).
    auts: Vec<Vec<usize>>,
    /// `smaller[u]` lists `w` with condition `m(u) < m(w)`.
    smaller: Vec<Vec<usize>>,
    /// `greater[u]` lists `w` with condition `m(w) < m(u)`.
    greater: Vec<Vec<usize>>,
}

/// Patterns above this order skip symmetry breaking: enumerating the
/// automorphism group of a large graph could dwarf the match search it is
/// meant to accelerate (library primitives have ≤ 8 vertices).
const MAX_SYMMETRY_PATTERN: usize = 12;

impl SymmetryBreak {
    /// Derives the ordering conditions for `pattern`, or `None` when the
    /// exactness argument does not apply (isolated vertices), the pattern
    /// is too large to bother, or automorphism discovery hit `deadline`.
    fn for_pattern(pattern: &DiGraph, deadline: Option<Instant>) -> Option<Self> {
        let np = pattern.node_count();
        if np == 0 || np > MAX_SYMMETRY_PATTERN {
            return None;
        }
        if (0..np).any(|u| pattern.degree(NodeId(u)) == 0) {
            return None;
        }
        // Automorphisms = self-monomorphisms: an injective edge-preserving
        // self-map of a finite graph is onto its own edge set, hence an
        // edge- and non-edge-preserving bijection.
        let mut matcher = Vf2::new(pattern, pattern);
        if let Some(d) = deadline {
            matcher = matcher.deadline(d);
        }
        let out = matcher.find_all();
        if !out.complete {
            return None;
        }
        let auts: Vec<Vec<usize>> = out
            .matches
            .iter()
            .map(|m| m.images().iter().map(|v| v.index()).collect())
            .collect();
        let mut smaller = vec![Vec::new(); np];
        let mut greater = vec![Vec::new(); np];
        let mut group = auts.clone();
        while group.len() > 1 {
            // Smallest-index vertex moved by the current (stabilized) group.
            let Some(u) = (0..np).find(|&u| group.iter().any(|a| a[u] != u)) else {
                break;
            };
            let orbit: BTreeSet<usize> = group.iter().map(|a| a[u]).collect();
            for &w in orbit.iter().filter(|&&w| w != u) {
                smaller[u].push(w);
                greater[w].push(u);
            }
            group.retain(|a| a[u] == u);
        }
        Some(SymmetryBreak {
            auts,
            smaller,
            greater,
        })
    }

    /// Replaces a symmetry-broken representative (`images`, pattern vertex
    /// `u` mapped to `images[u]`) with the mapping the full (non-broken)
    /// enumeration would have reported first for the same image: the
    /// minimum over the automorphism class of the assignment tuple in
    /// matching order — DFS with ascending candidates yields class members
    /// in exactly that order. Tuples are compared in place; only the
    /// winner is built.
    fn canonicalize(&self, images: &[NodeId], order: &[NodeId]) -> Mapping {
        // (m ∘ a)(u) = m(a(u)). Distinct automorphisms give distinct
        // tuples (m is injective), so the minimum is unique.
        let mut best = &self.auts[0];
        for a in &self.auts[1..] {
            for &u in order {
                let (x, y) = (images[a[u.index()]], images[best[u.index()]]);
                if x != y {
                    if x < y {
                        best = a;
                    }
                    break;
                }
            }
        }
        Mapping(best.iter().map(|&w| images[w]).collect())
    }
}

/// Whole-graph isomorphism test: same order, same size, and an induced
/// bijection exists.
///
/// # Examples
///
/// ```
/// use noc_graph::{iso, DiGraph};
/// let a = DiGraph::cycle(4);
/// let b = DiGraph::from_edges(4, [(1, 3), (3, 2), (2, 0), (0, 1)]).unwrap();
/// assert!(iso::isomorphic(&a, &b));
/// assert!(!iso::isomorphic(&a, &DiGraph::path(4)));
/// ```
pub fn isomorphic(g: &DiGraph, h: &DiGraph) -> bool {
    if g.node_count() != h.node_count() || g.edge_count() != h.edge_count() {
        return false;
    }
    let mut gd: Vec<(usize, usize)> = g
        .nodes()
        .map(|v| (g.in_degree(v), g.out_degree(v)))
        .collect();
    let mut hd: Vec<(usize, usize)> = h
        .nodes()
        .map(|v| (h.in_degree(v), h.out_degree(v)))
        .collect();
    gd.sort_unstable();
    hd.sort_unstable();
    if gd != hd {
        return false;
    }
    Vf2::new(g, h)
        .semantics(Semantics::Induced)
        .find_first()
        .is_some()
}

/// Computes a static most-constrained-first vertex ordering of the pattern:
/// start from the maximum-degree vertex, then repeatedly pick the unordered
/// vertex with the most already-ordered neighbors (ties: higher degree, then
/// smaller index). Connected patterns are matched without ever guessing a
/// free vertex, which keeps the search tree narrow.
fn matching_order(pattern: &DiGraph) -> Vec<NodeId> {
    let n = pattern.node_count();
    let mut ordered = vec![false; n];
    let mut order = Vec::with_capacity(n);
    // Neighbor sets ignoring direction.
    let nbrs: Vec<Vec<usize>> = (0..n)
        .map(|u| {
            let mut s: BTreeSet<usize> = pattern.successors(NodeId(u)).map(NodeId::index).collect();
            s.extend(pattern.predecessors(NodeId(u)).map(NodeId::index));
            s.into_iter().collect()
        })
        .collect();
    for _ in 0..n {
        let mut best: Option<(usize, usize, usize)> = None; // (ordered_nbrs, degree, !index)
        for u in 0..n {
            if ordered[u] {
                continue;
            }
            let on = nbrs[u].iter().filter(|&&w| ordered[w]).count();
            let deg = nbrs[u].len();
            let cand = (on, deg, usize::MAX - u);
            if best.is_none_or(|b| cand > b) {
                best = Some(cand);
            }
        }
        let (_, _, inv) = best.expect("at least one unordered vertex");
        let u = usize::MAX - inv;
        ordered[u] = true;
        order.push(NodeId(u));
    }
    order
}

struct State<'a> {
    pattern: &'a DiGraph,
    target: &'a DiGraph,
    semantics: Semantics,
    order: Vec<NodeId>,
    /// Per depth: pattern successors/predecessors of `order[d]` that are
    /// already mapped when depth `d` is reached (fixed by the static
    /// matching order, so computed once).
    mapped_succs: Vec<Vec<usize>>,
    mapped_preds: Vec<Vec<usize>>,
    /// Per pattern vertex: targets with compatible in/out degrees.
    static_cands: Vec<BitSet>,
    /// Per depth: reusable candidate buffer (no per-node allocation).
    scratch: Vec<BitSet>,
    core_p: Vec<Option<NodeId>>,
    unmapped_p: BitSet,
    unmapped_t: BitSet,
    sym: Option<&'a SymmetryBreak>,
    matches: Vec<Mapping>,
    nodes_expanded: u64,
    deadline: Option<Instant>,
    max_matches: Option<usize>,
    stopped: bool,
}

impl State<'_> {
    fn search(&mut self, depth: usize) {
        if self.stopped {
            return;
        }
        if depth == self.order.len() {
            let images: Vec<NodeId> = self.core_p.iter().map(|m| m.expect("complete")).collect();
            self.matches.push(Mapping(images));
            if let Some(cap) = self.max_matches {
                if self.matches.len() >= cap {
                    self.stopped = true;
                }
            }
            return;
        }
        self.nodes_expanded += 1;
        if self.nodes_expanded.is_multiple_of(256) {
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    self.stopped = true;
                    return;
                }
            }
        }

        let u = self.order[depth];
        self.fill_candidates(u, depth);
        // Walk the candidate buffer with a cursor instead of materializing
        // a vector: deeper levels use their own scratch rows, so the
        // buffer is stable across the recursive calls.
        let mut cursor = 0usize;
        while let Some(v) = self.next_candidate(depth, cursor) {
            cursor = v + 1;
            if self.stopped {
                return;
            }
            let v = NodeId(v);
            if !self.symmetry_ok(u, v) {
                continue;
            }
            if !self.feasible(u, v) {
                continue;
            }
            self.core_p[u.index()] = Some(v);
            self.unmapped_p.remove(u.index());
            self.unmapped_t.remove(v.index());
            self.search(depth + 1);
            self.core_p[u.index()] = None;
            self.unmapped_p.insert(u.index());
            self.unmapped_t.insert(v.index());
        }
    }

    /// Computes the candidate targets for pattern vertex `u` into the
    /// depth's scratch row: unmapped targets with compatible degrees,
    /// intersected word-parallel with the adjacency rows dictated by `u`'s
    /// already-mapped pattern neighbors (`u -> w` mapped to `f(w)` forces
    /// `v ∈ pred(f(w))`, `w -> u` forces `v ∈ succ(f(w))`).
    fn fill_candidates(&mut self, u: NodeId, depth: usize) {
        let cands = &mut self.scratch[depth];
        cands.copy_from(&self.unmapped_t);
        cands.intersect_with(&self.static_cands[u.index()]);
        for &w in &self.mapped_succs[depth] {
            let fw = self.core_p[w].expect("neighbor mapped at this depth");
            cands.intersect_with(self.target.pred_set(fw));
        }
        for &w in &self.mapped_preds[depth] {
            let fw = self.core_p[w].expect("neighbor mapped at this depth");
            cands.intersect_with(self.target.succ_set(fw));
        }
    }

    /// First candidate at index `>= cursor` in the depth's scratch row.
    fn next_candidate(&self, depth: usize, cursor: usize) -> Option<usize> {
        let words = self.scratch[depth].words();
        let mut w = cursor / 64;
        if w >= words.len() {
            return None;
        }
        let mut bits = words[w] & (u64::MAX << (cursor % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            if w >= words.len() {
                return None;
            }
            bits = words[w];
        }
    }

    /// Checks the symmetry-breaking ordering conditions that involve `u`
    /// and an already-mapped vertex (each condition is fully enforced once
    /// both endpoints are mapped, so checking at assignment time covers
    /// all of them).
    fn symmetry_ok(&self, u: NodeId, v: NodeId) -> bool {
        let Some(sym) = self.sym else {
            return true;
        };
        for &w in &sym.smaller[u.index()] {
            if let Some(fw) = self.core_p[w] {
                if v >= fw {
                    return false;
                }
            }
        }
        for &w in &sym.greater[u.index()] {
            if let Some(fw) = self.core_p[w] {
                if v <= fw {
                    return false;
                }
            }
        }
        true
    }

    fn feasible(&self, u: NodeId, v: NodeId) -> bool {
        // Degree compatibility is pre-filtered by the static candidate
        // sets; here only the look-ahead on unmapped neighbors remains
        // (safe for both semantics).
        let p_succ_unmapped = self.pattern.succ_set(u).intersection_len(&self.unmapped_p);
        let t_succ_unmapped = self.target.succ_set(v).intersection_len(&self.unmapped_t);
        if p_succ_unmapped > t_succ_unmapped {
            return false;
        }
        let p_pred_unmapped = self.pattern.pred_set(u).intersection_len(&self.unmapped_p);
        let t_pred_unmapped = self.target.pred_set(v).intersection_len(&self.unmapped_t);
        if p_pred_unmapped > t_pred_unmapped {
            return false;
        }
        if self.semantics == Semantics::Induced {
            // Mapped pattern vertices must mirror non-adjacency too. The
            // adjacency direction itself is enforced by candidate filtering.
            for (w, fw) in self
                .core_p
                .iter()
                .enumerate()
                .filter_map(|(w, m)| m.map(|fw| (NodeId(w), fw)))
            {
                if !self.pattern.has_edge(u, w) && self.target.has_edge(v, fw) {
                    return false;
                }
                if !self.pattern.has_edge(w, u) && self.target.has_edge(fw, v) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn empty_pattern_yields_single_empty_match() {
        let p = DiGraph::new(0);
        let t = DiGraph::complete(3);
        let out = Vf2::new(&p, &t).find_all();
        assert_eq!(out.matches.len(), 1);
        assert!(out.matches[0].is_empty());
        assert!(out.complete);
    }

    #[test]
    fn pattern_larger_than_target_has_no_match() {
        let p = DiGraph::complete(5);
        let t = DiGraph::complete(4);
        assert!(!Vf2::new(&p, &t).exists());
    }

    #[test]
    fn identity_match_on_same_graph() {
        let g = DiGraph::cycle(5);
        let out = Vf2::new(&g, &g).find_all();
        // A directed 5-cycle has exactly 5 automorphisms (rotations).
        assert_eq!(out.matches.len(), 5);
        assert!(out.complete);
        for m in &out.matches {
            for e in g.edges() {
                assert!(g.has_edge(m.target_of(e.src), m.target_of(e.dst)));
            }
        }
    }

    #[test]
    fn k4_in_k4_has_24_mappings_one_image() {
        let p = DiGraph::complete(4);
        let out = Vf2::new(&p, &p).find_all();
        assert_eq!(out.matches.len(), 24);
        let distinct = Vf2::new(&p, &p).distinct_images();
        assert_eq!(distinct.matches.len(), 1);
    }

    #[test]
    fn cycle4_images_in_k4() {
        // K4 contains directed 4-cycles on its single 4-subset: 4!/4 = 6
        // cyclic orders, i.e. 6 distinct edge-set images... but opposite
        // orientations have distinct edge sets, so all 6 are distinct.
        let p = DiGraph::cycle(4);
        let t = DiGraph::complete(4);
        let out = Vf2::new(&p, &t).find_all();
        assert_eq!(out.matches.len(), 24); // 6 images x 4 rotations
        let distinct = Vf2::new(&p, &t).distinct_images();
        assert_eq!(distinct.matches.len(), 6);
    }

    #[test]
    fn star_matches_anchor_on_high_out_degree() {
        // Pattern: broadcast 0 -> {1, 2}. Target: vertex 3 broadcasts to 0, 1, 2.
        let p = DiGraph::out_star(3);
        let t = DiGraph::from_edges(4, [(3, 0), (3, 1), (3, 2)]).unwrap();
        let out = Vf2::new(&p, &t).find_all();
        // Anchor must be 3; leaves are any ordered pair from {0,1,2}: 6.
        assert_eq!(out.matches.len(), 6);
        for m in &out.matches {
            assert_eq!(m.target_of(NodeId(0)), NodeId(3));
        }
        // Distinct images: choose 2 of 3 leaves = 3.
        assert_eq!(Vf2::new(&p, &t).distinct_images().matches.len(), 3);
    }

    #[test]
    fn monomorphism_vs_induced() {
        // Pattern path 0->1->2 inside K3: monomorphism succeeds, induced
        // fails (K3 has the extra edges).
        let p = DiGraph::path(3);
        let t = DiGraph::complete(3);
        assert!(Vf2::new(&p, &t).exists());
        assert!(!Vf2::new(&p, &t).semantics(Semantics::Induced).exists());
    }

    #[test]
    fn induced_matches_exact_structure() {
        let p = DiGraph::path(3);
        let mut t = DiGraph::new(5);
        t.add_edge(NodeId(4), NodeId(2));
        t.add_edge(NodeId(2), NodeId(0));
        let out = Vf2::new(&p, &t).semantics(Semantics::Induced).find_all();
        assert_eq!(out.matches.len(), 1);
        assert_eq!(out.matches[0].images(), &[NodeId(4), NodeId(2), NodeId(0)]);
    }

    #[test]
    fn no_match_when_direction_wrong() {
        let p = DiGraph::path(2); // 0 -> 1
        let t = DiGraph::from_edges(2, [(1, 0)]).unwrap();
        let out = Vf2::new(&p, &t).find_all();
        // 0->1 maps onto 1->0 with mapping (0->1, 1->0); that IS a match.
        assert_eq!(out.matches.len(), 1);
        // But a 2-cycle pattern cannot match a single edge.
        let p2 = DiGraph::from_edges(2, [(0, 1), (1, 0)]).unwrap();
        assert!(!Vf2::new(&p2, &t).exists());
    }

    #[test]
    fn max_matches_caps_and_marks_incomplete() {
        let p = DiGraph::cycle(3);
        let t = DiGraph::complete(5);
        let out = Vf2::new(&p, &t).max_matches(4).find_all();
        assert_eq!(out.matches.len(), 4);
        assert!(!out.complete);
    }

    #[test]
    fn deadline_in_past_stops_quickly() {
        let p = DiGraph::cycle(4);
        let t = DiGraph::complete(12);
        let out = Vf2::new(&p, &t)
            .deadline(Instant::now() - Duration::from_millis(1))
            .find_all();
        assert!(!out.complete);
    }

    #[test]
    fn gossip_columns_found_in_disjoint_union() {
        // Two disjoint K4 gossip cliques inside an 8-vertex graph.
        let mut t = DiGraph::new(8);
        for base in [0usize, 4] {
            for i in 0..4 {
                for j in 0..4 {
                    if i != j {
                        t.add_edge(NodeId(base + i), NodeId(base + j));
                    }
                }
            }
        }
        let p = DiGraph::complete(4);
        let distinct = Vf2::new(&p, &t).distinct_images();
        assert_eq!(distinct.matches.len(), 2);
        let first = &distinct.matches[0];
        let verts: BTreeSet<usize> = first.images().iter().map(|v| v.index()).collect();
        assert_eq!(verts, BTreeSet::from([0, 1, 2, 3]));
    }

    #[test]
    fn isomorphic_detects_relabeled_cycle() {
        let a = DiGraph::cycle(6);
        let b = DiGraph::from_edges(6, [(2, 4), (4, 0), (0, 5), (5, 3), (3, 1), (1, 2)]).unwrap();
        assert!(isomorphic(&a, &b));
    }

    #[test]
    fn isomorphic_rejects_different_structures() {
        assert!(!isomorphic(&DiGraph::cycle(6), &DiGraph::path(6)));
        assert!(!isomorphic(&DiGraph::cycle(4), &DiGraph::cycle(5)));
        // Same degree sequence, different structure: two 3-cycles vs one
        // 6-cycle.
        let mut two_tri = DiGraph::new(6);
        for (s, d) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            two_tri.add_edge(NodeId(s), NodeId(d));
        }
        assert!(!isomorphic(&DiGraph::cycle(6), &two_tri));
    }

    #[test]
    fn mapping_paper_format_is_one_based() {
        let m = Mapping::new(vec![NodeId(0), NodeId(4), NodeId(5)]);
        assert_eq!(m.paper_format(), "(1 1), (2 5), (3 6)");
        assert_eq!(m.to_string(), "(1 1), (2 5), (3 6)");
    }

    #[test]
    #[should_panic(expected = "injective")]
    fn mapping_rejects_duplicates() {
        Mapping::new(vec![NodeId(1), NodeId(1)]);
    }

    #[test]
    fn image_edges_are_sorted_and_complete() {
        let p = DiGraph::cycle(3);
        let t = DiGraph::complete(4);
        let m = Vf2::new(&p, &t).find_first().unwrap();
        let edges = m.image_edges(&p);
        assert_eq!(edges.len(), 3);
        let mut sorted = edges.clone();
        sorted.sort();
        assert_eq!(edges, sorted);
    }

    #[test]
    fn deterministic_enumeration_order() {
        let p = DiGraph::cycle(3);
        let t = DiGraph::complete(5);
        let a = Vf2::new(&p, &t).find_all();
        let b = Vf2::new(&p, &t).find_all();
        assert_eq!(a.matches, b.matches);
    }

    #[test]
    fn disconnected_pattern_matches_components_independently() {
        // Pattern: two disjoint edges 0->1, 2->3.
        let p = DiGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let t = DiGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let out = Vf2::new(&p, &t).find_all();
        // Either component maps to either edge: 2 ways.
        assert_eq!(out.matches.len(), 2);
    }

    #[test]
    fn nodes_expanded_is_reported() {
        let p = DiGraph::cycle(3);
        let t = DiGraph::complete(4);
        let out = Vf2::new(&p, &t).find_all();
        assert!(out.nodes_expanded > 0);
    }
}
