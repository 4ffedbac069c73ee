//! The branch-and-bound decomposition engine
//! (Sections 4.1–4.4, Figures 2 and 3 of the paper).
//!
//! The search walks a tree whose nodes are *remaining graphs*. At each node
//! it enumerates, for every library primitive in order, the distinct
//! subgraph images of the primitive's representation graph in the remaining
//! graph (a *matching*, Definition 4), subtracts the image, and explores
//! the child. When no primitive matches, the node is a leaf: the
//! decomposition is the path of matchings plus the remainder graph, and its
//! cost is `Σ C(M_i) + C(R)` (Equation 3). A branch is cut when its current
//! cost plus an admissible bound on completing the remaining graph cannot
//! beat the best decomposition found so far.
//!
//! Because every matching subtracts its image, the images along a path are
//! pairwise edge-disjoint — so a decomposition is a *set* of matchings, and
//! any permutation of the same set reaches the same leaf. The search
//! therefore enumerates matchings in canonical (primitive id, image) order
//! only, which prunes the `k!` permutations of each `k`-matching
//! decomposition without losing any leaf (an exact reduction the paper's
//! Figure 3 pseudo-code leaves implicit).
//!
//! # Engine architecture
//!
//! The engine is split into a module family (design notes in `DESIGN.md`):
//!
//! * [`frontier`] — the search is *iterative* over one reused frame per
//!   depth of the current path, which reproduces the recursive search's
//!   preorder exactly, and therefore the paper's printed decompositions.
//!   A node is an edge bitmask and a live root-image row, not a
//!   materialized graph, and a kept child is scalars until the search
//!   descends into it; bounds are recomputed from a precomputed per-edge
//!   table instead of rescanning graphs.
//! * [`cache`] — a VF2 match-enumeration cache keyed by a graph's edge
//!   bitset. Root enumerations go through it, so runs that share one
//!   enumerate a root graph once, and it serves the per-node enumerations
//!   of primitives whose root list was truncated. Reconverging paths
//!   within a run never re-enumerate either way: the root-image filter
//!   answers them. Hits and misses are reported in [`SearchStats`].

mod cache;
mod frontier;

use std::cell::OnceCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use noc_energy::Energy;
use noc_graph::{iso::Vf2, Acg, BitSetKey, DiGraph, Edge, NodeId};
use noc_primitives::{CommLibrary, Primitive, PrimitiveId};

use crate::{
    constraints,
    cost::{Cost, CostModel, Objective},
    Architecture,
};

use cache::{ImageList, MatchCache};
use frontier::{mask_subset, ones, ones_from, Child, Frame, Step};

pub use cache::{SharedMatchCache, SizeCacheStats};

/// Remaining graphs a run's private match cache holds at most (a run
/// without a [`DecomposerConfig::shared_cache`]); bounds memory on huge
/// searches.
const PRIVATE_CACHE_CAPACITY: usize = 1 << 16;

/// One matched primitive instance on the decomposition path.
#[derive(Debug, Clone)]
pub struct Matching {
    /// Which library primitive matched.
    pub primitive: PrimitiveId,
    /// The primitive's label (`MGG4`, `G123`, …).
    pub label: String,
    /// The injective map from primitive vertices to ACG cores.
    pub mapping: noc_graph::iso::Mapping,
    /// This matching's cost contribution (Equation 5).
    pub cost: Cost,
}

impl Matching {
    /// The ACG edges this matching covers (the image of the representation
    /// graph), sorted.
    pub fn covered_edges(&self, library: &CommLibrary) -> Vec<Edge> {
        self.mapping
            .image_edges(library.get(self.primitive).representation())
    }

    /// Formats the matching one line in the paper's output style:
    /// `1: MGG4,       Mapping: (1 1), (2 5), (3 9), (4 13)`.
    pub fn paper_line(&self) -> String {
        format!(
            "{}: {},\tMapping: {}",
            self.primitive.paper_id(),
            self.label,
            self.mapping.paper_format()
        )
    }
}

/// A complete decomposition: the root-to-leaf matchings plus the remainder
/// graph that matched nothing (Equation 2: `G = Σ M_i(L_i) + R`).
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Matchings in the order they were subtracted.
    pub matchings: Vec<Matching>,
    /// The remaining graph (full vertex set, uncovered edges).
    pub remainder: DiGraph,
    /// Cost assigned to the remainder (dedicated point-to-point links).
    pub remainder_cost: Cost,
    /// Total decomposition cost (Equation 3).
    pub total_cost: Cost,
}

impl Decomposition {
    /// Renders the decomposition in the paper's output format, e.g. for the
    /// AES ACG:
    ///
    /// ```text
    /// COST: 28
    /// 1: MGG4,    Mapping: (1 1), (2 5), (3 9), (4 13)
    ///  1: MGG4,    Mapping: (1 2), (2 6), (3 10), (4 14)
    ///  ...
    ///        0: Remaining Graph: 9 -> 11, 10 -> 12, 11 -> 9, 12 -> 10
    /// ```
    ///
    /// Vertices are printed 1-based as in the paper.
    pub fn paper_report(&self) -> String {
        let mut out = format!("COST: {}\n", self.total_cost);
        for (depth, m) in self.matchings.iter().enumerate() {
            out.push_str(&" ".repeat(depth));
            out.push_str(&m.paper_line());
            out.push('\n');
        }
        out.push_str(&" ".repeat(self.matchings.len()));
        if self.remainder.is_edgeless() {
            out.push_str("0: Remaining Graph: (empty)\n");
        } else {
            let edges: Vec<String> = self
                .remainder
                .edges()
                .map(|e| format!("{} -> {}", e.src.index() + 1, e.dst.index() + 1))
                .collect();
            out.push_str(&format!("0: Remaining Graph: {}\n", edges.join(", ")));
        }
        out
    }

    /// Returns the multiset of covered + remaining edges; equals the input
    /// ACG edge set for any valid decomposition (tested property).
    pub fn all_edges(&self, library: &CommLibrary) -> Vec<Edge> {
        let mut edges: Vec<Edge> = self
            .matchings
            .iter()
            .flat_map(|m| m.covered_edges(library))
            .chain(self.remainder.edges())
            .collect();
        edges.sort();
        edges
    }
}

/// Search statistics for the runtime figures (Figures 4a/4b).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchStats {
    /// Search-tree nodes expanded.
    pub nodes_visited: u64,
    /// Leaves (complete decompositions) evaluated.
    pub leaves_evaluated: u64,
    /// Branches cut by the lower bound.
    pub branches_pruned: u64,
    /// Leaves rejected by the Section 4.2 constraints.
    pub constraint_rejections: u64,
    /// VF2 enumerations answered from the match cache.
    pub cache_hits: u64,
    /// VF2 enumerations that had to run (cache enabled but cold).
    pub cache_misses: u64,
    /// Remaining graphs built from a node's edge mask: one per leaf
    /// evaluated, plus one per node that ran VF2 for a primitive whose
    /// root enumeration was truncated.
    pub graphs_built: u64,
    /// `true` if the search hit the configured timeout.
    pub timed_out: bool,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
}

/// Outcome of a decomposition run.
#[derive(Debug, Clone)]
pub struct DecompositionOutcome {
    /// The minimum-cost legal decomposition, if any leaf was reached.
    pub best: Option<Decomposition>,
    /// Search statistics.
    pub stats: SearchStats,
}

/// Tuning knobs for the branch-and-bound.
#[derive(Debug, Clone)]
pub struct DecomposerConfig {
    /// Abort the search after this wall-clock budget, keeping the best
    /// decomposition found so far (the paper's suggested time-out for
    /// graphs with no library match, Section 5.1).
    pub timeout: Option<Duration>,
    /// Consider at most this many distinct images per primitive per node
    /// (`None` = all).
    ///
    /// The default is `Some(1)`, which is what the paper's Figure 3
    /// pseudo-code does: each tree node branches once per *library graph*
    /// ("if **a** subgraph S in I is isomorphic to G"), subtracting the
    /// first isomorphism found — see the three-way branching of Figure 2.
    /// `None` explores every distinct image (an exhaustive extension;
    /// slower but can find cheaper covers on irregular graphs).
    pub max_matches_per_level: Option<usize>,
    /// Cap on raw VF2 enumerations per call, bounding worst-case matcher
    /// work before image deduplication.
    pub max_raw_matches: usize,
    /// Enable the admissible lower bound of Figure 3 (disable to measure
    /// its effect — see the `ablation_bounding` bench).
    pub use_lower_bound: bool,
    /// Reject leaves violating link-bandwidth or bisection constraints
    /// (Section 4.2) using the cost model's technology profile.
    pub check_constraints: bool,
    /// Enumerate matchings in canonical (primitive, image) order only,
    /// collapsing the `k!` permutations of each matching set (an exact
    /// reduction — see the module docs). Disable only to verify exactness
    /// or measure the blowup (it multiplies node visits, not enumerations:
    /// the root-image filter answers every reconverging path).
    pub use_canonical_ordering: bool,
    /// Memoize VF2 match enumerations per remaining graph (see
    /// [`SearchStats::cache_hits`]). A run without a
    /// [`shared_cache`](Self::shared_cache) gets a private cache holding
    /// at most 2¹⁶ remaining graphs.
    pub use_match_cache: bool,
    /// A [`SharedMatchCache`] reused *across* runs (exploration campaigns
    /// hand one cache to every scenario). Only honored while
    /// `use_match_cache` is `true`. Cache keys are size-tagged (vertex
    /// count + edge bitset), so a single cache soundly serves searches
    /// over any mix of graph sizes. [`SearchStats`] hit/miss counts stay
    /// per-run either way.
    pub shared_cache: Option<SharedMatchCache>,
}

impl Default for DecomposerConfig {
    fn default() -> Self {
        DecomposerConfig {
            timeout: None,
            max_matches_per_level: Some(1),
            max_raw_matches: 100_000,
            use_lower_bound: true,
            check_constraints: false,
            use_canonical_ordering: true,
            use_match_cache: true,
            shared_cache: None,
        }
    }
}

/// The branch-and-bound decomposition engine; see the
/// [crate example](crate).
#[derive(Debug)]
pub struct Decomposer<'a> {
    acg: &'a Acg,
    library: &'a CommLibrary,
    cost_model: CostModel,
    config: DecomposerConfig,
}

impl<'a> Decomposer<'a> {
    /// Creates a decomposer with the default configuration.
    pub fn new(acg: &'a Acg, library: &'a CommLibrary, cost_model: CostModel) -> Self {
        Decomposer {
            acg,
            library,
            cost_model,
            config: DecomposerConfig::default(),
        }
    }

    /// Replaces the configuration.
    #[must_use]
    pub fn config(mut self, config: DecomposerConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets a search timeout.
    #[must_use]
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.config.timeout = Some(timeout);
        self
    }

    /// Runs the search and returns the best legal decomposition plus
    /// statistics.
    pub fn run(&self) -> DecompositionOutcome {
        let start = Instant::now();
        let telemetry = noc_telemetry::active();
        let deadline = self.config.timeout.map(|t| start + t);
        // Best link-compression ratio in the library, for the Links bound.
        let best_ratio = self
            .library
            .iter()
            .map(|(_, p)| {
                let links: std::collections::BTreeSet<(usize, usize)> = p
                    .implementation()
                    .edges()
                    .map(|e| {
                        let (a, b) = (e.src.index(), e.dst.index());
                        (a.min(b), a.max(b))
                    })
                    .collect();
                p.representation().edge_count() as f64 / links.len().max(1) as f64
            })
            .fold(1.0_f64, f64::max);

        let cache = self.config.use_match_cache.then(|| {
            // Size-tagged keys make a shared cache sound for any graph
            // size; without one the run gets a private per-run cache.
            match &self.config.shared_cache {
                Some(shared) => shared.inner(),
                None => Arc::new(MatchCache::new(PRIVATE_CACHE_CAPACITY)),
            }
        });
        let vertex_count = self.acg.graph().node_count();
        let stride = (vertex_count * vertex_count).div_ceil(64);
        // The Links bound needs only the popcount; the energy term is
        // rescanned per child from this table.
        let bound_table = if self.config.use_lower_bound
            && !matches!(self.cost_model.objective(), Objective::Links)
        {
            self.cost_model.edge_bound_table(self.acg)
        } else {
            Vec::new()
        };
        let mut ctx = EngineCtx {
            acg: self.acg,
            library: self.library,
            cost_model: &self.cost_model,
            config: &self.config,
            deadline,
            best_ratio,
            vertex_count,
            stride,
            bound_table,
            cache,
            root_images: Vec::new(),
            live_stride: 0,
            live_index: LiveIndex::default(),
        };
        // Phases are timed only under an active trace, which records them
        // as `decompose.phase.*` spans (the clock reads leave results
        // bit-identical). The root phase opens here.
        let mut search = Search {
            best: None,
            stats: SearchStats::default(),
            phases: PhaseAcc::new(telemetry.is_some()),
        };
        let root_mask = {
            let mut words = self.acg.graph().edge_bitset().words().to_vec();
            words.resize(stride, 0);
            words
        };
        // Enumerate every primitive once on the root graph; complete lists
        // power the subset filter (see [`RootImages`]), truncated ones fall
        // back to per-node enumeration. Root enumerations go through the
        // cache like any other, so later runs sharing a cache still hit.
        let mut root_image_count = 0u64;
        ctx.root_images = {
            let root_graph = self.acg.graph();
            let root_key = ctx
                .cache
                .as_ref()
                .map(|_| BitSetKey::from_words(root_mask.clone()));
            let mut table = Vec::new();
            for (id, primitive) in self.library.iter() {
                let pattern = primitive.representation();
                if pattern.edge_count() > root_graph.edge_count()
                    || pattern.node_count() > vertex_count
                {
                    table.push(None);
                    continue;
                }
                let (images, complete) = ctx.enumerate(
                    &mut search.stats,
                    || root_graph,
                    root_key.as_ref(),
                    id,
                    primitive,
                );
                if !complete {
                    table.push(None);
                    continue;
                }
                // The canonical cut walks a node's row from its own image's
                // index, which is exact only on strictly ascending lists.
                debug_assert!(
                    images.windows(2).all(|w| w[0].1 < w[1].1),
                    "root image list of {} is not strictly ascending by edge list",
                    primitive.label()
                );
                root_image_count += images.len() as u64;
                let mut masks = vec![0u64; images.len() * stride];
                for ((_, covered), row) in images.iter().zip(masks.chunks_exact_mut(stride)) {
                    ctx.edge_mask(covered, row);
                }
                let live_offset = ctx.live_stride;
                ctx.live_stride += images.len().div_ceil(64);
                table.push(Some(RootImages {
                    costs: vec![OnceCell::new(); images.len()],
                    images,
                    masks,
                    live_offset,
                }));
            }
            table
        };
        ctx.live_index = LiveIndex::new(&ctx.root_images, ctx.stride);
        let ctx = ctx;
        let mut root_live = vec![0u64; ctx.live_stride];
        for set in ctx.root_images.iter().flatten() {
            for i in 0..set.images.len() {
                let bit = set.live_offset * 64 + i;
                root_live[bit / 64] |= 1 << (bit % 64);
            }
        }
        let root = Frame {
            mask: root_mask,
            live: root_live,
            edges: self.acg.graph().edge_count() as u32,
            ..Frame::default()
        };
        run_frontier(&ctx, &mut search, root);

        let Search {
            best,
            mut stats,
            phases,
        } = search;
        let phase_ns = phases.finish();
        stats.elapsed = start.elapsed();
        if let Some(tel) = telemetry {
            tel.add("decompose.runs", 1);
            tel.add("decompose.nodes_visited", stats.nodes_visited);
            tel.add("decompose.leaves_evaluated", stats.leaves_evaluated);
            tel.add("decompose.graphs_built", stats.graphs_built);
            tel.add("decompose.branches_pruned", stats.branches_pruned);
            tel.add(
                "decompose.constraint_rejections",
                stats.constraint_rejections,
            );
            tel.add("decompose.cache_hits", stats.cache_hits);
            tel.add("decompose.cache_misses", stats.cache_misses);
            tel.add("decompose.root_images", root_image_count);
            if stats.timed_out {
                tel.add("decompose.timeouts", 1);
            }
            tel.record("decompose.run_us", stats.elapsed.as_micros() as u64);
            for (name, ns) in PHASE_SPANS.iter().zip(phase_ns) {
                tel.span_event(name, Duration::from_nanos(ns), &[]);
            }
            tel.span_event(
                "decompose.run",
                stats.elapsed,
                &[
                    ("vertices", vertex_count.into()),
                    ("timed_out", stats.timed_out.into()),
                ],
            );
        }
        DecompositionOutcome { best, stats }
    }
}

/// Immutable per-run context.
struct EngineCtx<'a> {
    acg: &'a Acg,
    library: &'a CommLibrary,
    cost_model: &'a CostModel,
    config: &'a DecomposerConfig,
    deadline: Option<Instant>,
    best_ratio: f64,
    /// Vertex count of this search's graph — the size tag on every cache
    /// key (the remaining graph's vertex *set* is constant within a run).
    vertex_count: usize,
    /// Words per edge mask: `(vertex_count²).div_ceil(64)`.
    stride: usize,
    /// Per-edge energy lower-bound terms indexed by edge bit (empty when
    /// the objective needs none — see [`CostModel::lower_bound_masked`]).
    bound_table: Vec<Energy>,
    cache: Option<Arc<MatchCache>>,
    /// Per-primitive root enumerations for the subset filter (indexed by
    /// [`PrimitiveId::index`]; `None` = fall back to per-node VF2).
    root_images: Vec<Option<RootImages>>,
    /// Words per live row: Σ ⌈images / 64⌉ over the stored root lists.
    live_stride: usize,
    /// Derives a child's live row from its parent's.
    live_index: LiveIndex,
}

/// A primitive's complete image list on the *root* graph, with each
/// image's covered-edge bitmask precomputed.
///
/// Matching is monomorphic and the vertex set never changes, so the images
/// of a primitive in any remaining graph are exactly the root images whose
/// covered edges all survive — an enumeration anywhere in the tree is a
/// subset *filter* of this list, not a fresh VF2 run. Every node carries
/// that filter as its *live row*: bit `live_offset * 64 + i` is set iff
/// image `i` survives. Filtering preserves the enumeration order
/// ([`Vf2::distinct_images`] sorts images by edge list, so ascending bits
/// visit a subset in root order), which keeps capped searches
/// bit-identical to per-node enumeration. Only complete root enumerations
/// are stored: a cap- or deadline-truncated list could hide images a
/// deeper node still has.
struct RootImages {
    images: ImageList,
    /// Flat covered-edge masks, `stride` words per image, parallel to
    /// `images`.
    masks: Vec<u64>,
    /// Each image's matching cost, computed the first time the image is
    /// staged (it depends on the image alone, not on the node).
    costs: Vec<OnceCell<Cost>>,
    /// First word of this primitive's range in a live row.
    live_offset: usize,
}

impl RootImages {
    /// This primitive's words of the live row `live` of the node with
    /// edge mask `mask`. Debug builds check every bit against the subset
    /// filter the row replaces.
    fn live<'a>(&self, live: &'a [u64], mask: &[u64], stride: usize) -> &'a [u64] {
        let words = self.images.len().div_ceil(64);
        let row = &live[self.live_offset..self.live_offset + words];
        if cfg!(debug_assertions) {
            let mut subset = vec![0u64; words];
            for (i, covered) in self.masks.chunks_exact(stride).enumerate() {
                if mask_subset(covered, mask) {
                    subset[i / 64] |= 1 << (i % 64);
                }
            }
            debug_assert_eq!(row, subset, "live row disagrees with the subset filter");
        }
        row
    }
}

/// For each edge bit, the live-row bits of the root images covering it.
///
/// Masks only shrink down a path (child = parent & ¬covered), so an image
/// that lost an edge never comes back: clearing, in the parent's row, the
/// images listed under each edge a matching covers yields the child's row,
/// and "bit set ⇔ covered ⊆ mask" holds at every node by induction from
/// the all-ones root row.
#[derive(Default)]
struct LiveIndex {
    /// `ids[start[b]..start[b + 1]]` lists the images covering edge bit `b`.
    start: Vec<usize>,
    ids: Vec<u32>,
}

impl LiveIndex {
    /// A counting sort of the stored images by edge bit: one pass counts
    /// the images per bit, a second places each image's id at its bits'
    /// cursors. Ids are visited ascending, so each bit's list ascends.
    fn new(root_images: &[Option<RootImages>], stride: usize) -> Self {
        let masks = || {
            root_images.iter().flatten().flat_map(|set| {
                let first = set.live_offset * 64;
                (first..).zip(set.masks.chunks_exact(stride))
            })
        };
        let mut start = vec![0usize; stride * 64 + 1];
        for (_, covered) in masks() {
            for b in ones(covered) {
                start[b + 1] += 1;
            }
        }
        for b in 0..stride * 64 {
            start[b + 1] += start[b];
        }
        let mut next = start.clone();
        let mut ids = vec![0u32; start[stride * 64]];
        for (id, covered) in masks() {
            let id = u32::try_from(id).expect("live row fits u32 bits");
            for b in ones(covered) {
                ids[next[b]] = id;
                next[b] += 1;
            }
        }
        LiveIndex { start, ids }
    }

    /// Clears from `live` every image covering an edge of `covered`.
    fn kill(&self, live: &mut [u64], covered: &[u64]) {
        for b in ones(covered) {
            for &id in &self.ids[self.start[b]..self.start[b + 1]] {
                live[id as usize / 64] &= !(1 << (id % 64));
            }
        }
    }
}

impl EngineCtx<'_> {
    /// Builds the remaining graph a node's edge mask describes (bit
    /// `src * n + dst`, matching [`DiGraph::edge_bitset`]).
    fn materialize(&self, mask: &[u64]) -> DiGraph {
        let n = self.vertex_count;
        let mut g = DiGraph::new(n);
        for idx in ones(mask) {
            g.add_edge(NodeId(idx / n), NodeId(idx % n));
        }
        g
    }

    /// Writes the edge mask of `edges` (bit `src * n + dst`) into `mask`.
    fn edge_mask(&self, edges: &[Edge], mask: &mut [u64]) {
        mask.fill(0);
        for e in edges {
            let bit = e.src.index() * self.vertex_count + e.dst.index();
            mask[bit / 64] |= 1 << (bit % 64);
        }
    }

    /// Derives `parent`'s kept child `index` into `into`: the mask
    /// `parent & !covered`, the parent's live row with the covered images
    /// killed, and the child's scalars and step. A root image's covered
    /// mask is stored; a per-node image's is rebuilt in `covered` from the
    /// step's own list.
    fn descend(&self, parent: &Frame, index: usize, into: &mut Frame, covered: &mut [u64]) {
        let child = &parent.children[index];
        let step = &child.step;
        let covered: &[u64] = match &step.list {
            None => {
                let set = self.root_images[step.primitive.index()]
                    .as_ref()
                    .expect("a step without a list indexes a stored root list");
                &set.masks[step.image * self.stride..(step.image + 1) * self.stride]
            }
            Some(list) => {
                self.edge_mask(&list[step.image].1, covered);
                covered
            }
        };
        into.mask.clear();
        into.mask
            .extend(parent.mask.iter().zip(covered).map(|(&p, &c)| p & !c));
        into.live.clone_from(&parent.live);
        self.live_index.kill(&mut into.live, covered);
        into.cost = child.cost;
        into.edges = child.edges;
        into.step = Some(step.clone());
    }

    /// The [`Matching`] a path step stands for.
    fn matching(&self, step: &Step) -> Matching {
        let list = match &step.list {
            Some(list) => list,
            None => {
                &self.root_images[step.primitive.index()]
                    .as_ref()
                    .expect("a step without a list indexes a stored root list")
                    .images
            }
        };
        Matching {
            primitive: step.primitive,
            label: self.library.get(step.primitive).label().to_string(),
            mapping: list[step.image].0.clone(),
            cost: step.cost,
        }
    }

    /// The admissible completion bound of a child's edge mask, given as
    /// its words.
    fn masked_bound(&self, mask: impl IntoIterator<Item = u64>, edges: u32) -> Cost {
        self.cost_model
            .lower_bound_masked(mask, edges as usize, &self.bound_table, self.best_ratio)
    }

    /// Distinct images of `primitive`'s representation in the graph
    /// `remaining` returns, served from the match cache when possible (the
    /// graph is asked for only on a miss). The flag reports whether the
    /// enumeration is complete (cache entries always are; a fresh run may
    /// be truncated by the raw-match cap or the deadline). Hits and misses
    /// are counted in `stats`, this run's share of the cache's traffic.
    fn enumerate<'g>(
        &self,
        stats: &mut SearchStats,
        remaining: impl FnOnce() -> &'g DiGraph,
        key: Option<&BitSetKey>,
        id: PrimitiveId,
        primitive: &Primitive,
    ) -> (ImageList, bool) {
        let pattern = primitive.representation();
        if let (Some(cache), Some(key)) = (self.cache.as_ref(), key) {
            // The arity argument guards against an in-process cache
            // shared across different libraries binding this id to
            // another pattern — a mismatched entry is rejected inside
            // the cache and counted as a miss, never consumed.
            if let Some(hit) = cache.get(self.vertex_count, key, id, pattern.node_count()) {
                stats.cache_hits += 1;
                return (hit, true);
            }
            stats.cache_misses += 1;
        }
        let mut matcher = Vf2::new(pattern, remaining()).max_matches(self.config.max_raw_matches);
        if let Some(d) = self.deadline {
            matcher = matcher.deadline(d);
        }
        let outcome = matcher.distinct_image_edges();
        let complete = outcome.complete;
        let images: ImageList = Arc::new(outcome.matches);
        // Only complete enumerations are safe to reuse: a deadline- or
        // cap-truncated list could hide matchings from a later reach of
        // the same graph.
        if complete {
            if let (Some(cache), Some(key)) = (self.cache.as_ref(), key) {
                cache.insert(
                    self.vertex_count,
                    key.clone(),
                    id,
                    pattern.node_count(),
                    images.clone(),
                );
            }
        }
        (images, complete)
    }
}

/// Mutable search state: the incumbent, the counters and the phase
/// timers.
struct Search {
    best: Option<Decomposition>,
    stats: SearchStats,
    phases: PhaseAcc,
}

impl Search {
    /// The incumbent's total cost (∞ before the first leaf lands).
    fn best_cost(&self) -> f64 {
        self.best
            .as_ref()
            .map_or(f64::INFINITY, |d| d.total_cost.value())
    }
}

/// The phases of a search, indexed like [`PHASE_SPANS`]: root setup (the
/// root enumeration, the image masks, the live index and the root row);
/// match enumeration (walking the live rows, the canonical-cut existence
/// tests, cache probes and per-node VF2, with the graph built for it);
/// matching-cost evaluation, bound recomputation and keeping the children
/// that pass; frontier operations (descents, which derive a child's mask
/// and live row, frame pops and the descent-time bound re-test); leaf
/// evaluation (graph build, remainder cost, constraint checks, incumbent
/// installs). They tile the run from the root enumeration to the end of
/// the search; the rest of `decompose.run` is the bound table before and
/// the telemetry after.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Root,
    MatchEnum,
    Bound,
    Frontier,
    Leaf,
}

/// The span each [`Phase`] is recorded as under an active trace.
const PHASE_SPANS: [&str; 5] = [
    "decompose.phase.root",
    "decompose.phase.match_enum",
    "decompose.phase.bound",
    "decompose.phase.frontier",
    "decompose.phase.leaf",
];

/// Phase timers of one run, enabled only under an active telemetry trace.
/// The clock is read once per phase *switch*, so the phases follow one
/// another with no gaps; disabled, every call is a no-op on a `None` (no
/// clock reads).
struct PhaseAcc {
    /// The open phase and when it opened.
    open: Option<(Phase, Instant)>,
    /// Nanoseconds per phase, indexed like [`PHASE_SPANS`].
    ns: [u64; 5],
}

impl PhaseAcc {
    /// Timers that open [`Phase::Root`] now, when `enabled`.
    fn new(enabled: bool) -> Self {
        PhaseAcc {
            open: enabled.then(|| (Phase::Root, Instant::now())),
            ns: [0; 5],
        }
    }

    /// Switches to `phase`, charging the time since the last switch to the
    /// phase that was open.
    #[inline]
    fn enter(&mut self, phase: Phase) {
        if let Some((open, since)) = &mut self.open {
            if *open != phase {
                let now = Instant::now();
                self.ns[*open as usize] += now.duration_since(*since).as_nanos() as u64;
                *open = phase;
                *since = now;
            }
        }
    }

    /// Closes the open phase; returns the nanoseconds per phase.
    fn finish(mut self) -> [u64; 5] {
        if let Some((open, since)) = self.open {
            self.ns[open as usize] += since.elapsed().as_nanos() as u64;
        }
        self.ns
    }
}

/// Runs the depth-first search from `root` until its frame pops, or until
/// the deadline fires and the current path is salvaged as a leaf.
fn run_frontier(ctx: &EngineCtx<'_>, search: &mut Search, root: Frame) {
    let mut frames = vec![root];
    // The node being visited is `frames[depth]`, and `frames[..=depth]` is
    // its path; deeper frames wait to be reused.
    let mut depth = 0;
    // A per-node (fallback) image's covered edges; root images keep theirs
    // in `RootImages::masks`.
    let mut covered = vec![0; ctx.stride];
    search.phases.enter(Phase::Frontier);
    loop {
        search.stats.nodes_visited += 1;
        if ctx.deadline.is_some_and(|d| Instant::now() >= d) {
            // Salvage: evaluate the current path as if it were a leaf so a
            // timed-out search still returns something useful.
            search.stats.timed_out = true;
            consider_leaf(ctx, search, &frames[..=depth]);
            return;
        }
        if !expand(ctx, search, &mut frames[depth], &mut covered) {
            consider_leaf(ctx, search, &frames[..=depth]);
        }
        search.phases.enter(Phase::Frontier);
        // The next node in preorder: the next kept child of the deepest
        // frame that has one. Its bound is re-tested, since the incumbent
        // may have improved after the child was kept.
        let next = loop {
            let frame = &mut frames[depth];
            let i = frame.next;
            let Some(child) = frame.children.get(i) else {
                if depth == 0 {
                    return;
                }
                depth -= 1;
                continue;
            };
            frame.next = i + 1;
            if ctx.config.use_lower_bound && child.bound >= search.best_cost() {
                search.stats.branches_pruned += 1;
                continue;
            }
            break i;
        };
        if frames.len() == depth + 1 {
            frames.push(Frame::default());
        }
        let (path, deeper) = frames.split_at_mut(depth + 1);
        ctx.descend(&path[depth], next, &mut deeper[0], &mut covered);
        depth += 1;
    }
}

/// Expands the node of `frame`, keeping its children in the frame in
/// generated order, and returns whether *any* primitive matches the
/// remaining graph (Figure 3's leaf test — primitives below the canonical
/// ordering cut count toward leaf detection but produce no children).
///
/// Primitives with a root image list read their images off the node's
/// live row; only a primitive whose root enumeration was truncated needs
/// the remaining graph, which is then built once for this node.
fn expand(
    ctx: &EngineCtx<'_>,
    search: &mut Search,
    frame: &mut Frame,
    covered: &mut [u64],
) -> bool {
    let n = ctx.vertex_count;
    let stride = ctx.stride;
    let Frame {
        mask,
        live,
        cost,
        edges,
        step: own_step,
        children,
        next,
    } = frame;
    children.clear();
    *next = 0;
    // Keeps the child a matching leads to (its image covers `covered_mask`,
    // `count` edges) unless its completion bound cannot beat the
    // incumbent. Runs in the bound phase.
    let mut stage = |search: &mut Search, step: Step, covered_mask: &[u64], count: u32| {
        let cost = cost.saturating_add(step.cost);
        let edges = *edges - count;
        let bound = if ctx.config.use_lower_bound {
            let child = mask.iter().zip(covered_mask).map(|(&p, &c)| p & !c);
            cost.saturating_add(ctx.masked_bound(child, edges)).value()
        } else {
            cost.value()
        };
        if ctx.config.use_lower_bound && bound >= search.best_cost() {
            search.stats.branches_pruned += 1;
        } else {
            children.push(Child {
                step,
                cost,
                bound,
                edges,
            });
        }
    };
    let graph = OnceCell::new();
    let remaining = || graph.get_or_init(|| ctx.materialize(mask));
    // Only primitives without a complete root enumeration hit the cache,
    // so the per-node key is built lazily.
    let mut key: Option<BitSetKey> = None;
    let mut found_match = false;
    // The canonical-ordering cut is the node's own step: children use
    // later images of its primitive, or later primitives.
    let cut = own_step
        .as_ref()
        .filter(|_| ctx.config.use_canonical_ordering);
    let cap = ctx.config.max_matches_per_level.unwrap_or(usize::MAX);
    search.phases.enter(Phase::MatchEnum);
    for (id, primitive) in ctx.library.iter() {
        let pattern = primitive.representation();
        if pattern.edge_count() > *edges as usize || pattern.node_count() > n {
            continue;
        }
        let root_set = ctx.root_images[id.index()].as_ref();
        if cut.is_some_and(|s| id < s.primitive) {
            // Existence only: a live root image (or, on the fallback path,
            // a cached enumeration or a first-match probe — cheaper than
            // enumerating, so it is not cached).
            if !found_match {
                found_match = match root_set {
                    Some(set) => set.live(live, mask, stride).iter().any(|&w| w != 0),
                    None => {
                        if ctx.cache.is_some() && key.is_none() {
                            key = Some(BitSetKey::from_words(mask.to_vec()));
                        }
                        let cached =
                            ctx.cache
                                .as_ref()
                                .zip(key.as_ref())
                                .and_then(|(cache, key)| {
                                    cache.peek(ctx.vertex_count, key, id, pattern.node_count())
                                });
                        match cached {
                            Some(images) => !images.is_empty(),
                            None => {
                                let mut probe = Vf2::new(pattern, remaining());
                                if let Some(d) = ctx.deadline {
                                    probe = probe.deadline(d);
                                }
                                probe.exists()
                            }
                        }
                    }
                };
            }
            continue;
        }
        // The cut applies first, then the per-level cap, so capped searches
        // still advance past the node's own image.
        let own = cut.filter(|s| s.primitive == id);
        if let Some(set) = root_set {
            // Fast path: the node's images are the live ones, visited in
            // root-enumeration order. Root lists ascend strictly by edge
            // list, so the images the cut excludes (edge list at most the
            // node's own) are exactly those up to its own index.
            let row = set.live(live, mask, stride);
            found_match = found_match || row.iter().any(|&w| w != 0);
            let start = own.map_or(0, |s| s.image + 1);
            for i in ones_from(row, start).take(cap) {
                search.phases.enter(Phase::Bound);
                let (mapping, covered_edges) = &set.images[i];
                let cost = *set.costs[i]
                    .get_or_init(|| ctx.cost_model.matching_cost(primitive, mapping, ctx.acg));
                let step = Step {
                    primitive: id,
                    image: i,
                    cost,
                    list: None,
                };
                let covered_mask = &set.masks[i * stride..(i + 1) * stride];
                stage(search, step, covered_mask, covered_edges.len() as u32);
                search.phases.enter(Phase::MatchEnum);
            }
            continue;
        }
        // Fallback: the root enumeration was truncated (raw-match cap or
        // deadline), so this primitive enumerates per node.
        if ctx.cache.is_some() && key.is_none() {
            key = Some(BitSetKey::from_words(mask.to_vec()));
        }
        let (images, _) = ctx.enumerate(&mut search.stats, remaining, key.as_ref(), id, primitive);
        if !images.is_empty() {
            found_match = true;
        }
        // The node's own image indexes its parent's list, so the cut
        // compares edge lists: the order the lists are sorted by.
        let own_edges = own.map(|s| {
            let list = s.list.as_ref().expect("a fallback step carries its list");
            &list[s.image].1
        });
        let mut considered = 0usize;
        for (i, (mapping, covered_edges)) in images.iter().enumerate() {
            if own_edges.is_some_and(|own| covered_edges <= own) {
                continue;
            }
            if considered >= cap {
                break;
            }
            considered += 1;
            ctx.edge_mask(covered_edges, covered);
            search.phases.enter(Phase::Bound);
            let step = Step {
                primitive: id,
                image: i,
                cost: ctx.cost_model.matching_cost(primitive, mapping, ctx.acg),
                list: Some(images.clone()),
            };
            stage(search, step, covered, covered_edges.len() as u32);
            search.phases.enter(Phase::MatchEnum);
        }
    }
    if graph.get().is_some() {
        search.stats.graphs_built += 1;
    }
    found_match
}

/// Evaluates a completed path (no primitive matches, or the deadline
/// salvage) against the incumbent, building its last node's remaining
/// graph, and the path's matchings only if the leaf beats the incumbent.
fn consider_leaf(ctx: &EngineCtx<'_>, search: &mut Search, path: &[Frame]) {
    search.phases.enter(Phase::Leaf);
    search.stats.leaves_evaluated += 1;
    search.stats.graphs_built += 1;
    let node = path.last().expect("a path holds at least the root");
    let remaining = ctx.materialize(&node.mask);
    let remainder_cost = ctx.cost_model.remainder_cost(&remaining, ctx.acg);
    let total = node.cost.saturating_add(remainder_cost);
    if total.value() >= search.best_cost() {
        return;
    }
    let candidate = Decomposition {
        matchings: path
            .iter()
            .filter_map(|frame| frame.step.as_ref())
            .map(|step| ctx.matching(step))
            .collect(),
        remainder: remaining,
        remainder_cost,
        total_cost: total,
    };
    if ctx.config.check_constraints {
        let arch = Architecture::synthesize(
            ctx.acg,
            ctx.library,
            &candidate,
            ctx.cost_model.placement().clone(),
        );
        let report = constraints::check(&arch, ctx.acg, ctx.cost_model.energy_model().profile());
        if !report.is_satisfied() {
            search.stats.constraint_rejections += 1;
            return;
        }
    }
    search.best = Some(candidate);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Objective;
    use noc_energy::{EnergyModel, TechnologyProfile};
    use noc_floorplan::Placement;
    use noc_graph::{EdgeDemand, NodeId};
    use noc_workloads::pajek;

    fn cost_model(objective: Objective, n: usize) -> CostModel {
        let side = (n as f64).sqrt().ceil() as usize;
        CostModel::new(
            EnergyModel::new(TechnologyProfile::cmos_180nm()),
            Placement::grid(side, side.max(1), 2.0, 2.0),
            objective,
        )
    }

    fn decompose(acg: &Acg, lib: &CommLibrary, objective: Objective) -> DecompositionOutcome {
        let cm = cost_model(objective, acg.core_count());
        Decomposer::new(acg, lib, cm).run()
    }

    #[test]
    fn pure_gossip_acg_is_one_mgg4() {
        let acg = Acg::from_graph_uniform(DiGraph::complete(4), EdgeDemand::from_volume(8.0));
        let lib = CommLibrary::standard();
        let out = decompose(&acg, &lib, Objective::Links);
        let best = out.best.unwrap();
        assert_eq!(best.matchings.len(), 1);
        assert_eq!(best.matchings[0].label, "MGG4");
        assert!(best.remainder.is_edgeless());
        assert_eq!(best.total_cost.value(), 4.0); // 4 physical links
        assert!(!out.stats.timed_out);
    }

    #[test]
    fn loop_acg_decomposes_to_l4() {
        let acg = Acg::from_graph_uniform(DiGraph::cycle(4), EdgeDemand::from_volume(8.0));
        let lib = CommLibrary::standard();
        let out = decompose(&acg, &lib, Objective::Links);
        let best = out.best.unwrap();
        assert_eq!(best.matchings.len(), 1);
        assert_eq!(best.matchings[0].label, "L4");
        assert!(best.remainder.is_edgeless());
    }

    #[test]
    fn broadcast_acg_decomposes_to_g123() {
        let acg = Acg::from_graph_uniform(DiGraph::out_star(4), EdgeDemand::from_volume(8.0));
        let lib = CommLibrary::standard();
        let out = decompose(&acg, &lib, Objective::Links);
        let best = out.best.unwrap();
        assert_eq!(best.matchings.len(), 1);
        assert_eq!(best.matchings[0].label, "G123");
    }

    #[test]
    fn unmatched_graph_is_all_remainder() {
        // Two antiparallel edges: no standard primitive matches.
        let acg = Acg::builder(4).volume(0, 1, 1.0).volume(1, 0, 1.0).build();
        let lib = CommLibrary::standard();
        let out = decompose(&acg, &lib, Objective::Links);
        let best = out.best.unwrap();
        assert!(best.matchings.is_empty());
        assert_eq!(best.remainder.edge_count(), 2);
        assert_eq!(best.total_cost.value(), 2.0); // two dedicated directed links
    }

    #[test]
    fn edges_are_conserved() {
        // Gossip + a stray edge.
        let mut g = DiGraph::complete(4);
        let mut big = DiGraph::new(6);
        for e in g.edges() {
            big.add_edge(e.src, e.dst);
        }
        big.add_edge(NodeId(4), NodeId(5));
        g = big;
        let acg = Acg::from_graph_uniform(g.clone(), EdgeDemand::from_volume(1.0));
        let lib = CommLibrary::standard();
        let out = decompose(&acg, &lib, Objective::Links);
        let best = out.best.unwrap();
        assert_eq!(best.all_edges(&lib), g.edge_vec());
    }

    #[test]
    fn cost_totals_are_consistent() {
        let acg = Acg::from_graph_uniform(DiGraph::complete(4), EdgeDemand::from_volume(8.0));
        let lib = CommLibrary::standard();
        for objective in [Objective::Links, Objective::Energy] {
            let out = decompose(&acg, &lib, objective);
            let best = out.best.unwrap();
            let sum: f64 = best.matchings.iter().map(|m| m.cost.value()).sum::<f64>()
                + best.remainder_cost.value();
            assert!((best.total_cost.value() - sum).abs() < 1e-12);
        }
    }

    #[test]
    fn bound_prunes_without_changing_result() {
        let mut g = DiGraph::complete(4);
        // Add a loop on the other 4 vertices.
        let mut big = DiGraph::new(8);
        for e in g.edges() {
            big.add_edge(e.src, e.dst);
        }
        for i in 4..8 {
            big.add_edge(NodeId(i), NodeId(4 + (i + 1) % 4));
        }
        g = big;
        let acg = Acg::from_graph_uniform(g, EdgeDemand::from_volume(1.0));
        let lib = CommLibrary::standard();
        let cm = cost_model(Objective::Links, 8);

        let with = Decomposer::new(&acg, &lib, cm.clone()).run();
        let without = Decomposer::new(&acg, &lib, cm)
            .config(DecomposerConfig {
                use_lower_bound: false,
                ..DecomposerConfig::default()
            })
            .run();
        let (b1, b2) = (with.best.unwrap(), without.best.unwrap());
        assert_eq!(b1.total_cost.value(), b2.total_cost.value());
        assert!(with.stats.nodes_visited <= without.stats.nodes_visited);
        assert!(with.stats.branches_pruned > 0);
    }

    #[test]
    fn timeout_returns_partial_result() {
        // A dense graph with an immediate timeout still yields a (possibly
        // all-remainder) decomposition.
        let acg = Acg::from_graph_uniform(DiGraph::complete(8), EdgeDemand::from_volume(1.0));
        let lib = CommLibrary::extended();
        let cm = cost_model(Objective::Links, 8);
        let out = Decomposer::new(&acg, &lib, cm)
            .timeout(Duration::from_millis(0))
            .run();
        assert!(out.stats.timed_out);
        assert!(out.best.is_some());
    }

    #[test]
    fn match_cap_limits_branching() {
        let acg = Acg::from_graph_uniform(DiGraph::complete(5), EdgeDemand::from_volume(1.0));
        let lib = CommLibrary::standard();
        let cm = cost_model(Objective::Links, 5);
        let capped = Decomposer::new(&acg, &lib, cm.clone()).run(); // default cap = 1
        let full = Decomposer::new(&acg, &lib, cm)
            .config(DecomposerConfig {
                max_matches_per_level: None,
                ..DecomposerConfig::default()
            })
            .run();
        assert!(capped.stats.nodes_visited <= full.stats.nodes_visited);
        assert!(capped.best.is_some());
    }

    #[test]
    fn paper_report_format() {
        let acg = Acg::from_graph_uniform(DiGraph::complete(4), EdgeDemand::from_volume(8.0));
        let lib = CommLibrary::standard();
        let out = decompose(&acg, &lib, Objective::Links);
        let report = out.best.unwrap().paper_report();
        assert!(report.starts_with("COST: 4\n"));
        assert!(report.contains("1: MGG4,\tMapping: (1 1), (2 2), (3 3), (4 4)"));
        assert!(report.contains("0: Remaining Graph: (empty)"));
    }

    #[test]
    fn deterministic_across_runs() {
        let acg = Acg::from_graph_uniform(DiGraph::complete(4), EdgeDemand::from_volume(8.0));
        let lib = CommLibrary::standard();
        let a = decompose(&acg, &lib, Objective::Links).best.unwrap();
        let b = decompose(&acg, &lib, Objective::Links).best.unwrap();
        assert_eq!(a.paper_report(), b.paper_report());
    }

    #[test]
    fn energy_objective_prefers_short_links() {
        // A 4-cycle placed on a line: the L4 loop must route the wrap-around
        // edge across the whole chip, while the remainder solution uses the
        // same direct links. Under Energy the costs tie, so the decomposition
        // with L4 still wins no extra cost... verify the search simply
        // completes and produces a finite cost.
        let acg = Acg::from_graph_uniform(DiGraph::cycle(4), EdgeDemand::from_volume(8.0));
        let lib = CommLibrary::standard();
        let out = decompose(&acg, &lib, Objective::Energy);
        let best = out.best.unwrap();
        assert!(best.total_cost.value().is_finite());
        assert!(best.total_cost.value() > 0.0);
    }

    // ---- explicit-frontier engine features --------------------------------

    fn fig5() -> Acg {
        pajek::fig5_benchmark()
    }

    fn run_with(acg: &Acg, config: DecomposerConfig) -> DecompositionOutcome {
        let lib = CommLibrary::standard();
        let cm = cost_model(Objective::Links, acg.core_count());
        Decomposer::new(acg, &lib, cm).config(config).run()
    }

    #[test]
    fn reconverging_paths_do_not_re_enumerate() {
        // With canonical sibling ordering off, permutations of the same
        // matching set reach identical remaining graphs along different
        // paths. The root-image subset filter absorbs the blowup: VF2
        // runs once per primitive on the root graph, so the permutation
        // explosion multiplies node visits but not enumerations.
        let acg = fig5();
        let canonical = run_with(&acg, DecomposerConfig::default());
        let out = run_with(
            &acg,
            DecomposerConfig {
                use_canonical_ordering: false,
                ..DecomposerConfig::default()
            },
        );
        assert!(out.best.is_some());
        assert!(
            out.stats.nodes_visited > canonical.stats.nodes_visited,
            "expected a permutation blowup: {:?} vs {:?}",
            out.stats,
            canonical.stats
        );
        assert_eq!(
            out.stats.cache_misses, canonical.stats.cache_misses,
            "enumeration count must not scale with the blowup"
        );
    }

    /// FNV-1a over bytes.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn exhaustive_searches_match_the_pinned_counters() {
        // The Figure 4 and campaign goldens run the default cap of one
        // image per primitive; an exhaustive search stages every image
        // above the canonical cut, so it leans hardest on the cut and the
        // path bookkeeping. Each row: the raw-match cap, then nodes
        // visited, leaves evaluated, branches pruned, graphs built, and
        // the FNV-1a of `paper_report`. At the default cap every root list
        // is complete; a low cap truncates some of them, and those
        // primitives enumerate per node, where the cut compares edge lists.
        let workloads = [
            ("fig5", pajek::fig5_benchmark()),
            ("automotive18", noc_workloads::automotive_18()),
            (
                "planted_n10_s0",
                noc_workloads::scenarios::planted_sized(10, 0),
            ),
            (
                "planted_n15_s0",
                noc_workloads::scenarios::planted_sized(15, 0),
            ),
        ];
        let all = DecomposerConfig::default().max_raw_matches;
        let pinned: [(&str, Objective, usize, [u64; 5]); 14] = [
            (
                "fig5",
                Objective::Links,
                all,
                [439, 1, 367, 1, 0x4a32_3f43_f69f_a1fb],
            ),
            (
                "fig5",
                Objective::Energy,
                all,
                [779, 3, 248, 3, 0x96b4_3b53_a55e_9f58],
            ),
            (
                "automotive18",
                Objective::Links,
                all,
                [176, 105, 0, 105, 0x2462_2d8a_3a6d_1037],
            ),
            (
                "automotive18",
                Objective::Energy,
                all,
                [38, 2, 103, 2, 0x240e_849a_d902_24fc],
            ),
            (
                "planted_n10_s0",
                Objective::Links,
                all,
                [50, 1, 627, 1, 0xaf00_e5cd_5697_45a4],
            ),
            (
                "planted_n10_s0",
                Objective::Energy,
                all,
                [181, 12, 327, 12, 0x321b_451e_a55e_3e93],
            ),
            (
                "planted_n15_s0",
                Objective::Links,
                all,
                [815, 10, 3219, 10, 0xc14a_0221_8209_97d3],
            ),
            (
                "planted_n15_s0",
                Objective::Energy,
                all,
                [625, 4, 866, 4, 0x37b1_5d97_5eb3_b293],
            ),
            (
                "fig5",
                Objective::Links,
                8,
                [338, 1, 331, 284, 0x4a32_3f43_f69f_a1fb],
            ),
            (
                "fig5",
                Objective::Energy,
                8,
                [642, 3, 239, 571, 0x96b4_3b53_a55e_9f58],
            ),
            (
                "automotive18",
                Objective::Links,
                20,
                [126, 85, 0, 211, 0x2462_2d8a_3a6d_1037],
            ),
            (
                "automotive18",
                Objective::Energy,
                20,
                [31, 2, 74, 33, 0x240e_849a_d902_24fc],
            ),
            (
                "planted_n15_s0",
                Objective::Links,
                20,
                [699, 10, 2965, 486, 0xc14a_0221_8209_97d3],
            ),
            (
                "planted_n15_s0",
                Objective::Energy,
                20,
                [568, 4, 825, 187, 0x37b1_5d97_5eb3_b293],
            ),
        ];
        let lib = CommLibrary::standard();
        for (label, objective, raw, [nodes, leaves, pruned, graphs, digest]) in pinned {
            let acg = &workloads.iter().find(|(l, _)| *l == label).unwrap().1;
            let out = Decomposer::new(acg, &lib, cost_model(objective, acg.core_count()))
                .config(DecomposerConfig {
                    max_matches_per_level: None,
                    max_raw_matches: raw,
                    ..DecomposerConfig::default()
                })
                .run();
            let s = out.stats;
            let report = out.best.expect("a leaf is always reached").paper_report();
            assert_eq!(
                (s.nodes_visited, s.leaves_evaluated),
                (nodes, leaves),
                "{label} {objective:?} raw {raw}: nodes visited, leaves evaluated"
            );
            assert_eq!(
                (s.branches_pruned, s.graphs_built),
                (pruned, graphs),
                "{label} {objective:?} raw {raw}: branches pruned, graphs built"
            );
            assert_eq!(
                fnv1a(report.as_bytes()),
                digest,
                "{label} {objective:?} raw {raw}: paper_report digest\n{report}"
            );
        }
    }

    #[test]
    fn truncated_root_lists_fall_back_per_node() {
        // With at most 20 raw matches, MGG4 (4 root images) and G124 (12)
        // keep their root lists while G123 (52) and L4 (30) are truncated
        // and enumerate per node: both paths run side by side on every
        // node. The search is the default one's, node for node.
        let acg = noc_aes::aes_acg(0.0);
        let lib = CommLibrary::standard();
        let out = run_with(
            &acg,
            DecomposerConfig {
                max_raw_matches: 20,
                ..DecomposerConfig::default()
            },
        );
        let default = run_with(&acg, DecomposerConfig::default());
        let (best, stats) = (out.best.unwrap(), out.stats);
        assert_eq!(best.total_cost.value(), 28.0);
        assert_eq!(best.paper_report(), default.best.unwrap().paper_report());
        assert_eq!(best.all_edges(&lib), acg.graph().edge_vec());
        assert_eq!((stats.nodes_visited, stats.leaves_evaluated), (55, 1));
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 92));
        // One graph per node for its per-node VF2 runs, plus the leaf's
        // own; the default search, all root lists, builds only the leaf's.
        assert_eq!((stats.graphs_built, default.stats.graphs_built), (56, 1));
    }

    #[test]
    fn disabling_cache_changes_nothing_but_stats() {
        let acg = fig5();
        let cached = run_with(&acg, DecomposerConfig::default());
        let uncached = run_with(
            &acg,
            DecomposerConfig {
                use_match_cache: false,
                ..DecomposerConfig::default()
            },
        );
        assert_eq!(
            cached.best.unwrap().paper_report(),
            uncached.best.unwrap().paper_report()
        );
        assert_eq!(uncached.stats.cache_hits, 0);
        assert_eq!(uncached.stats.cache_misses, 0);
    }

    #[test]
    fn shared_cache_carries_enumerations_across_runs() {
        let acg = pajek::fig5_benchmark();
        let lib = CommLibrary::standard();
        let shared = SharedMatchCache::new(1 << 12);
        let config = DecomposerConfig {
            shared_cache: Some(shared.clone()),
            ..DecomposerConfig::default()
        };
        let cold = Decomposer::new(&acg, &lib, cost_model(Objective::Links, acg.core_count()))
            .config(config.clone())
            .run();
        // Second run on the same workload under a different objective: the
        // enumerations are cost-independent, so the search starts warm.
        let warm = Decomposer::new(&acg, &lib, cost_model(Objective::Energy, acg.core_count()))
            .config(config)
            .run();
        assert_eq!(cold.stats.cache_hits, 0);
        assert!(
            warm.stats.cache_misses < cold.stats.cache_misses,
            "warm run should re-enumerate less: {:?} vs {:?}",
            warm.stats,
            cold.stats
        );
        assert!(warm.stats.cache_hits > 0);
        // Per-run stats are deltas, not the shared cumulative counters.
        assert_eq!(shared.hits(), cold.stats.cache_hits + warm.stats.cache_hits);
    }

    #[test]
    fn shared_cache_serves_multiple_vertex_counts() {
        let lib = CommLibrary::standard();
        let shared = SharedMatchCache::new(1 << 12);
        let config = DecomposerConfig {
            shared_cache: Some(shared.clone()),
            ..DecomposerConfig::default()
        };
        let small = Acg::from_graph_uniform(DiGraph::complete(4), EdgeDemand::from_volume(8.0));
        let big = Acg::from_graph_uniform(DiGraph::cycle(6), EdgeDemand::from_volume(8.0));
        for acg in [&small, &big] {
            // Two runs per size (different objectives): the second starts
            // warm from the size-tagged shared entries.
            let n = acg.core_count();
            let cold = Decomposer::new(acg, &lib, cost_model(Objective::Links, n))
                .config(config.clone())
                .run();
            let warm = Decomposer::new(acg, &lib, cost_model(Objective::Energy, n))
                .config(config.clone())
                .run();
            assert!(cold.best.is_some() && warm.best.is_some());
            assert!(warm.stats.cache_hits > 0, "size {n} never warmed up");
        }
        // One cache, two sizes, nonzero hits attributed to each.
        let stats = shared.size_stats();
        let sizes: Vec<usize> = stats.iter().map(|s| s.vertex_count).collect();
        assert_eq!(sizes, vec![4, 6]);
        assert!(stats.iter().all(|s| s.hits > 0 && s.graphs > 0));
        assert_eq!(shared.hits(), stats.iter().map(|s| s.hits).sum::<u64>());
    }

    #[test]
    fn identical_bitsets_at_different_sizes_do_not_collide() {
        // A 4-vertex complete graph and a 6-vertex graph can in principle
        // produce overlapping edge-bit indices; the size tag keeps their
        // searches correct *and* their entries separate. Equivalence with
        // a private-cache run is the correctness oracle.
        let lib = CommLibrary::standard();
        let shared = SharedMatchCache::new(1 << 12);
        let config = DecomposerConfig {
            shared_cache: Some(shared.clone()),
            ..DecomposerConfig::default()
        };
        for n in [4usize, 6] {
            let acg = Acg::from_graph_uniform(DiGraph::complete(n), EdgeDemand::from_volume(8.0));
            let with_shared = Decomposer::new(&acg, &lib, cost_model(Objective::Links, n))
                .config(config.clone())
                .run();
            let private = Decomposer::new(&acg, &lib, cost_model(Objective::Links, n)).run();
            assert_eq!(
                with_shared.best.map(|d| d.total_cost.value()),
                private.best.map(|d| d.total_cost.value()),
                "shared cache perturbed the {n}-vertex optimum"
            );
        }
    }
}
