//! The VF2 match-enumeration cache.
//!
//! Every search-tree node enumerates, per library primitive, the distinct
//! subgraph images of the primitive's representation graph in the node's
//! *remaining graph*. Different paths through the tree frequently reach the
//! same remaining graph (most obviously: permutations of the same matching
//! set when canonical sibling ordering is disabled), and re-running VF2
//! there is pure waste — enumeration depends only on (remaining graph,
//! primitive).
//!
//! The cache keys entries by a **size-tagged** graph identity: the
//! remaining graph's vertex count plus its edge
//! [`BitSetKey`](noc_graph::BitSetKey) (edge bit `i` encodes
//! `(i / n, i % n)`, so the bitset only identifies a graph *given* `n`;
//! tagging the key with `n` makes entries from different graph sizes
//! collision-free in one map), nested with one slot per primitive. It
//! stores the *complete* distinct-image list with each image's covered
//! edge set precomputed. Incomplete enumerations — deadline expired or the
//! raw-match cap hit — are never cached, so a cached entry is always safe
//! to reuse.
//!
//! Because keys are size-tagged, one [`SharedMatchCache`] can serve a whole
//! size sweep: searches over 8-vertex and 16-vertex applications share the
//! map without any binding handshake (the pre-size-tag design bound a
//! shared cache to the first vertex count it saw and silently fell back to
//! a private cache on mismatch).
//!
//! The cache is shared across the worker threads of an exploration
//! campaign; a plain mutex-guarded map suffices because VF2 enumeration
//! dominates the lock by orders of magnitude.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use noc_graph::{iso::Mapping, BitSetKey, Edge};
use noc_primitives::PrimitiveId;

/// A match cache shared *across* decomposer runs.
///
/// The per-run cache already amortizes VF2 work within one search; a shared
/// cache extends that across searches — most profitably over the **same
/// application graph** (different placements, technologies, objectives or
/// engine knobs), where identical remaining graphs recur and the
/// enumeration is placement- and cost-independent. Exploration campaigns
/// (`noc-explore`) hand one of these to every scenario point.
///
/// Keys are size-tagged (vertex count, edge-bitset key), so a single cache
/// is sound for searches over *any* mix of graph sizes; use
/// [`size_stats`](Self::size_stats) to see which sizes it served.
#[derive(Debug, Clone)]
pub struct SharedMatchCache {
    inner: Arc<MatchCache>,
}

impl SharedMatchCache {
    /// An empty shared cache holding at most `capacity` distinct
    /// size-tagged remaining graphs.
    pub fn new(capacity: usize) -> Self {
        SharedMatchCache {
            inner: Arc::new(MatchCache::new(capacity)),
        }
    }

    /// Cumulative hits across every run that used this cache.
    pub fn hits(&self) -> u64 {
        self.inner.hits()
    }

    /// Cumulative misses across every run that used this cache.
    pub fn misses(&self) -> u64 {
        self.inner.misses()
    }

    /// Cumulative per-vertex-count traffic, ascending by vertex count —
    /// one entry per graph size this cache has served.
    pub fn size_stats(&self) -> Vec<SizeCacheStats> {
        self.inner.size_stats()
    }

    /// The underlying cache handle.
    pub(crate) fn inner(&self) -> Arc<MatchCache> {
        Arc::clone(&self.inner)
    }
}

/// Cache traffic attributed to one graph size (vertex count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeCacheStats {
    /// Vertex count of the searches this row aggregates.
    pub vertex_count: usize,
    /// Enumerations answered from the cache.
    pub hits: u64,
    /// Enumerations that had to run.
    pub misses: u64,
    /// Distinct remaining graphs currently cached at this size.
    pub graphs: usize,
}

/// One primitive's complete distinct-image enumeration on one remaining
/// graph: each mapping paired with its covered (image) edge set, sorted.
pub(crate) type ImageList = Arc<Vec<(Mapping, Vec<Edge>)>>;

/// One cached enumeration plus the pattern vertex count it was computed
/// for — recorded explicitly so even an *empty* "no matches" entry is
/// rejected when looked up under a different pattern binding for the same
/// id (sharing one cache across two primitive libraries fails closed, not
/// open).
#[derive(Debug, Clone)]
struct CachedImages {
    images: ImageList,
    arity: usize,
}

/// Per-size slot: the memo map for one vertex count plus its traffic
/// counters (kept per size so campaigns can report which sizes a shared
/// cache actually served).
#[derive(Debug, Default)]
struct SizeSlot {
    map: HashMap<BitSetKey, HashMap<PrimitiveId, CachedImages>>,
    hits: u64,
    misses: u64,
}

/// Guarded cache state: size slots plus the total distinct-graph count
/// (what `capacity` bounds, across all sizes).
#[derive(Debug, Default)]
struct CacheState {
    sizes: HashMap<usize, SizeSlot>,
    graphs: usize,
}

/// Thread-safe memo of VF2 enumerations, keyed by (vertex count, edge key,
/// primitive) — nested so lookups borrow the edge key instead of cloning
/// it (the lookup sits on the per-node hot path).
#[derive(Debug)]
pub(crate) struct MatchCache {
    state: Mutex<CacheState>,
    capacity: usize,
}

impl MatchCache {
    /// An empty cache holding at most `capacity` entries (inserts beyond
    /// that are dropped; lookups keep working).
    pub(crate) fn new(capacity: usize) -> Self {
        MatchCache {
            state: Mutex::new(CacheState::default()),
            capacity,
        }
    }

    /// Looks up an enumeration for an `n`-vertex remaining graph, counting
    /// a hit or miss against that size. `arity` is the caller's pattern
    /// vertex count: an entry recorded under a different arity was
    /// produced under a different primitive binding for this id (e.g. two
    /// libraries sharing one cache) and is rejected — counted as a miss,
    /// so hit statistics never credit entries the search could not use.
    pub(crate) fn get(
        &self,
        n: usize,
        key: &BitSetKey,
        primitive: PrimitiveId,
        arity: usize,
    ) -> Option<ImageList> {
        let mut state = self.state.lock().expect("match cache lock");
        let slot = state.sizes.entry(n).or_default();
        let found = slot
            .map
            .get(key)
            .and_then(|per_primitive| per_primitive.get(&primitive))
            .filter(|entry| entry.arity == arity)
            .cloned();
        if found.is_some() {
            slot.hits += 1;
        } else {
            slot.misses += 1;
        }
        found.map(|entry| entry.images)
    }

    /// Peeks without counting (used by leaf-detection existence probes, so
    /// a probe does not inflate the miss statistics). Applies the same
    /// arity rejection as [`get`](Self::get).
    pub(crate) fn peek(
        &self,
        n: usize,
        key: &BitSetKey,
        primitive: PrimitiveId,
        arity: usize,
    ) -> Option<ImageList> {
        self.state
            .lock()
            .expect("match cache lock")
            .sizes
            .get(&n)
            .and_then(|slot| slot.map.get(key))
            .and_then(|per_primitive| per_primitive.get(&primitive))
            .filter(|entry| entry.arity == arity)
            .map(|entry| entry.images.clone())
    }

    /// Stores a complete enumeration, unless the cache is full (capacity
    /// counts distinct size-tagged remaining graphs; primitives nest under
    /// each).
    pub(crate) fn insert(
        &self,
        n: usize,
        key: BitSetKey,
        primitive: PrimitiveId,
        arity: usize,
        images: ImageList,
    ) {
        let mut state = self.state.lock().expect("match cache lock");
        let full = state.graphs >= self.capacity;
        let slot = state.sizes.entry(n).or_default();
        let known = slot.map.contains_key(&key);
        if !known && full {
            return;
        }
        slot.map
            .entry(key)
            .or_default()
            .insert(primitive, CachedImages { images, arity });
        if !known {
            state.graphs += 1;
        }
    }

    /// Hit count so far, summed over every size.
    pub(crate) fn hits(&self) -> u64 {
        let state = self.state.lock().expect("match cache lock");
        state.sizes.values().map(|s| s.hits).sum()
    }

    /// Miss count so far, summed over every size.
    pub(crate) fn misses(&self) -> u64 {
        let state = self.state.lock().expect("match cache lock");
        state.sizes.values().map(|s| s.misses).sum()
    }

    /// Per-size traffic, ascending by vertex count.
    pub(crate) fn size_stats(&self) -> Vec<SizeCacheStats> {
        let state = self.state.lock().expect("match cache lock");
        let mut stats: Vec<SizeCacheStats> = state
            .sizes
            .iter()
            .map(|(&vertex_count, slot)| SizeCacheStats {
                vertex_count,
                hits: slot.hits,
                misses: slot.misses,
                graphs: slot.map.len(),
            })
            .collect();
        stats.sort_by_key(|s| s.vertex_count);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_graph::{DiGraph, NodeId};

    fn key_of(g: &DiGraph) -> (usize, BitSetKey) {
        (g.node_count(), g.edge_key())
    }

    #[test]
    fn get_counts_hits_and_misses() {
        let cache = MatchCache::new(16);
        let g = DiGraph::cycle(4);
        let (n, key) = key_of(&g);
        let id = PrimitiveId(0);
        assert!(cache.get(n, &key, id, 2).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        let images: ImageList = Arc::new(vec![(
            Mapping::new(vec![NodeId(0), NodeId(1)]),
            vec![Edge::new(NodeId(0), NodeId(1))],
        )]);
        cache.insert(n, key.clone(), id, 2, images);
        assert!(cache.get(n, &key, id, 2).is_some());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // A different primitive on the same graph is a distinct entry.
        assert!(cache.get(n, &key, PrimitiveId(1), 2).is_none());
    }

    #[test]
    fn arity_mismatch_is_a_miss_not_a_hit() {
        // An entry whose mappings have the wrong arity (a cache shared
        // across different primitive libraries) must be rejected AND
        // counted as a miss — hit statistics never credit entries the
        // search could not consume.
        let cache = MatchCache::new(16);
        let g = DiGraph::cycle(4);
        let (n, key) = key_of(&g);
        let images: ImageList = Arc::new(vec![(
            Mapping::new(vec![NodeId(0), NodeId(1)]),
            vec![Edge::new(NodeId(0), NodeId(1))],
        )]);
        cache.insert(n, key.clone(), PrimitiveId(0), 2, images);
        assert!(cache.get(n, &key, PrimitiveId(0), 3).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        assert!(cache.peek(n, &key, PrimitiveId(0), 3).is_none());
        // The matching arity still answers (and counts the hit).
        assert!(cache.get(n, &key, PrimitiveId(0), 2).is_some());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn peek_does_not_count() {
        let cache = MatchCache::new(16);
        let g = DiGraph::complete(3);
        let (n, key) = key_of(&g);
        assert!(cache.peek(n, &key, PrimitiveId(0), 2).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn capacity_bounds_inserts_across_sizes() {
        let cache = MatchCache::new(1);
        let a = DiGraph::cycle(3);
        let b = DiGraph::cycle(4);
        let (na, ka) = key_of(&a);
        let (nb, kb) = key_of(&b);
        let empty: ImageList = Arc::new(Vec::new());
        cache.insert(na, ka.clone(), PrimitiveId(0), 2, empty.clone());
        // A second primitive on an already-cached graph still lands.
        cache.insert(na, ka.clone(), PrimitiveId(1), 2, empty.clone());
        // A new graph — even at a different size — is over capacity.
        cache.insert(nb, kb.clone(), PrimitiveId(0), 2, empty);
        assert!(cache.peek(na, &ka, PrimitiveId(0), 2).is_some());
        assert!(cache.peek(na, &ka, PrimitiveId(1), 2).is_some());
        assert!(cache.peek(nb, &kb, PrimitiveId(0), 2).is_none());
    }

    #[test]
    fn sizes_do_not_collide() {
        // The same edge bitset under two vertex counts names two different
        // graphs; size tagging keeps the entries apart.
        let cache = MatchCache::new(16);
        let small = DiGraph::cycle(3);
        let (n, key) = key_of(&small);
        let images: ImageList = Arc::new(Vec::new());
        cache.insert(n, key.clone(), PrimitiveId(0), 2, images);
        assert!(cache.peek(n, &key, PrimitiveId(0), 2).is_some());
        assert!(cache.peek(n + 1, &key, PrimitiveId(0), 2).is_none());
    }

    #[test]
    fn size_stats_track_per_size_traffic() {
        let cache = MatchCache::new(16);
        let a = DiGraph::cycle(3);
        let b = DiGraph::cycle(5);
        let (na, ka) = key_of(&a);
        let (nb, kb) = key_of(&b);
        let empty: ImageList = Arc::new(Vec::new());
        assert!(cache.get(na, &ka, PrimitiveId(0), 2).is_none()); // miss @3
        cache.insert(na, ka.clone(), PrimitiveId(0), 2, empty.clone());
        assert!(cache.get(na, &ka, PrimitiveId(0), 2).is_some()); // hit @3
        assert!(cache.get(nb, &kb, PrimitiveId(0), 2).is_none()); // miss @5
        cache.insert(nb, kb, PrimitiveId(0), 2, empty);

        let stats = cache.size_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].vertex_count, 3);
        assert_eq!((stats[0].hits, stats[0].misses, stats[0].graphs), (1, 1, 1));
        assert_eq!(stats[1].vertex_count, 5);
        assert_eq!((stats[1].hits, stats[1].misses, stats[1].graphs), (0, 1, 1));
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }
}
