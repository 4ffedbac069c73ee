//! Simulation-ready network models.

use std::collections::BTreeMap;

use noc_graph::{DiGraph, NodeId};
use noc_synthesis::Architecture;
use noc_verify::RoutingSpec;

/// How a packet's route is selected when alternates exist.
///
/// The paper's conclusion lists "adaptive or stochastic routing strategies"
/// as future work; [`RoutePolicy::Stochastic`] implements the classic
/// oblivious O1TURN scheme — each packet picks XY or YX minimal routing
/// with equal probability, on separate virtual-channel layers so the
/// combination stays deadlock-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Always use the primary route table.
    Fixed,
    /// Choose per packet between the primary and alternate route tables,
    /// deterministically seeded.
    Stochastic {
        /// Seed for the per-packet choice.
        seed: u64,
    },
}

/// A network ready for simulation: directed channels, a route for every
/// communicating pair, per-channel wire lengths, and a per-hop virtual
/// channel assignment guaranteeing deadlock freedom.
#[derive(Debug, Clone)]
pub struct NocModel {
    topology: DiGraph,
    routes: BTreeMap<(NodeId, NodeId), Vec<NodeId>>,
    vcs: BTreeMap<(NodeId, NodeId), Vec<usize>>,
    lengths: BTreeMap<(NodeId, NodeId), f64>,
    num_vcs: usize,
    name: String,
    uniform_radix: Option<usize>,
    alt_routes: BTreeMap<(NodeId, NodeId), Vec<NodeId>>,
    alt_vcs: BTreeMap<(NodeId, NodeId), Vec<usize>>,
    policy: RoutePolicy,
}

/// Every field equal, link lengths compared by bits: equal models compile
/// to the same simulator tables and so produce the same reports, bit for
/// bit, under any energy model. (`-0.0` and `0.0` lengths differ here,
/// though `f64` equality would merge them.)
impl PartialEq for NocModel {
    fn eq(&self, other: &Self) -> bool {
        let NocModel {
            topology,
            routes,
            vcs,
            lengths,
            num_vcs,
            name,
            uniform_radix,
            alt_routes,
            alt_vcs,
            policy,
        } = self;
        *topology == other.topology
            && *routes == other.routes
            && *vcs == other.vcs
            && lengths.len() == other.lengths.len()
            && lengths
                .iter()
                .zip(&other.lengths)
                .all(|((a, x), (b, y))| a == b && x.to_bits() == y.to_bits())
            && *num_vcs == other.num_vcs
            && *name == other.name
            && *uniform_radix == other.uniform_radix
            && *alt_routes == other.alt_routes
            && *alt_vcs == other.alt_vcs
            && *policy == other.policy
    }
}

impl Eq for NocModel {}

impl NocModel {
    /// Builds a model from a synthesized [`Architecture`] — routes come
    /// from the decomposition schedules (plus any shortest-path fills the
    /// caller performed), VCs from the architecture's deadlock analysis.
    pub fn from_architecture(arch: &Architecture) -> Self {
        let (vcs, num_vcs) = arch.assign_virtual_channels();
        let routes: BTreeMap<(NodeId, NodeId), Vec<NodeId>> = arch
            .routes()
            .map(|(pair, path)| (pair, path.to_vec()))
            .collect();
        let lengths = arch
            .links()
            .map(|(pair, info)| (pair, info.length_mm))
            .collect();
        NocModel {
            topology: arch.topology().clone(),
            routes,
            vcs,
            lengths,
            num_vcs,
            name: "custom".into(),
            uniform_radix: None,
            alt_routes: BTreeMap::new(),
            alt_vcs: BTreeMap::new(),
            policy: RoutePolicy::Fixed,
        }
    }

    /// The standard `cols x rows` mesh baseline with dimension-ordered
    /// (X-then-Y) routing — deadlock-free on one virtual channel — and
    /// `pitch_mm` tile spacing. Nodes are numbered row-major.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn mesh(cols: usize, rows: usize, pitch_mm: f64) -> Self {
        assert!(cols > 0 && rows > 0, "mesh must be non-empty");
        let n = cols * rows;
        let id = |x: usize, y: usize| NodeId(y * cols + x);
        let mut topology = DiGraph::new(n);
        let mut lengths = BTreeMap::new();
        for y in 0..rows {
            for x in 0..cols {
                let mut connect = |a: NodeId, b: NodeId| {
                    topology.add_edge(a, b);
                    topology.add_edge(b, a);
                    lengths.insert((a, b), pitch_mm);
                    lengths.insert((b, a), pitch_mm);
                };
                if x + 1 < cols {
                    connect(id(x, y), id(x + 1, y));
                }
                if y + 1 < rows {
                    connect(id(x, y), id(x, y + 1));
                }
            }
        }
        // XY routes for all ordered pairs.
        let mut routes = BTreeMap::new();
        let mut vcs = BTreeMap::new();
        for sy in 0..rows {
            for sx in 0..cols {
                for dy in 0..rows {
                    for dx in 0..cols {
                        if (sx, sy) == (dx, dy) {
                            continue;
                        }
                        let mut path = vec![id(sx, sy)];
                        let (mut x, mut y) = (sx, sy);
                        while x != dx {
                            x = if dx > x { x + 1 } else { x - 1 };
                            path.push(id(x, y));
                        }
                        while y != dy {
                            y = if dy > y { y + 1 } else { y - 1 };
                            path.push(id(x, y));
                        }
                        vcs.insert((id(sx, sy), id(dx, dy)), vec![0; path.len() - 1]);
                        routes.insert((id(sx, sy), id(dx, dy)), path);
                    }
                }
            }
        }
        NocModel {
            topology,
            routes,
            vcs,
            lengths,
            num_vcs: 1,
            name: format!("mesh-{cols}x{rows}"),
            // A standard mesh replicates one uniform router design sized
            // for the busiest tile: 4 neighbors + 1 local port.
            uniform_radix: Some(5),
            alt_routes: BTreeMap::new(),
            alt_vcs: BTreeMap::new(),
            policy: RoutePolicy::Fixed,
        }
    }

    /// A model from explicit parts (for tests and custom experiments).
    ///
    /// Every route must run over topology edges; hops default to VC 0 and
    /// `default_length_mm` unless overridden in `lengths`.
    ///
    /// # Panics
    ///
    /// Panics if a route hop is not a topology edge.
    pub fn from_parts(
        name: impl Into<String>,
        topology: DiGraph,
        routes: BTreeMap<(NodeId, NodeId), Vec<NodeId>>,
        lengths: BTreeMap<(NodeId, NodeId), f64>,
        default_length_mm: f64,
    ) -> Self {
        let mut full_lengths = BTreeMap::new();
        for e in topology.edges() {
            let l = lengths
                .get(&(e.src, e.dst))
                .copied()
                .unwrap_or(default_length_mm);
            full_lengths.insert((e.src, e.dst), l);
        }
        for (pair, route) in &routes {
            assert_eq!(route.first(), Some(&pair.0), "route must start at src");
            assert_eq!(route.last(), Some(&pair.1), "route must end at dst");
            for w in route.windows(2) {
                assert!(
                    topology.has_edge(w[0], w[1]),
                    "route hop {} -> {} is not a channel",
                    w[0],
                    w[1]
                );
            }
        }
        let vcs = routes
            .iter()
            .map(|(&pair, route)| (pair, vec![0; route.len() - 1]))
            .collect();
        NocModel {
            topology,
            routes,
            vcs,
            lengths: full_lengths,
            num_vcs: 1,
            name: name.into(),
            uniform_radix: None,
            alt_routes: BTreeMap::new(),
            alt_vcs: BTreeMap::new(),
            policy: RoutePolicy::Fixed,
        }
    }

    /// Model name (`custom`, `mesh-4x4`, …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of network nodes.
    pub fn node_count(&self) -> usize {
        self.topology.node_count()
    }

    /// The channel graph.
    pub fn topology(&self) -> &DiGraph {
        &self.topology
    }

    /// Number of virtual channels required.
    pub fn num_vcs(&self) -> usize {
        self.num_vcs
    }

    /// The route for `(src, dst)`, if that pair can communicate.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<&[NodeId]> {
        self.routes.get(&(src, dst)).map(Vec::as_slice)
    }

    /// Per-hop VC indices for `(src, dst)`.
    pub fn route_vcs(&self, src: NodeId, dst: NodeId) -> Option<&[usize]> {
        self.vcs.get(&(src, dst)).map(Vec::as_slice)
    }

    /// Wire length of channel `(src, dst)` in millimetres.
    ///
    /// # Panics
    ///
    /// Panics if the channel does not exist.
    pub fn link_length_mm(&self, src: NodeId, dst: NodeId) -> f64 {
        self.lengths[&(src, dst)]
    }

    /// Iterates all channels with their lengths.
    pub fn links(&self) -> impl Iterator<Item = ((NodeId, NodeId), f64)> + '_ {
        self.lengths.iter().map(|(&k, &v)| (k, v))
    }

    /// The router radix (port count) at node `v`: the number of physical
    /// neighbor links plus one local port — unless the model declares a
    /// uniform router design (standard meshes replicate one radix-5 router
    /// everywhere, which is exactly the over-design the paper's customized
    /// switches avoid).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn node_radix(&self, v: NodeId) -> usize {
        if let Some(r) = self.uniform_radix {
            return r;
        }
        let mut neighbors = std::collections::BTreeSet::new();
        neighbors.extend(self.topology.successors(v));
        neighbors.extend(self.topology.predecessors(v));
        neighbors.len() + 1
    }

    /// Declares that every node uses one uniform router of the given radix
    /// (energy accounting then charges that radix everywhere).
    #[must_use]
    pub fn with_uniform_radix(mut self, radix: usize) -> Self {
        self.uniform_radix = Some(radix);
        self
    }

    /// The O1TURN stochastic-routing mesh: each packet picks dimension
    /// order XY (virtual channel 0) or YX (virtual channel 1) with equal
    /// probability — the oblivious "stochastic routing strategy" the paper
    /// lists as future work. Deadlock-free because each dimension order is
    /// confined to its own VC layer.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn mesh_o1turn(cols: usize, rows: usize, pitch_mm: f64, seed: u64) -> Self {
        let mut model = NocModel::mesh(cols, rows, pitch_mm);
        let id = |x: usize, y: usize| NodeId(y * cols + x);
        let mut alt_routes = BTreeMap::new();
        let mut alt_vcs = BTreeMap::new();
        for sy in 0..rows {
            for sx in 0..cols {
                for dy in 0..rows {
                    for dx in 0..cols {
                        if (sx, sy) == (dx, dy) {
                            continue;
                        }
                        // YX: go vertical first, then horizontal.
                        let mut path = vec![id(sx, sy)];
                        let (mut x, mut y) = (sx, sy);
                        while y != dy {
                            y = if dy > y { y + 1 } else { y - 1 };
                            path.push(id(x, y));
                        }
                        while x != dx {
                            x = if dx > x { x + 1 } else { x - 1 };
                            path.push(id(x, y));
                        }
                        alt_vcs.insert((id(sx, sy), id(dx, dy)), vec![1; path.len() - 1]);
                        alt_routes.insert((id(sx, sy), id(dx, dy)), path);
                    }
                }
            }
        }
        model.alt_routes = alt_routes;
        model.alt_vcs = alt_vcs;
        model.num_vcs = 2;
        model.policy = RoutePolicy::Stochastic { seed };
        model.name = format!("mesh-o1turn-{cols}x{rows}");
        model
    }

    /// The active route policy.
    pub fn policy(&self) -> RoutePolicy {
        self.policy
    }

    /// The route and VC sequence packet number `packet_idx` uses for
    /// `(src, dst)`, honoring the route policy. Returns `None` when the
    /// pair is unroutable.
    pub fn route_for_packet(
        &self,
        src: NodeId,
        dst: NodeId,
        packet_idx: usize,
    ) -> Option<(&[NodeId], &[usize])> {
        let primary = || {
            Some((
                self.routes.get(&(src, dst))?.as_slice(),
                self.vcs.get(&(src, dst))?.as_slice(),
            ))
        };
        match self.policy {
            RoutePolicy::Fixed => primary(),
            RoutePolicy::Stochastic { seed } => {
                // A small deterministic hash of (seed, packet) picks the
                // dimension order.
                let mut h = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(packet_idx as u64);
                h ^= h >> 33;
                h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
                h ^= h >> 33;
                if h & 1 == 0 || self.alt_routes.is_empty() {
                    primary()
                } else {
                    Some((
                        self.alt_routes.get(&(src, dst))?.as_slice(),
                        self.alt_vcs.get(&(src, dst))?.as_slice(),
                    ))
                }
            }
        }
    }

    /// The full primary route table, for route compilation by the engine.
    pub(crate) fn routes_map(&self) -> &BTreeMap<(NodeId, NodeId), Vec<NodeId>> {
        &self.routes
    }

    /// The full primary VC table, for route compilation by the engine.
    pub(crate) fn vcs_map(&self) -> &BTreeMap<(NodeId, NodeId), Vec<usize>> {
        &self.vcs
    }

    /// The alternate route table, for route compilation by the engine.
    pub(crate) fn alt_routes_map(&self) -> &BTreeMap<(NodeId, NodeId), Vec<NodeId>> {
        &self.alt_routes
    }

    /// The alternate VC table, for route compilation by the engine.
    pub(crate) fn alt_vcs_map(&self) -> &BTreeMap<(NodeId, NodeId), Vec<usize>> {
        &self.alt_vcs
    }

    /// The model's routing behavior as a [`noc_verify::RoutingSpec`]: the
    /// channels of the topology, the model's VC count, and **every route
    /// table a packet might follow** — under [`RoutePolicy::Stochastic`]
    /// both the primary and the alternate tables join the union, because
    /// a packet committed to either one holds its channel/VC resources
    /// (the O1TURN union argument).
    pub fn routing_spec(&self) -> noc_verify::RoutingSpec {
        let channels = self.topology.edges().map(|e| (e.src, e.dst));
        let mut spec = RoutingSpec::new(self.name.clone(), channels, self.num_vcs).route_set(
            noc_verify::RouteSet::from_tables("primary", &self.routes, &self.vcs),
        );
        if matches!(self.policy, RoutePolicy::Stochastic { .. }) && !self.alt_routes.is_empty() {
            spec = spec.route_set(noc_verify::RouteSet::from_tables(
                "alternate",
                &self.alt_routes,
                &self.alt_vcs,
            ));
        }
        spec
    }

    /// Statically verifies the model deadlock-free: lint pass plus
    /// acyclicity of the VC-aware extended channel dependency graph over
    /// all route tables the policy can select. See [`noc_verify`].
    pub fn verify(&self) -> noc_verify::Verdict {
        noc_verify::verify(&self.routing_spec())
    }

    /// Mean route length in hops over all routed pairs.
    pub fn avg_route_hops(&self) -> f64 {
        if self.routes.is_empty() {
            return 0.0;
        }
        self.routes.values().map(|r| r.len() - 1).sum::<usize>() as f64 / self.routes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_compares_every_field_and_link_lengths_by_bits() {
        let mesh = NocModel::mesh(2, 2, 1.0);
        assert_eq!(mesh, mesh.clone());
        assert_eq!(mesh, NocModel::mesh(2, 2, 1.0));
        let next_up = f64::from_bits(1.0f64.to_bits() + 1);
        assert_ne!(mesh, NocModel::mesh(2, 2, next_up));
        // `-0.0 == 0.0` as floats, but not as wire lengths.
        assert_ne!(NocModel::mesh(2, 2, 0.0), NocModel::mesh(2, 2, -0.0));
        assert_ne!(mesh, mesh.clone().with_uniform_radix(3));
        assert_ne!(mesh, NocModel::mesh_o1turn(2, 2, 1.0, 1));
        assert_ne!(
            NocModel::mesh_o1turn(2, 2, 1.0, 1),
            NocModel::mesh_o1turn(2, 2, 1.0, 2)
        );
    }

    #[test]
    fn mesh_4x4_structure() {
        let m = NocModel::mesh(4, 4, 2.0);
        assert_eq!(m.node_count(), 16);
        assert_eq!(m.name(), "mesh-4x4");
        // 2 * (3*4 + 3*4) = 48 directed channels.
        assert_eq!(m.topology().edge_count(), 48);
        assert_eq!(m.num_vcs(), 1);
        // All 240 ordered pairs routed.
        assert_eq!(m.routes.len(), 240);
    }

    #[test]
    fn mesh_xy_route_goes_x_first() {
        let m = NocModel::mesh(4, 4, 2.0);
        // 0 (0,0) -> 15 (3,3): x to 3, then y down.
        let r = m.route(NodeId(0), NodeId(15)).unwrap();
        assert_eq!(
            r,
            &[
                NodeId(0),
                NodeId(1),
                NodeId(2),
                NodeId(3),
                NodeId(7),
                NodeId(11),
                NodeId(15)
            ]
        );
        // Mesh XY average hops on 4x4 = 40/9 per the uniform formula; just
        // sanity check the range.
        let avg = m.avg_route_hops();
        assert!(avg > 2.0 && avg < 3.0, "avg hops {avg}");
    }

    #[test]
    fn mesh_routes_use_channels_and_unit_vcs() {
        let m = NocModel::mesh(3, 2, 1.5);
        for (&(s, d), r) in &m.routes {
            assert_eq!(r[0], s);
            assert_eq!(*r.last().unwrap(), d);
            for w in r.windows(2) {
                assert!(m.topology().has_edge(w[0], w[1]));
                assert_eq!(m.link_length_mm(w[0], w[1]), 1.5);
            }
            assert_eq!(m.route_vcs(s, d).unwrap().len(), r.len() - 1);
        }
    }

    #[test]
    fn from_parts_validates_routes() {
        let topo = DiGraph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let mut routes = BTreeMap::new();
        routes.insert(
            (NodeId(0), NodeId(2)),
            vec![NodeId(0), NodeId(1), NodeId(2)],
        );
        let m = NocModel::from_parts("line", topo, routes, BTreeMap::new(), 1.0);
        assert_eq!(m.route(NodeId(0), NodeId(2)).unwrap().len(), 3);
        assert_eq!(m.link_length_mm(NodeId(0), NodeId(1)), 1.0);
        assert!(m.route(NodeId(2), NodeId(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "not a channel")]
    fn from_parts_rejects_bad_route() {
        let topo = DiGraph::from_edges(3, [(0, 1)]).unwrap();
        let mut routes = BTreeMap::new();
        routes.insert((NodeId(0), NodeId(2)), vec![NodeId(0), NodeId(2)]);
        NocModel::from_parts("bad", topo, routes, BTreeMap::new(), 1.0);
    }

    #[test]
    fn mesh_and_o1turn_verify_deadlock_free() {
        let xy = NocModel::mesh(3, 3, 2.0).verify();
        assert!(xy.is_deadlock_free(), "{xy}");
        assert_eq!(xy.layers.len(), 1);

        // O1TURN: the verdict must cover the union of XY and YX tables —
        // two route sets, two VC layers, each layer acyclic on its own.
        let o1 = NocModel::mesh_o1turn(3, 3, 2.0, 7).verify();
        assert!(o1.is_deadlock_free(), "{o1}");
        assert_eq!(o1.layers.len(), 2);
        assert!(o1.layers.iter().all(|l| l.acyclic));
        assert_eq!(o1.routes_checked, 2 * 72);
    }

    #[test]
    fn planted_ring_model_is_rejected_with_witness() {
        // 4-node unidirectional ring, every node sends two hops ahead on
        // one VC: the canonical wormhole deadlock.
        let topo = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let mut routes = BTreeMap::new();
        for i in 0..4usize {
            routes.insert(
                (NodeId(i), NodeId((i + 2) % 4)),
                vec![NodeId(i), NodeId((i + 1) % 4), NodeId((i + 2) % 4)],
            );
        }
        let verdict = NocModel::from_parts("ring", topo, routes, BTreeMap::new(), 1.0).verify();
        assert!(!verdict.is_deadlock_free());
        let witness = verdict.cycle.expect("witness");
        assert_eq!(witness.len(), 4);
        assert!(witness.edges.iter().all(|e| !e.routes.is_empty()));
    }

    #[test]
    fn single_node_mesh() {
        let m = NocModel::mesh(1, 1, 1.0);
        assert_eq!(m.node_count(), 1);
        assert_eq!(m.topology().edge_count(), 0);
        assert_eq!(m.avg_route_hops(), 0.0);
    }
}
