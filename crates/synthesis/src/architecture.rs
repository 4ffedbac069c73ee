//! Gluing optimal implementations into the customized architecture
//! (Sections 3 and 4.5 of the paper).
//!
//! After the decomposition step, "the communication primitives are replaced
//! by their optimal implementations, and finally glued together to
//! synthesize the customized architecture". Each matching contributes its
//! implementation links (mapped through the matching's vertex map) and its
//! schedule-derived routes; remainder edges contribute dedicated
//! point-to-point links. The result carries everything the simulator and
//! the constraint checker need: channels with lengths and aggregated
//! demands, per-pair routing tables, and a channel-dependency-graph
//! deadlock analysis with virtual-channel assignment.

use std::collections::{BTreeMap, VecDeque};

use noc_floorplan::Placement;
use noc_graph::{algo, Acg, DiGraph, NodeId};
use noc_primitives::CommLibrary;

use crate::decompose::Decomposition;

/// Metadata for one directed channel of the synthesized topology.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkInfo {
    /// Wire length in millimetres (floorplan center-to-center distance).
    pub length_mm: f64,
    /// Labels of the primitives (or `"direct"`) that instantiated the
    /// channel.
    pub contributors: Vec<String>,
    /// Sum of `b(e)` over ACG pairs routed across this channel, bits/s.
    pub aggregated_bandwidth_bps: f64,
    /// Sum of `v(e)` over ACG pairs routed across this channel, bits.
    pub carried_volume_bits: f64,
}

/// Aggregate figures of a synthesized architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchitectureStats {
    /// Directed channels.
    pub channels: usize,
    /// Physical (unordered) links.
    pub physical_links: usize,
    /// Total wire length over physical links, mm.
    pub total_wire_mm: f64,
    /// Mean route length over ACG pairs, hops.
    pub avg_route_hops: f64,
    /// Worst route length, hops.
    pub max_route_hops: usize,
    /// Physical links crossing the balanced bisection.
    pub bisection_links: usize,
}

impl std::fmt::Display for ArchitectureStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} channels / {} links, {:.1} mm wire, hops avg {:.2} max {}, bisection {}",
            self.channels,
            self.physical_links,
            self.total_wire_mm,
            self.avg_route_hops,
            self.max_route_hops,
            self.bisection_links
        )
    }
}

/// A synthesized communication architecture: topology + routes + demands.
#[derive(Debug, Clone)]
pub struct Architecture {
    topology: DiGraph,
    links: BTreeMap<(NodeId, NodeId), LinkInfo>,
    routes: BTreeMap<(NodeId, NodeId), Vec<NodeId>>,
    placement: Placement,
}

impl Architecture {
    /// Glues the decomposition's implementation graphs (and remainder
    /// links) into the final architecture.
    ///
    /// # Panics
    ///
    /// Panics if the decomposition is inconsistent with the ACG (never the
    /// case for decompositions produced by [`crate::Decomposer`]).
    pub fn synthesize(
        acg: &Acg,
        library: &CommLibrary,
        decomposition: &Decomposition,
        placement: Placement,
    ) -> Self {
        let n = acg.core_count();
        let mut topology = DiGraph::new(n);
        let mut links: BTreeMap<(NodeId, NodeId), LinkInfo> = BTreeMap::new();
        let mut routes: BTreeMap<(NodeId, NodeId), Vec<NodeId>> = BTreeMap::new();

        let touch_link = |topology: &mut DiGraph,
                          links: &mut BTreeMap<(NodeId, NodeId), LinkInfo>,
                          a: NodeId,
                          b: NodeId,
                          contributor: &str,
                          placement: &Placement| {
            topology.add_edge(a, b);
            let entry = links.entry((a, b)).or_insert_with(|| LinkInfo {
                length_mm: placement.distance_mm(a, b),
                contributors: Vec::new(),
                aggregated_bandwidth_bps: 0.0,
                carried_volume_bits: 0.0,
            });
            if !entry.contributors.iter().any(|c| c == contributor) {
                entry.contributors.push(contributor.to_string());
            }
        };

        for matching in &decomposition.matchings {
            let primitive = library.get(matching.primitive);
            // Channels.
            for e in primitive.implementation().edges() {
                let a = matching.mapping.target_of(e.src);
                let b = matching.mapping.target_of(e.dst);
                touch_link(
                    &mut topology,
                    &mut links,
                    a,
                    b,
                    primitive.label(),
                    &placement,
                );
            }
            // Schedule-derived routes for every covered pair.
            for ((s, d), route) in primitive.routes() {
                let src = matching.mapping.target_of(s);
                let dst = matching.mapping.target_of(d);
                let mapped: Vec<NodeId> = route
                    .iter()
                    .map(|&v| matching.mapping.target_of(v))
                    .collect();
                routes.insert((src, dst), mapped);
            }
        }
        for e in decomposition.remainder.edges() {
            touch_link(
                &mut topology,
                &mut links,
                e.src,
                e.dst,
                "direct",
                &placement,
            );
            routes.insert((e.src, e.dst), vec![e.src, e.dst]);
        }

        // Aggregate demands over routes.
        for (edge, demand) in acg.demands() {
            let route = routes
                .get(&(edge.src, edge.dst))
                .unwrap_or_else(|| panic!("no route covers ACG edge {edge}"));
            for w in route.windows(2) {
                let info = links
                    .get_mut(&(w[0], w[1]))
                    .expect("routes run over instantiated channels");
                info.aggregated_bandwidth_bps += demand.bandwidth;
                info.carried_volume_bits += demand.volume;
            }
        }

        Architecture {
            topology,
            links,
            routes,
            placement,
        }
    }

    /// The directed channel graph.
    pub fn topology(&self) -> &DiGraph {
        &self.topology
    }

    /// The floorplan the architecture was synthesized against.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Channel metadata, keyed by directed `(src, dst)` pair.
    pub fn links(&self) -> impl Iterator<Item = ((NodeId, NodeId), &LinkInfo)> + '_ {
        self.links.iter().map(|(&k, v)| (k, v))
    }

    /// Metadata of one channel.
    pub fn link(&self, src: NodeId, dst: NodeId) -> Option<&LinkInfo> {
        self.links.get(&(src, dst))
    }

    /// The route serving `(src, dst)`, if that pair communicates (ACG edge)
    /// or has been filled by [`Architecture::fill_all_pairs`].
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<&[NodeId]> {
        self.routes.get(&(src, dst)).map(Vec::as_slice)
    }

    /// Iterates all known routes.
    pub fn routes(&self) -> impl Iterator<Item = ((NodeId, NodeId), &[NodeId])> + '_ {
        self.routes.iter().map(|(&k, v)| (k, v.as_slice()))
    }

    /// Adds shortest-path routes (hop metric over the glued topology) for
    /// every ordered pair that lacks one, so arbitrary traffic can be
    /// simulated. Returns the number of routes added.
    ///
    /// Unreachable pairs are left without routes. Each route is the one
    /// [`algo::shortest_path`] returns: one breadth-first search per
    /// source discovers every vertex in that search's order, so each
    /// destination's parent chain is the same.
    pub fn fill_all_pairs(&mut self) -> usize {
        let n = self.topology.node_count();
        let mut added = 0;
        // `parent[v]` is `v`'s predecessor once discovered; the source is
        // its own.
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut queue = VecDeque::with_capacity(n);
        for s in self.topology.nodes() {
            parent.fill(None);
            parent[s.index()] = Some(s);
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                for v in self.topology.successors(u) {
                    if parent[v.index()].is_none() {
                        parent[v.index()] = Some(u);
                        queue.push_back(v);
                    }
                }
            }
            for d in self.topology.nodes() {
                if d == s || parent[d.index()].is_none() || self.routes.contains_key(&(s, d)) {
                    continue;
                }
                let mut path = vec![d];
                let mut cur = d;
                while cur != s {
                    cur = parent[cur.index()].expect("discovered vertices have parents");
                    path.push(cur);
                }
                path.reverse();
                self.routes.insert((s, d), path);
                added += 1;
            }
        }
        added
    }

    /// The architecture's routes and VC assignment as a
    /// [`noc_verify::RoutingSpec`] — the input of the static
    /// deadlock-freedom analysis. Channels are the instantiated links,
    /// the VC count and per-hop VC indices come from
    /// [`Self::assign_virtual_channels`].
    pub fn routing_spec(&self, name: &str) -> noc_verify::RoutingSpec {
        let (vcs, num_vcs) = self.assign_virtual_channels();
        noc_verify::RoutingSpec::new(name, self.links.keys().copied(), num_vcs).route_set(
            noc_verify::RouteSet::from_tables("assigned", &self.routes, &vcs),
        )
    }

    /// Statically verifies the routing function under the architecture's
    /// own VC assignment: lint pass plus acyclicity of the VC-aware
    /// extended channel dependency graph. Returns the full diagnostic
    /// [`noc_verify::Verdict`] (witness cycle, lint errors, per-layer
    /// reports), not just a bool.
    pub fn verify(&self) -> noc_verify::Verdict {
        noc_verify::verify(&self.routing_spec("architecture"))
    }

    /// `true` when [`Self::verify`] proves the routing function
    /// deadlock-free under the VC assignment the simulator actually uses.
    /// A single-VC channel dependency graph that ignores
    /// [`Self::assign_virtual_channels`] would falsely flag designs the
    /// paper's Section 4.5 virtual channels make safe; the verifier's
    /// VC-aware extended graph reduces to it when one VC suffices.
    pub fn is_deadlock_free(&self) -> bool {
        self.verify().is_deadlock_free()
    }

    /// Assigns a virtual channel to every hop of every route such that
    /// within each VC layer channel indices strictly increase along any
    /// route — making each layer's dependency graph acyclic and the whole
    /// routing function deadlock-free.
    ///
    /// Returns the per-route VC sequences and the number of VCs needed
    /// (1 if the CDG was already acyclic *and* every route is ascending;
    /// otherwise small, typically 2).
    pub fn assign_virtual_channels(&self) -> (BTreeMap<(NodeId, NodeId), Vec<usize>>, usize) {
        let channels: Vec<(NodeId, NodeId)> = self.links.keys().copied().collect();
        let index: BTreeMap<(NodeId, NodeId), usize> =
            channels.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        let mut assignment = BTreeMap::new();
        let mut max_vc = 0usize;
        for (&pair, route) in &self.routes {
            let mut vcs = Vec::with_capacity(route.len().saturating_sub(1));
            let mut vc = 0usize;
            let mut prev: Option<usize> = None;
            for w in route.windows(2) {
                let c = index[&(w[0], w[1])];
                if let Some(p) = prev {
                    if c <= p {
                        vc += 1; // descending in the channel order: next layer
                    }
                }
                vcs.push(vc);
                prev = Some(c);
            }
            max_vc = max_vc.max(vc);
            assignment.insert(pair, vcs);
        }
        (assignment, max_vc + 1)
    }

    /// Renders the topology as Graphviz DOT, labeling channels with their
    /// contributing primitives and wire lengths.
    pub fn to_dot(&self, acg: &Acg) -> String {
        noc_graph::dot::to_dot(
            &self.topology,
            "architecture",
            |v| acg.core_name(v).to_string(),
            |s, d| {
                let info = &self.links[&(s, d)];
                format!(
                    "label=\"{} {:.1}mm\", fontsize=8",
                    info.contributors.join("+"),
                    info.length_mm
                )
            },
        )
    }

    /// Aggregate statistics (volume-unweighted route hops).
    pub fn stats(&self) -> ArchitectureStats {
        let mut physical: BTreeMap<(NodeId, NodeId), f64> = BTreeMap::new();
        for (&(a, b), info) in &self.links {
            physical
                .entry((a.min(b), a.max(b)))
                .or_insert(info.length_mm);
        }
        let total_wire_mm = physical.values().sum();
        let hops: Vec<usize> = self.routes.values().map(|r| r.len() - 1).collect();
        let avg_route_hops = if hops.is_empty() {
            0.0
        } else {
            hops.iter().sum::<usize>() as f64 / hops.len() as f64
        };
        let nodes = self.topology.node_count();
        let bisection_links = if nodes >= 2 {
            // Count physical links crossing the balanced cut: build the
            // undirected link graph and halve the directed crossing count.
            let mut undirected = DiGraph::new(nodes);
            for &(a, b) in physical.keys() {
                undirected.add_edge(a, b);
                undirected.add_edge(b, a);
            }
            let exact = nodes <= algo::EXACT_BISECTION_MAX_NODES;
            let telemetry = noc_telemetry::active();
            let _span = telemetry.map(|t| {
                t.span("graph.bisection")
                    .field("nodes", nodes)
                    .field("links", physical.len())
                    .field("mode", if exact { "exact" } else { "kl" })
            });
            let cut = algo::bisection_bandwidth(&undirected);
            if let Some(t) = telemetry {
                t.add("graph.bisection.exact_nodes", cut.work.exact_nodes);
                t.add("graph.bisection.kl_passes", cut.work.kl_passes);
            }
            cut.cut_edges / 2
        } else {
            0
        };
        ArchitectureStats {
            channels: self.links.len(),
            physical_links: physical.len(),
            total_wire_mm,
            avg_route_hops,
            max_route_hops: hops.into_iter().max().unwrap_or(0),
            bisection_links,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, Decomposer, Objective};
    use noc_energy::{EnergyModel, TechnologyProfile};
    use noc_graph::EdgeDemand;

    fn synthesize_gossip4() -> (Acg, CommLibrary, Decomposition, Placement) {
        let acg =
            Acg::from_graph_uniform(DiGraph::complete(4), noc_graph::EdgeDemand::new(8.0, 1.0e6));
        let lib = CommLibrary::standard();
        let placement = Placement::grid(2, 2, 2.0, 2.0);
        let cm = CostModel::new(
            EnergyModel::new(TechnologyProfile::cmos_180nm()),
            placement.clone(),
            Objective::Links,
        );
        let best = Decomposer::new(&acg, &lib, cm).run().best.unwrap();
        (acg, lib, best, placement)
    }

    #[test]
    fn gossip_architecture_is_the_mgg4_cycle() {
        let (acg, lib, d, placement) = synthesize_gossip4();
        let arch = Architecture::synthesize(&acg, &lib, &d, placement);
        let stats = arch.stats();
        assert_eq!(stats.physical_links, 4);
        assert_eq!(stats.channels, 8); // both directions
        assert_eq!(stats.max_route_hops, 2);
        // 8 one-hop + 4 two-hop routes.
        assert!((stats.avg_route_hops - (8.0 + 8.0) / 12.0).abs() < 1e-12);
    }

    #[test]
    fn every_acg_pair_has_a_route_over_channels() {
        let (acg, lib, d, placement) = synthesize_gossip4();
        let arch = Architecture::synthesize(&acg, &lib, &d, placement);
        for (e, _) in acg.demands() {
            let r = arch.route(e.src, e.dst).expect("route exists");
            assert_eq!(r[0], e.src);
            assert_eq!(*r.last().unwrap(), e.dst);
            for w in r.windows(2) {
                assert!(arch.topology().has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn bandwidth_aggregates_over_shared_channels() {
        let (acg, lib, d, placement) = synthesize_gossip4();
        let arch = Architecture::synthesize(&acg, &lib, &d, placement);
        // Total bandwidth over all channels = sum over pairs of b * hops.
        let total_link_bw: f64 = arch.links().map(|(_, i)| i.aggregated_bandwidth_bps).sum();
        let expect: f64 = acg
            .demands()
            .map(|(e, dem)| {
                let hops = arch.route(e.src, e.dst).unwrap().len() - 1;
                dem.bandwidth * hops as f64
            })
            .sum();
        assert!((total_link_bw - expect).abs() < 1e-6);
        // Some channel must carry more than a single pair's bandwidth
        // (aggregation happened: 2-hop routes share links).
        assert!(arch
            .links()
            .any(|(_, i)| i.aggregated_bandwidth_bps > 1.0e6 + 1.0));
    }

    #[test]
    fn remainder_edges_become_direct_links() {
        let acg = Acg::builder(3).volume(0, 1, 4.0).volume(1, 0, 4.0).build();
        let lib = CommLibrary::standard();
        let placement = Placement::grid(3, 1, 2.0, 2.0);
        let cm = CostModel::new(
            EnergyModel::new(TechnologyProfile::cmos_180nm()),
            placement.clone(),
            Objective::Links,
        );
        let d = Decomposer::new(&acg, &lib, cm).run().best.unwrap();
        let arch = Architecture::synthesize(&acg, &lib, &d, placement);
        assert_eq!(arch.stats().physical_links, 1);
        let info = arch.link(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(info.contributors, vec!["direct"]);
        assert_eq!(info.carried_volume_bits, 4.0);
    }

    #[test]
    fn deadlock_analysis_on_gossip_architecture() {
        let (acg, lib, d, placement) = synthesize_gossip4();
        let arch = Architecture::synthesize(&acg, &lib, &d, placement);
        let (assignment, vcs) = arch.assign_virtual_channels();
        assert_eq!(assignment.len(), 12);
        assert!(vcs <= 2, "gossip routes need at most 2 VCs, got {vcs}");
        // Per-layer ascending invariant.
        for (pair, vcseq) in &assignment {
            let route = arch.route(pair.0, pair.1).unwrap();
            assert_eq!(vcseq.len(), route.len() - 1);
            for w in vcseq.windows(2) {
                assert!(w[1] >= w[0], "vc sequence must be non-decreasing");
            }
        }
    }

    #[test]
    fn verify_certifies_the_vc_assignment() {
        let (acg, lib, d, placement) = synthesize_gossip4();
        let arch = Architecture::synthesize(&acg, &lib, &d, placement);
        let verdict = arch.verify();
        // The ascending-per-layer assignment is deadlock-free by
        // construction, so the VC-aware verdict is always clean.
        assert!(verdict.is_deadlock_free(), "{verdict}");
        assert!(verdict.lint.is_empty());
        assert!(verdict.escape_layer_acyclic());
        assert_eq!(verdict.routes_checked, 12);
        assert_eq!(verdict.layers.len(), verdict.num_vcs);
        assert!(arch.is_deadlock_free());
    }

    #[test]
    fn fill_all_pairs_makes_everything_reachable() {
        let (acg, lib, d, placement) = synthesize_gossip4();
        let mut arch = Architecture::synthesize(&acg, &lib, &d, placement);
        let before = arch.routes().count();
        let added = arch.fill_all_pairs();
        // Gossip ACG already routes all 12 ordered pairs: nothing to add.
        assert_eq!(added, 0);
        assert_eq!(arch.routes().count(), before);

        // A path ACG only routes consecutive pairs; filling adds the rest
        // that are reachable.
        let acg2 = Acg::from_graph_uniform(DiGraph::path(3), EdgeDemand::from_volume(1.0));
        let lib2 = CommLibrary::standard();
        let placement2 = Placement::grid(3, 1, 2.0, 2.0);
        let cm = CostModel::new(
            EnergyModel::new(TechnologyProfile::cmos_180nm()),
            placement2.clone(),
            Objective::Links,
        );
        let d2 = Decomposer::new(&acg2, &lib2, cm).run().best.unwrap();
        let mut arch2 = Architecture::synthesize(&acg2, &lib2, &d2, placement2);
        let added2 = arch2.fill_all_pairs();
        assert_eq!(added2, 1); // 0 -> 2 via 1; reverse pairs unreachable
        assert_eq!(
            arch2.route(NodeId(0), NodeId(2)).unwrap(),
            &[NodeId(0), NodeId(1), NodeId(2)]
        );
        assert!(arch2.route(NodeId(2), NodeId(0)).is_none());
    }

    #[test]
    fn filled_routes_are_the_per_pair_shortest_paths() {
        // Two equally short ways from 0 to 3, a one-way bridge from that
        // cycle into another, and an island, so some pairs are
        // unreachable. The given 0 -> 3 route is not the one a search
        // would pick, and must be kept.
        let mut topology = DiGraph::new(8);
        for (a, b) in [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (3, 0),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 4),
            (6, 5),
        ] {
            topology.add_edge(NodeId(a), NodeId(b));
        }
        let given = vec![NodeId(0), NodeId(2), NodeId(3)];
        let mut arch = Architecture {
            topology,
            links: BTreeMap::new(),
            routes: BTreeMap::from([((NodeId(0), NodeId(3)), given.clone())]),
            placement: Placement::grid(4, 2, 1.0, 1.0),
        };
        let added = arch.fill_all_pairs();
        assert_eq!(arch.route(NodeId(0), NodeId(3)), Some(&given[..]));
        let mut reachable = 0;
        for s in arch.topology().nodes() {
            for d in arch.topology().nodes() {
                if s == d || (s, d) == (NodeId(0), NodeId(3)) {
                    continue;
                }
                let expected = algo::shortest_path(arch.topology(), s, d);
                reachable += usize::from(expected.is_some());
                assert_eq!(arch.route(s, d), expected.as_deref(), "{s} -> {d}");
            }
        }
        assert_eq!(added, reachable);
        // 0..=3 reach 0..=6; 4..=6 reach each other; 7 reaches nothing.
        assert_eq!(reachable, 4 * 6 - 1 + 3 * 2);
    }

    #[test]
    fn dot_export_names_cores_and_primitives() {
        let (acg, lib, d, placement) = synthesize_gossip4();
        let arch = Architecture::synthesize(&acg, &lib, &d, placement);
        let dot = arch.to_dot(&acg);
        assert!(dot.contains("digraph architecture"));
        assert!(dot.contains("core0"));
        assert!(dot.contains("MGG4"));
        assert!(dot.contains("mm"));
    }

    #[test]
    fn stats_display_is_informative() {
        let (acg, lib, d, placement) = synthesize_gossip4();
        let arch = Architecture::synthesize(&acg, &lib, &d, placement);
        let text = arch.stats().to_string();
        assert!(text.contains("4 links"));
        assert!(text.contains("bisection 2"));
    }

    #[test]
    fn stats_wire_length_uses_floorplan() {
        let (acg, lib, d, placement) = synthesize_gossip4();
        let arch = Architecture::synthesize(&acg, &lib, &d, placement);
        let stats = arch.stats();
        // MGG4 on the 2x2 grid: links (0,1),(2,3) horizontal 2 mm;
        // (0,2),(1,3) vertical 2 mm => total 8 mm.
        assert!((stats.total_wire_mm - 8.0).abs() < 1e-9);
        assert_eq!(stats.bisection_links, 2);
    }
}
