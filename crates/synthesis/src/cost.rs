//! Cost assignment for matchings and remainder graphs (Section 4.3).
//!
//! The paper's cost function is the communication energy of Equation 1/5:
//! each ACG pair covered by a matching is routed over the primitive's
//! implementation graph along the schedule-derived route, and pays
//! `v(e) * E_bit(route)`. Remainder edges become dedicated point-to-point
//! links and pay the direct-route energy.
//!
//! The COST values printed by the paper's tool (e.g. `COST: 28` for the AES
//! decomposition) correspond to unit volumes and unit link energies — i.e.
//! counting physical links. [`Objective::Links`] reproduces that metric
//! exactly; [`Objective::Energy`] is the physical model the text describes;
//! [`Objective::Hybrid`] adds a per-link energy-equivalent wiring penalty to
//! the energy objective so that wiring pressure influences the search even
//! before the hard constraints bite.

use std::collections::BTreeSet;

use noc_energy::{Energy, EnergyModel};
use noc_floorplan::Placement;
use noc_graph::{iso::Mapping, Acg, DiGraph, NodeId};
use noc_primitives::Primitive;

/// A scalar decomposition cost.
///
/// Under [`Objective::Links`] the unit is *physical links*; under the other
/// objectives it is *joules*. Costs are plain non-negative floats with a
/// helper for pretty printing.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Cost(pub f64);

impl Cost {
    /// Positive infinity — the initial "min cost" of the branch-and-bound.
    pub const INFINITY: Cost = Cost(f64::INFINITY);

    /// The raw value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Cost addition.
    pub fn saturating_add(self, other: Cost) -> Cost {
        Cost(self.0 + other.0)
    }
}

impl std::fmt::Display for Cost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 == f64::INFINITY {
            write!(f, "inf")
        } else if self.0.fract() == 0.0 && self.0 < 1e15 {
            write!(f, "{}", self.0 as i64)
        } else {
            write!(f, "{:.4e}", self.0)
        }
    }
}

/// What the decomposition minimizes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Objective {
    /// Total communication energy per application iteration (Equation 5).
    Energy,
    /// Number of physical links in the synthesized architecture — the
    /// unit-volume metric behind the paper's printed COST values.
    Links,
    /// Energy plus `link_equivalent` joules per physical link (an
    /// area/leakage proxy that rewards link sharing).
    Hybrid {
        /// Energy-equivalent charge per physical link.
        link_equivalent: Energy,
    },
}

/// Evaluates matching, remainder and lower-bound costs against a floorplan
/// and technology (Section 4.3: "the positions of the cores are determined
/// by an initial floorplanning stage, \[so\] accurate Ebit values can be
/// imported from the library").
#[derive(Debug, Clone)]
pub struct CostModel {
    energy: EnergyModel,
    placement: Placement,
    objective: Objective,
}

impl CostModel {
    /// Creates a cost model.
    pub fn new(energy: EnergyModel, placement: Placement, objective: Objective) -> Self {
        CostModel {
            energy,
            placement,
            objective,
        }
    }

    /// The energy model in use.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// The floorplan in use.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The active objective.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Physical links a matching instantiates: implementation edges mapped
    /// to core pairs, counted once per unordered pair (one bidirectional
    /// link serves both directions).
    pub fn matching_links(&self, primitive: &Primitive, mapping: &Mapping) -> usize {
        let mut links: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        for e in primitive.implementation().edges() {
            let a = mapping.target_of(e.src);
            let b = mapping.target_of(e.dst);
            links.insert((a.min(b), a.max(b)));
        }
        links.len()
    }

    /// The energy of a matching per Equation 5: for every covered pair the
    /// schedule route's `E_bit` times the ACG volume.
    pub fn matching_energy(&self, primitive: &Primitive, mapping: &Mapping, acg: &Acg) -> Energy {
        let mut total = Energy::ZERO;
        for ((src, dst), route) in primitive.routes() {
            let a = mapping.target_of(src);
            let b = mapping.target_of(dst);
            let volume = acg.volume(a, b);
            if volume == 0.0 {
                continue;
            }
            let lengths: Vec<f64> = route
                .windows(2)
                .map(|w| {
                    self.placement
                        .distance_mm(mapping.target_of(w[0]), mapping.target_of(w[1]))
                })
                .collect();
            total += self.energy.transfer_energy(volume, &lengths);
        }
        total
    }

    /// The cost of a matching under the active objective.
    pub fn matching_cost(&self, primitive: &Primitive, mapping: &Mapping, acg: &Acg) -> Cost {
        match self.objective {
            Objective::Links => Cost(self.matching_links(primitive, mapping) as f64),
            Objective::Energy => Cost(self.matching_energy(primitive, mapping, acg).joules()),
            Objective::Hybrid { link_equivalent } => Cost(
                self.matching_energy(primitive, mapping, acg).joules()
                    + link_equivalent.joules() * self.matching_links(primitive, mapping) as f64,
            ),
        }
    }

    /// The cost of leaving `remainder` uncovered: every remaining *directed*
    /// edge becomes a dedicated unidirectional point-to-point link
    /// (2 switches + the direct floorplan distance), or simply one link per
    /// directed edge under [`Objective::Links`].
    ///
    /// Counting remainder links per directed edge (while matchings share
    /// bidirectional links) reproduces the paper's printed COST values
    /// exactly: the AES decomposition's `4 * MGG4 + 2 * L4 + 4 remainder
    /// edges` yields `16 + 8 + 4 = 28`.
    pub fn remainder_cost(&self, remainder: &DiGraph, acg: &Acg) -> Cost {
        match self.objective {
            Objective::Links => Cost(remainder.edge_count() as f64),
            Objective::Energy => Cost(self.remainder_energy(remainder, acg).joules()),
            Objective::Hybrid { link_equivalent } => Cost(
                self.remainder_energy(remainder, acg).joules()
                    + link_equivalent.joules() * remainder.edge_count() as f64,
            ),
        }
    }

    fn remainder_energy(&self, remainder: &DiGraph, acg: &Acg) -> Energy {
        remainder
            .edges()
            .map(|e| {
                let d = self.placement.distance_mm(e.src, e.dst);
                self.energy.transfer_energy(acg.volume(e.src, e.dst), &[d])
            })
            .sum()
    }

    /// Admissible lower bound on the cost of decomposing `remaining`
    /// (the "minimum remaining cost" of Figure 3):
    ///
    /// * **Energy**: every edge must travel at least the direct floorplan
    ///   distance through at least two switches, so the direct-link energy
    ///   is a lower bound on any cover (triangle inequality).
    /// * **Links**: every library primitive covers at most
    ///   `pattern_edges / implementation_links` pattern edges per link
    ///   (e.g. 12/4 = 3 for MGG4), so at least
    ///   `⌈edges / best_ratio⌉` links are needed.
    pub fn lower_bound(&self, remaining: &DiGraph, acg: &Acg, best_link_ratio: f64) -> Cost {
        match self.objective {
            Objective::Links => {
                Cost((remaining.edge_count() as f64 / best_link_ratio.max(1.0)).ceil())
            }
            Objective::Energy => Cost(self.energy_lower_bound(remaining, acg).joules()),
            Objective::Hybrid { link_equivalent } => {
                let links = (remaining.edge_count() as f64 / best_link_ratio.max(1.0)).ceil();
                Cost(
                    self.energy_lower_bound(remaining, acg).joules()
                        + link_equivalent.joules() * links,
                )
            }
        }
    }

    fn energy_lower_bound(&self, remaining: &DiGraph, acg: &Acg) -> Energy {
        remaining
            .edges()
            .map(|e| {
                let d = self.placement.distance_mm(e.src, e.dst);
                self.energy
                    .direct_transfer_lower_bound(acg.volume(e.src, e.dst), d)
            })
            .sum()
    }

    /// Precomputes the per-edge term of the energy lower bound, indexed by
    /// edge bit (`src * n + dst`), so the engine can re-bound a shrinking
    /// remaining graph from its edge mask without re-deriving distances and
    /// volumes. Entries for absent edges stay zero.
    pub(crate) fn edge_bound_table(&self, acg: &Acg) -> Vec<Energy> {
        let n = acg.graph().node_count();
        let mut table = vec![Energy::ZERO; n * n];
        for e in acg.graph().edges() {
            let d = self.placement.distance_mm(e.src, e.dst);
            table[e.src.index() * n + e.dst.index()] = self
                .energy
                .direct_transfer_lower_bound(acg.volume(e.src, e.dst), d);
        }
        table
    }

    /// [`CostModel::lower_bound`] evaluated from the words of an edge
    /// *mask* (bit `src * n + dst`) and its popcount instead of a
    /// materialized graph; the Links bound reads no word. Summation walks
    /// set bits ascending — the same order as [`DiGraph::edges`] — with the
    /// same fold, so the result is bitwise identical to the graph-based
    /// bound.
    pub(crate) fn lower_bound_masked(
        &self,
        mask: impl IntoIterator<Item = u64>,
        edge_count: usize,
        table: &[Energy],
        best_link_ratio: f64,
    ) -> Cost {
        match self.objective {
            Objective::Links => Cost((edge_count as f64 / best_link_ratio.max(1.0)).ceil()),
            Objective::Energy => Cost(masked_energy(mask, table).joules()),
            Objective::Hybrid { link_equivalent } => {
                let links = (edge_count as f64 / best_link_ratio.max(1.0)).ceil();
                Cost(masked_energy(mask, table).joules() + link_equivalent.joules() * links)
            }
        }
    }
}

/// Sums `table` over the set bits of the words of `mask`, lowest bit
/// first.
fn masked_energy(mask: impl IntoIterator<Item = u64>, table: &[Energy]) -> Energy {
    let mut total = Energy::ZERO;
    for (w, word) in mask.into_iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            total += table[w * 64 + b];
            bits &= bits - 1;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_energy::TechnologyProfile;
    use noc_graph::iso::Vf2;
    use noc_graph::EdgeDemand;

    fn model(objective: Objective) -> CostModel {
        CostModel::new(
            EnergyModel::new(TechnologyProfile::cmos_180nm()),
            Placement::grid(2, 2, 2.0, 2.0),
            objective,
        )
    }

    fn gossip_acg() -> Acg {
        Acg::from_graph_uniform(DiGraph::complete(4), EdgeDemand::from_volume(8.0))
    }

    fn identity_mapping(n: usize) -> Mapping {
        Mapping::new((0..n).map(NodeId).collect())
    }

    #[test]
    fn mgg4_has_four_links() {
        let m = model(Objective::Links);
        let p = Primitive::gossip(4);
        let cost = m.matching_cost(&p, &identity_mapping(4), &gossip_acg());
        assert_eq!(cost.value(), 4.0); // the paper's per-MGG4 link count
    }

    #[test]
    fn loop_has_four_links_and_star_three() {
        let m = model(Objective::Links);
        assert_eq!(
            m.matching_links(&Primitive::ring(4), &identity_mapping(4)),
            4
        );
        assert_eq!(
            m.matching_links(&Primitive::broadcast(3), &identity_mapping(4)),
            3
        );
    }

    #[test]
    fn matching_energy_matches_hand_computation() {
        let m = model(Objective::Energy);
        let p = Primitive::gossip(4);
        let acg = gossip_acg();
        // Pairs: 8 single-hop routes + 4 two-hop routes (through the MGG4
        // cycle). Volume 8 bits each. Grid 2x2 with 2 mm pitch.
        let e = m.matching_energy(&p, &identity_mapping(4), &acg);
        // Recompute directly from the routes.
        let mut expect = Energy::ZERO;
        for ((s, d), route) in p.routes() {
            let lengths: Vec<f64> = route
                .windows(2)
                .map(|w| m.placement().distance_mm(w[0], w[1]))
                .collect();
            let _ = (s, d);
            expect += m.energy_model().transfer_energy(8.0, &lengths);
        }
        assert!((e.joules() - expect.joules()).abs() < 1e-20);
        assert!(e > Energy::ZERO);
    }

    #[test]
    fn mapped_matching_uses_mapped_distances() {
        // Place 4 cores on a line; map the gossip onto cores (0, 1, 2, 3)
        // vs (0, 1, 3, 2): costs differ because link lengths differ.
        let placement = Placement::new(
            vec![(0.5, 0.5), (1.5, 0.5), (2.5, 0.5), (5.5, 0.5)],
            6.0,
            1.0,
        );
        let cm = CostModel::new(
            EnergyModel::new(TechnologyProfile::cmos_180nm()),
            placement,
            Objective::Energy,
        );
        let acg = gossip_acg();
        let p = Primitive::gossip(4);
        let a = cm.matching_cost(&p, &identity_mapping(4), &acg);
        let b = cm.matching_cost(
            &p,
            &Mapping::new(vec![NodeId(0), NodeId(1), NodeId(3), NodeId(2)]),
            &acg,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn remainder_cost_counts_directed_links() {
        let m = model(Objective::Links);
        let acg = gossip_acg();
        // A 2-cycle: 2 directed edges = 2 dedicated unidirectional links
        // (matching the paper's remainder accounting).
        let rem = DiGraph::from_edges(4, [(0, 1), (1, 0)]).unwrap();
        assert_eq!(m.remainder_cost(&rem, &acg).value(), 2.0);
        // Two independent edges: also 2 links.
        let rem2 = DiGraph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(m.remainder_cost(&rem2, &acg).value(), 2.0);
    }

    #[test]
    fn remainder_energy_is_direct_links() {
        let m = model(Objective::Energy);
        let acg = gossip_acg();
        let rem = DiGraph::from_edges(4, [(0, 3)]).unwrap();
        let d = m.placement().distance_mm(NodeId(0), NodeId(3));
        let expect = m.energy_model().transfer_energy(8.0, &[d]);
        assert!((m.remainder_cost(&rem, &acg).value() - expect.joules()).abs() < 1e-20);
    }

    #[test]
    fn energy_lower_bound_is_admissible() {
        // LB of the full gossip ACG must not exceed the true cost of the
        // MGG4 cover.
        let m = model(Objective::Energy);
        let acg = gossip_acg();
        let p = Primitive::gossip(4);
        let lb = m.lower_bound(acg.graph(), &acg, 3.0);
        let real = m.matching_cost(&p, &identity_mapping(4), &acg);
        assert!(lb.value() <= real.value());
    }

    #[test]
    fn links_lower_bound_uses_compression_ratio() {
        let m = model(Objective::Links);
        let acg = gossip_acg();
        // 12 edges, best ratio 3 (MGG4): at least 4 links.
        let lb = m.lower_bound(acg.graph(), &acg, 3.0);
        assert_eq!(lb.value(), 4.0);
        // Ratio below 1 clamps to 1.
        let lb1 = m.lower_bound(acg.graph(), &acg, 0.5);
        assert_eq!(lb1.value(), 12.0);
    }

    #[test]
    fn hybrid_adds_link_charge() {
        let link_eq = Energy::from_picojoules(100.0);
        let m = model(Objective::Hybrid {
            link_equivalent: link_eq,
        });
        let acg = gossip_acg();
        let p = Primitive::gossip(4);
        let energy_only = model(Objective::Energy).matching_cost(&p, &identity_mapping(4), &acg);
        let hybrid = m.matching_cost(&p, &identity_mapping(4), &acg);
        assert!((hybrid.value() - energy_only.value() - 4.0 * link_eq.joules()).abs() < 1e-20);
    }

    #[test]
    fn all_distinct_gossip_images_cost_the_same_on_symmetric_placement() {
        // On a symmetric 2x2 grid every MGG4 embedding of the same 4 cores
        // costs the same under Links.
        let m = model(Objective::Links);
        let acg = gossip_acg();
        let p = Primitive::gossip(4);
        let images = Vf2::new(p.representation(), acg.graph()).distinct_images();
        assert!(!images.matches.is_empty());
        for mapping in &images.matches {
            assert_eq!(m.matching_cost(&p, mapping, &acg).value(), 4.0);
        }
    }

    #[test]
    fn masked_lower_bound_is_bitwise_identical_to_graph_bound() {
        // The engine swaps the graph-walking bound for the mask-walking one
        // mid-search, so they must agree to the last bit, not within an
        // epsilon — otherwise pruning (strict >=) could diverge.
        let acg = gossip_acg();
        for objective in [
            Objective::Links,
            Objective::Energy,
            Objective::Hybrid {
                link_equivalent: Energy::from_picojoules(100.0),
            },
        ] {
            let m = model(objective);
            let table = m.edge_bound_table(&acg);
            // Remaining graphs of shrinking size, as the search would see.
            let mut remaining = acg.graph().clone();
            loop {
                let mask = remaining.edge_bitset();
                let via_graph = m.lower_bound(&remaining, &acg, 3.0);
                let words = mask.words().iter().copied();
                let via_mask = m.lower_bound_masked(words, remaining.edge_count(), &table, 3.0);
                assert_eq!(via_graph.value().to_bits(), via_mask.value().to_bits());
                let Some(e) = remaining.edges().next() else {
                    break;
                };
                remaining.remove_edge(e.src, e.dst);
            }
        }
    }

    #[test]
    fn cost_display() {
        assert_eq!(Cost(28.0).to_string(), "28");
        assert_eq!(Cost::INFINITY.to_string(), "inf");
        assert_eq!(Cost(1.5e-9).to_string(), "1.5000e-9");
    }
}
