//! The end-to-end synthesis pipeline.

use std::time::Duration;

use noc_energy::{EnergyModel, TechnologyProfile};
use noc_floorplan::{Core, Placement, SlicingFloorplanner};
use noc_graph::Acg;
use noc_primitives::CommLibrary;
use noc_sim::NocModel;
use noc_synthesis::{
    constraints, Architecture, ConstraintReport, CostModel, Decomposer, DecomposerConfig,
    Decomposition, Objective, SearchStats,
};

/// Why a synthesis flow failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowError {
    /// The search found no legal decomposition (only possible with
    /// constraint checking enabled).
    NoLegalDecomposition {
        /// Leaves rejected by the constraint checker.
        constraint_rejections: u64,
    },
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::NoLegalDecomposition {
                constraint_rejections,
            } => write!(
                f,
                "no legal decomposition ({constraint_rejections} leaves violated constraints)"
            ),
        }
    }
}

impl std::error::Error for FlowError {}

/// Everything a finished flow produces.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// The winning decomposition.
    pub decomposition: Decomposition,
    /// The glued architecture (topology, routes, demands).
    pub architecture: Architecture,
    /// The floorplan used for link lengths.
    pub placement: Placement,
    /// Search statistics.
    pub stats: SearchStats,
    /// Constraint report of the final architecture.
    pub constraints: ConstraintReport,
}

impl FlowResult {
    /// A simulation-ready model of the synthesized architecture, with
    /// shortest-path routes filled in for non-ACG pairs.
    pub fn noc_model(&self) -> NocModel {
        let mut arch = self.architecture.clone();
        arch.fill_all_pairs();
        NocModel::from_architecture(&arch)
    }

    /// The paper-format decomposition report.
    pub fn paper_report(&self) -> String {
        self.decomposition.paper_report()
    }
}

/// Builder for the full synthesis pipeline: floorplan → decomposition →
/// architecture. See the [crate example](crate).
#[derive(Debug, Clone)]
pub struct SynthesisFlow {
    acg: Acg,
    library: CommLibrary,
    technology: TechnologyProfile,
    objective: Objective,
    placement: Option<Placement>,
    core_area_mm2: f64,
    seed: u64,
    config: DecomposerConfig,
}

impl SynthesisFlow {
    /// Starts a flow for `acg` with the paper's defaults: the standard
    /// library (`MGG4`, `G124`, `G123`, `L4`), 180 nm technology, the
    /// link-count objective (the paper's printed COST), automatic
    /// floorplanning of 1 mm² cores.
    pub fn new(acg: Acg) -> Self {
        SynthesisFlow {
            acg,
            library: CommLibrary::standard(),
            technology: TechnologyProfile::cmos_180nm(),
            objective: Objective::Links,
            placement: None,
            core_area_mm2: 1.0,
            seed: 1,
            config: DecomposerConfig::default(),
        }
    }

    /// Replaces the communication library.
    #[must_use]
    pub fn library(mut self, library: CommLibrary) -> Self {
        self.library = library;
        self
    }

    /// Replaces the technology profile.
    #[must_use]
    pub fn technology(mut self, technology: TechnologyProfile) -> Self {
        self.technology = technology;
        self
    }

    /// Sets the optimization objective.
    #[must_use]
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Uses an explicit placement instead of the automatic floorplanner.
    #[must_use]
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = Some(placement);
        self
    }

    /// Sets the square-core area used by the automatic floorplanner.
    ///
    /// # Panics
    ///
    /// Panics if the area is not positive.
    #[must_use]
    pub fn core_area_mm2(mut self, area: f64) -> Self {
        assert!(area > 0.0, "core area must be positive");
        self.core_area_mm2 = area;
        self
    }

    /// Seed for the floorplanner.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets a decomposition timeout.
    #[must_use]
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.config.timeout = Some(timeout);
        self
    }

    /// Replaces the full decomposer configuration.
    #[must_use]
    pub fn decomposer_config(mut self, config: DecomposerConfig) -> Self {
        self.config = config;
        self
    }

    /// Enables rejection of constraint-violating decompositions during the
    /// search (Section 4.2).
    #[must_use]
    pub fn enforce_constraints(mut self) -> Self {
        self.config.check_constraints = true;
        self
    }

    /// Runs floorplanning, decomposition and architecture gluing.
    ///
    /// # Errors
    ///
    /// [`FlowError::NoLegalDecomposition`] when constraint enforcement
    /// rejects every leaf. Without constraint enforcement the flow always
    /// succeeds (the all-remainder decomposition is a valid fallback).
    pub fn run(&self) -> Result<FlowResult, FlowError> {
        self.run_with_placement(self.auto_placement())
    }

    /// The placement [`run`](Self::run) would use: the explicit one if set,
    /// otherwise the automatic floorplan. Campaigns floorplan once through
    /// this and feed the result to [`run_with_placement`](Self::run_with_placement) across scenario
    /// points that share physical inputs.
    pub fn auto_placement(&self) -> Placement {
        match &self.placement {
            Some(p) => p.clone(),
            None => {
                // Volume-weighted wirelength pulls chatty cores together.
                let connections: Vec<(usize, usize, f64)> = self
                    .acg
                    .demands()
                    .map(|(e, d)| (e.src.index(), e.dst.index(), d.volume))
                    .collect();
                self.floorplan(self.seed, connections)
            }
        }
    }

    /// The paper's first future-work item (Section 6): "relax the initial
    /// floorplan information and solve the optimization problem for the
    /// general case". This alternates floorplanning and decomposition:
    /// each round re-floorplans with wirelength weights taken from the
    /// *synthesized architecture's* physical links (volume actually carried
    /// per link, including multi-hop aggregation), then re-decomposes on
    /// the new coordinates. Returns the best iteration and the cost
    /// history.
    ///
    /// Only the [`Objective::Energy`] and [`Objective::Hybrid`] objectives
    /// are placement-sensitive; under [`Objective::Links`] every iteration
    /// costs the same and the first result is returned.
    ///
    /// # Errors
    ///
    /// Propagates [`FlowError`] from the underlying runs.
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0`.
    pub fn run_co_optimized(&self, iterations: usize) -> Result<(FlowResult, Vec<f64>), FlowError> {
        assert!(iterations > 0, "need at least one iteration");
        let mut best = self.run()?;
        let mut history = vec![best.decomposition.total_cost.value()];
        if matches!(self.objective, Objective::Links) {
            return Ok((best, history));
        }
        for round in 1..iterations {
            // Wirelength terms from the links the architecture actually
            // instantiated, weighted by the traffic they carry.
            let connections: Vec<(usize, usize, f64)> = best
                .architecture
                .links()
                .map(|((a, b), info)| (a.index(), b.index(), info.carried_volume_bits.max(1.0)))
                .collect();
            let placement = self.floorplan(self.seed.wrapping_add(round as u64), connections);
            let candidate = self.run_with_placement(placement)?;
            let cost = candidate.decomposition.total_cost.value();
            history.push(cost);
            if cost < best.decomposition.total_cost.value() {
                best = candidate;
            }
        }
        Ok((best, history))
    }

    fn floorplan(&self, seed: u64, connections: Vec<(usize, usize, f64)>) -> Placement {
        let side = self.core_area_mm2.sqrt();
        let cores: Vec<Core> = (0..self.acg.core_count())
            .map(|i| Core::new(self.acg.core_name(noc_graph::NodeId(i)), side, side))
            .collect();
        SlicingFloorplanner::new(cores)
            .seed(seed)
            .wirelength(0.1, connections)
            .run()
    }

    /// Runs decomposition and architecture gluing against an
    /// already-computed placement — the artifact-reuse entry point:
    /// [`auto_placement`](Self::auto_placement) (or a previous
    /// [`FlowResult::placement`]) can be shared across many runs whose
    /// scenario differs only in search knobs or technology.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_with_placement(&self, placement: Placement) -> Result<FlowResult, FlowError> {
        let cost_model = CostModel::new(
            EnergyModel::new(self.technology.clone()),
            placement.clone(),
            self.objective,
        );
        let outcome = Decomposer::new(&self.acg, &self.library, cost_model)
            .config(self.config.clone())
            .run();
        let Some(decomposition) = outcome.best else {
            return Err(FlowError::NoLegalDecomposition {
                constraint_rejections: outcome.stats.constraint_rejections,
            });
        };
        let architecture =
            Architecture::synthesize(&self.acg, &self.library, &decomposition, placement.clone());
        let report = constraints::check(&architecture, &self.acg, &self.technology);
        Ok(FlowResult {
            decomposition,
            architecture,
            placement,
            stats: outcome.stats,
            constraints: report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_graph::{DiGraph, EdgeDemand, NodeId};

    #[test]
    fn gossip_flow_end_to_end() {
        let acg = Acg::from_graph_uniform(DiGraph::complete(4), EdgeDemand::new(64.0, 1.0e6));
        let result = SynthesisFlow::new(acg).seed(3).run().unwrap();
        assert_eq!(result.decomposition.matchings.len(), 1);
        assert!(result.constraints.is_satisfied());
        let model = result.noc_model();
        assert_eq!(model.node_count(), 4);
        // All ACG pairs routable.
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    assert!(model.route(NodeId(a), NodeId(b)).is_some());
                }
            }
        }
    }

    #[test]
    fn explicit_placement_is_respected() {
        let acg = Acg::from_graph_uniform(DiGraph::cycle(4), EdgeDemand::from_volume(8.0));
        let placement = Placement::grid(4, 1, 3.0, 3.0);
        let result = SynthesisFlow::new(acg)
            .placement(placement.clone())
            .run()
            .unwrap();
        assert_eq!(result.placement, placement);
    }

    #[test]
    fn constraint_enforcement_can_fail() {
        let strangled = TechnologyProfile::builder("strangled")
            .max_bisection_links(0)
            .build();
        let acg = Acg::from_graph_uniform(DiGraph::complete(4), EdgeDemand::new(8.0, 1.0));
        let err = SynthesisFlow::new(acg)
            .technology(strangled)
            .enforce_constraints()
            .run()
            .unwrap_err();
        assert!(matches!(err, FlowError::NoLegalDecomposition { .. }));
        assert!(err.to_string().contains("no legal decomposition"));
    }

    #[test]
    fn energy_objective_flow() {
        let acg = Acg::from_graph_uniform(DiGraph::complete(4), EdgeDemand::from_volume(128.0));
        let result = SynthesisFlow::new(acg)
            .objective(Objective::Energy)
            .run()
            .unwrap();
        assert!(result.decomposition.total_cost.value() > 0.0);
    }

    #[test]
    fn paper_report_passthrough() {
        let acg = Acg::from_graph_uniform(DiGraph::complete(4), EdgeDemand::from_volume(8.0));
        let result = SynthesisFlow::new(acg).run().unwrap();
        assert!(result.paper_report().starts_with("COST:"));
    }
}

#[cfg(test)]
mod co_opt_tests {
    use super::*;
    use noc_graph::{DiGraph, EdgeDemand};

    #[test]
    fn co_optimization_never_returns_worse_than_first_round() {
        let acg = Acg::from_graph_uniform(DiGraph::complete(4), EdgeDemand::from_volume(512.0));
        let flow = SynthesisFlow::new(acg).objective(Objective::Energy).seed(2);
        let (best, history) = flow.run_co_optimized(4).unwrap();
        assert_eq!(history.len(), 4);
        let best_cost = best.decomposition.total_cost.value();
        assert!(
            best_cost <= history[0] + 1e-18,
            "{best_cost} vs {history:?}"
        );
        assert!(history.iter().all(|c| best_cost <= c + 1e-18));
    }

    #[test]
    fn links_objective_short_circuits() {
        let acg = Acg::from_graph_uniform(DiGraph::cycle(4), EdgeDemand::from_volume(8.0));
        let flow = SynthesisFlow::new(acg); // Links objective default
        let (_, history) = flow.run_co_optimized(5).unwrap();
        assert_eq!(history.len(), 1, "Links is placement-insensitive");
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_panics() {
        let acg = Acg::from_graph_uniform(DiGraph::cycle(4), EdgeDemand::from_volume(8.0));
        let _ = SynthesisFlow::new(acg).run_co_optimized(0);
    }
}
