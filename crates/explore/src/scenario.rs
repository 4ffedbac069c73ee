//! Declarative scenario spaces: the grid of axes a campaign fans out over.
//!
//! A [`ScenarioGrid`] is the cross product of independent axes — workload
//! instances × search-engine configurations × synthesis objectives ×
//! technology profiles × floorplan seeds × simulation specs. Enumeration
//! is deterministic: scenario ids are positions in that product, so a grid
//! names the same scenarios on every run and on every thread count.

use noc::prelude::*;
use noc::workloads::WorkloadFamily;

/// One workload axis value: a family instantiated at a size and seed.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Generator family.
    pub family: WorkloadFamily,
    /// Requested node count (fixed benchmarks ignore it).
    pub n: usize,
    /// Generator seed (fixed benchmarks ignore it).
    pub seed: u64,
}

impl WorkloadSpec {
    /// Spec for a sized family.
    pub fn new(family: WorkloadFamily, n: usize, seed: u64) -> Self {
        WorkloadSpec { family, n, seed }
    }

    /// Spec for a fixed benchmark (`n`/`seed` pinned to its natural size).
    pub fn fixed(family: WorkloadFamily) -> Self {
        WorkloadSpec {
            family,
            n: family.fixed_size().unwrap_or(0),
            seed: 0,
        }
    }

    /// Builds the deterministic application graph.
    pub fn instantiate(&self) -> Acg {
        self.family.instantiate(self.n, self.seed)
    }

    /// Stable label, e.g. `tgff_n12_s3`.
    pub fn label(&self) -> String {
        match self.family.fixed_size() {
            Some(_) => self.family.label().to_string(),
            None => format!("{}_n{}_s{}", self.family.label(), self.n, self.seed),
        }
    }
}

/// Per-scenario simulation spec: which load points to sample and where the
/// objective measurement sits.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    /// Stable label used in reports (e.g. `"base_load"`).
    pub label: String,
    /// Injection rates swept (packets/node/cycle), ramped in order.
    pub rates: Vec<f64>,
    /// Traffic cycles generated per point.
    pub duration_cycles: u64,
    /// Payload bits per packet.
    pub payload_bits: u64,
    /// Traffic seed.
    pub seed: u64,
    /// Stop the ramp past this multiple of zero-load latency (see
    /// [`noc::sim::sweep::SweepConfig::saturation_cutoff`]).
    pub saturation_cutoff: Option<f64>,
    /// Index into `rates` of the point whose latency/energy feed the
    /// objective vector (clamped to the last simulated point if the
    /// saturation cutoff stops the ramp earlier). Defaults to `0`: measure
    /// at base load, let the tail of the ramp characterize saturation.
    pub measure_index: usize,
}

impl Default for SimSpec {
    fn default() -> Self {
        SimSpec {
            label: "base_load".into(),
            rates: vec![0.05],
            duration_cycles: 300,
            payload_bits: 64,
            seed: 1,
            saturation_cutoff: Some(8.0),
            measure_index: 0,
        }
    }
}

/// One fully-resolved point of the scenario space.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Position in the grid enumeration (stable across runs and threads).
    pub id: usize,
    /// The application.
    pub workload: WorkloadSpec,
    /// Label of the engine axis value.
    pub engine_label: String,
    /// Decomposition-engine configuration.
    pub engine: DecomposerConfig,
    /// Synthesis objective (what the branch-and-bound minimizes).
    pub objective: Objective,
    /// Technology profile.
    pub technology: TechnologyProfile,
    /// Floorplanner seed.
    pub floorplan_seed: u64,
    /// Square-core area fed to the automatic floorplanner, mm².
    pub core_area_mm2: f64,
    /// Simulation spec.
    pub sim: SimSpec,
    /// Router model fidelity the sweep simulates under (the innermost
    /// axis; [`RouterFidelity::Ideal`] reproduces the pre-axis behavior
    /// bit-for-bit).
    pub router_fidelity: RouterFidelity,
}

impl Scenario {
    /// Human-readable point label for reports. Ideal-fidelity labels are
    /// byte-identical to pre-axis reports; credit fidelity appends one
    /// more `/`-separated part.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}/{}/{:?}/{}/fp{}/{}",
            self.workload.label(),
            self.engine_label,
            self.objective,
            self.technology.name(),
            self.floorplan_seed,
            self.sim.label,
        );
        if !matches!(self.router_fidelity, RouterFidelity::Ideal) {
            label.push('/');
            label.push_str(self.router_fidelity.label());
        }
        label
    }

    /// The scenario's value on each named grid axis, in enumeration-nest
    /// order (workload outermost, sim innermost). This is the coordinate
    /// system adaptive samplers plan over: an *arm* is one `(axis,
    /// value)` pair, and pulling it means evaluating scenarios that carry
    /// that value (see [`crate::sample`]). `core_area_mm2` is excluded —
    /// it is a grid-wide constant, not an axis.
    pub fn axis_values(&self) -> [(&'static str, String); 7] {
        [
            ("workload", self.workload.label()),
            ("engine", self.engine_label.clone()),
            ("synthesis_objective", format!("{:?}", self.objective)),
            ("technology", self.technology.name().to_string()),
            ("floorplan_seed", self.floorplan_seed.to_string()),
            ("sim", self.sim.label.clone()),
            ("router_fidelity", self.router_fidelity.label().to_string()),
        ]
    }

    /// Key of everything that feeds *synthesis* (workload, engine,
    /// objective, technology, floorplan) — scenarios sharing this key
    /// differ only in simulation spec, so their synthesized architecture
    /// is identical and the campaign computes it once.
    pub fn synthesis_key(&self) -> String {
        format!(
            "{}|{}|{:?}|{}|{}|{}",
            self.workload.label(),
            self.engine_label,
            self.objective,
            self.technology.name(),
            self.floorplan_seed,
            self.core_area_mm2,
        )
    }
}

/// The declarative scenario space: a builder for the cross product of
/// campaign axes. Every axis defaults to a single paper-default value, so
/// `ScenarioGrid::new().workload_family(...)` is already a runnable sweep.
#[derive(Debug, Clone)]
pub struct ScenarioGrid {
    workloads: Vec<WorkloadSpec>,
    engines: Vec<(String, DecomposerConfig)>,
    objectives: Vec<Objective>,
    technologies: Vec<TechnologyProfile>,
    floorplan_seeds: Vec<u64>,
    core_area_mm2: f64,
    sims: Vec<SimSpec>,
    router_fidelities: Vec<RouterFidelity>,
}

impl Default for ScenarioGrid {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioGrid {
    /// An empty-workload grid with paper defaults on every other axis:
    /// depth-first sequential engine, `Links` objective, 180 nm
    /// technology, floorplan seed 1, 1 mm² cores, one base-load sim spec.
    pub fn new() -> Self {
        ScenarioGrid {
            workloads: Vec::new(),
            engines: vec![("dfs".into(), DecomposerConfig::default())],
            objectives: vec![Objective::Links],
            technologies: vec![TechnologyProfile::cmos_180nm()],
            floorplan_seeds: vec![1],
            core_area_mm2: 1.0,
            sims: vec![SimSpec::default()],
            router_fidelities: vec![RouterFidelity::Ideal],
        }
    }

    /// Adds explicit workload instances.
    #[must_use]
    pub fn workloads(mut self, specs: impl IntoIterator<Item = WorkloadSpec>) -> Self {
        self.workloads.extend(specs);
        self
    }

    /// Adds a sized family swept over `sizes` × `seeds`.
    #[must_use]
    pub fn workload_family(
        mut self,
        family: WorkloadFamily,
        sizes: impl IntoIterator<Item = usize> + Clone,
        seeds: impl IntoIterator<Item = u64>,
    ) -> Self {
        for seed in seeds {
            for n in sizes.clone() {
                self.workloads.push(WorkloadSpec::new(family, n, seed));
            }
        }
        self
    }

    /// Replaces the engine axis with labeled decomposer configurations.
    #[must_use]
    pub fn engines(
        mut self,
        engines: impl IntoIterator<Item = (impl Into<String>, DecomposerConfig)>,
    ) -> Self {
        self.engines = engines
            .into_iter()
            .map(|(label, config)| (label.into(), config))
            .collect();
        assert!(!self.engines.is_empty(), "need at least one engine");
        self
    }

    /// Replaces the synthesis-objective axis.
    #[must_use]
    pub fn synthesis_objectives(mut self, objectives: impl IntoIterator<Item = Objective>) -> Self {
        self.objectives = objectives.into_iter().collect();
        assert!(!self.objectives.is_empty(), "need at least one objective");
        self
    }

    /// Replaces the technology axis.
    #[must_use]
    pub fn technologies(
        mut self,
        technologies: impl IntoIterator<Item = TechnologyProfile>,
    ) -> Self {
        self.technologies = technologies.into_iter().collect();
        assert!(
            !self.technologies.is_empty(),
            "need at least one technology"
        );
        self
    }

    /// Replaces the floorplan-seed axis.
    #[must_use]
    pub fn floorplan_seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.floorplan_seeds = seeds.into_iter().collect();
        assert!(!self.floorplan_seeds.is_empty(), "need at least one seed");
        self
    }

    /// Sets the square-core area used by the automatic floorplanner.
    #[must_use]
    pub fn core_area_mm2(mut self, area: f64) -> Self {
        assert!(area > 0.0, "core area must be positive");
        self.core_area_mm2 = area;
        self
    }

    /// Replaces the simulation-spec axis.
    #[must_use]
    pub fn sims(mut self, sims: impl IntoIterator<Item = SimSpec>) -> Self {
        self.sims = sims.into_iter().collect();
        assert!(!self.sims.is_empty(), "need at least one sim spec");
        self
    }

    /// Replaces the router-fidelity axis (defaults to ideal only, which
    /// keeps grids and labels identical to pre-axis campaigns).
    #[must_use]
    pub fn router_fidelities(
        mut self,
        fidelities: impl IntoIterator<Item = RouterFidelity>,
    ) -> Self {
        self.router_fidelities = fidelities.into_iter().collect();
        assert!(
            !self.router_fidelities.is_empty(),
            "need at least one router fidelity"
        );
        self
    }

    /// Number of scenario points the grid enumerates to.
    pub fn len(&self) -> usize {
        self.workloads.len()
            * self.engines.len()
            * self.objectives.len()
            * self.technologies.len()
            * self.floorplan_seeds.len()
            * self.sims.len()
            * self.router_fidelities.len()
    }

    /// `true` when no workload has been added.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates the cross product in a stable order (workloads
    /// outermost, router fidelity innermost — adjacent ids differ only
    /// in sim spec or fidelity, which is what makes synthesis reuse
    /// effective).
    pub fn enumerate(&self) -> Vec<Scenario> {
        let mut scenarios = Vec::with_capacity(self.len());
        for workload in &self.workloads {
            for (engine_label, engine) in &self.engines {
                for &objective in &self.objectives {
                    for technology in &self.technologies {
                        for &floorplan_seed in &self.floorplan_seeds {
                            for sim in &self.sims {
                                for &router_fidelity in &self.router_fidelities {
                                    scenarios.push(Scenario {
                                        id: scenarios.len(),
                                        workload: workload.clone(),
                                        engine_label: engine_label.clone(),
                                        engine: engine.clone(),
                                        objective,
                                        technology: technology.clone(),
                                        floorplan_seed,
                                        core_area_mm2: self.core_area_mm2,
                                        sim: sim.clone(),
                                        router_fidelity,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        scenarios
    }

    /// The CI smoke grid: small fixed and generated workloads, two
    /// synthesis objectives, two sim specs differing only in load ramp
    /// (exercising synthesis reuse), ~1 s of total work.
    pub fn smoke() -> Self {
        ScenarioGrid::new()
            .workloads([
                WorkloadSpec::fixed(WorkloadFamily::Fig5),
                WorkloadSpec::new(WorkloadFamily::Tgff, 8, 8),
                WorkloadSpec::new(WorkloadFamily::PajekPlanted, 10, 3),
            ])
            .synthesis_objectives([Objective::Links, Objective::Energy])
            .sims([
                SimSpec {
                    label: "base_load".into(),
                    rates: vec![0.05],
                    duration_cycles: 200,
                    ..SimSpec::default()
                },
                SimSpec {
                    label: "ramp".into(),
                    rates: vec![0.05, 0.15, 0.30],
                    duration_cycles: 200,
                    saturation_cutoff: Some(6.0),
                    ..SimSpec::default()
                },
            ])
    }

    /// The full grid of `explore --full`: the three fixed benchmarks plus
    /// TGFF and planted Pajek instances at two seeds, both synthesis
    /// objectives, two technologies, one saturating load ramp (52 points).
    pub fn full() -> Self {
        ScenarioGrid::new()
            .workloads([
                WorkloadSpec::fixed(WorkloadFamily::Fig5),
                WorkloadSpec::fixed(WorkloadFamily::Automotive),
                WorkloadSpec::fixed(WorkloadFamily::Multimedia),
            ])
            .workload_family(WorkloadFamily::Tgff, [8, 12, 15], [1, 2])
            .workload_family(WorkloadFamily::PajekPlanted, [10, 16], [1, 2])
            .synthesis_objectives([Objective::Links, Objective::Energy])
            .technologies([
                TechnologyProfile::cmos_180nm(),
                TechnologyProfile::cmos_100nm(),
            ])
            .sims([SimSpec {
                label: "ramp".into(),
                rates: vec![0.05, 0.15, 0.30, 0.45],
                duration_cycles: 300,
                saturation_cutoff: Some(6.0),
                ..SimSpec::default()
            }])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_is_stable_and_counts_match() {
        let grid = ScenarioGrid::smoke();
        let scenarios = grid.enumerate();
        assert_eq!(scenarios.len(), grid.len());
        assert_eq!(scenarios.len(), 3 * 2 * 2);
        for (i, s) in scenarios.iter().enumerate() {
            assert_eq!(s.id, i);
        }
        // Enumeration is deterministic.
        let again = grid.enumerate();
        assert!(scenarios
            .iter()
            .zip(&again)
            .all(|(a, b)| a.label() == b.label()));
    }

    #[test]
    fn adjacent_ids_share_synthesis_keys() {
        // Sim specs are the innermost axis: consecutive scenarios pair up
        // under one synthesis key.
        let scenarios = ScenarioGrid::smoke().enumerate();
        assert_eq!(scenarios[0].synthesis_key(), scenarios[1].synthesis_key());
        assert_ne!(scenarios[1].synthesis_key(), scenarios[2].synthesis_key());
    }

    #[test]
    fn router_fidelity_axis_multiplies_the_grid_and_marks_labels() {
        let base = ScenarioGrid::smoke();
        let both = ScenarioGrid::smoke().router_fidelities([
            RouterFidelity::Ideal,
            RouterFidelity::Credit(CreditConfig::default()),
        ]);
        assert_eq!(both.len(), base.len() * 2);
        let scenarios = both.enumerate();
        // Fidelity is the innermost axis: ideal/credit alternate, and a
        // credit scenario still shares its neighbor's synthesis key.
        assert!(matches!(
            scenarios[0].router_fidelity,
            RouterFidelity::Ideal
        ));
        assert!(matches!(
            scenarios[1].router_fidelity,
            RouterFidelity::Credit(_)
        ));
        assert_eq!(scenarios[0].synthesis_key(), scenarios[1].synthesis_key());
        // Ideal labels are byte-identical to a fidelity-free grid; credit
        // labels append exactly one part.
        let plain = base.enumerate();
        assert_eq!(scenarios[0].label(), plain[0].label());
        assert_eq!(scenarios[1].label(), format!("{}/credit", plain[0].label()));
        // The axis shows up in the sampler's coordinate system.
        assert_eq!(
            scenarios[1].axis_values()[6],
            ("router_fidelity", "credit".to_string())
        );
    }

    #[test]
    fn workload_family_sweeps_sizes_and_seeds() {
        let grid = ScenarioGrid::new().workload_family(WorkloadFamily::Tgff, [5, 8], 1..=3);
        assert_eq!(grid.len(), 6);
    }

    #[test]
    fn fixed_spec_instantiates_fixed_benchmark() {
        let spec = WorkloadSpec::fixed(WorkloadFamily::Automotive);
        assert_eq!(spec.instantiate().core_count(), 18);
        assert_eq!(spec.label(), "automotive18");
    }
}
