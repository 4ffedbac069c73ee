//! The campaign engine: plan which scenario points still need work,
//! execute the plan over a worker pool, fold every record — fresh and
//! carried — into a Pareto front.
//!
//! # Plan / execute / fold
//!
//! A campaign run is three explicit stages:
//!
//! 1. **Plan** ([`Campaign::plan`], [`plan_resume`](Campaign::plan_resume),
//!    [`plan_shard`](Campaign::plan_shard)) — decide *which* stable
//!    scenario ids to evaluate: the whole grid, the grid minus points a
//!    prior report already records (resume), or one [`ShardManifest`]'s
//!    slice of the grid (distributed sharding). Prior records skipped by
//!    a resume are *carried* into the plan unchanged.
//! 2. **Execute** — run floorplan → decomposition → glue → verification →
//!    simulation for every planned scenario on the worker pool, sharing
//!    placements per placement key, synthesis artifacts per synthesis
//!    key, verification and sweeps per architecture, and one
//!    size-agnostic [`SharedMatchCache`] campaign-wide.
//! 3. **Fold** — offer every record (carried + fresh) to a fresh
//!    [`ParetoFront`](crate::ParetoFront) in scenario-id order and
//!    assemble the [`CampaignReport`] with front-quality metrics.
//!
//! Because ids are stable and the front is permutation-invariant, the
//! three ways of covering a grid — one shot, kill/resume, shard/merge —
//! provably fold to the same front (`explore --smoke` asserts the
//! three-way equality in CI; `tests/explore_resume.rs` locks it in).
//!
//! # Determinism
//!
//! A campaign's report depends only on its grid, never on its thread
//! count. That falls out of three decisions:
//!
//! * scenario ids are grid-enumeration positions, assigned before any
//!   work starts;
//! * synthesis artifacts are computed once per *synthesis key* in a
//!   dedicated phase, so which scenario "owns" a synthesis run (and which
//!   reuse it) is a property of the plan, not of scheduling;
//! * measure jobs are formed on the calling thread before the measure
//!   phase, in scenario-id order: points whose synthesis produced the
//!   same architecture (the same model, link lengths compared by bits,
//!   and demand pairs) share one job, which verifies it once and runs
//!   each distinct sweep once under every member's technology. A shared
//!   sweep reports each technology's energy exactly as its own sweep
//!   would (see [`sweep::sweep_each`]), so membership changes no record
//!   and does not depend on the thread count;
//! * the Pareto front is folded sequentially in scenario-id order after
//!   every point completes, and the default objective vector contains
//!   only deterministic metrics (wall-time is opt-in, see
//!   [`ObjectiveKind::SynthTimeMs`]).
//!
//! Two scheduling-visible artifacts remain, both outside the measured
//! results: the *order* in which a streaming [`ResultSink`] observes
//! points (a measure job's points arrive together, ascending by id), and
//! — when the campaign-wide match cache is shared by several
//! workers — the [`cache_hits`](PointRecord::cache_hits) provenance
//! counter (whether a given enumeration was a hit depends on which
//! concurrent search populated the cache first; the search *results*
//! never depend on it).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use noc::prelude::*;
use noc::sim::sweep;
use noc::FlowResult;
use noc_telemetry::Telemetry;

use crate::pareto::ObjectiveKind;
use crate::report::{
    CacheSizeRecord, CampaignReport, NullSink, PointRecord, ResultSink, SweepPointRecord,
    VerifyRecord,
};
use crate::scenario::{Scenario, ScenarioGrid};
use crate::shard::ShardManifest;

/// Capacity (distinct size-tagged remaining graphs) of every match cache
/// the exploration layer creates: the campaign engine's internal cache,
/// the sampler's cross-round cache and `verify_report`'s re-synthesis
/// cache.
pub const CACHE_CAPACITY: usize = 1 << 16;

/// The synthesized artifacts shared by every scenario with one synthesis
/// key: the flow result plus the simulation-ready model (all-pairs routes
/// filled once).
pub(crate) struct SynthArtifacts {
    result: FlowResult,
    model: NocModel,
    /// The application's demand pairs — the sweep's traffic population (a
    /// custom architecture only guarantees routes for these).
    pairs: Vec<(NodeId, NodeId)>,
    synth_ms: f64,
}

impl SynthArtifacts {
    /// Static deadlock analysis of the exact model the sweeps run. The
    /// spec demands a route for every traffic pair a sweep can draw, so
    /// an incomplete table fails here, not mid-simulation.
    pub(crate) fn verify(&self, telemetry: Option<&Telemetry>) -> VerifyRecord {
        let t0 = Instant::now();
        let spec = self
            .model
            .routing_spec()
            .require_pairs(self.pairs.iter().copied());
        let verdict = noc::verify::verify_with(&spec, telemetry);
        VerifyRecord::from_verdict(&verdict, t0.elapsed().as_secs_f64() * 1e3)
    }

    /// Whether `other` simulates exactly like this: an equal model (link
    /// lengths compared by bits) under the same demand pairs. Routes,
    /// arbitration and latency read nothing else, so the two differ at
    /// most in the technology that prices their flits.
    fn same_architecture(&self, other: &SynthArtifacts) -> bool {
        self.model == other.model && self.pairs == other.pairs
    }
}

pub(crate) type SynthOutcome = Result<Arc<SynthArtifacts>, String>;

/// One measure job: the planned points that simulate one architecture,
/// formed on the calling thread before the measure phase.
struct MeasureJob<'a> {
    /// Plan index and artifacts of each point, ascending by id. Every
    /// point's architecture is the same; its synthesis key may differ.
    points: Vec<(usize, &'a SynthArtifacts)>,
    /// Each distinct sweep with the positions in `points` it serves, in
    /// order of first appearance.
    sweeps: Vec<(sweep::SweepConfig, Vec<usize>)>,
}

/// Groups the successfully synthesized `scenarios` (ascending by id) into
/// measure jobs: points with the same architecture share a job, and
/// within a job points whose sweep configurations match exactly share
/// one sweep. Points whose synthesis failed belong to no job.
fn measure_jobs<'a>(
    scenarios: &[Scenario],
    outcomes: &'a HashMap<String, SynthOutcome>,
) -> Vec<MeasureJob<'a>> {
    let mut jobs: Vec<MeasureJob<'a>> = Vec::new();
    for (i, scenario) in scenarios.iter().enumerate() {
        let Ok(artifacts) = &outcomes[&scenario.synthesis_key()] else {
            continue;
        };
        let artifacts: &SynthArtifacts = artifacts;
        let found = jobs
            .iter()
            .position(|job| job.points[0].1.same_architecture(artifacts));
        let j = found.unwrap_or_else(|| {
            jobs.push(MeasureJob {
                points: Vec::new(),
                sweeps: Vec::new(),
            });
            jobs.len() - 1
        });
        let job = &mut jobs[j];
        let position = job.points.len();
        job.points.push((i, artifacts));
        let config = sweep_config(scenario, &artifacts.pairs);
        match job.sweeps.iter_mut().find(|(c, _)| same_sweep(c, &config)) {
            Some((_, members)) => members.push(position),
            None => job.sweeps.push((config, vec![position])),
        }
    }
    jobs
}

/// The load sweep `scenario` asks for over an architecture whose traffic
/// population is `pairs`.
fn sweep_config(scenario: &Scenario, pairs: &[(NodeId, NodeId)]) -> sweep::SweepConfig {
    sweep::SweepConfig {
        rates: scenario.sim.rates.clone(),
        duration_cycles: scenario.sim.duration_cycles,
        payload_bits: scenario.sim.payload_bits,
        seed: scenario.sim.seed,
        saturation_cutoff: scenario.sim.saturation_cutoff,
        pairs: Some(pairs.to_vec()),
        sim: noc::sim::SimConfig {
            router: scenario.router_fidelity,
            ..noc::sim::SimConfig::default()
        },
    }
}

/// Exact sweep equality: rates and cutoff by bits (so `-0.0` and `0.0`
/// are different rates, as their records are), every other field by
/// `==`, none of which holds a float.
fn same_sweep(a: &sweep::SweepConfig, b: &sweep::SweepConfig) -> bool {
    let sweep::SweepConfig {
        rates,
        duration_cycles,
        payload_bits,
        seed,
        sim,
        saturation_cutoff,
        pairs,
    } = a;
    rates.len() == b.rates.len()
        && rates
            .iter()
            .zip(&b.rates)
            .all(|(x, y)| x.to_bits() == y.to_bits())
        && *duration_cycles == b.duration_cycles
        && *payload_bits == b.payload_bits
        && *seed == b.seed
        && *sim == b.sim
        && saturation_cutoff.map(f64::to_bits) == b.saturation_cutoff.map(f64::to_bits)
        && *pairs == b.pairs
}

/// A campaign's automatic placements, keyed on what the floorplanner
/// reads: workload label, floorplan seed and core-area bits. Each key
/// holds one once-cell, so the first job to claim it anneals and every
/// other job with that key — in this plan or a later one sharing the
/// store — waits for the result instead of annealing again.
pub(crate) type Placements = Mutex<HashMap<(String, u64, u64), Arc<OnceLock<Placement>>>>;

/// What a campaign's execute stage will actually run: the scenarios still
/// owed work, plus records carried over from a prior report.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// Scenarios to evaluate, ascending by id.
    scenarios: Vec<Scenario>,
    /// Records adopted from a prior report (ids disjoint from
    /// `scenarios`); folded into the front without re-running.
    carried: Vec<PointRecord>,
    /// Total points in the grid the plan was cut from.
    grid_len: usize,
}

impl CampaignPlan {
    /// Number of scenarios the execute stage will run.
    pub fn to_run(&self) -> usize {
        self.scenarios.len()
    }

    /// Number of records carried from the prior report.
    pub fn carried(&self) -> usize {
        self.carried.len()
    }

    /// Total points in the plan's grid.
    pub fn grid_len(&self) -> usize {
        self.grid_len
    }

    /// The planned scenario ids, ascending.
    pub fn scenario_ids(&self) -> Vec<usize> {
        self.scenarios.iter().map(|s| s.id).collect()
    }

    /// Keeps only the planned scenarios whose id is in `ids` (carried
    /// records are untouched). This is how a sampling planner turns "the
    /// whole remaining grid" ([`Campaign::plan_resume`]) into one round's
    /// worth of work: plan the resume, restrict to the round's chosen
    /// ids, execute, re-plan against the grown report.
    #[must_use]
    pub fn restrict(mut self, ids: &std::collections::BTreeSet<usize>) -> Self {
        self.scenarios.retain(|s| ids.contains(&s.id));
        self
    }
}

/// A multi-objective design-space exploration campaign over a
/// [`ScenarioGrid`].
///
/// # Examples
///
/// ```
/// use noc::workloads::WorkloadFamily;
/// use noc_explore::{Campaign, ScenarioGrid, WorkloadSpec};
///
/// // One fixed workload, every other axis at its paper default.
/// let grid = ScenarioGrid::new().workloads([WorkloadSpec::fixed(WorkloadFamily::Fig5)]);
/// let report = Campaign::new(grid).run();
/// assert_eq!(report.points.len(), 1);
/// assert_eq!(report.front, vec![0]); // a lone point is trivially Pareto
/// assert!(report.points[0].error.is_none());
/// ```
///
/// A real campaign sweeps several axes and reads the front:
///
/// ```
/// use noc::prelude::*;
/// use noc::workloads::WorkloadFamily;
/// use noc_explore::{Campaign, ObjectiveKind, ScenarioGrid, WorkloadSpec};
///
/// let grid = ScenarioGrid::new()
///     .workloads([WorkloadSpec::fixed(WorkloadFamily::Fig5)])
///     .synthesis_objectives([Objective::Links, Objective::Energy])
///     .technologies([TechnologyProfile::cmos_180nm(), TechnologyProfile::cmos_130nm()]);
/// let campaign = Campaign::new(grid)
///     .objectives(&[ObjectiveKind::EnergyJoules, ObjectiveKind::AvgLatencyCycles]);
/// let report = campaign.clone().threads(2).run();
/// assert_eq!(report.points.len(), 4);
/// assert!(!report.front.is_empty());
/// // Thread count never changes the front.
/// assert_eq!(report.front, campaign.run().front);
/// ```
///
/// Campaigns are incremental: a report can be written out, read back and
/// resumed, and grids can be sharded across machines and merged —
/// all three coverages fold to the same front:
///
/// ```
/// use noc::workloads::WorkloadFamily;
/// use noc_explore::{merge_reports, Campaign, ScenarioGrid, ShardManifest, WorkloadSpec};
///
/// let grid = ScenarioGrid::new()
///     .workloads([WorkloadSpec::fixed(WorkloadFamily::Fig5)]);
/// let campaign = Campaign::new(grid);
/// let single = campaign.run();
///
/// // Shard the grid, run the slices independently, merge the reports.
/// let shards: Vec<_> = (0..2)
///     .map(|i| campaign.run_plan(campaign.plan_shard(&ShardManifest::range(i, 2))))
///     .collect();
/// assert_eq!(merge_reports(&shards).unwrap().front, single.front);
///
/// // Resume from a partial report (here: shard 0 alone).
/// let resumed = campaign.resume_from(&shards[0]).unwrap();
/// assert_eq!(resumed.front, single.front);
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    pub(crate) grid: ScenarioGrid,
    pub(crate) objectives: Vec<ObjectiveKind>,
    threads: usize,
    /// Explicit telemetry override; `None` falls back to the process-wide
    /// handle ([`noc_telemetry::active`]).
    telemetry: Option<Telemetry>,
}

impl Campaign {
    /// A campaign over `grid` with the deterministic default objective
    /// vector ([`ObjectiveKind::DEFAULT`]) and one worker thread. Each run
    /// shares one VF2 match cache across all of its synthesis jobs.
    pub fn new(grid: ScenarioGrid) -> Self {
        Campaign {
            grid,
            objectives: ObjectiveKind::DEFAULT.to_vec(),
            threads: 1,
            telemetry: None,
        }
    }

    /// Replaces the scenario grid.
    #[must_use]
    pub fn grid(mut self, grid: ScenarioGrid) -> Self {
        self.grid = grid;
        self
    }

    /// Replaces the objective vector the Pareto front ranks.
    ///
    /// # Panics
    ///
    /// Panics on an empty or duplicated objective list.
    #[must_use]
    pub fn objectives(mut self, kinds: &[ObjectiveKind]) -> Self {
        assert!(!kinds.is_empty(), "need at least one objective");
        let mut seen = Vec::new();
        for k in kinds {
            assert!(!seen.contains(k), "duplicate objective {k:?}");
            seen.push(*k);
        }
        self.objectives = kinds.to_vec();
        self
    }

    /// Campaign worker threads: `1` = sequential (default), `0` = one per
    /// hardware thread. Per-scenario results and the front are identical
    /// at every thread count (see the module docs).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Routes this campaign's spans, counters and events to an explicit
    /// telemetry handle instead of the process-wide one — the handle an
    /// embedding test or tool owns outright. A disabled handle silences
    /// the campaign even when a global trace is installed.
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The handle instrumentation writes to: the explicit override when
    /// set, otherwise the process-wide handle (if any).
    pub(crate) fn resolved_telemetry(&self) -> Option<&Telemetry> {
        match &self.telemetry {
            Some(t) => Some(t),
            None => noc_telemetry::active(),
        }
    }

    /// Plans the whole grid: every scenario, nothing carried.
    ///
    /// # Examples
    ///
    /// ```
    /// use noc::workloads::WorkloadFamily;
    /// use noc_explore::{Campaign, ScenarioGrid, WorkloadSpec};
    ///
    /// let campaign = Campaign::new(
    ///     ScenarioGrid::new().workloads([WorkloadSpec::fixed(WorkloadFamily::Fig5)]),
    /// );
    /// let plan = campaign.plan();
    /// assert_eq!((plan.to_run(), plan.carried()), (1, 0));
    /// assert_eq!(plan.scenario_ids(), vec![0]);
    /// let report = campaign.run_plan(plan);
    /// assert_eq!(report.points.len(), 1);
    /// ```
    pub fn plan(&self) -> CampaignPlan {
        CampaignPlan {
            scenarios: self.grid.enumerate(),
            carried: Vec::new(),
            grid_len: self.grid.len(),
        }
    }

    /// Plans one shard's slice of the grid (see [`ShardManifest`]);
    /// nothing carried. The reports of a full partition merge back into
    /// the single-shot front via
    /// [`merge_reports`](crate::shard::merge_reports).
    pub fn plan_shard(&self, shard: &ShardManifest) -> CampaignPlan {
        let total = self.grid.len();
        CampaignPlan {
            scenarios: self
                .grid
                .enumerate()
                .into_iter()
                .filter(|s| shard.contains(s.id, total))
                .collect(),
            carried: Vec::new(),
            grid_len: total,
        }
    }

    /// Plans the grid minus the points `prior` already records: a
    /// scenario is skipped (and its record carried) when the prior report
    /// holds a record with its id **and** label — a label mismatch means
    /// the id names a different scenario in the prior grid, so the point
    /// is re-run rather than trusted. Errored prior records are carried
    /// too: failures are deterministic per grid, so re-running them buys
    /// nothing.
    ///
    /// Fails when `prior` ranks a different objective vector — its
    /// recorded objective values would be meaningless in this campaign's
    /// front.
    ///
    /// # Examples
    ///
    /// ```
    /// use noc::prelude::*;
    /// use noc::workloads::WorkloadFamily;
    /// use noc_explore::{Campaign, ScenarioGrid, ShardManifest, WorkloadSpec};
    ///
    /// let campaign = Campaign::new(
    ///     ScenarioGrid::new()
    ///         .workloads([WorkloadSpec::fixed(WorkloadFamily::Fig5)])
    ///         .synthesis_objectives([Objective::Links, Objective::Energy]),
    /// );
    /// // A prior partial report (here: half the grid) is planned around.
    /// let prior = campaign.run_plan(campaign.plan_shard(&ShardManifest::range(0, 2)));
    /// let plan = campaign.plan_resume(&prior).unwrap();
    /// assert_eq!((plan.to_run(), plan.carried()), (1, 1));
    /// // Executing the plan completes the grid, carrying the old record.
    /// let report = campaign.run_plan(plan);
    /// assert_eq!(report.points.len(), 2);
    /// assert_eq!(report.front, campaign.run().front);
    /// ```
    pub fn plan_resume(&self, prior: &CampaignReport) -> Result<CampaignPlan, String> {
        if prior.objective_kinds != self.objectives {
            return Err(format!(
                "prior report ranks {:?}, campaign ranks {:?} — refusing to fold incomparable records",
                prior.objective_kinds, self.objectives
            ));
        }
        let mut scenarios = Vec::new();
        let mut carried = Vec::new();
        for scenario in self.grid.enumerate() {
            match prior.point(scenario.id) {
                Some(record) if record.label == scenario.label() => {
                    carried.push(record.clone());
                }
                _ => scenarios.push(scenario),
            }
        }
        Ok(CampaignPlan {
            scenarios,
            carried,
            grid_len: self.grid.len(),
        })
    }

    /// Runs the campaign, discarding streaming results.
    pub fn run(&self) -> CampaignReport {
        self.run_with_sink(&mut NullSink)
    }

    /// Runs the campaign, streaming each completed point into `sink`
    /// before returning the assembled report.
    pub fn run_with_sink(&self, sink: &mut dyn ResultSink) -> CampaignReport {
        self.run_plan_with_sink(self.plan(), sink)
    }

    /// Resumes from a prior (possibly partial) report: plans the missing
    /// points, runs them, and folds old and new records into one front.
    /// See [`plan_resume`](Self::plan_resume) for the skip rule and the
    /// failure case.
    pub fn resume_from(&self, prior: &CampaignReport) -> Result<CampaignReport, String> {
        Ok(self.run_plan(self.plan_resume(prior)?))
    }

    /// Executes a plan, discarding streaming results.
    pub fn run_plan(&self, plan: CampaignPlan) -> CampaignReport {
        self.run_plan_with_sink(plan, &mut NullSink)
    }

    /// The engine: executes `plan`'s scenarios (streaming completions
    /// into `sink`), then folds fresh and carried records into the
    /// report. All other `run_*`/`resume_*` entry points funnel here —
    /// each with run-lifetime shared state (`run_plan_shared`
    /// lets a multi-round caller like the sampler keep artifacts,
    /// placements and the match cache alive across plans).
    pub fn run_plan_with_sink(
        &self,
        plan: CampaignPlan,
        sink: &mut dyn ResultSink,
    ) -> CampaignReport {
        self.run_plan_shared(
            plan,
            sink,
            &mut HashMap::new(),
            &Placements::default(),
            &SharedMatchCache::new(CACHE_CAPACITY),
        )
    }

    /// [`run_plan_with_sink`](Self::run_plan_with_sink) with a
    /// **caller-owned** campaign-wide match cache instead of a fresh
    /// internal one, so several plans (say, the shards of one grid run
    /// back to back in one process) can share it. The report's
    /// `match_cache` rows are cumulative over the cache's lifetime, so a
    /// cache that served earlier plans can show hits from this plan's
    /// very first decomposition.
    pub fn run_plan_with_cache(
        &self,
        plan: CampaignPlan,
        sink: &mut dyn ResultSink,
        cache: &SharedMatchCache,
    ) -> CampaignReport {
        self.run_plan_shared(
            plan,
            sink,
            &mut HashMap::new(),
            &Placements::default(),
            cache,
        )
    }

    /// [`run_plan_with_sink`](Self::run_plan_with_sink) with
    /// caller-owned shared state: `artifacts` carries synthesized
    /// architectures across *multiple* plans (a synthesis key already in
    /// the map is never re-synthesized — its scenarios count as reused),
    /// `placements` carries annealed floorplans (a placement key already
    /// in the store never anneals again), and `match_cache` is the
    /// campaign-wide VF2 cache (its stats rows in the report are
    /// cumulative over the cache's lifetime). The sampler threads all
    /// three through its rounds so budgeted campaigns keep the exhaustive
    /// engine's once-per-key guarantees.
    pub(crate) fn run_plan_shared(
        &self,
        plan: CampaignPlan,
        sink: &mut dyn ResultSink,
        artifacts: &mut HashMap<String, SynthOutcome>,
        placements: &Placements,
        match_cache: &SharedMatchCache,
    ) -> CampaignReport {
        let t0 = Instant::now();
        let CampaignPlan {
            scenarios, carried, ..
        } = plan;
        let tel = self.resolved_telemetry();
        let run_span = tel.map(|t| {
            t.add("campaign.plans", 1);
            t.span("campaign.run")
                .field("scenarios", scenarios.len() as u64)
                .field("carried", carried.len() as u64)
        });

        // Execute phase 1 — synthesis, once per synthesis key not already
        // carried in `artifacts`. Job ownership is a plan property (first
        // scenario bearing each new key), so reuse flags and statistics
        // are identical at every thread count.
        let mut first_of_key: HashMap<String, usize> = HashMap::new();
        let mut jobs: Vec<&Scenario> = Vec::new();
        for scenario in &scenarios {
            let key = scenario.synthesis_key();
            if artifacts.contains_key(&key) {
                continue;
            }
            first_of_key.entry(key).or_insert_with(|| {
                jobs.push(scenario);
                scenario.id
            });
        }
        let synth_results: Vec<Mutex<Option<SynthOutcome>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        // The automatic floorplan depends only on the workload's demand
        // graph, the floorplan seed and the core area — not on the
        // synthesis objective or engine — so synthesis keys differing
        // only in those axes share one placement. The floorplanner
        // dominates flow cost (simulated annealing vs sub-ms synthesis
        // on campaign-sized graphs), so this dedup, not artifact reuse,
        // is what the smoke grid's flows/sec mostly measures.
        let threads = self.resolve_threads(scenarios.len());
        let next_job = AtomicUsize::new(0);
        let synthesize_worker = || loop {
            let i = next_job.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(i) else { break };
            let span = tel.map(|t| {
                // Depth = jobs not yet claimed (approximate under
                // concurrency — workers race the gauge, last write wins).
                t.gauge_set("campaign.synth_queue_depth", (jobs.len() - i - 1) as u64);
                t.span("campaign.synthesize")
                    .field("scenario_id", job.id as u64)
                    .field("label", job.label())
            });
            let outcome = self.synthesize(job, match_cache, placements);
            drop(span);
            *synth_results[i].lock().expect("synth slot") = Some(outcome);
        };
        run_pool(threads.min(jobs.len().max(1)), &synthesize_worker);
        let mut flows_synthesized = 0;
        for (job, slot) in jobs.iter().zip(&synth_results) {
            let outcome = slot
                .lock()
                .expect("synth slot")
                .take()
                .expect("synthesis phase filled every slot");
            if outcome.is_ok() {
                flows_synthesized += 1;
            }
            artifacts.insert(job.synthesis_key(), outcome);
        }

        // Execute phase 2 — measure. Points that simulate the same
        // architecture form one job, grouped here on the calling thread
        // so membership is a property of the plan: the job verifies the
        // architecture once and runs each distinct sweep once, under the
        // technology of every point it serves. A point whose synthesis
        // failed has nothing to measure and is recorded right away.
        let artifacts = &*artifacts;
        let records: Vec<Mutex<Option<PointRecord>>> =
            scenarios.iter().map(|_| Mutex::new(None)).collect();
        // Reused: another scenario owns the key this plan, or the
        // artifact was carried in from a prior plan (sampler round).
        let reused: Vec<bool> = scenarios
            .iter()
            .map(|s| {
                first_of_key
                    .get(&s.synthesis_key())
                    .is_none_or(|&owner| owner != s.id)
            })
            .collect();
        for (i, scenario) in scenarios.iter().enumerate() {
            if let Err(error) = &artifacts[&scenario.synthesis_key()] {
                let mut record = point_record(scenario, reused[i]);
                record.error = Some(error.clone());
                sink.point(&record);
                *records[i].lock().expect("record slot") = Some(record);
            }
        }
        let jobs = measure_jobs(&scenarios, artifacts);
        let sink = Mutex::new(sink);
        let next_job = AtomicUsize::new(0);
        let measure_worker = || loop {
            let j = next_job.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(j) else { break };
            let span = tel.map(|t| {
                let ids: Vec<String> = job
                    .points
                    .iter()
                    .map(|&(i, _)| scenarios[i].id.to_string())
                    .collect();
                t.gauge_set("campaign.measure_queue_depth", (jobs.len() - j - 1) as u64);
                t.span("campaign.measure")
                    .field("ids", ids.join(","))
                    .field("sweeps", job.sweeps.len() as u64)
            });
            let measured = self.measure(&scenarios, job, &reused);
            drop(span);
            let mut sink = sink.lock().expect("sink lock");
            for (&(i, _), record) in job.points.iter().zip(measured) {
                sink.point(&record);
                *records[i].lock().expect("record slot") = Some(record);
            }
        };
        run_pool(threads.min(jobs.len().max(1)), &measure_worker);

        // Fold — carried and fresh records together, sequentially in
        // scenario order, so the front is a pure function of the records.
        let fresh: Vec<PointRecord> = records
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("record slot")
                    .expect("measurement phase filled every slot")
            })
            .collect();
        let synthesis_reused = fresh
            .iter()
            .filter(|p| p.reused_synthesis && p.error.is_none())
            .count();
        let carried_points = carried.len();
        let mut all = carried;
        all.extend(fresh);
        let mut report = CampaignReport::assemble(self.objectives.clone(), all);
        report.threads = threads;
        report.flows_synthesized = flows_synthesized;
        report.synthesis_reused = synthesis_reused;
        report.carried_points = carried_points;
        report.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        report.match_cache = match_cache
            .size_stats()
            .iter()
            .map(|s| CacheSizeRecord {
                vertex_count: s.vertex_count,
                hits: s.hits,
                misses: s.misses,
            })
            .collect();
        if let Some(t) = tel {
            t.add(
                "campaign.flows_synthesized",
                report.flows_synthesized as u64,
            );
            t.add("campaign.synthesis_reused", report.synthesis_reused as u64);
            t.add("campaign.carried_points", report.carried_points as u64);
            t.add("campaign.points", report.points.len() as u64);
            if !report.match_cache.is_empty() {
                let (hits, misses) = report
                    .match_cache
                    .iter()
                    .fold((0u64, 0u64), |(h, m), r| (h + r.hits, m + r.misses));
                t.event(
                    "campaign.match_cache",
                    &[("hits", hits.into()), ("misses", misses.into())],
                );
            }
        }
        sink.into_inner().expect("sink lock").finish(&report);
        drop(run_span);
        report
    }

    pub(crate) fn resolve_threads(&self, work_items: usize) -> usize {
        let t = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            t => t,
        };
        t.min(work_items.max(1))
    }

    pub(crate) fn synthesize(
        &self,
        scenario: &Scenario,
        match_cache: &SharedMatchCache,
        placements: &Placements,
    ) -> SynthOutcome {
        let acg = scenario.workload.instantiate();
        let pairs: Vec<(NodeId, NodeId)> = acg
            .demands()
            .filter(|(_, d)| d.volume > 0.0)
            .map(|(e, _)| (e.src, e.dst))
            .collect();
        let mut engine = scenario.engine.clone();
        if engine.use_match_cache {
            // One size-agnostic cache serves the whole campaign: keys are
            // vertex-count-tagged, so a size sweep shares a single map.
            engine.shared_cache = Some(match_cache.clone());
        }
        let flow = SynthesisFlow::new(acg)
            .objective(scenario.objective)
            .technology(scenario.technology.clone())
            .seed(scenario.floorplan_seed)
            .core_area_mm2(scenario.core_area_mm2)
            .decomposer_config(engine);
        let placement_key = (
            scenario.workload.label(),
            scenario.floorplan_seed,
            scenario.core_area_mm2.to_bits(),
        );
        // Take the key's cell under the map lock, anneal outside it.
        let cell = Arc::clone(
            placements
                .lock()
                .expect("placement cache")
                .entry(placement_key)
                .or_default(),
        );
        let mut annealed = false;
        let placement = cell
            .get_or_init(|| {
                annealed = true;
                flow.auto_placement()
            })
            .clone();
        if !annealed {
            if let Some(t) = self.resolved_telemetry() {
                t.add("campaign.floorplan_reuses", 1);
            }
        }
        let t0 = Instant::now();
        let result = flow
            .run_with_placement(placement)
            .map_err(|e| e.to_string())?;
        let synth_ms = t0.elapsed().as_secs_f64() * 1e3;
        Ok(Arc::new(SynthArtifacts {
            model: result.noc_model(),
            result,
            pairs,
            synth_ms,
        }))
    }

    /// Measures one job: verifies its architecture once, runs each
    /// distinct sweep once under the technologies of the points it
    /// serves, and returns the points' records in job order.
    fn measure(
        &self,
        scenarios: &[Scenario],
        job: &MeasureJob,
        reused: &[bool],
    ) -> Vec<PointRecord> {
        let mut records: Vec<PointRecord> = job
            .points
            .iter()
            .map(|&(i, artifacts)| {
                let mut record = point_record(&scenarios[i], reused[i]);
                record.total_cost = artifacts.result.decomposition.total_cost.value();
                record.nodes_visited = artifacts.result.stats.nodes_visited;
                record.cache_hits = artifacts.result.stats.cache_hits;
                record.synth_ms = artifacts.synth_ms;
                record
            })
            .collect();
        let architecture = job.points[0].1;
        let tel = self.resolved_telemetry();

        // Gate: an unverified architecture never reaches the simulator —
        // its records carry the witness (or lint) instead of a sweep, and
        // the error keeps them off the front.
        let verify = architecture.verify(tel);
        for record in &mut records {
            record.verify = Some(verify.clone());
            if !verify.deadlock_free {
                record.error = Some(format!("verification failed: {}", verify.summary()));
            }
        }
        if !verify.deadlock_free {
            return records;
        }

        let mut shared = 0;
        for (config, members) in &job.sweeps {
            let energies: Vec<EnergyModel> = members
                .iter()
                .map(|&k| EnergyModel::new(scenarios[job.points[k].0].technology.clone()))
                .collect();
            shared += members.len() - 1;
            match sweep::sweep_each(&architecture.model, config, &energies) {
                Ok(curves) => {
                    for (&k, points) in members.iter().zip(curves) {
                        let (i, artifacts) = job.points[k];
                        self.record_sweep(&mut records[k], &scenarios[i], artifacts, &points);
                    }
                }
                Err(e) => {
                    for &k in members {
                        records[k].error = Some(e.to_string());
                    }
                }
            }
        }
        if let Some(t) = tel {
            t.add("campaign.sweeps_shared", shared as u64);
        }
        records
    }

    /// Fills a verified point's sweep, saturation flag and objectives
    /// from its curve.
    fn record_sweep(
        &self,
        record: &mut PointRecord,
        scenario: &Scenario,
        artifacts: &SynthArtifacts,
        points: &[sweep::LoadPoint],
    ) {
        if points.is_empty() {
            record.error = Some("sim spec has no load points".to_string());
            return;
        }
        record.saturated = points.len() < scenario.sim.rates.len();
        record.sweep = points
            .iter()
            .map(|p| SweepPointRecord {
                rate: p.injection_rate,
                latency_cycles: p.avg_latency_cycles,
                throughput_bits_per_cycle: p.throughput_bits_per_cycle,
                energy_joules: p.energy_joules,
            })
            .collect();
        let measure = &points[scenario.sim.measure_index.min(points.len() - 1)];
        if measure.packets == 0 {
            // An unloaded point reports 0.0 latency and energy — offering
            // that vector would let an unmeasured design dominate the
            // front, so fail the point instead (deterministic per grid:
            // the traffic draw is seeded).
            record.error = Some(format!(
                "measurement point (rate {}) delivered no packets",
                measure.injection_rate
            ));
            return;
        }
        record.objectives = self
            .objectives
            .iter()
            .map(|kind| match kind {
                ObjectiveKind::EnergyJoules => measure.energy_joules,
                ObjectiveKind::AvgLatencyCycles => measure.avg_latency_cycles,
                ObjectiveKind::AreaMm2 => artifacts.result.placement.chip_area_mm2(),
                ObjectiveKind::SynthTimeMs => artifacts.synth_ms,
            })
            .collect();
    }
}

/// A point's record before measurement: what its scenario names, with
/// every result field unset.
fn point_record(scenario: &Scenario, reused: bool) -> PointRecord {
    PointRecord {
        scenario_id: scenario.id,
        label: scenario.label(),
        workload: scenario.workload.label(),
        nodes: scenario.workload.family.effective_size(scenario.workload.n),
        engine: scenario.engine_label.clone(),
        synthesis_objective: format!("{:?}", scenario.objective),
        technology: scenario.technology.name().to_string(),
        sim: scenario.sim.label.clone(),
        router_fidelity: scenario.router_fidelity.label().to_string(),
        objectives: Vec::new(),
        on_front: false,
        reused_synthesis: reused,
        total_cost: f64::NAN,
        nodes_visited: 0,
        cache_hits: 0,
        synth_ms: f64::NAN,
        verify: None,
        sweep: Vec::new(),
        saturated: false,
        error: None,
    }
}

/// Runs `worker` on `threads` scoped workers (inline when sequential).
fn run_pool(threads: usize, worker: &(dyn Fn() + Sync)) {
    if threads <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(worker);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{SimSpec, WorkloadSpec};
    use noc::workloads::WorkloadFamily;

    #[test]
    fn smoke_grid_runs_and_reuses_synthesis() {
        let report = Campaign::new(ScenarioGrid::smoke()).run();
        assert_eq!(report.points.len(), 12);
        assert!(report.points.iter().all(|p| p.error.is_none()));
        // Every point carries a clean static-verification verdict: the
        // synthesized VC assignment is deadlock-free by construction.
        for p in &report.points {
            let verify = p.verify.as_ref().expect("point carries a verdict");
            assert!(verify.deadlock_free, "{}: {}", p.label, verify.summary());
            assert!(verify.routes_checked > 0);
        }
        // Two sim specs per synthesis key: half the points reuse.
        assert_eq!(report.flows_synthesized, 6);
        assert_eq!(report.synthesis_reused, 6);
        assert_eq!(report.carried_points, 0);
        assert!(!report.front.is_empty());
        assert!(report.hypervolume > 0.0);
        // Front ids index real, unfailed, flagged points.
        for &id in &report.front {
            assert!(report.points[id].on_front);
        }
    }

    #[test]
    fn credit_fidelity_points_simulate_under_the_credit_router() {
        use noc::prelude::{CreditConfig, RouterFidelity};
        let grid = ScenarioGrid::new()
            .workloads([WorkloadSpec::fixed(WorkloadFamily::Fig5)])
            .sims([SimSpec {
                duration_cycles: 150,
                ..SimSpec::default()
            }])
            .router_fidelities([
                RouterFidelity::Ideal,
                RouterFidelity::Credit(CreditConfig {
                    rc_cycles: 1,
                    st_cycles: 2,
                    credit_return_cycles: 2,
                }),
            ]);
        let report = Campaign::new(grid).run();
        assert_eq!(report.points.len(), 2);
        assert!(report.points.iter().all(|p| p.error.is_none()));
        let (ideal, credit) = (&report.points[0], &report.points[1]);
        assert_eq!(ideal.router_fidelity, "ideal");
        assert_eq!(credit.router_fidelity, "credit");
        assert!(credit.label.ends_with("/credit"));
        // Same synthesized architecture (the axis is innermost), but the
        // deeper pipeline raises the measured latency.
        assert!(credit.reused_synthesis);
        assert!(
            credit.sweep[0].latency_cycles > ideal.sweep[0].latency_cycles,
            "credit {} vs ideal {}",
            credit.sweep[0].latency_cycles,
            ideal.sweep[0].latency_cycles
        );
        // And the record survives the report round trip.
        let parsed = CampaignReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.points[1].router_fidelity, "credit");
    }

    #[test]
    fn campaign_shares_one_cache_across_sizes() {
        // The smoke grid spans 8- and 10-vertex workloads, each
        // synthesized under two objectives: the second run per workload
        // hits entries the first populated, and the one campaign-wide
        // cache attributes traffic to ≥ 2 vertex counts.
        let report = Campaign::new(ScenarioGrid::smoke()).run();
        assert!(
            report.match_cache.len() >= 2,
            "expected ≥ 2 sizes, got {:?}",
            report.match_cache
        );
        let with_hits = report.match_cache.iter().filter(|c| c.hits > 0).count();
        assert!(
            with_hits >= 2,
            "expected cross-size hits on ≥ 2 sizes: {:?}",
            report.match_cache
        );
    }

    #[test]
    fn thread_count_never_changes_the_front() {
        let sequential = Campaign::new(ScenarioGrid::smoke()).run();
        let parallel = Campaign::new(ScenarioGrid::smoke()).threads(4).run();
        assert_eq!(sequential.front, parallel.front);
        assert_eq!(sequential.hypervolume, parallel.hypervolume);
        for (a, b) in sequential.points.iter().zip(&parallel.points) {
            assert_eq!(a.scenario_id, b.scenario_id);
            assert_eq!(a.objectives, b.objectives, "point {}", a.label);
            assert_eq!(a.reused_synthesis, b.reused_synthesis);
            assert_eq!(a.total_cost, b.total_cost);
        }
    }

    #[test]
    fn each_placement_anneals_once_at_any_thread_count() {
        // The smoke grid's 6 synthesis jobs share 3 placement keys: every
        // key anneals once and its second job reuses it, even when two
        // workers claim the key's jobs at the same time.
        for threads in [1, 2] {
            let tel = Telemetry::recording();
            Campaign::new(ScenarioGrid::smoke())
                .threads(threads)
                .telemetry(tel.clone())
                .run();
            assert_eq!(
                tel.counter_value("campaign.floorplan_reuses"),
                3,
                "threads={threads}"
            );
        }
    }

    /// A record with the fields that depend on the rest of the grid
    /// (position, front membership, match-cache provenance) or on the
    /// clock cleared. Debug output prints every f64 in its shortest
    /// round-trip form, so equal renderings mean equal bits.
    fn grid_independent(record: &PointRecord) -> String {
        let mut r = record.clone();
        r.scenario_id = 0;
        r.on_front = false;
        r.cache_hits = 0;
        r.synth_ms = 0.0;
        if let Some(v) = &mut r.verify {
            v.verify_ms = 0.0;
        }
        format!("{r:?}")
    }

    #[test]
    fn shared_measurement_equals_one_point_campaigns() {
        // Figure 5 under two objectives and two technologies: both
        // objectives synthesize the same architecture, so one sweep
        // serves all four points.
        let objectives = [Objective::Links, Objective::Energy];
        let technologies = [
            TechnologyProfile::cmos_180nm(),
            TechnologyProfile::cmos_100nm(),
        ];
        let fig5 = || ScenarioGrid::new().workloads([WorkloadSpec::fixed(WorkloadFamily::Fig5)]);
        let tel = Telemetry::recording();
        let grid = Campaign::new(
            fig5()
                .synthesis_objectives(objectives)
                .technologies(technologies.clone()),
        )
        .telemetry(tel.clone())
        .run();
        assert_eq!(grid.points.len(), 4);
        assert!(grid.points.iter().all(|p| p.error.is_none()));
        assert_eq!(tel.counter_value("campaign.sweeps_shared"), 3);
        let mut compared = 0;
        for objective in objectives {
            for technology in &technologies {
                let single = Campaign::new(
                    fig5()
                        .synthesis_objectives([objective])
                        .technologies([technology.clone()]),
                )
                .run();
                let alone = &single.points[0];
                let shared = grid
                    .points
                    .iter()
                    .find(|p| p.label == alone.label)
                    .expect("the grid holds every one-point scenario");
                assert_eq!(grid_independent(shared), grid_independent(alone));
                compared += 1;
            }
        }
        assert_eq!(compared, 4);
        // The technologies really price the shared flits differently.
        let sweep_of = |technology: &TechnologyProfile| {
            let point = grid
                .points
                .iter()
                .find(|p| p.technology == technology.name());
            &point.expect("a point per technology").sweep[0]
        };
        let (old, new) = (sweep_of(&technologies[0]), sweep_of(&technologies[1]));
        assert_eq!(old.latency_cycles, new.latency_cycles);
        assert_ne!(old.energy_joules, new.energy_joules);
    }

    #[test]
    fn models_differing_in_one_link_lengths_bits_are_never_grouped() {
        use std::collections::BTreeMap;

        let grid = ScenarioGrid::new()
            .workloads([WorkloadSpec::fixed(WorkloadFamily::Fig5)])
            .technologies([
                TechnologyProfile::cmos_180nm(),
                TechnologyProfile::cmos_100nm(),
            ]);
        let campaign = Campaign::new(grid);
        let scenarios = campaign.plan().scenarios;
        let (cache, placements) = (SharedMatchCache::new(CACHE_CAPACITY), Placements::default());
        let synthesized: Vec<Arc<SynthArtifacts>> = scenarios
            .iter()
            .map(|s| campaign.synthesize(s, &cache, &placements).unwrap())
            .collect();
        let first = &synthesized[0];
        let routes: BTreeMap<_, _> = first
            .pairs
            .iter()
            .map(|&(s, d)| ((s, d), first.model.route(s, d).unwrap().to_vec()))
            .collect();
        let lengths: BTreeMap<_, _> = first.model.links().collect();
        let (link, length) = first.model.links().next().unwrap();

        // Jobs formed when the two scenarios' models have `lengths` with
        // the first link set to `a` and to `b`, all else equal.
        let jobs = |a: f64, b: f64| {
            let outcomes: HashMap<String, SynthOutcome> = scenarios
                .iter()
                .zip(&synthesized)
                .zip([a, b])
                .map(|((scenario, artifacts), link_mm)| {
                    let mut lengths = lengths.clone();
                    lengths.insert(link, link_mm);
                    let model = NocModel::from_parts(
                        "custom",
                        artifacts.model.topology().clone(),
                        routes.clone(),
                        lengths,
                        1.0,
                    );
                    let rebuilt = SynthArtifacts {
                        result: artifacts.result.clone(),
                        model,
                        pairs: artifacts.pairs.clone(),
                        synth_ms: artifacts.synth_ms,
                    };
                    (scenario.synthesis_key(), Ok(Arc::new(rebuilt)))
                })
                .collect();
            measure_jobs(&scenarios, &outcomes)
                .iter()
                .map(|job| (job.points.len(), job.sweeps.len()))
                .collect::<Vec<_>>()
        };
        // Equal bits: one job, whose one sweep serves both technologies.
        assert_eq!(jobs(length, length), vec![(2, 1)]);
        assert_eq!(jobs(0.0, 0.0), vec![(2, 1)]);
        // One ulp, or the sign of zero (`-0.0 == 0.0` as floats): apart.
        let ulp = f64::from_bits(length.to_bits() + 1);
        assert_eq!(jobs(length, ulp), vec![(1, 1), (1, 1)]);
        assert_eq!(jobs(0.0, -0.0), vec![(1, 1), (1, 1)]);
    }

    #[test]
    fn constraint_failures_are_recorded_not_fatal() {
        let strangled = TechnologyProfile::builder("strangled")
            .max_bisection_links(0)
            .build();
        let engine = DecomposerConfig {
            check_constraints: true,
            ..DecomposerConfig::default()
        };
        let grid = ScenarioGrid::new()
            .workloads([WorkloadSpec::fixed(WorkloadFamily::Fig5)])
            .engines([("constrained", engine)])
            .technologies([strangled]);
        let report = Campaign::new(grid).run();
        assert_eq!(report.points.len(), 1);
        assert!(report.points[0].error.is_some());
        assert!(report.front.is_empty());
        assert_eq!(report.hypervolume, 0.0);
    }

    #[test]
    fn unloaded_measurement_point_fails_instead_of_dominating() {
        // Rate 0.0 delivers no packets; the 0.0-latency/0.0-energy vector
        // must not reach the front as a fake optimum.
        let grid = ScenarioGrid::new()
            .workloads([WorkloadSpec::fixed(WorkloadFamily::Fig5)])
            .sims([SimSpec {
                rates: vec![0.0],
                ..SimSpec::default()
            }]);
        let report = Campaign::new(grid).run();
        let error = report.points[0].error.as_deref().unwrap();
        assert!(error.contains("delivered no packets"), "{error}");
        assert!(report.front.is_empty());
    }

    #[test]
    fn synth_time_objective_is_opt_in() {
        let grid = ScenarioGrid::new().workloads([WorkloadSpec::fixed(WorkloadFamily::Fig5)]);
        let report = Campaign::new(grid)
            .objectives(&[ObjectiveKind::AreaMm2, ObjectiveKind::SynthTimeMs])
            .run();
        let objs = &report.points[0].objectives;
        assert_eq!(objs.len(), 2);
        assert!(objs[1] >= 0.0);
    }

    #[test]
    fn plans_partition_and_resume_skips_completed() {
        let campaign = Campaign::new(ScenarioGrid::smoke());
        let full = campaign.plan();
        assert_eq!(
            (full.to_run(), full.carried(), full.grid_len()),
            (12, 0, 12)
        );

        let half = campaign.plan_shard(&ShardManifest::range(0, 2));
        assert_eq!(half.to_run(), 6);
        assert_eq!(half.scenario_ids(), vec![0, 1, 2, 3, 4, 5]);

        let partial = campaign.run_plan(campaign.plan_shard(&ShardManifest::range(0, 2)));
        assert_eq!(partial.points.len(), 6);
        let rest = campaign.plan_resume(&partial).unwrap();
        assert_eq!((rest.to_run(), rest.carried()), (6, 6));
        assert_eq!(rest.scenario_ids(), vec![6, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn resume_equals_single_shot() {
        let campaign = Campaign::new(ScenarioGrid::smoke());
        let single = campaign.run();
        let partial = campaign.run_plan(campaign.plan_shard(&ShardManifest::modulo(0, 2)));
        let resumed = campaign.resume_from(&partial).unwrap();
        assert_eq!(resumed.front, single.front);
        assert_eq!(resumed.carried_points, 6);
        assert_eq!(resumed.points.len(), 12);
        for (a, b) in resumed.points.iter().zip(&single.points) {
            assert_eq!(a.objectives, b.objectives, "point {}", a.label);
        }
    }

    #[test]
    fn resume_rejects_incomparable_reports() {
        let campaign = Campaign::new(ScenarioGrid::smoke());
        let partial = campaign.run_plan(campaign.plan_shard(&ShardManifest::range(0, 2)));
        let other = Campaign::new(ScenarioGrid::smoke()).objectives(&[ObjectiveKind::EnergyJoules]);
        let err = other.plan_resume(&partial).unwrap_err();
        assert!(err.contains("incomparable"), "{err}");
    }

    #[test]
    fn resume_reruns_points_whose_labels_changed() {
        // A prior report from a *different* grid: ids overlap but labels
        // differ, so nothing can be trusted and everything re-runs.
        let fig5 = Campaign::new(
            ScenarioGrid::new().workloads([WorkloadSpec::fixed(WorkloadFamily::Fig5)]),
        );
        let prior = fig5.run();
        let tgff = Campaign::new(ScenarioGrid::new().workloads([WorkloadSpec::new(
            WorkloadFamily::Tgff,
            8,
            8,
        )]));
        let plan = tgff.plan_resume(&prior).unwrap();
        assert_eq!((plan.to_run(), plan.carried()), (1, 0));
    }
}
