//! Adaptive budgeted scenario sampling: spend a fixed flow budget where
//! the Pareto front is still moving, instead of enumerating the full
//! cross-product grid.
//!
//! The paper's central argument is budget allocation — synthesis effort
//! should go where it buys energy/performance trade-off — and the related
//! mapping-exploration literature (Marcon et al., *Exploring NoC Mapping
//! Strategies*) shows budgeted heuristic search matching exhaustive
//! sweeps at a fraction of the evaluations. This module applies that idea
//! to campaigns: [`Campaign::run_sampled`] runs a campaign in **rounds**
//! under an explicit budget, each round a [`CampaignPlan`](crate::CampaignPlan) chosen by a
//! planner policy and folded into the accumulated [`CampaignReport`]
//! before the next round is planned.
//!
//! # Planner policies
//!
//! Both policies plan over **arms**: `(axis, value)` pairs of the grid's
//! multi-valued axes (see [`Scenario::axis_values`]) — `workload=fig5`,
//! `sim=ramp`, … Pulling an arm evaluates one not-yet-evaluated scenario
//! carrying that value. Single-valued axes contribute no arms (every
//! scenario would match); a grid with no multi-valued axis degrades to
//! one `grid=all` arm, i.e. uniform random sampling.
//!
//! * [`SamplerPolicy::Bandit`] — ε-greedy multi-armed bandit. Each
//!   round pulls `round_flows` arms: unpulled arms first (optimistic
//!   initialization), then with probability ε a uniformly random arm
//!   (exploration), otherwise the arm with the best mean reward
//!   (exploitation). The **reward** of a round is the hypervolume gain of
//!   the folded report over the previous round, attributed to the pulled
//!   arms in proportion to their pulls — arms whose scenarios stopped
//!   improving the front stop being pulled.
//! * [`SamplerPolicy::Halving`] — successive halving. All arms start
//!   active; each stage spreads its share of the remaining budget evenly
//!   across active arms, then keeps the better half by **front hit
//!   rate** (fraction of an arm's evaluated scenarios on the current
//!   front) and drops the rest. Surviving arms — the axis regions whose
//!   points keep landing on the front — receive the remaining budget as
//!   denser sweeps of their sizes and seeds. If every active arm runs out
//!   of unevaluated scenarios, eliminated arms are revived rather than
//!   stranding budget.
//!
//! # Determinism
//!
//! All randomness flows through one [`StdRng`] seeded from
//! [`SamplerConfig::seed`] (the workspace's vendored deterministic
//! xoshiro shim), arms are built in grid-enumeration order, and ties
//! break toward the lower arm index — so a given (grid, budget, seed,
//! policy) evaluates the same scenario sequence on every run and at every
//! thread count. `tests/explore_sample.rs` locks this in.
//!
//! # Re-planning is resuming
//!
//! A round's plan is literally [`Campaign::plan_resume`] against the
//! accumulated report, restricted to the round's chosen ids
//! ([`CampaignPlan::restrict`](crate::CampaignPlan::restrict)): the same machinery that lets a killed
//! campaign resume also carries every prior round's records into the next
//! fold. A sampled report is therefore a normal partial
//! [`CampaignReport`] — resumable to the full grid, mergeable with other
//! reports — plus a [`SamplerRecord`] of per-round provenance (arms
//! pulled, hypervolume trajectory, which is monotone non-decreasing
//! because records only accumulate).

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use noc::prelude::SharedMatchCache;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::campaign::{Campaign, Placements, SynthOutcome};
use crate::report::{CampaignReport, PointRecord, ResultSink, SamplerRecord, SamplerRoundRecord};
use crate::scenario::Scenario;

/// The planner policy of a sampling campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplerPolicy {
    /// ε-greedy multi-armed bandit over grid-axis arms, rewarded by
    /// per-round hypervolume gain.
    Bandit {
        /// Exploration probability in `[0, 1]`: chance a pull picks a
        /// uniformly random arm instead of the best-mean one.
        epsilon: f64,
    },
    /// Successive halving: evenly funded stages, the better half of the
    /// arms (by front hit rate) promoted to the next, denser stage.
    Halving,
}

impl SamplerPolicy {
    /// The default bandit (ε = 0.3).
    pub const DEFAULT_BANDIT: SamplerPolicy = SamplerPolicy::Bandit { epsilon: 0.3 };

    /// Stable CLI / report label (`"bandit"` / `"halving"`).
    pub fn label(&self) -> &'static str {
        match self {
            SamplerPolicy::Bandit { .. } => "bandit",
            SamplerPolicy::Halving => "halving",
        }
    }

    /// Parses [`label`](Self::label) back (bandit at its default ε).
    pub fn from_label(label: &str) -> Option<SamplerPolicy> {
        match label {
            "bandit" => Some(SamplerPolicy::DEFAULT_BANDIT),
            "halving" => Some(SamplerPolicy::Halving),
            _ => None,
        }
    }
}

/// Configuration of [`Campaign::run_sampled`].
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerConfig {
    /// Maximum scenario points to evaluate (failed points count — they
    /// consumed their flow). The sampler stops early when the grid runs
    /// out of unevaluated points.
    pub budget: usize,
    /// Planner policy.
    pub policy: SamplerPolicy,
    /// Seed of the deterministic scenario sequence.
    pub seed: u64,
    /// Bandit points per round; `0` (the default) auto-sizes to
    /// `max(2, budget / 4)` — four re-planning opportunities per budget.
    /// Halving ignores it (stage sizes derive from arm count and
    /// remaining budget).
    pub round_flows: usize,
}

impl SamplerConfig {
    /// A bandit sampler with the given budget, seed 1, auto round size.
    pub fn new(budget: usize) -> Self {
        SamplerConfig {
            budget,
            policy: SamplerPolicy::DEFAULT_BANDIT,
            seed: 1,
            round_flows: 0,
        }
    }

    /// Replaces the policy.
    #[must_use]
    pub fn policy(mut self, policy: SamplerPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the bandit round size (`0` = auto).
    #[must_use]
    pub fn round_flows(mut self, flows: usize) -> Self {
        self.round_flows = flows;
        self
    }

    fn effective_round_flows(&self) -> usize {
        match self.round_flows {
            0 => (self.budget / 4).max(2),
            n => n,
        }
    }
}

/// One pullable arm: every scenario carrying one `(axis, value)` pair.
struct Arm {
    /// `axis=value`, the label reported in [`SamplerRoundRecord::arms`].
    label: String,
    /// Grid ids of the scenarios carrying this value, ascending.
    scenario_ids: Vec<usize>,
    /// Times this arm was pulled.
    pulls: usize,
    /// Cumulative hypervolume-gain reward (bandit only).
    reward: f64,
}

impl Arm {
    fn mean_reward(&self) -> f64 {
        if self.pulls == 0 {
            0.0
        } else {
            self.reward / self.pulls as f64
        }
    }

    /// Ids not yet evaluated and not already chosen this round.
    fn candidates(&self, evaluated: &BTreeSet<usize>, chosen: &BTreeSet<usize>) -> Vec<usize> {
        self.scenario_ids
            .iter()
            .copied()
            .filter(|id| !evaluated.contains(id) && !chosen.contains(id))
            .collect()
    }
}

/// Arms of the grid: one per value of every multi-valued axis, in axis
/// then first-appearance order; a single `grid=all` arm when no axis has
/// two values.
fn build_arms(scenarios: &[Scenario]) -> Vec<Arm> {
    let axis_count = scenarios.first().map_or(0, |s| s.axis_values().len());
    let mut arms: Vec<Arm> = Vec::new();
    for axis in 0..axis_count {
        let mut values: Vec<Arm> = Vec::new();
        for scenario in scenarios {
            let (name, value) = scenario.axis_values()[axis].clone();
            let label = format!("{name}={value}");
            match values.iter_mut().find(|a| a.label == label) {
                Some(arm) => arm.scenario_ids.push(scenario.id),
                None => values.push(Arm {
                    label,
                    scenario_ids: vec![scenario.id],
                    pulls: 0,
                    reward: 0.0,
                }),
            }
        }
        if values.len() > 1 {
            arms.extend(values);
        }
    }
    if arms.is_empty() {
        arms.push(Arm {
            label: "grid=all".to_string(),
            scenario_ids: scenarios.iter().map(|s| s.id).collect(),
            pulls: 0,
            reward: 0.0,
        });
    }
    arms
}

/// Forwards completed points to the real sink but swallows the per-round
/// `finish` calls — the sampler finishes once, with the final report.
struct RoundSink<'a>(&'a mut dyn ResultSink);

impl ResultSink for RoundSink<'_> {
    fn point(&mut self, record: &PointRecord) {
        self.0.point(record);
    }
}

/// Running totals the per-round reports are folded into. (The match
/// cache needs no totaling: one cache lives across every round, so the
/// last round's report already carries its cumulative per-size rows.)
#[derive(Default)]
struct Totals {
    flows_synthesized: usize,
    synthesis_reused: usize,
}

impl Totals {
    fn absorb(&mut self, report: &CampaignReport) {
        self.flows_synthesized += report.flows_synthesized;
        self.synthesis_reused += report.synthesis_reused;
    }
}

/// The mutable state one sampling campaign threads through its rounds.
/// `artifacts`, `placements` and `match_cache` live for the whole sampled
/// campaign, so a synthesis key evaluated in one round is never
/// re-synthesized in a later one, a placement key never anneals twice,
/// and VF2 enumerations warm across rounds — budgeted runs keep the
/// exhaustive engine's once-per-key guarantees.
struct Sampler<'a> {
    campaign: &'a Campaign,
    config: &'a SamplerConfig,
    arms: Vec<Arm>,
    rng: StdRng,
    evaluated: BTreeSet<usize>,
    accumulated: Option<CampaignReport>,
    rounds: Vec<SamplerRoundRecord>,
    totals: Totals,
    artifacts: HashMap<String, SynthOutcome>,
    placements: Placements,
    match_cache: SharedMatchCache,
}

impl Sampler<'_> {
    fn budget_left(&self) -> usize {
        self.config.budget.saturating_sub(self.evaluated.len())
    }

    /// Pulls `arm_index`, choosing one unevaluated scenario of that arm
    /// uniformly at random; returns the chosen id (the caller guarantees
    /// a candidate exists).
    fn pull(&mut self, arm_index: usize, chosen: &mut BTreeSet<usize>, pulled: &mut Vec<String>) {
        let candidates = self.arms[arm_index].candidates(&self.evaluated, chosen);
        let id = candidates[self.rng.gen_range(0..candidates.len())];
        chosen.insert(id);
        pulled.push(self.arms[arm_index].label.clone());
        self.arms[arm_index].pulls += 1;
    }

    /// Executes one round over `chosen`: plan the remaining grid against
    /// the accumulated report, restrict to the round, run, fold, record
    /// provenance. Returns the hypervolume gain.
    fn run_round(
        &mut self,
        chosen: &BTreeSet<usize>,
        pulled: Vec<String>,
        sink: &mut dyn ResultSink,
    ) -> f64 {
        let plan = match &self.accumulated {
            None => self.campaign.plan(),
            Some(prior) => self
                .campaign
                .plan_resume(prior)
                .expect("accumulated report shares this campaign's objectives"),
        }
        .restrict(chosen);
        let mut round_sink = RoundSink(sink);
        let report = self.campaign.run_plan_shared(
            plan,
            &mut round_sink,
            &mut self.artifacts,
            &self.placements,
            &self.match_cache,
        );
        let hv_before = self.accumulated.as_ref().map_or(0.0, |r| r.hypervolume);
        let gain = report.hypervolume - hv_before;
        self.totals.absorb(&report);
        self.evaluated.extend(chosen.iter().copied());
        self.rounds.push(SamplerRoundRecord {
            round: self.rounds.len(),
            flows: chosen.len(),
            hypervolume: report.hypervolume,
            arms: pulled,
        });
        self.accumulated = Some(report);
        gain
    }

    /// ε-greedy bandit rounds until the budget (or grid) is exhausted.
    fn run_bandit(&mut self, epsilon: f64, sink: &mut dyn ResultSink) {
        let round_flows = self.config.effective_round_flows();
        loop {
            let want = round_flows.min(self.budget_left());
            if want == 0 {
                break;
            }
            let mut chosen: BTreeSet<usize> = BTreeSet::new();
            let mut pulled: Vec<String> = Vec::new();
            let mut pulls_of: Vec<usize> = vec![0; self.arms.len()];
            for _ in 0..want {
                let available: Vec<usize> = (0..self.arms.len())
                    .filter(|&i| !self.arms[i].candidates(&self.evaluated, &chosen).is_empty())
                    .collect();
                let Some(&first) = available.first() else {
                    break; // grid exhausted
                };
                let arm = match available.iter().find(|&&i| self.arms[i].pulls == 0) {
                    // Optimistic initialization: try every arm once.
                    Some(&unpulled) => unpulled,
                    None if self.rng.gen_bool(epsilon) => {
                        available[self.rng.gen_range(0..available.len())]
                    }
                    None => available.iter().copied().fold(first, |best, i| {
                        if self.arms[i].mean_reward() > self.arms[best].mean_reward() {
                            i
                        } else {
                            best
                        }
                    }),
                };
                self.pull(arm, &mut chosen, &mut pulled);
                pulls_of[arm] += 1;
            }
            if chosen.is_empty() {
                break;
            }
            let flows = chosen.len();
            let gain = self.run_round(&chosen, pulled, sink);
            // Attribute the round's hypervolume gain to the pulled arms,
            // proportional to their pulls.
            for (arm, &pulls) in self.arms.iter_mut().zip(&pulls_of) {
                if pulls > 0 {
                    arm.reward += gain * pulls as f64 / flows as f64;
                }
            }
        }
    }

    /// An arm's front hit rate: evaluated members on the current front /
    /// evaluated members (0 when none evaluated).
    fn front_hit_rate(&self, arm: &Arm) -> f64 {
        let Some(report) = &self.accumulated else {
            return 0.0;
        };
        let mut evaluated = 0usize;
        let mut on_front = 0usize;
        for &id in &arm.scenario_ids {
            if let Some(point) = report.point(id) {
                evaluated += 1;
                if point.on_front {
                    on_front += 1;
                }
            }
        }
        if evaluated == 0 {
            0.0
        } else {
            on_front as f64 / evaluated as f64
        }
    }

    /// Successive-halving stages until the budget (or grid) is exhausted.
    fn run_halving(&mut self, sink: &mut dyn ResultSink) {
        let mut active: Vec<usize> = (0..self.arms.len()).collect();
        // ceil(log2(arms)) halving stages plus a final exploitation stage
        // on the survivors.
        let total_stages = (self.arms.len().next_power_of_two().trailing_zeros() as usize) + 1;
        let mut stage = 0usize;
        while self.budget_left() > 0 {
            let stages_left = total_stages.saturating_sub(stage).max(1);
            let stage_budget = self
                .budget_left()
                .div_ceil(stages_left)
                .max(active.len())
                .min(self.budget_left());
            let mut chosen: BTreeSet<usize> = BTreeSet::new();
            let mut pulled: Vec<String> = Vec::new();
            // Round-robin the stage budget across active arms.
            'fill: loop {
                let mut progressed = false;
                for &arm in &active {
                    if chosen.len() >= stage_budget {
                        break 'fill;
                    }
                    if !self.arms[arm]
                        .candidates(&self.evaluated, &chosen)
                        .is_empty()
                    {
                        self.pull(arm, &mut chosen, &mut pulled);
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
            if chosen.is_empty() {
                // Every active arm is exhausted: revive eliminated arms
                // that still hold unevaluated scenarios, or stop.
                let revivable: Vec<usize> = (0..self.arms.len())
                    .filter(|&i| {
                        !self.arms[i]
                            .candidates(&self.evaluated, &BTreeSet::new())
                            .is_empty()
                    })
                    .collect();
                if revivable.is_empty() || revivable == active {
                    break;
                }
                active = revivable;
                continue;
            }
            self.run_round(&chosen, pulled, sink);
            // Promote the better half by front hit rate (stable: ties keep
            // the lower arm index, the original order).
            if active.len() > 1 {
                let mut scored: Vec<(usize, f64)> = active
                    .iter()
                    .map(|&i| (i, self.front_hit_rate(&self.arms[i])))
                    .collect();
                scored.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .expect("hit rates are finite")
                        .then(a.0.cmp(&b.0))
                });
                scored.truncate(active.len().div_ceil(2));
                active = scored.into_iter().map(|(i, _)| i).collect();
                active.sort_unstable();
            }
            stage += 1;
        }
    }
}

impl Campaign {
    /// Runs an adaptive **budgeted** sampling campaign: at most
    /// `config.budget` scenario points of the grid are evaluated, chosen
    /// round-by-round by `config.policy` (see the [module docs](self)),
    /// and folded into one report whose [`sampler`](CampaignReport::sampler)
    /// field records the per-round provenance.
    ///
    /// The returned report is an ordinary partial campaign report:
    /// [`resume_from`](Campaign::resume_from) completes it to the full
    /// grid, [`merge_reports`](crate::merge_reports) pools it with other
    /// shards/samples of the same grid.
    ///
    /// # Panics
    ///
    /// Panics on a zero budget or an empty grid — a sampler with nothing
    /// to spend (or on) is a caller bug, not a degenerate report.
    ///
    /// # Examples
    ///
    /// ```
    /// use noc_explore::{Campaign, SamplerConfig, ScenarioGrid};
    ///
    /// let campaign = Campaign::new(ScenarioGrid::smoke());
    /// let sampled = campaign.run_sampled(&SamplerConfig::new(4));
    /// let provenance = sampled.sampler.as_ref().unwrap();
    /// assert_eq!(sampled.points.len(), 4);
    /// assert_eq!(provenance.flows_spent, 4);
    /// assert!(sampled.hypervolume > 0.0);
    /// // Same (grid, budget, seed, policy) ⇒ same scenario sequence.
    /// let again = campaign.run_sampled(&SamplerConfig::new(4));
    /// assert_eq!(sampled.front, again.front);
    /// ```
    pub fn run_sampled(&self, config: &SamplerConfig) -> CampaignReport {
        self.run_sampled_with_sink(config, &mut crate::report::NullSink)
    }

    /// [`run_sampled`](Self::run_sampled), streaming each evaluated point
    /// into `sink` as its round completes (`sink.finish` fires once, with
    /// the final report).
    pub fn run_sampled_with_sink(
        &self,
        config: &SamplerConfig,
        sink: &mut dyn ResultSink,
    ) -> CampaignReport {
        assert!(config.budget > 0, "sampling budget must be positive");
        let scenarios = self.grid.enumerate();
        assert!(!scenarios.is_empty(), "cannot sample an empty grid");
        let t0 = Instant::now();
        let mut sampler = Sampler {
            campaign: self,
            config,
            arms: build_arms(&scenarios),
            rng: StdRng::seed_from_u64(config.seed),
            evaluated: BTreeSet::new(),
            accumulated: None,
            rounds: Vec::new(),
            totals: Totals::default(),
            artifacts: HashMap::new(),
            placements: Placements::default(),
            match_cache: SharedMatchCache::new(crate::campaign::CACHE_CAPACITY),
        };
        match config.policy {
            SamplerPolicy::Bandit { epsilon } => {
                assert!(
                    (0.0..=1.0).contains(&epsilon),
                    "epsilon must be in [0, 1], got {epsilon}"
                );
                sampler.run_bandit(epsilon, sink)
            }
            SamplerPolicy::Halving => sampler.run_halving(sink),
        }
        let Sampler {
            evaluated,
            accumulated,
            rounds,
            totals,
            ..
        } = sampler;
        let mut report = accumulated.expect("a positive budget runs at least one round");
        // The per-round reports carried prior rounds' records; the final
        // report is one sampled campaign, so provenance is the totals —
        // except `match_cache`, whose last-round rows are already
        // cumulative (one cache served every round).
        report.flows_synthesized = totals.flows_synthesized;
        report.synthesis_reused = totals.synthesis_reused;
        report.carried_points = 0;
        report.threads = self.resolve_threads(evaluated.len().max(1));
        report.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        report.sampler = Some(SamplerRecord {
            policy: config.policy.label().to_string(),
            seed: config.seed,
            budget: config.budget,
            flows_spent: evaluated.len(),
            grid_len: scenarios.len(),
            rounds,
        });
        sink.finish(&report);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioGrid;

    fn smoke() -> Campaign {
        Campaign::new(ScenarioGrid::smoke())
    }

    #[test]
    fn arms_cover_multi_valued_axes_only() {
        let arms = build_arms(&ScenarioGrid::smoke().enumerate());
        // Smoke grid: 3 workloads × 2 objectives × 2 sims are
        // multi-valued; engine, technology and floorplan seed are not.
        let labels: Vec<&str> = arms.iter().map(|a| a.label.as_str()).collect();
        assert_eq!(labels.len(), 7, "{labels:?}");
        assert!(labels.contains(&"workload=fig5"));
        assert!(labels.contains(&"synthesis_objective=Energy"));
        assert!(labels.contains(&"sim=ramp"));
        assert!(!labels.iter().any(|l| l.starts_with("engine=")));
        // Every arm indexes real grid ids; axis arms partition the grid.
        let workload_ids: usize = arms
            .iter()
            .filter(|a| a.label.starts_with("workload="))
            .map(|a| a.scenario_ids.len())
            .sum();
        assert_eq!(workload_ids, 12);
    }

    #[test]
    fn single_valued_grid_degrades_to_one_arm() {
        use crate::scenario::WorkloadSpec;
        use noc::workloads::WorkloadFamily;
        let grid = ScenarioGrid::new().workloads([WorkloadSpec::fixed(WorkloadFamily::Fig5)]);
        let arms = build_arms(&grid.enumerate());
        assert_eq!(arms.len(), 1);
        assert_eq!(arms[0].label, "grid=all");
    }

    #[test]
    fn budget_caps_the_evaluated_points() {
        for policy in [SamplerPolicy::DEFAULT_BANDIT, SamplerPolicy::Halving] {
            let report = smoke().run_sampled(&SamplerConfig::new(5).policy(policy));
            assert_eq!(report.points.len(), 5, "{}", policy.label());
            let s = report.sampler.as_ref().unwrap();
            assert_eq!(s.flows_spent, 5);
            assert_eq!(s.grid_len, 12);
            assert_eq!(s.rounds.iter().map(|r| r.flows).sum::<usize>(), 5);
            assert_eq!(s.policy, policy.label());
        }
    }

    #[test]
    fn budget_beyond_grid_evaluates_everything_once() {
        let report = smoke().run_sampled(&SamplerConfig::new(100));
        assert_eq!(report.points.len(), 12);
        assert_eq!(report.sampler.as_ref().unwrap().flows_spent, 12);
        // And matches the exhaustive campaign's front exactly.
        assert_eq!(report.front, smoke().run().front);
    }

    #[test]
    fn sampled_rounds_anneal_each_placement_key_once() {
        // The placement store outlives the rounds: a workload whose first
        // point was sampled in an early round never anneals again.
        let tel = noc_telemetry::Telemetry::recording();
        let report = Campaign::new(ScenarioGrid::smoke())
            .telemetry(tel.clone())
            .run_sampled(&SamplerConfig::new(8));
        assert!(report.sampler.as_ref().unwrap().rounds.len() > 1);
        // On the smoke grid a placement key is the workload: one floorplan
        // seed, one core area.
        let keys: BTreeSet<&str> = report.points.iter().map(|p| p.workload.as_str()).collect();
        let anneals =
            report.flows_synthesized as u64 - tel.counter_value("campaign.floorplan_reuses");
        assert_eq!(anneals, keys.len() as u64);
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_budget_is_rejected() {
        smoke().run_sampled(&SamplerConfig::new(0));
    }
}
