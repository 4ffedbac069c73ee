//! Campaign results: per-point records, the campaign report, streaming
//! sinks, and their JSON serialization **and parsing** (consistent with
//! the repository's `BENCH_*.json` files — no serde in this workspace;
//! the writers share `noc_telemetry::json`'s escaper and float formatter,
//! and its reader is what makes reports resumable and shard reports
//! mergeable).

use std::io::Write;

use noc_telemetry::json::{Float, JsonValue, Quoted};

use crate::metrics::FrontMetrics;
use crate::pareto::{ObjectiveKind, ParetoFront};

/// Schema version written into every report by
/// [`CampaignReport::to_json`]. The version is a single major: any report
/// claiming a **newer** version than this reader was built for is
/// rejected outright (its fields may mean something this code cannot
/// know), while older versions get a compatibility path
/// ([`from_json`](CampaignReport::from_json) treats a missing
/// `schema_version` as v1, the PR 3 wire format).
///
/// History: **v1** — the unversioned PR 3 format; **v2** — adds
/// `schema_version` itself and the optional `sampler` provenance object
/// written by budgeted sampling campaigns
/// ([`Campaign::run_sampled`](crate::Campaign::run_sampled)); **v3** —
/// adds the optional `coordinator` provenance object (written on the
/// merged report of [`coordinate`](crate::coordinate::coordinate) runs,
/// absent when reading older reports). v3 also added `warm_hits` to every
/// `match_cache` row and an optional `warm_cache` object for runs that
/// warm-started from a persisted match-cache file; match-cache
/// persistence has since been removed, so the writer no longer emits
/// them and the reader ignores them in reports that still carry them;
/// **v4** — adds the optional per-point `verify` object: the static
/// deadlock-freedom verdict of the synthesized architecture's routing
/// ([`VerifyRecord`], produced by `noc-verify`'s extended channel
/// dependency graph analysis). Absent in v1–v3 reports and parsed as
/// `None` ("never verified") — run `explore verify` to fill it in;
/// **v5** — adds the per-point `router_fidelity` string (`"ideal"` or
/// `"credit"`), the router-model axis the point's sweep simulated under.
/// Absent in v1–v4 reports and parsed as `"ideal"`, which is exactly
/// what those campaigns ran.
pub const SCHEMA_VERSION: u64 = 5;

/// One sampled load point of a scenario's sweep, as recorded in reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPointRecord {
    /// Offered injection rate (packets/node/cycle).
    pub rate: f64,
    /// Mean packet latency, cycles.
    pub latency_cycles: f64,
    /// Delivered throughput, payload bits per cycle.
    pub throughput_bits_per_cycle: f64,
    /// Total communication energy, joules.
    pub energy_joules: f64,
}

/// Cumulative shared match-cache traffic for one graph size, as recorded
/// in reports (the explore-side mirror of
/// [`noc::synthesis::SizeCacheStats`](noc::prelude::SizeCacheStats)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSizeRecord {
    /// Vertex count the row aggregates.
    pub vertex_count: usize,
    /// VF2 enumerations answered from the campaign-shared cache.
    pub hits: u64,
    /// Enumerations that had to run.
    pub misses: u64,
}

/// One round of an adaptive sampling campaign, as recorded in reports:
/// which arms the planner pulled and where the folded front's hypervolume
/// stood once the round's points were in (see [`crate::sample`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerRoundRecord {
    /// Round number, starting at 0.
    pub round: usize,
    /// Scenario points evaluated this round.
    pub flows: usize,
    /// Reference-normalized hypervolume of the folded front *after* this
    /// round — the trajectory is monotone non-decreasing because records
    /// only accumulate.
    pub hypervolume: f64,
    /// Arm labels pulled this round (`axis=value`, one entry per pull, in
    /// pull order — deterministic per (grid, budget, seed)).
    pub arms: Vec<String>,
}

/// Provenance of a budgeted sampling campaign
/// ([`Campaign::run_sampled`](crate::Campaign::run_sampled)): policy,
/// seed, budget and the per-round trajectory. Carried verbatim through
/// `to_json → from_json`, so sampled reports stay first-class interchange
/// artifacts — they can be resumed (completing the grid) and merged like
/// any other partial report.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerRecord {
    /// Planner policy label (`"bandit"` or `"halving"`).
    pub policy: String,
    /// RNG seed the scenario sequence was derived from.
    pub seed: u64,
    /// Flow budget the sampler was given.
    pub budget: usize,
    /// Scenario points actually evaluated (≤ budget, and ≤ grid size).
    pub flows_spent: usize,
    /// Total points in the grid the sampler drew from.
    pub grid_len: usize,
    /// Per-round provenance, in round order.
    pub rounds: Vec<SamplerRoundRecord>,
}

impl SamplerRecord {
    /// Reads the report's `sampler` object.
    fn from_json_value(s: &JsonValue) -> Result<SamplerRecord, String> {
        Ok(SamplerRecord {
            policy: s.need_str("policy")?.to_string(),
            seed: s.need_u64("seed")?,
            budget: s.need_usize("budget")?,
            flows_spent: s.need_usize("flows_spent")?,
            grid_len: s.need_usize("grid_len")?,
            rounds: s
                .need_array("rounds")?
                .iter()
                .map(|r| {
                    Ok(SamplerRoundRecord {
                        round: r.need_usize("round")?,
                        flows: r.need_usize("flows")?,
                        hypervolume: r.need_f64("hypervolume")?,
                        arms: r.need_strings("arms")?,
                    })
                })
                .collect::<Result<Vec<SamplerRoundRecord>, String>>()?,
        })
    }
}

/// One re-dealing wave of a coordinated campaign (see
/// [`coordinate`](crate::coordinate::coordinate)): how many workers
/// launched, how they ended, and how much work rolled into the next wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveRecord {
    /// Wave number, starting at 0.
    pub wave: usize,
    /// Worker processes launched this wave.
    pub workers: usize,
    /// Workers that exited with a complete shard report.
    pub completed: usize,
    /// Workers killed — straggler deadline or injected fault.
    pub killed: usize,
    /// Point records salvaged from killed/failed workers' JSON-Lines
    /// streams (these ids are *not* re-dealt).
    pub salvaged_points: usize,
    /// Scenario ids left unfinished by this wave and re-dealt to the next.
    pub redealt: usize,
}

/// Provenance of a coordinated (multi-worker, straggler-re-dealing)
/// campaign, written on the merged report by
/// [`coordinate`](crate::coordinate::coordinate) (schema v3).
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinatorRecord {
    /// Configured fleet width (workers per wave).
    pub workers: usize,
    /// Straggler deadline per wave, milliseconds.
    pub deadline_ms: f64,
    /// Per-wave provenance, in wave order. More than one wave means work
    /// was re-dealt.
    pub waves: Vec<WaveRecord>,
}

impl CoordinatorRecord {
    /// Reads the report's `coordinator` object.
    fn from_json_value(c: &JsonValue) -> Result<CoordinatorRecord, String> {
        Ok(CoordinatorRecord {
            workers: c.need_usize("workers")?,
            deadline_ms: c.need_f64("deadline_ms")?,
            waves: c
                .need_array("waves")?
                .iter()
                .map(|w| {
                    Ok(WaveRecord {
                        wave: w.need_usize("wave")?,
                        workers: w.need_usize("workers")?,
                        completed: w.need_usize("completed")?,
                        killed: w.need_usize("killed")?,
                        salvaged_points: w.need_usize("salvaged_points")?,
                        redealt: w.need_usize("redealt")?,
                    })
                })
                .collect::<Result<Vec<WaveRecord>, String>>()?,
        })
    }

    /// Total workers killed across every wave.
    pub fn killed(&self) -> usize {
        self.waves.iter().map(|w| w.killed).sum()
    }

    /// Total scenario ids re-dealt across every wave.
    pub fn redealt(&self) -> usize {
        self.waves.iter().map(|w| w.redealt).sum()
    }
}

/// The static deadlock-freedom verdict of one synthesized architecture,
/// as recorded per point (schema v4) — the report-side projection of a
/// [`noc::verify::Verdict`]. Reused points repeat
/// their synthesis owner's verdict, like `synth_ms`.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyRecord {
    /// `true` when the verifier *proved* the routing deadlock-free: no
    /// lint errors and an acyclic VC-aware extended channel dependency
    /// graph over every route table the policy can select.
    pub deadlock_free: bool,
    /// Virtual channels the architecture's assignment uses.
    pub num_vcs: usize,
    /// Distinct `(channel, VC)` resources some route occupies.
    pub cdg_vertices: usize,
    /// Distinct dependency edges in the extended CDG.
    pub cdg_edges: usize,
    /// Routes inspected across all route sets.
    pub routes_checked: usize,
    /// Verification wall-time, ms (the owner's time when reused).
    pub verify_ms: f64,
    /// The witness cycle, one rendered dependency edge per entry (each
    /// naming the inducing routes); empty when no cycle exists.
    pub cycle: Vec<String>,
    /// Rendered lint errors; empty when the spec is well-formed.
    pub lint: Vec<String>,
}

impl VerifyRecord {
    /// Projects a verifier verdict into the report form.
    pub fn from_verdict(verdict: &noc::verify::Verdict, verify_ms: f64) -> Self {
        VerifyRecord {
            deadlock_free: verdict.is_deadlock_free(),
            num_vcs: verdict.num_vcs,
            cdg_vertices: verdict.cdg_vertices,
            cdg_edges: verdict.cdg_edges,
            routes_checked: verdict.routes_checked,
            verify_ms,
            cycle: verdict
                .cycle
                .as_ref()
                .map(|c| c.render_edges())
                .unwrap_or_default(),
            lint: verdict.render_lint(),
        }
    }

    /// Reads the object [`PointRecord::to_json`] writes under `verify`.
    fn from_json_value(w: &JsonValue) -> Result<VerifyRecord, String> {
        Ok(VerifyRecord {
            deadlock_free: w.need_bool("deadlock_free")?,
            num_vcs: w.need_usize("num_vcs")?,
            cdg_vertices: w.need_usize("cdg_vertices")?,
            cdg_edges: w.need_usize("cdg_edges")?,
            routes_checked: w.need_usize("routes_checked")?,
            verify_ms: w.need_f64("verify_ms")?,
            cycle: w.need_strings("cycle")?,
            lint: w.need_strings("lint")?,
        })
    }

    /// One-line summary for logs and point errors.
    pub fn summary(&self) -> String {
        if self.deadlock_free {
            format!(
                "deadlock-free ({} VCs, CDG {}v/{}e)",
                self.num_vcs, self.cdg_vertices, self.cdg_edges
            )
        } else if let Some(first) = self.cycle.first() {
            format!("cyclic dependency: {first}")
        } else {
            format!("route lint failed: {}", self.lint.join("; "))
        }
    }
}

/// Everything recorded about one evaluated scenario point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Scenario id (position in the grid enumeration).
    pub scenario_id: usize,
    /// Human-readable scenario label.
    pub label: String,
    /// Workload label (family, size, seed).
    pub workload: String,
    /// Node count of the instantiated application.
    pub nodes: usize,
    /// Engine-axis label.
    pub engine: String,
    /// Synthesis objective, `Debug`-formatted.
    pub synthesis_objective: String,
    /// Technology profile name.
    pub technology: String,
    /// Sim-spec label.
    pub sim: String,
    /// Router-fidelity axis label (`"ideal"` or `"credit"`, schema v5;
    /// absent in older reports and parsed as `"ideal"`).
    pub router_fidelity: String,
    /// Objective vector, parallel to the campaign's
    /// [`ObjectiveKind`] list; empty when `error` is set.
    pub objectives: Vec<f64>,
    /// Filled after the campaign completes: `true` iff this point is on
    /// the Pareto front.
    pub on_front: bool,
    /// `true` when the synthesized architecture was reused from another
    /// scenario sharing the same synthesis key.
    pub reused_synthesis: bool,
    /// Best decomposition cost (the paper's COST).
    pub total_cost: f64,
    /// Search-tree nodes expanded by the owning synthesis run (reused
    /// points repeat the owner's value — sum over *non-reused* points
    /// for total campaign search effort).
    pub nodes_visited: u64,
    /// VF2 cache hits of the owning synthesis run (repeated on reused
    /// points, like [`nodes_visited`](Self::nodes_visited)). With a
    /// campaign-shared match cache and several workers, which of two
    /// concurrent runs gets the hit is scheduling-dependent — this is
    /// the one provenance field a thread count can perturb.
    pub cache_hits: u64,
    /// Synthesis wall-time, ms (the original run's time when reused).
    pub synth_ms: f64,
    /// Static deadlock-freedom verdict of the synthesized architecture
    /// (schema v4). `None` means "never verified": pre-v4 reports, and
    /// points whose synthesis failed before a model existed.
    pub verify: Option<VerifyRecord>,
    /// The simulated latency-vs-load curve (possibly truncated by the
    /// saturation cutoff).
    pub sweep: Vec<SweepPointRecord>,
    /// `true` when the saturation cutoff stopped the ramp early.
    pub saturated: bool,
    /// Failure description when the flow or simulation failed; such
    /// points never join the front.
    pub error: Option<String>,
}

impl PointRecord {
    /// The record as a single-line JSON object (the streaming form emitted
    /// by [`JsonLinesSink`] and embedded in [`CampaignReport::to_json`]).
    pub fn to_json(&self, kinds: &[ObjectiveKind]) -> String {
        let outcome = match &self.error {
            Some(error) => format!(", \"error\": {}", Quoted(error)),
            None => {
                let objectives: String = kinds
                    .iter()
                    .zip(&self.objectives)
                    .map(|(kind, value)| format!(", \"{}\": {}", kind.label(), Float(*value)))
                    .collect();
                format!("{objectives}, \"on_front\": {}", self.on_front)
            }
        };
        let verify = match &self.verify {
            None => String::new(),
            Some(v) => format!(
                ", \"verify\": {{\"deadlock_free\": {}, \"num_vcs\": {}, \"cdg_vertices\": {}, \"cdg_edges\": {}, \"routes_checked\": {}, \"verify_ms\": {}, \"cycle\": [{}], \"lint\": [{}]}}",
                v.deadlock_free,
                v.num_vcs,
                v.cdg_vertices,
                v.cdg_edges,
                v.routes_checked,
                Float(v.verify_ms),
                join(&v.cycle, |e| Quoted(e).to_string()),
                join(&v.lint, |e| Quoted(e).to_string()),
            ),
        };
        let sweep = join(&self.sweep, |p| {
            format!(
                "{{\"rate\": {}, \"latency_cycles\": {}, \"throughput_bits_per_cycle\": {}, \"energy_joules\": {}}}",
                Float(p.rate),
                Float(p.latency_cycles),
                Float(p.throughput_bits_per_cycle),
                Float(p.energy_joules),
            )
        });
        format!(
            "{{\"scenario_id\": {}, \"label\": {}, \"workload\": {}, \"nodes\": {}, \"engine\": {}, \"synthesis_objective\": {}, \"technology\": {}, \"sim\": {}, \"router_fidelity\": {}{outcome}, \"reused_synthesis\": {}, \"total_cost\": {}, \"nodes_visited\": {}, \"cache_hits\": {}, \"synth_ms\": {}{verify}, \"saturated\": {}, \"sweep\": [{sweep}]}}",
            self.scenario_id,
            Quoted(&self.label),
            Quoted(&self.workload),
            self.nodes,
            Quoted(&self.engine),
            Quoted(&self.synthesis_objective),
            Quoted(&self.technology),
            Quoted(&self.sim),
            Quoted(&self.router_fidelity),
            self.reused_synthesis,
            Float(self.total_cost),
            self.nodes_visited,
            self.cache_hits,
            Float(self.synth_ms),
            self.saturated,
        )
    }

    /// Parses one record back from the object emitted by
    /// [`to_json`](Self::to_json); `kinds` must match the report's
    /// objective vector (objective values are stored under their labels).
    ///
    /// A point without `error` must carry a finite value for every
    /// objective: fronts are folded from these values, and
    /// [`ParetoFront::offer`] rejects non-finite ones.
    pub fn from_json_value(v: &JsonValue, kinds: &[ObjectiveKind]) -> Result<PointRecord, String> {
        let error = v.optional("error", JsonValue::need_str)?;
        let objectives = match error {
            Some(_) => Vec::new(),
            None => kinds
                .iter()
                .map(|k| {
                    let value = v.need_f64(k.label())?;
                    if value.is_finite() {
                        Ok(value)
                    } else {
                        Err(format!("objective '{}' must be finite", k.label()))
                    }
                })
                .collect::<Result<Vec<f64>, String>>()?,
        };
        let sweep = v
            .need_array("sweep")?
            .iter()
            .map(|p| {
                Ok(SweepPointRecord {
                    rate: p.need_f64("rate")?,
                    latency_cycles: p.need_f64("latency_cycles")?,
                    throughput_bits_per_cycle: p.need_f64("throughput_bits_per_cycle")?,
                    energy_joules: p.need_f64("energy_joules")?,
                })
            })
            .collect::<Result<Vec<SweepPointRecord>, String>>()?;
        Ok(PointRecord {
            scenario_id: v.need_usize("scenario_id")?,
            label: v.need_str("label")?.to_string(),
            workload: v.need_str("workload")?.to_string(),
            nodes: v.need_usize("nodes")?,
            engine: v.need_str("engine")?.to_string(),
            synthesis_objective: v.need_str("synthesis_objective")?.to_string(),
            technology: v.need_str("technology")?.to_string(),
            sim: v.need_str("sim")?.to_string(),
            // v5 field; v1–v4 campaigns all ran the ideal router.
            router_fidelity: v
                .optional("router_fidelity", JsonValue::need_str)?
                .unwrap_or("ideal")
                .to_string(),
            objectives,
            on_front: v
                .optional("on_front", JsonValue::need_bool)?
                .unwrap_or(false),
            reused_synthesis: v.need_bool("reused_synthesis")?,
            total_cost: v.need_f64("total_cost")?,
            nodes_visited: v.need_u64("nodes_visited")?,
            cache_hits: v.need_u64("cache_hits")?,
            synth_ms: v.need_f64("synth_ms")?,
            // v4 field; v1–v3 points were never statically verified.
            verify: v
                .get("verify")
                .map(VerifyRecord::from_json_value)
                .transpose()?,
            sweep,
            saturated: v.need_bool("saturated")?,
            error: error.map(str::to_string),
        })
    }
}

/// The folded outcome of a whole campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The objective vector's dimensions, in order.
    pub objective_kinds: Vec<ObjectiveKind>,
    /// One record per evaluated scenario, ascending by scenario id. A
    /// full campaign records every grid point; shard and partial reports
    /// hold a subset (use [`point`](Self::point) for id lookup).
    pub points: Vec<PointRecord>,
    /// Scenario ids on the Pareto front, ascending.
    pub front: Vec<usize>,
    /// Campaign worker threads used.
    pub threads: usize,
    /// Full synthesis runs executed *by this run* (carried points keep
    /// their original provenance but add nothing here).
    pub flows_synthesized: usize,
    /// Scenario points that reused a shared synthesis artifact this run.
    pub synthesis_reused: usize,
    /// Records folded in from a prior report instead of being re-run
    /// (resume) or from other shards (merge).
    pub carried_points: usize,
    /// Campaign wall-time, milliseconds.
    pub wall_ms: f64,
    /// Reference-normalized hypervolume of the front (see
    /// [`crate::metrics`]); `0` for an empty front.
    pub hypervolume: f64,
    /// Schott spacing of the distinct normalized front vectors; `0` below
    /// two distinct members.
    pub spread: f64,
    /// Per-graph-size traffic of the campaign-shared match cache,
    /// ascending by vertex count (empty when sharing was disabled).
    pub match_cache: Vec<CacheSizeRecord>,
    /// Adaptive-sampling provenance when this report came from
    /// [`Campaign::run_sampled`](crate::Campaign::run_sampled); `None`
    /// for exhaustive campaigns, merges and resumes.
    pub sampler: Option<SamplerRecord>,
    /// Fleet provenance when this is the merged report of a coordinated
    /// campaign; `None` otherwise (schema v3).
    pub coordinator: Option<CoordinatorRecord>,
}

impl CampaignReport {
    /// Folds `points` into a report: sorts by scenario id, computes the
    /// Pareto front over the non-failed records, flags members, and fills
    /// the front-quality metrics. Run provenance (threads, counts,
    /// wall-time, cache stats) is zeroed for the caller to fill.
    ///
    /// # Panics
    ///
    /// Panics if two records share a scenario id — partitions and resumes
    /// must be disjoint by construction; a collision means the caller
    /// merged overlapping sources without deduplicating.
    pub fn assemble(objective_kinds: Vec<ObjectiveKind>, mut points: Vec<PointRecord>) -> Self {
        points.sort_by_key(|p| p.scenario_id);
        for pair in points.windows(2) {
            assert_ne!(
                pair[0].scenario_id, pair[1].scenario_id,
                "duplicate records for scenario {}",
                pair[0].scenario_id
            );
        }
        let mut front = ParetoFront::new(objective_kinds.len());
        for p in &points {
            if p.error.is_none() {
                front.offer(p.scenario_id, p.objectives.clone());
            }
        }
        let front_ids = front.indices();
        for p in &mut points {
            p.on_front = front_ids.binary_search(&p.scenario_id).is_ok();
        }
        let metrics = FrontMetrics::of_front(front.members(), &objective_kinds);
        CampaignReport {
            objective_kinds,
            points,
            front: front_ids,
            threads: 0,
            flows_synthesized: 0,
            synthesis_reused: 0,
            carried_points: 0,
            wall_ms: 0.0,
            hypervolume: metrics.hypervolume,
            spread: metrics.spread,
            match_cache: Vec::new(),
            sampler: None,
            coordinator: None,
        }
    }

    /// The record for scenario `id`, if this report holds one (records
    /// are sorted by id, so this is a binary search).
    pub fn point(&self, id: usize) -> Option<&PointRecord> {
        self.points
            .binary_search_by_key(&id, |p| p.scenario_id)
            .ok()
            .map(|at| &self.points[at])
    }

    /// The records on the Pareto front, in scenario order.
    pub fn front_points(&self) -> impl Iterator<Item = &PointRecord> {
        self.points.iter().filter(|p| p.on_front)
    }

    /// Serializes the full report (hand-rolled, stable key order).
    pub fn to_json(&self) -> String {
        let sampler = match &self.sampler {
            None => String::new(),
            Some(s) => {
                // Arm labels embed user-settable axis values
                // (workload/engine/sim labels) — escape them like every
                // other string field.
                let rounds = join(&s.rounds, |r| {
                    format!(
                        "{{\"round\": {}, \"flows\": {}, \"hypervolume\": {}, \"arms\": [{}]}}",
                        r.round,
                        r.flows,
                        Float(r.hypervolume),
                        join(&r.arms, |a| Quoted(a).to_string()),
                    )
                });
                format!(
                    "  \"sampler\": {{\"policy\": {}, \"seed\": {}, \"budget\": {}, \"flows_spent\": {}, \"grid_len\": {}, \"rounds\": [{rounds}]}},\n",
                    Quoted(&s.policy),
                    s.seed,
                    s.budget,
                    s.flows_spent,
                    s.grid_len,
                )
            }
        };
        let coordinator = match &self.coordinator {
            None => String::new(),
            Some(c) => {
                let waves = join(&c.waves, |w| {
                    format!(
                        "{{\"wave\": {}, \"workers\": {}, \"completed\": {}, \"killed\": {}, \"salvaged_points\": {}, \"redealt\": {}}}",
                        w.wave, w.workers, w.completed, w.killed, w.salvaged_points, w.redealt
                    )
                });
                format!(
                    "  \"coordinator\": {{\"workers\": {}, \"deadline_ms\": {}, \"waves\": [{waves}]}},\n",
                    c.workers,
                    Float(c.deadline_ms),
                )
            }
        };
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| format!("    {}", p.to_json(&self.objective_kinds)))
            .collect();
        format!(
            "{{\n  \"report\": \"noc_explore_campaign\",\n  \"schema_version\": {SCHEMA_VERSION},\n  \"objectives\": [{}],\n  \"threads\": {},\n  \"flows_synthesized\": {},\n  \"synthesis_reused\": {},\n  \"carried_points\": {},\n  \"wall_ms\": {},\n  \"hypervolume\": {},\n  \"spread\": {},\n{sampler}{coordinator}  \"match_cache\": [{}],\n  \"pareto_front\": [{}],\n  \"points\": [\n{}\n  ]\n}}\n",
            join(&self.objective_kinds, |k| Quoted(k.label()).to_string()),
            self.threads,
            self.flows_synthesized,
            self.synthesis_reused,
            self.carried_points,
            Float(self.wall_ms),
            Float(self.hypervolume),
            Float(self.spread),
            join(&self.match_cache, |c| format!(
                "{{\"vertex_count\": {}, \"hits\": {}, \"misses\": {}}}",
                c.vertex_count, c.hits, c.misses
            )),
            join(&self.front, usize::to_string),
            points.join(",\n"),
        )
    }

    /// Parses a report previously written by [`to_json`](Self::to_json) —
    /// the reader half of the resume/shard story. Round-trips exactly:
    /// records, front, metrics and provenance all survive
    /// `to_json → from_json`.
    ///
    /// Reports are a cross-PR interchange format, so the reader is
    /// explicitly versioned: a missing `schema_version` means **v1** (the
    /// format before versioning existed) and parses normally, while a
    /// version newer than [`SCHEMA_VERSION`] is rejected with a clear
    /// error instead of being silently misparsed. Reports are read from
    /// other processes, so the reader also enforces what folding a front
    /// asserts — a non-empty objective list without duplicates, finite
    /// objectives on every point without an `error` — and every error
    /// either locates malformed JSON by byte offset or names the key.
    pub fn from_json(text: &str) -> Result<CampaignReport, String> {
        let v = JsonValue::parse(text).map_err(|e| format!("malformed report JSON: {e}"))?;
        match v.need_str("report")? {
            "noc_explore_campaign" => {}
            other => return Err(format!("'report' is '{other}', not a campaign report")),
        }
        // Reports written before versioning existed are v1.
        let version = v
            .optional("schema_version", JsonValue::need_u64)?
            .unwrap_or(1);
        if version > SCHEMA_VERSION {
            return Err(format!(
                "report 'schema_version' v{version} is newer than this reader understands (v{SCHEMA_VERSION}) \
                 — refusing to guess at unknown fields; re-read it with the noc-explore that wrote it"
            ));
        }
        // `Campaign::objectives` asserts the same two invariants.
        let mut objective_kinds = Vec::new();
        for label in v.need_strings("objectives")? {
            let kind = ObjectiveKind::from_label(&label)
                .ok_or_else(|| format!("'objectives' names unknown objective '{label}'"))?;
            if objective_kinds.contains(&kind) {
                return Err(format!("'objectives' lists '{label}' twice"));
            }
            objective_kinds.push(kind);
        }
        if objective_kinds.is_empty() {
            return Err("'objectives' must name at least one objective".to_string());
        }
        let mut points = v
            .need_array("points")?
            .iter()
            .enumerate()
            .map(|(i, p)| {
                PointRecord::from_json_value(p, &objective_kinds)
                    .map_err(|e| format!("'points'[{i}]: {e}"))
            })
            .collect::<Result<Vec<PointRecord>, String>>()?;
        // `point()` binary-searches and resume trusts id lookups, so
        // restore the sorted-by-id invariant (hand-edited or externally
        // reordered files) and reject outright duplicates.
        points.sort_by_key(|p| p.scenario_id);
        for pair in points.windows(2) {
            if pair[0].scenario_id == pair[1].scenario_id {
                return Err(format!(
                    "'points' holds two records for scenario {}",
                    pair[0].scenario_id
                ));
            }
        }
        let front = v
            .need_array("pareto_front")?
            .iter()
            .map(|id| {
                id.as_usize()
                    .ok_or("'pareto_front' entries must be integers".to_string())
            })
            .collect::<Result<Vec<usize>, String>>()?;
        let match_cache = v
            .optional("match_cache", JsonValue::need_array)?
            .unwrap_or_default()
            .iter()
            .map(|row| {
                Ok(CacheSizeRecord {
                    vertex_count: row.need_usize("vertex_count")?,
                    hits: row.need_u64("hits")?,
                    misses: row.need_u64("misses")?,
                })
            })
            .collect::<Result<Vec<CacheSizeRecord>, String>>()?;
        Ok(CampaignReport {
            objective_kinds,
            points,
            front,
            threads: v.need_usize("threads")?,
            flows_synthesized: v.need_usize("flows_synthesized")?,
            synthesis_reused: v.need_usize("synthesis_reused")?,
            carried_points: v
                .optional("carried_points", JsonValue::need_usize)?
                .unwrap_or(0),
            wall_ms: v.need_f64("wall_ms")?,
            hypervolume: v
                .optional("hypervolume", JsonValue::need_f64)?
                .unwrap_or(0.0),
            spread: v.optional("spread", JsonValue::need_f64)?.unwrap_or(0.0),
            match_cache,
            sampler: v
                .get("sampler")
                .map(SamplerRecord::from_json_value)
                .transpose()?,
            coordinator: v
                .get("coordinator")
                .map(CoordinatorRecord::from_json_value)
                .transpose()?,
        })
    }

    /// Recovers a partial report from a [`JsonLinesSink`] stream — the
    /// maximally complete artifact a **killed** campaign leaves behind
    /// (the sink flushes every line and again on drop). A kill can still
    /// land *mid-write*, so a **final** line that breaks off — its JSON
    /// fails only where its input ends — is dropped rather than failing
    /// the whole recovery; malformed JSON anywhere else is a real
    /// corruption and errors. Duplicate ids keep the first
    /// occurrence; the front and metrics are recomputed from the
    /// recovered records, provenance is unknowable and left `0`.
    pub fn from_json_lines(text: &str, kinds: &[ObjectiveKind]) -> Result<CampaignReport, String> {
        let lines: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .map(|(i, line)| (i + 1, line.trim()))
            .filter(|(_, line)| !line.is_empty())
            .collect();
        let mut points: Vec<PointRecord> = Vec::new();
        let mut seen: std::collections::HashSet<usize> = std::collections::HashSet::new();
        for (at, &(lineno, line)) in lines.iter().enumerate() {
            let v = match JsonValue::parse(line) {
                Ok(v) => v,
                // Truncated tail from a kill mid-write: salvage the rest.
                Err(e) if at + 1 == lines.len() && e.offset == line.len() => break,
                Err(e) => return Err(format!("line {lineno}: malformed JSON: {e}")),
            };
            let record = PointRecord::from_json_value(&v, kinds)
                .map_err(|e| format!("line {lineno}: {e}"))?;
            if seen.insert(record.scenario_id) {
                points.push(record);
            }
        }
        Ok(CampaignReport::assemble(kinds.to_vec(), points))
    }
}

/// Receives campaign results as they are produced.
///
/// `point` fires once per completed scenario, in **completion order** —
/// nondeterministic under a multi-threaded campaign, though each record's
/// content is deterministic. `finish` fires once with the assembled
/// report (records in scenario order, front flags filled in).
pub trait ResultSink: Send {
    /// A scenario point finished evaluating.
    fn point(&mut self, record: &PointRecord);
    /// The campaign completed.
    fn finish(&mut self, _report: &CampaignReport) {}
}

/// Discards everything ([`Campaign::run`](crate::Campaign::run) uses it).
#[derive(Debug, Default)]
pub struct NullSink;

impl ResultSink for NullSink {
    fn point(&mut self, _record: &PointRecord) {}
}

/// Streams each completed point as one JSON object per line (JSON Lines),
/// flushing after every record — and again on `finish` and on drop — so a
/// killed campaign leaves a maximally complete partial stream behind for
/// [`CampaignReport::from_json_lines`] to resume from.
#[derive(Debug)]
pub struct JsonLinesSink<W: Write + Send> {
    writer: W,
    kinds: Vec<ObjectiveKind>,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wraps `writer`; `kinds` must match the campaign's objective vector.
    pub fn new(writer: W, kinds: Vec<ObjectiveKind>) -> Self {
        JsonLinesSink { writer, kinds }
    }
}

impl<W: Write + Send> ResultSink for JsonLinesSink<W> {
    fn point(&mut self, record: &PointRecord) {
        let _ = writeln!(self.writer, "{}", record.to_json(&self.kinds));
        let _ = self.writer.flush();
    }

    fn finish(&mut self, _report: &CampaignReport) {
        let _ = self.writer.flush();
    }
}

impl<W: Write + Send> Drop for JsonLinesSink<W> {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

/// `items` rendered by `render`, comma-separated the way reports are.
fn join<T>(items: &[T], render: impl Fn(&T) -> String) -> String {
    items.iter().map(render).collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> PointRecord {
        PointRecord {
            scenario_id: 3,
            label: "fig5/dfs/Links/cmos_180nm/fp1/base_load".into(),
            workload: "fig5".into(),
            nodes: 8,
            engine: "dfs".into(),
            synthesis_objective: "Links".into(),
            technology: "cmos_180nm".into(),
            sim: "base_load".into(),
            router_fidelity: "ideal".into(),
            objectives: vec![1.5e-9, 12.25, 16.0],
            on_front: true,
            reused_synthesis: false,
            total_cost: 17.0,
            nodes_visited: 42,
            cache_hits: 7,
            synth_ms: 0.5,
            verify: Some(VerifyRecord {
                deadlock_free: true,
                num_vcs: 2,
                cdg_vertices: 9,
                cdg_edges: 6,
                routes_checked: 12,
                verify_ms: 0.25,
                cycle: Vec::new(),
                lint: Vec::new(),
            }),
            sweep: vec![SweepPointRecord {
                rate: 0.05,
                latency_cycles: 12.25,
                throughput_bits_per_cycle: 3.0,
                energy_joules: 1.5e-9,
            }],
            saturated: false,
            error: None,
        }
    }

    fn report() -> CampaignReport {
        let mut failed = record();
        failed.scenario_id = 4;
        failed.error = Some("no legal decomposition".into());
        failed.objectives.clear();
        failed.total_cost = f64::NAN;
        let mut r =
            CampaignReport::assemble(ObjectiveKind::DEFAULT.to_vec(), vec![record(), failed]);
        r.threads = 2;
        r.flows_synthesized = 1;
        r.synthesis_reused = 1;
        r.carried_points = 1;
        r.wall_ms = 12.5;
        r.match_cache = vec![
            CacheSizeRecord {
                vertex_count: 8,
                hits: 3,
                misses: 10,
            },
            CacheSizeRecord {
                vertex_count: 10,
                hits: 1,
                misses: 9,
            },
        ];
        r
    }

    #[test]
    fn point_json_is_well_formed() {
        let json = record().to_json(&ObjectiveKind::DEFAULT);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"energy_joules\": 0.0000000015"));
        assert!(json.contains("\"on_front\": true"));
        assert!(json.contains("\"sweep\": [{\"rate\": 0.05"));
        assert!(!json.contains("error"));
    }

    #[test]
    fn point_round_trips_exactly() {
        let original = record();
        let json = original.to_json(&ObjectiveKind::DEFAULT);
        let parsed = PointRecord::from_json_value(
            &JsonValue::parse(&json).unwrap(),
            &ObjectiveKind::DEFAULT,
        )
        .unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn failed_points_serialize_the_error_instead_of_objectives() {
        let mut r = record();
        r.error = Some("no legal decomposition".into());
        r.objectives.clear();
        let json = r.to_json(&ObjectiveKind::DEFAULT);
        assert!(json.contains("\"error\": \"no legal decomposition\""));
        assert!(!json.contains("on_front"));
        // And the parser accepts the error shape (NaN provenance fields
        // break PartialEq, so compare the load-bearing parts).
        let parsed = PointRecord::from_json_value(
            &JsonValue::parse(&json).unwrap(),
            &ObjectiveKind::DEFAULT,
        )
        .unwrap();
        assert_eq!(parsed.error.as_deref(), Some("no legal decomposition"));
        assert!(parsed.objectives.is_empty());
        assert!(!parsed.on_front);
    }

    #[test]
    fn report_round_trips() {
        let original = report();
        let parsed = CampaignReport::from_json(&original.to_json()).unwrap();
        assert_eq!(parsed.objective_kinds, original.objective_kinds);
        assert_eq!(parsed.front, original.front);
        assert_eq!(parsed.points[0], original.points[0]);
        assert_eq!(parsed.points[1].error, original.points[1].error);
        assert_eq!(
            (
                parsed.threads,
                parsed.flows_synthesized,
                parsed.synthesis_reused
            ),
            (2, 1, 1)
        );
        assert_eq!(parsed.carried_points, 1);
        assert_eq!(parsed.wall_ms, 12.5);
        assert_eq!(parsed.hypervolume, original.hypervolume);
        assert_eq!(parsed.spread, original.spread);
        assert_eq!(parsed.match_cache, original.match_cache);
        // And writing the parsed report reproduces the bytes.
        assert_eq!(parsed.to_json(), original.to_json());
    }

    #[test]
    fn from_json_rejects_foreign_documents() {
        assert!(CampaignReport::from_json("{}").is_err());
        assert!(CampaignReport::from_json("{\"report\": \"other\"}").is_err());
        assert!(CampaignReport::from_json("not json").is_err());
    }

    #[test]
    fn deeply_nested_reports_fail_with_a_located_error() {
        // 200,000 nested arrays overflow an unbounded recursive parser;
        // the reader must return an error naming the offending byte.
        let err = CampaignReport::from_json(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting") && err.contains("at byte"), "{err}");

        // The same inside an otherwise valid report, in a field the
        // reader would skip.
        let prefix = "{\"report\": \"noc_explore_campaign\", \"extra\": ";
        let hostile = format!("{prefix}{}", "{\"a\": ".repeat(200_000));
        let err = CampaignReport::from_json(&hostile).unwrap_err();
        let at = prefix.len() + 6 * (noc_telemetry::json::MAX_DEPTH - 1);
        assert!(err.ends_with(&format!("at byte {at}")), "{err}");

        // A JSON-Lines stream fails the same way, even when the deep line
        // is its last: it breaks off long before its end, so it is
        // corruption, not a write cut short by a kill.
        let stream = format!(
            "{}\n{}",
            record().to_json(&ObjectiveKind::DEFAULT),
            "[".repeat(200_000)
        );
        let err = CampaignReport::from_json_lines(&stream, &ObjectiveKind::DEFAULT).unwrap_err();
        let at = noc_telemetry::json::MAX_DEPTH;
        assert!(
            err.starts_with("line 2:") && err.ends_with(&format!("at byte {at}")),
            "{err}"
        );
    }

    #[test]
    fn null_objectives_are_rejected_at_the_reader() {
        // `null` is how the writers spell a non-finite float; on a point
        // without `error` it would reach `ParetoFront::offer` and panic.
        let line = record()
            .to_json(&ObjectiveKind::DEFAULT)
            .replace("\"energy_joules\": 0.0000000015", "\"energy_joules\": null");
        let stream = format!("{}\n{line}\n", record().to_json(&ObjectiveKind::DEFAULT));
        let err = CampaignReport::from_json_lines(&stream, &ObjectiveKind::DEFAULT).unwrap_err();
        assert!(
            err.starts_with("line 2:") && err.contains("'energy_joules'"),
            "{err}"
        );
        let json = report().to_json().replace(
            "\"avg_latency_cycles\": 12.25",
            "\"avg_latency_cycles\": null",
        );
        let err = CampaignReport::from_json(&json).unwrap_err();
        assert!(err.contains("'avg_latency_cycles'"), "{err}");
        // A failed point carries no objectives, and a null cost is fine.
        assert!(CampaignReport::from_json(&report().to_json()).is_ok());
    }

    #[test]
    fn overflowing_objectives_are_rejected_at_the_reader() {
        // `1e999` parses to infinity.
        let json = report()
            .to_json()
            .replace("\"area_mm2\": 16", "\"area_mm2\": 1e999");
        let err = CampaignReport::from_json(&json).unwrap_err();
        assert!(
            err.contains("'area_mm2'") && err.contains("finite"),
            "{err}"
        );
    }

    #[test]
    fn empty_objective_lists_are_rejected_at_the_reader() {
        // An empty objective vector would reach the hypervolume sweep,
        // which indexes the first objective.
        let json = report().to_json().replace(
            "\"objectives\": [\"energy_joules\", \"avg_latency_cycles\", \"area_mm2\"]",
            "\"objectives\": []",
        );
        let err = CampaignReport::from_json(&json).unwrap_err();
        assert!(err.contains("'objectives'"), "{err}");
    }

    #[test]
    fn duplicate_objectives_are_rejected_at_the_reader() {
        let json = report().to_json().replace(
            "\"objectives\": [\"energy_joules\", \"avg_latency_cycles\", \"area_mm2\"]",
            "\"objectives\": [\"energy_joules\", \"energy_joules\", \"area_mm2\"]",
        );
        let err = CampaignReport::from_json(&json).unwrap_err();
        assert!(
            err.contains("'objectives'") && err.contains("'energy_joules'"),
            "{err}"
        );
    }

    #[test]
    fn reports_carry_the_schema_version() {
        let json = report().to_json();
        assert!(
            json.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")),
            "{json}"
        );
    }

    #[test]
    fn versionless_v1_reports_still_parse() {
        // A PR 3-era report predates `schema_version`; strip the field to
        // reproduce one and check the compatibility path keeps it
        // resumable.
        let original = report();
        let v1 = original
            .to_json()
            .replace(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"), "");
        assert!(!v1.contains("schema_version"));
        let parsed = CampaignReport::from_json(&v1).unwrap();
        assert_eq!(parsed.front, original.front);
        assert_eq!(parsed.points[0], original.points[0]);
    }

    #[test]
    fn future_schema_versions_are_rejected_with_a_clear_error() {
        let future = report().to_json().replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 99",
        );
        let err = CampaignReport::from_json(&future).unwrap_err();
        assert!(err.contains("v99"), "{err}");
        assert!(err.contains(&format!("v{SCHEMA_VERSION}")), "{err}");

        let garbage = report().to_json().replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": \"two\"",
        );
        let err = CampaignReport::from_json(&garbage).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn sampler_provenance_round_trips() {
        let mut original = report();
        original.sampler = Some(SamplerRecord {
            policy: "bandit".into(),
            seed: 7,
            budget: 8,
            flows_spent: 8,
            grid_len: 12,
            rounds: vec![
                SamplerRoundRecord {
                    round: 0,
                    flows: 4,
                    hypervolume: 0.9,
                    arms: vec!["workload=fig5".into(), "sim=ramp".into()],
                },
                SamplerRoundRecord {
                    round: 1,
                    flows: 4,
                    hypervolume: 0.95,
                    arms: vec!["workload=tgff_n8_s8".into()],
                },
            ],
        });
        let parsed = CampaignReport::from_json(&original.to_json()).unwrap();
        assert_eq!(parsed.sampler, original.sampler);
        // And writing the parsed report reproduces the bytes.
        assert_eq!(parsed.to_json(), original.to_json());
    }

    #[test]
    fn warm_cache_and_coordinator_provenance_round_trip() {
        // `warm_cache` objects are no longer written; the next test reads
        // old ones.
        let mut original = report();
        original.coordinator = Some(CoordinatorRecord {
            workers: 2,
            deadline_ms: 30000.0,
            waves: vec![
                WaveRecord {
                    wave: 0,
                    workers: 2,
                    completed: 1,
                    killed: 1,
                    salvaged_points: 2,
                    redealt: 4,
                },
                WaveRecord {
                    wave: 1,
                    workers: 1,
                    completed: 1,
                    killed: 0,
                    salvaged_points: 0,
                    redealt: 0,
                },
            ],
        });
        let parsed = CampaignReport::from_json(&original.to_json()).unwrap();
        assert_eq!(parsed.coordinator, original.coordinator);
        assert_eq!(parsed.coordinator.as_ref().unwrap().killed(), 1);
        assert_eq!(parsed.coordinator.as_ref().unwrap().redealt(), 4);
        // And writing the parsed report reproduces the bytes.
        assert_eq!(parsed.to_json(), original.to_json());
    }

    #[test]
    fn v2_cache_rows_without_warm_hits_parse_as_zero() {
        // Reports written while match-cache persistence existed carry
        // `warm_hits` on every `match_cache` row and may carry a
        // `warm_cache` object. Both still parse, equal to the same report
        // without them, and are never written back.
        let original = report();
        let current = original.to_json();
        assert!(!current.contains("warm_hits") && !current.contains("warm_cache"));
        let with_warm_fields = current
            .replace(
                "\"hits\": 3, \"misses\": 10}",
                "\"hits\": 3, \"misses\": 10, \"warm_hits\": 2}",
            )
            .replace(
                "\"hits\": 1, \"misses\": 9}",
                "\"hits\": 1, \"misses\": 9, \"warm_hits\": 0}",
            )
            .replace(
                "  \"match_cache\": [",
                "  \"warm_cache\": {\"path\": \"match_cache.json\", \"loaded_graphs\": 41, \
                 \"saved_graphs\": 58, \"degraded\": \"truncated \\\"file\\\"\"},\n  \"match_cache\": [",
            );
        assert_eq!(with_warm_fields.matches("warm_hits").count(), 2);
        assert_eq!(with_warm_fields.matches("\"warm_cache\"").count(), 1);
        let parsed = CampaignReport::from_json(&with_warm_fields).unwrap();
        assert_eq!(parsed.match_cache, original.match_cache);
        assert_eq!(parsed.to_json(), current);

        // A v2 report predates both fields (and the coordinator object).
        let v2 = current.replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 2",
        );
        let parsed = CampaignReport::from_json(&v2).unwrap();
        assert_eq!(parsed.match_cache, original.match_cache);
        assert!(parsed.coordinator.is_none());
    }

    #[test]
    fn v3_points_without_verify_parse_as_none() {
        // A v3-era report predates the per-point verify verdict; strip
        // the object (and claim v3) to reproduce one.
        let original = report();
        let verify_obj = ", \"verify\": {\"deadlock_free\": true, \"num_vcs\": 2, \
                          \"cdg_vertices\": 9, \"cdg_edges\": 6, \"routes_checked\": 12, \
                          \"verify_ms\": 0.25, \"cycle\": [], \"lint\": []}";
        let v3 = original
            .to_json()
            .replace(
                &format!("\"schema_version\": {SCHEMA_VERSION}"),
                "\"schema_version\": 3",
            )
            .replace(verify_obj, "");
        assert!(!v3.contains("\"verify\""), "strip failed: {v3}");
        let parsed = CampaignReport::from_json(&v3).unwrap();
        assert!(parsed.points.iter().all(|p| p.verify.is_none()));
        // Everything else still round-trips from the v3 body.
        assert_eq!(parsed.front, original.front);
        assert_eq!(parsed.points[0].objectives, original.points[0].objectives);
    }

    #[test]
    fn v4_points_without_router_fidelity_parse_as_ideal() {
        // A v4-era report predates the router-fidelity axis; strip the
        // field (and claim v4) to reproduce one. Every pre-v5 campaign
        // ran the ideal router, so that is what absence means.
        let original = report();
        let v4 = original
            .to_json()
            .replace(
                &format!("\"schema_version\": {SCHEMA_VERSION}"),
                "\"schema_version\": 4",
            )
            .replace(", \"router_fidelity\": \"ideal\"", "");
        assert!(!v4.contains("router_fidelity"), "strip failed: {v4}");
        let parsed = CampaignReport::from_json(&v4).unwrap();
        assert!(parsed.points.iter().all(|p| p.router_fidelity == "ideal"));
        assert_eq!(parsed.front, original.front);
        assert_eq!(parsed.points[0].objectives, original.points[0].objectives);
    }

    #[test]
    fn verify_witness_round_trips_with_escaping() {
        let mut original = report();
        original.points[0].verify = Some(VerifyRecord {
            deadlock_free: false,
            num_vcs: 1,
            cdg_vertices: 4,
            cdg_edges: 4,
            routes_checked: 4,
            verify_ms: 0.125,
            cycle: vec![
                "0->1@vc0 => 1->2@vc0 via 0->2 [assigned]".into(),
                "witness with \"quotes\"\nand newlines".into(),
            ],
            lint: vec!["route 1->1 in set 'assigned' has bad endpoints".into()],
        });
        let json = original.to_json();
        assert!(json.contains("\"deadlock_free\": false"));
        let parsed = CampaignReport::from_json(&json).unwrap();
        assert_eq!(parsed.points[0].verify, original.points[0].verify);
        assert_eq!(parsed.to_json(), json);
        assert_eq!(
            parsed.points[0].verify.as_ref().unwrap().summary(),
            "cyclic dependency: 0->1@vc0 => 1->2@vc0 via 0->2 [assigned]"
        );
    }

    #[test]
    fn sampler_arm_labels_are_escaped() {
        // Arm labels embed user-settable axis labels, which can contain
        // JSON-hostile characters.
        let mut original = report();
        original.sampler = Some(SamplerRecord {
            policy: "bandit".into(),
            seed: 1,
            budget: 2,
            flows_spent: 2,
            grid_len: 4,
            rounds: vec![SamplerRoundRecord {
                round: 0,
                flows: 2,
                hypervolume: 0.5,
                arms: vec!["sim=ramp\"hot\"".into(), "workload=a\\b\nc".into()],
            }],
        });
        let parsed = CampaignReport::from_json(&original.to_json()).unwrap();
        assert_eq!(parsed.sampler, original.sampler);
    }

    #[test]
    fn assemble_computes_front_and_metrics() {
        let mut a = record();
        a.scenario_id = 0;
        let mut b = record();
        b.scenario_id = 1;
        b.objectives = vec![2.0e-9, 20.0, 20.0]; // dominated by a
        let r = CampaignReport::assemble(ObjectiveKind::DEFAULT.to_vec(), vec![b, a]);
        assert_eq!(r.front, vec![0]);
        assert!(r.points[0].on_front && !r.points[1].on_front);
        assert!(r.hypervolume > 0.0);
        assert_eq!(r.point(1).unwrap().scenario_id, 1);
        assert!(r.point(7).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate records for scenario")]
    fn assemble_rejects_duplicate_ids() {
        CampaignReport::assemble(ObjectiveKind::DEFAULT.to_vec(), vec![record(), record()]);
    }

    #[test]
    fn string_escaping_handles_quotes_and_newlines() {
        let mut r = record();
        r.label = "a\"b\\c\nd\te".into();
        let json = r.to_json(&ObjectiveKind::DEFAULT);
        assert!(
            json.contains("\"label\": \"a\\\"b\\\\c\\nd\\te\""),
            "{json}"
        );
        let parsed = PointRecord::from_json_value(
            &JsonValue::parse(&json).unwrap(),
            &ObjectiveKind::DEFAULT,
        )
        .unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_point() {
        let mut buf = Vec::new();
        {
            let mut sink = JsonLinesSink::new(&mut buf, ObjectiveKind::DEFAULT.to_vec());
            sink.point(&record());
            sink.point(&record());
        }
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn json_lines_stream_recovers_into_a_partial_report() {
        let mut buf = Vec::new();
        {
            let mut sink = JsonLinesSink::new(&mut buf, ObjectiveKind::DEFAULT.to_vec());
            let mut other = record();
            other.scenario_id = 9;
            other.objectives = vec![1.0e-9, 30.0, 20.0];
            sink.point(&record());
            sink.point(&other);
            sink.point(&record()); // duplicate id: first occurrence wins
        }
        let text = String::from_utf8(buf).unwrap();
        let partial = CampaignReport::from_json_lines(&text, &ObjectiveKind::DEFAULT).unwrap();
        assert_eq!(partial.points.len(), 2);
        assert_eq!(partial.front, vec![3, 9]); // incomparable: both stay
        assert_eq!(partial.points[0], record());
    }

    #[test]
    fn truncated_final_line_is_dropped_not_fatal() {
        let mut other = record();
        other.scenario_id = 9;
        let full = format!(
            "{}\n{}\n",
            record().to_json(&ObjectiveKind::DEFAULT),
            other.to_json(&ObjectiveKind::DEFAULT),
        );
        // A kill mid-write leaves the last record half-flushed, cut at
        // any byte.
        let second_line = full.find('\n').unwrap() + 1;
        for cut in second_line + 1..full.len() - 1 {
            let partial =
                CampaignReport::from_json_lines(&full[..cut], &ObjectiveKind::DEFAULT).unwrap();
            assert_eq!(partial.points.len(), 1, "cut at {cut}");
            assert_eq!(partial.points[0].scenario_id, 3);
        }
        // But garbage *before* the end is real corruption.
        let corrupted = format!("not json\n{}", record().to_json(&ObjectiveKind::DEFAULT));
        let err = CampaignReport::from_json_lines(&corrupted, &ObjectiveKind::DEFAULT).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        // Even on the final line: a line that is wrong before its end was
        // not cut short by a kill.
        let corrupted = format!("{}\nnot json", record().to_json(&ObjectiveKind::DEFAULT));
        let err = CampaignReport::from_json_lines(&corrupted, &ObjectiveKind::DEFAULT).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }
}
