//! Parallel multi-objective design-space exploration over the full NoC
//! synthesis flow.
//!
//! The paper synthesizes *one* architecture per application under fixed
//! constraints; its evaluation — and the related exploration literature
//! (Marcon et al.'s energy/timing mapping trade-offs, Yu & Dong's joint
//! topology/floorplan generation) — is really about *families* of runs.
//! This crate makes the family the product: a [`Campaign`] fans out over
//! a declarative [`ScenarioGrid`] (workload family × size × seed ×
//! engine configuration × synthesis objective × technology × floorplan
//! seed × simulation spec), runs the full pipeline (floorplan →
//! decomposition → architecture → wormhole simulation) for every point on
//! a worker pool, and folds the results into a multi-objective
//! [Pareto front](pareto) over energy, latency, area and synthesis effort
//! — with dominance-based pruning, per-scenario provenance, and
//! streaming JSON [reports](report).
//!
//! Work is deduplicated at three layers:
//!
//! * scenario points differing only in simulation spec share one
//!   synthesized architecture (the campaign synthesizes once per
//!   *synthesis key*);
//! * points whose synthesis produced the same architecture (an equal
//!   model, link lengths compared by bits, under the same demand pairs)
//!   share one measure job: the architecture is verified once, and each
//!   distinct load sweep runs once under every member's technology
//!   ([`sweep_each`](noc::sim::sweep::sweep_each)), each technology's
//!   energy bit-identical to its own sweep;
//! * every synthesis run in a campaign shares one **size-agnostic**
//!   [`SharedMatchCache`](noc::synthesis::SharedMatchCache) (keys are
//!   vertex-count-tagged), so VF2 match enumeration — the decomposition
//!   hot path — is paid once per (graph size, remaining graph, primitive)
//!   across the whole campaign, even when the grid sweeps sizes.
//!
//! And campaigns are **incremental and partitionable** — the run is an
//! explicit plan → execute → fold pipeline (see [`campaign`]):
//!
//! * [`Campaign::resume_from`] reloads a previous report
//!   ([`CampaignReport::from_json`], or
//!   [`from_json_lines`](CampaignReport::from_json_lines) for the stream
//!   a killed run leaves behind), skips recorded scenarios, and folds
//!   old + new records into one front;
//! * a [`ShardManifest`] deals disjoint slices of a grid to independent
//!   processes or machines, and [`merge_reports`] re-folds their reports
//!   — single-shot, resumed and sharded-and-merged campaigns provably
//!   produce the same front;
//! * every report carries [front-quality metrics](metrics) (hypervolume
//!   against fixed reference points, spread) so exploration quality is
//!   tracked, not just throughput;
//! * [`Campaign::run_sampled`] spends an explicit **flow budget** where
//!   the front is still moving instead of enumerating the whole grid: an
//!   adaptive [sampling planner](sample) (ε-greedy bandit or successive
//!   halving over grid-axis arms, seeded and fully deterministic) plans
//!   each round against the accumulated report via the same resume
//!   machinery, and the report records the per-round provenance;
//! * [`coordinate()`] closes the distributed loop: it deals id slices to N
//!   workers over a pluggable [`WorkerTransport`] (OS processes or
//!   in-process threads out of the box), detects stragglers by deadline,
//!   salvages a killed worker's streamed points and re-deals only its
//!   *unfinished* ids — the merged front is identical to the single-shot
//!   front even with workers dying mid-run.
//!
//! # Quickstart
//!
//! ```
//! use noc::prelude::*;
//! use noc::workloads::WorkloadFamily;
//! use noc_explore::{Campaign, ScenarioGrid, WorkloadSpec};
//!
//! let grid = ScenarioGrid::new()
//!     .workloads([WorkloadSpec::fixed(WorkloadFamily::Fig5)])
//!     .synthesis_objectives([Objective::Links, Objective::Energy]);
//! let report = Campaign::new(grid).run();
//! assert_eq!(report.points.len(), 2);
//! for point in report.front_points() {
//!     println!("{}: {:?}", point.label, point.objectives);
//! }
//! println!("{}", report.to_json());
//! ```
//!
//! Reports are deterministic per grid at any thread count; see the
//! [`campaign`] module docs for why.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod coordinate;
pub mod metrics;
pub mod pareto;
pub mod report;
pub mod sample;
pub mod scenario;
pub mod shard;
pub mod verify;

pub use campaign::{Campaign, CampaignPlan, CACHE_CAPACITY};
pub use coordinate::{
    coordinate, run_worker, ChaosKill, CoordinatorConfig, ProcessTransport, ThreadTransport,
    WorkerAssignment, WorkerHandle, WorkerStatus, WorkerTransport,
};
pub use metrics::FrontMetrics;
pub use pareto::{dominates, pareto_indices, ObjectiveKind, ParetoFront};
pub use report::{
    CacheSizeRecord, CampaignReport, CoordinatorRecord, JsonLinesSink, NullSink, PointRecord,
    ResultSink, SamplerRecord, SamplerRoundRecord, VerifyRecord, WaveRecord, SCHEMA_VERSION,
};
pub use sample::{SamplerConfig, SamplerPolicy};
pub use scenario::{Scenario, ScenarioGrid, SimSpec, WorkloadSpec};
pub use shard::{merge_reports, partition, ShardManifest, ShardMode};
pub use verify::VerifySummary;

/// The common imports for declaring and running campaigns.
pub mod prelude {
    pub use crate::campaign::{Campaign, CampaignPlan};
    pub use crate::pareto::{ObjectiveKind, ParetoFront};
    pub use crate::report::{CampaignReport, JsonLinesSink, ResultSink};
    pub use crate::sample::{SamplerConfig, SamplerPolicy};
    pub use crate::scenario::{ScenarioGrid, SimSpec, WorkloadSpec};
    pub use crate::shard::{merge_reports, ShardManifest, ShardMode};
    pub use noc::workloads::WorkloadFamily;
}
