//! The distributed-campaign coordinator: deal scenario slices to worker
//! processes, watch their artifacts land, re-deal what stragglers leave
//! unfinished, and fold everything into the single-shot front.
//!
//! [Sharding](crate::shard) made campaigns *partitionable* — stable
//! scenario ids, disjoint [`ShardManifest`](crate::ShardManifest) slices,
//! [`merge_reports`](crate::merge_reports()) — but actually dealing slices
//! to machines, noticing a dead or wedged worker and re-running exactly
//! its unfinished points was still an operator's shell loop. This module
//! closes that loop:
//!
//! * [`coordinate`] runs **waves**: it splits the outstanding scenario
//!   ids across `workers` assignments, launches each through a pluggable
//!   [`WorkerTransport`], and waits for their artifacts (a JSON-Lines
//!   stream plus a final report, both plain files in a work directory).
//! * A worker that exits without a complete report — or blows the
//!   per-wave **straggler deadline** and is killed — is *salvaged*: its
//!   flushed stream lines are recovered with
//!   [`CampaignReport::from_json_lines`], and only the ids **not** in the
//!   stream are re-dealt to the next wave. Nothing is ever re-run twice
//!   because a shard report says exactly which ids completed.
//! * The wave loop ends when no ids remain; the collected reports (full
//!   and salvaged) fold through [`merge_reports`](crate::merge_reports()),
//!   which — by the front's permutation invariance — reproduces the
//!   single-shot front exactly (`explore coordinate --smoke` asserts this
//!   in CI, with a worker killed mid-run).
//!
//! Each worker runs its slice with its own campaign-wide match cache,
//! like any single-process campaign; the merged report's `match_cache`
//! rows sum the workers' traffic per graph size.
//!
//! Two transports ship: [`ProcessTransport`] spawns real OS processes
//! (the `explore worker` CLI subcommand — kill-able, crash-isolated),
//! and [`ThreadTransport`] runs workers as in-process threads (no
//! process spawning; used by tests, examples and doctests). A fleet
//! backend (SSH, a job queue, containers) slots in by implementing
//! [`WorkerTransport`] — the coordinator only ever watches the
//! filesystem, so anything that eventually materializes the artifact
//! files works.
//!
//! ```
//! use noc::workloads::WorkloadFamily;
//! use noc_explore::coordinate::{coordinate, CoordinatorConfig, ThreadTransport};
//! use noc_explore::{Campaign, ScenarioGrid, WorkloadSpec};
//!
//! let campaign = Campaign::new(
//!     ScenarioGrid::new().workloads([WorkloadSpec::fixed(WorkloadFamily::Fig5)]),
//! );
//! let work_dir = std::env::temp_dir().join(format!("coord_doc_{}", std::process::id()));
//! let config = CoordinatorConfig::new(2).work_dir(&work_dir);
//! let mut transport = ThreadTransport::new(campaign.clone());
//! let report = coordinate(&campaign, &config, &mut transport).unwrap();
//! assert_eq!(report.points.len(), 1);
//! assert_eq!(report.coordinator.as_ref().unwrap().waves.len(), 1);
//! # std::fs::remove_dir_all(&work_dir).ok();
//! ```

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use noc_telemetry::Telemetry;

use crate::campaign::Campaign;
use crate::report::{CampaignReport, CoordinatorRecord, JsonLinesSink, WaveRecord};
use crate::shard::merge_reports;

/// Everything a worker needs to run its slice: which scenario ids, where
/// to stream completed points, and where to put the final report.
/// Transports turn this into a process/thread/job; [`run_worker`]
/// executes it.
#[derive(Debug, Clone)]
pub struct WorkerAssignment {
    /// Globally unique worker ordinal (across waves) — worker `k` of the
    /// whole coordination, not of its wave.
    pub ordinal: usize,
    /// The wave this assignment belongs to.
    pub wave: usize,
    /// Scenario ids to evaluate, ascending.
    pub ids: Vec<usize>,
    /// Where the worker streams each completed point as JSON Lines
    /// (flushed per record — the salvage artifact).
    pub stream_path: PathBuf,
    /// Where the worker writes its final report (atomically: the
    /// coordinator treats this file's existence as completion).
    pub report_path: PathBuf,
    /// Fault injection: sleep this long after streaming each point,
    /// simulating a slow machine (`0` = none). Set by
    /// [`ChaosKill::stall_ms`] so an injected kill deterministically
    /// lands mid-stream instead of racing a fast worker to the finish.
    pub stall_per_point_ms: u64,
}

impl WorkerAssignment {
    /// The ids as a comma-separated list (`"0,3,5"`) — the CLI wire form
    /// parsed by `explore worker --ids`.
    pub fn ids_csv(&self) -> String {
        self.ids
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// What a [`WorkerHandle`] reports when polled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerStatus {
    /// Still working (or at least, not yet observed to have stopped).
    Running,
    /// The worker stopped — successfully or not; the coordinator decides
    /// by reading the artifacts, never the exit status.
    Exited,
}

/// A launched worker, as much of it as the coordinator needs: poll
/// whether it stopped, and kill it when it blows the deadline.
pub trait WorkerHandle: Send {
    /// Non-blocking liveness poll.
    fn status(&mut self) -> WorkerStatus;

    /// Terminate the worker (used on stragglers and for fault injection).
    /// Transports that cannot kill (e.g. threads) abandon instead: the
    /// coordinator stops reading the worker's artifacts either way.
    fn kill(&mut self);
}

/// Launches workers. Implement this to put workers wherever compute
/// lives — local processes ([`ProcessTransport`]), in-process threads
/// ([`ThreadTransport`]), or a remote fleet (SSH/job-queue/container
/// backends): the coordinator only watches `assignment`'s artifact
/// paths, so a transport merely has to make those files appear.
pub trait WorkerTransport {
    /// Starts one worker on `assignment`. A launch failure is fatal to
    /// the coordination (it means the fleet itself is broken, not one
    /// straggler).
    fn launch(&mut self, assignment: &WorkerAssignment) -> Result<Box<dyn WorkerHandle>, String>;
}

/// Spawns each worker as a real OS process: `program` + fixed
/// `base_args` + the assignment rendered as `worker` subcommand flags
/// (`worker --ids … --stream-out … --out … [--stall-ms …]`).
/// This is what `explore coordinate` uses, pointing the program at its
/// own binary — crash isolation and a real `kill` for stragglers.
#[derive(Debug)]
pub struct ProcessTransport {
    program: PathBuf,
    base_args: Vec<String>,
}

impl ProcessTransport {
    /// A transport launching `program` with `base_args` (grid/thread
    /// flags shared by every worker) before the per-assignment flags.
    pub fn new(program: impl Into<PathBuf>, base_args: Vec<String>) -> Self {
        ProcessTransport {
            program: program.into(),
            base_args,
        }
    }
}

impl WorkerTransport for ProcessTransport {
    fn launch(&mut self, assignment: &WorkerAssignment) -> Result<Box<dyn WorkerHandle>, String> {
        let mut command = std::process::Command::new(&self.program);
        command
            .arg("worker")
            .args(&self.base_args)
            .arg("--ids")
            .arg(assignment.ids_csv())
            .arg("--stream-out")
            .arg(&assignment.stream_path)
            .arg("--out")
            .arg(&assignment.report_path);
        if assignment.stall_per_point_ms > 0 {
            command
                .arg("--stall-ms")
                .arg(assignment.stall_per_point_ms.to_string());
        }
        // Worker stderr goes to a per-worker log next to its artifacts —
        // when a whole wave dies before streaming a point, these logs
        // are the only diagnosis trail.
        let log = std::fs::File::create(assignment.report_path.with_extension("log"))
            .map(std::process::Stdio::from)
            .unwrap_or_else(|_| std::process::Stdio::null());
        let child = command
            .stdout(std::process::Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", self.program.display()))?;
        Ok(Box::new(ProcessHandle { child }))
    }
}

#[derive(Debug)]
struct ProcessHandle {
    child: std::process::Child,
}

impl WorkerHandle for ProcessHandle {
    fn status(&mut self) -> WorkerStatus {
        match self.child.try_wait() {
            Ok(None) => WorkerStatus::Running,
            // An errored wait means the child is gone too.
            Ok(Some(_)) | Err(_) => WorkerStatus::Exited,
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait(); // reap; never blocks after SIGKILL
    }
}

/// Runs each worker as an in-process thread executing [`run_worker`] on a
/// clone of the campaign. No processes, no second binary — the transport
/// for tests, examples and single-machine runs that just want the
/// re-dealing loop. `kill` abandons the thread (threads cannot be
/// killed); the coordinator stops reading its artifacts, and per-wave
/// artifact names keep an abandoned straggler from clobbering its
/// replacement.
#[derive(Debug)]
pub struct ThreadTransport {
    campaign: Campaign,
}

impl ThreadTransport {
    /// A transport running workers for `campaign` (the coordinator's
    /// campaign — same grid, same objectives).
    pub fn new(campaign: Campaign) -> Self {
        ThreadTransport { campaign }
    }
}

impl WorkerTransport for ThreadTransport {
    fn launch(&mut self, assignment: &WorkerAssignment) -> Result<Box<dyn WorkerHandle>, String> {
        let campaign = self.campaign.clone();
        let assignment = assignment.clone();
        let thread = std::thread::spawn(move || {
            let _ = run_worker(&campaign, &assignment);
        });
        Ok(Box::new(ThreadHandle {
            thread: Some(thread),
        }))
    }
}

#[derive(Debug)]
struct ThreadHandle {
    thread: Option<std::thread::JoinHandle<()>>,
}

impl WorkerHandle for ThreadHandle {
    fn status(&mut self) -> WorkerStatus {
        match &self.thread {
            Some(thread) if !thread.is_finished() => WorkerStatus::Running,
            _ => WorkerStatus::Exited,
        }
    }

    fn kill(&mut self) {
        // Threads cannot be killed; drop the handle and abandon it.
        self.thread.take();
    }
}

/// Executes one [`WorkerAssignment`] to completion — the worker half of
/// the protocol, shared by [`ThreadTransport`] and the `explore worker`
/// CLI subcommand:
///
/// 1. plan the campaign restricted to exactly the assigned ids,
/// 2. run it, streaming every completed point to `stream_path` (flushed
///    per record, so a kill leaves a salvageable JSON-Lines stream),
/// 3. write the report to `report_path` via a temp-file rename, so the
///    coordinator never observes a half-written report.
///
/// Fails before creating either file when an assigned id is outside the
/// grid: a report missing that point would look like a finished slice.
pub fn run_worker(
    campaign: &Campaign,
    assignment: &WorkerAssignment,
) -> Result<CampaignReport, String> {
    let ids: BTreeSet<usize> = assignment.ids.iter().copied().collect();
    let plan = campaign.plan();
    if let Some(&id) = assignment.ids.iter().find(|&&id| id >= plan.grid_len()) {
        return Err(format!(
            "scenario id {id} is outside the grid ({} scenarios)",
            plan.grid_len()
        ));
    }
    let plan = plan.restrict(&ids);
    let stream = std::fs::File::create(&assignment.stream_path)
        .map_err(|e| format!("cannot create {}: {e}", assignment.stream_path.display()))?;
    let mut sink = StallingSink {
        inner: JsonLinesSink::new(stream, campaign.objectives.clone()),
        stall: Duration::from_millis(assignment.stall_per_point_ms),
    };
    let report = campaign.run_plan_with_sink(plan, &mut sink);

    // Report presence signals completion: write-then-rename so a kill
    // mid-write can only ever leave a stale temp file behind.
    let tmp = assignment.report_path.with_extension("json.tmp");
    std::fs::write(&tmp, report.to_json())
        .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &assignment.report_path)
        .map_err(|e| format!("cannot move report into place: {e}"))?;
    Ok(report)
}

/// Fault injection for CI and tests: kill the worker with this global
/// [`ordinal`](WorkerAssignment::ordinal) once its stream holds at least
/// `after_points` flushed records — a deterministic stand-in for a
/// machine dying mid-shard, exercising the real kill + salvage + re-deal
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosKill {
    /// Global worker ordinal to kill (0 = the first worker launched).
    pub ordinal: usize,
    /// Streamed points to wait for before killing (≥ 1 guarantees the
    /// salvage path has something to recover).
    pub after_points: usize,
    /// Per-point stall injected into the targeted worker
    /// ([`WorkerAssignment::stall_per_point_ms`]): without it a fast
    /// worker can finish its whole slice between two polls, and the kill
    /// would have nothing left to re-deal.
    pub stall_ms: u64,
}

impl ChaosKill {
    /// Kill the first worker once it has streamed one point, stalling it
    /// 150 ms per point so the kill always leaves unfinished ids — the
    /// standard CI fault.
    pub fn first_worker() -> Self {
        ChaosKill {
            ordinal: 0,
            after_points: 1,
            stall_ms: 150,
        }
    }
}

/// Coordination knobs. `workers` is the only required choice; the
/// defaults suit a single machine.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Fleet width: assignments dealt per wave.
    pub workers: usize,
    /// Straggler deadline per wave: workers still running this long after
    /// the wave launched are killed and their unfinished ids re-dealt.
    pub deadline: Duration,
    /// Artifact-poll interval.
    pub poll: Duration,
    /// Wave cap — a fleet that keeps failing eventually errors out
    /// instead of spinning.
    pub max_waves: usize,
    /// Directory for worker artifacts (created if missing).
    pub work_dir: PathBuf,
    /// Optional fault injection (see [`ChaosKill`]).
    pub chaos: Option<ChaosKill>,
    /// Narrate wave lifecycle (deal/complete/kill/salvage/re-deal) to
    /// stderr as it happens.
    pub verbose: bool,
    /// Explicit telemetry override; `None` falls back to the process-wide
    /// handle ([`noc_telemetry::active`]).
    pub telemetry: Option<Telemetry>,
}

impl CoordinatorConfig {
    /// A config dealing to `workers` workers with a 60 s straggler
    /// deadline, 20 ms polling, 8 waves max, artifacts under
    /// `EXPLORE_coordinate/`, no fault injection.
    ///
    /// # Panics
    ///
    /// Panics when `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a coordination needs at least one worker");
        CoordinatorConfig {
            workers,
            deadline: Duration::from_secs(60),
            poll: Duration::from_millis(20),
            max_waves: 8,
            work_dir: PathBuf::from("EXPLORE_coordinate"),
            chaos: None,
            verbose: false,
            telemetry: None,
        }
    }

    /// Replaces the straggler deadline.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Replaces the artifact directory.
    #[must_use]
    pub fn work_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.work_dir = dir.into();
        self
    }

    /// Replaces the wave cap.
    #[must_use]
    pub fn max_waves(mut self, max_waves: usize) -> Self {
        assert!(max_waves > 0, "need at least one wave");
        self.max_waves = max_waves;
        self
    }

    /// Injects a worker kill (see [`ChaosKill`]).
    #[must_use]
    pub fn chaos(mut self, chaos: ChaosKill) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Narrates wave lifecycle to stderr (`explore coordinate --verbose`).
    #[must_use]
    pub fn verbose(mut self, verbose: bool) -> Self {
        self.verbose = verbose;
        self
    }

    /// Routes the coordinator's lifecycle events to an explicit telemetry
    /// handle instead of the process-wide one.
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }
}

/// [`JsonLinesSink`] plus the fault-injected per-point stall (a no-op
/// sleep of zero when no chaos targets this worker).
struct StallingSink {
    inner: JsonLinesSink<std::fs::File>,
    stall: Duration,
}

impl crate::report::ResultSink for StallingSink {
    fn point(&mut self, record: &crate::report::PointRecord) {
        self.inner.point(record);
        if !self.stall.is_zero() {
            std::thread::sleep(self.stall);
        }
    }

    fn finish(&mut self, report: &CampaignReport) {
        self.inner.finish(report);
    }
}

/// One in-flight worker the coordinator is watching.
struct Tracked {
    assignment: WorkerAssignment,
    handle: Box<dyn WorkerHandle>,
    done: bool,
    killed: bool,
}

/// Runs `campaign`'s whole grid as a coordinated multi-worker campaign:
/// deal → watch → salvage stragglers → re-deal → merge (see the [module
/// docs](self) for the protocol). Returns the merged report with
/// [`coordinator`](CampaignReport::coordinator) provenance filled in —
/// its front is identical to `campaign.run()`'s, however many workers
/// died on the way, as long as every scenario id eventually completes
/// within [`max_waves`](CoordinatorConfig::max_waves).
///
/// Fails on an empty grid, a transport that cannot launch, a wave that
/// makes no progress (every dealt worker died without salvaging a single
/// new point — re-dealing would spin forever; check the per-worker
/// `*.log` files in the work directory for the workers' own errors),
/// exhausting the wave cap, or a merge conflict (which deterministic
/// scenarios cannot produce).
pub fn coordinate(
    campaign: &Campaign,
    config: &CoordinatorConfig,
    transport: &mut dyn WorkerTransport,
) -> Result<CampaignReport, String> {
    let mut remaining: BTreeSet<usize> = campaign.plan().scenario_ids().into_iter().collect();
    if remaining.is_empty() {
        return Err("cannot coordinate an empty grid".to_string());
    }
    std::fs::create_dir_all(&config.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", config.work_dir.display()))?;

    let tel = match &config.telemetry {
        Some(t) => Some(t),
        None => noc_telemetry::active(),
    };
    let mut reports: Vec<CampaignReport> = Vec::new();
    let mut waves: Vec<WaveRecord> = Vec::new();
    let mut ordinal = 0;

    for wave in 0.. {
        if remaining.is_empty() {
            break;
        }
        let wave_t0 = Instant::now();
        if wave >= config.max_waves {
            return Err(format!(
                "{} scenario(s) still unfinished after {} wave(s) — fleet too unreliable, giving up",
                remaining.len(),
                config.max_waves
            ));
        }

        // Deal: contiguous chunks (range-style), preserving synthesis-key
        // neighbors so intra-worker artifact sharing survives.
        let outstanding: Vec<usize> = remaining.iter().copied().collect();
        let fleet = config.workers.min(outstanding.len());
        let chunk = outstanding.len().div_ceil(fleet);
        let mut tracked: Vec<Tracked> = Vec::new();
        for ids in outstanding.chunks(chunk) {
            let name = format!("wave{wave}_worker{ordinal}");
            let assignment = WorkerAssignment {
                ordinal,
                wave,
                ids: ids.to_vec(),
                stream_path: config.work_dir.join(format!("{name}.jsonl")),
                report_path: config.work_dir.join(format!("{name}.json")),
                stall_per_point_ms: match config.chaos {
                    Some(chaos) if chaos.ordinal == ordinal => chaos.stall_ms,
                    _ => 0,
                },
            };
            // Clear any leftovers from a previous coordination in the
            // same work dir: artifact names are deterministic, and a
            // stale report here would be silently credited to a worker
            // that actually crashed before writing one.
            std::fs::remove_file(&assignment.stream_path).ok();
            std::fs::remove_file(&assignment.report_path).ok();
            let handle = transport.launch(&assignment)?;
            if let Some(t) = tel {
                t.event(
                    "coordinator.deal",
                    &[
                        ("wave", (wave as u64).into()),
                        ("worker", (ordinal as u64).into()),
                        ("scenarios", assignment.ids.len().into()),
                        ("ids", assignment.ids_csv().into()),
                    ],
                );
            }
            tracked.push(Tracked {
                assignment,
                handle,
                done: false,
                killed: false,
            });
            ordinal += 1;
        }
        if config.verbose {
            eprintln!(
                "coordinate: wave {wave}: dealt {} worker(s) covering {} scenario(s)",
                tracked.len(),
                outstanding.len()
            );
        }

        // Watch: poll until every worker stopped or the deadline passed;
        // stragglers are killed (their streams stay salvageable).
        let launched = tracked.len();
        let t0 = Instant::now();
        let mut killed = 0;
        loop {
            for worker in tracked.iter_mut().filter(|w| !w.done) {
                if let Some(chaos) = config.chaos {
                    if worker.assignment.ordinal == chaos.ordinal
                        && streamed_points(&worker.assignment.stream_path) >= chaos.after_points
                    {
                        worker.handle.kill();
                        worker.killed = true;
                        worker.done = true;
                        killed += 1;
                        if let Some(t) = tel {
                            t.event(
                                "coordinator.kill",
                                &[
                                    ("wave", (wave as u64).into()),
                                    ("worker", (worker.assignment.ordinal as u64).into()),
                                    ("reason", "chaos".into()),
                                ],
                            );
                        }
                        if config.verbose {
                            eprintln!(
                                "coordinate: wave {wave}: killed worker {} (chaos injection)",
                                worker.assignment.ordinal
                            );
                        }
                        continue;
                    }
                }
                if worker.handle.status() == WorkerStatus::Exited {
                    worker.done = true;
                }
            }
            if tracked.iter().all(|w| w.done) {
                break;
            }
            if t0.elapsed() >= config.deadline {
                for worker in tracked.iter_mut().filter(|w| !w.done) {
                    worker.handle.kill();
                    worker.killed = true;
                    worker.done = true;
                    killed += 1;
                    if let Some(t) = tel {
                        t.event(
                            "coordinator.kill",
                            &[
                                ("wave", (wave as u64).into()),
                                ("worker", (worker.assignment.ordinal as u64).into()),
                                ("reason", "deadline".into()),
                            ],
                        );
                    }
                    if config.verbose {
                        eprintln!(
                            "coordinate: wave {wave}: killed straggler worker {} \
                             (deadline {:?} passed)",
                            worker.assignment.ordinal, config.deadline
                        );
                    }
                }
                break;
            }
            std::thread::sleep(config.poll);
        }

        // Collect: a complete report from finishers, a salvaged partial
        // from everyone else; either way the recorded ids are done.
        let before = remaining.len();
        let mut completed = 0;
        let mut salvaged_points = 0;
        for worker in &tracked {
            let report = match complete_report(worker) {
                Some(report) => {
                    completed += 1;
                    if let Some(t) = tel {
                        t.event(
                            "coordinator.complete",
                            &[
                                ("wave", (wave as u64).into()),
                                ("worker", (worker.assignment.ordinal as u64).into()),
                                ("points", report.points.len().into()),
                            ],
                        );
                    }
                    report
                }
                None => {
                    let salvaged = salvage_stream(campaign, &worker.assignment.stream_path)?;
                    salvaged_points += salvaged.points.len();
                    if let Some(t) = tel {
                        t.event(
                            "coordinator.salvage",
                            &[
                                ("wave", (wave as u64).into()),
                                ("worker", (worker.assignment.ordinal as u64).into()),
                                ("points", salvaged.points.len().into()),
                            ],
                        );
                    }
                    if config.verbose {
                        eprintln!(
                            "coordinate: wave {wave}: salvaged {} point(s) from worker {}",
                            salvaged.points.len(),
                            worker.assignment.ordinal
                        );
                    }
                    salvaged
                }
            };
            for point in &report.points {
                remaining.remove(&point.scenario_id);
            }
            reports.push(report);
        }
        if let Some(t) = tel {
            t.span_event(
                "coordinator.wave",
                wave_t0.elapsed(),
                &[
                    ("wave", (wave as u64).into()),
                    ("workers", launched.into()),
                    ("completed", completed.into()),
                    ("killed", killed.into()),
                    ("salvaged_points", salvaged_points.into()),
                    ("redealt", remaining.len().into()),
                ],
            );
            if !remaining.is_empty() {
                let csv = remaining
                    .iter()
                    .map(usize::to_string)
                    .collect::<Vec<_>>()
                    .join(",");
                t.event(
                    "coordinator.redeal",
                    &[
                        ("wave", (wave as u64).into()),
                        ("scenarios", remaining.len().into()),
                        ("ids", csv.into()),
                    ],
                );
            }
        }
        if config.verbose {
            eprintln!(
                "coordinate: wave {wave}: {completed} completed, {killed} killed, \
                 {salvaged_points} salvaged point(s), {} scenario(s) re-dealt",
                remaining.len()
            );
        }
        waves.push(WaveRecord {
            wave,
            workers: launched,
            completed,
            killed,
            salvaged_points,
            redealt: remaining.len(),
        });
        if remaining.len() == before {
            return Err(format!(
                "wave {wave} made no progress on {} scenario(s) — every worker died before \
                 streaming a point; giving up instead of re-dealing forever",
                remaining.len()
            ));
        }
    }

    let mut merged = merge_reports(&reports)?;
    merged.coordinator = Some(CoordinatorRecord {
        workers: config.workers,
        deadline_ms: config.deadline.as_secs_f64() * 1e3,
        waves,
    });
    Ok(merged)
}

/// Reads a worker's final report, if it completed one (and was not
/// killed: a killed worker's stream is the trusted artifact — the report
/// cannot have been renamed into place after the kill).
fn complete_report(worker: &Tracked) -> Option<CampaignReport> {
    if worker.killed {
        return None;
    }
    let text = std::fs::read_to_string(&worker.assignment.report_path).ok()?;
    CampaignReport::from_json(&text).ok()
}

/// Recovers the maximally complete partial report from a killed/failed
/// worker's stream. A missing or empty stream salvages zero points
/// (which is fine — those ids are simply re-dealt); actual mid-stream
/// corruption is a real error surfaced to the caller.
fn salvage_stream(campaign: &Campaign, stream_path: &Path) -> Result<CampaignReport, String> {
    let text = std::fs::read_to_string(stream_path).unwrap_or_default();
    CampaignReport::from_json_lines(&text, &campaign.objectives)
        .map_err(|e| format!("corrupt stream {}: {e}", stream_path.display()))
}

/// Complete (newline-terminated, hence fully flushed) records in a
/// stream file — a trailing half-written line is not counted.
fn streamed_points(path: &Path) -> usize {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut lines: Vec<&str> = text.split('\n').collect();
    lines.pop(); // the tail after the last newline is unterminated
    lines.iter().filter(|line| !line.trim().is_empty()).count()
}
