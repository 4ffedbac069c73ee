//! The coordinated-campaign guarantees, end to end: a fleet with dying,
//! hanging and slow workers still converges to exactly the single-shot
//! front, re-dealing *only* the scenario ids a failed worker left
//! unfinished.
//!
//! The transports here are scripted fault models around the library's
//! [`ThreadTransport`]/[`run_worker`] building blocks: a worker that
//! streams a few points and exits without a report (a crash), and one
//! that streams a few points and hangs (a straggler caught by the
//! deadline). CI additionally exercises the real `ProcessTransport` path
//! with an actual `kill()` via `explore coordinate --chaos-kill-first`.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use noc::prelude::*;
use noc_explore::coordinate::{
    coordinate, run_worker, CoordinatorConfig, ThreadTransport, WorkerAssignment, WorkerHandle,
    WorkerStatus, WorkerTransport,
};
use noc_explore::prelude::*;
use noc_explore::CampaignReport;

/// A 4-point grid (2 workloads × 2 synthesis objectives) — big enough to
/// split across workers, small enough to run many times in a test.
fn small_campaign() -> Campaign {
    Campaign::new(
        ScenarioGrid::new()
            .workloads([
                WorkloadSpec::fixed(WorkloadFamily::Fig5),
                WorkloadSpec::new(WorkloadFamily::Tgff, 8, 8),
            ])
            .synthesis_objectives([Objective::Links, Objective::Energy]),
    )
}

/// A unique, self-cleaning work directory per test.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("noc_coord_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        WorkDir(dir)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Wraps a transport, recording every assignment it deals — the direct
/// way to assert *which ids* each wave re-dealt.
struct Recording<T> {
    inner: T,
    assignments: Arc<Mutex<Vec<WorkerAssignment>>>,
}

impl<T> Recording<T> {
    fn new(inner: T) -> Self {
        Recording {
            inner,
            assignments: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn dealt(&self) -> Vec<WorkerAssignment> {
        self.assignments.lock().unwrap().clone()
    }
}

impl<T: WorkerTransport> WorkerTransport for Recording<T> {
    fn launch(&mut self, assignment: &WorkerAssignment) -> Result<Box<dyn WorkerHandle>, String> {
        self.assignments.lock().unwrap().push(assignment.clone());
        self.inner.launch(assignment)
    }
}

/// Fault model: the first launched worker evaluates only its first
/// `partial` ids, streams them, and exits **without** a report — the
/// artifact shape a crashed machine leaves behind. Everyone else runs
/// [`run_worker`] normally.
struct CrashFirst {
    campaign: Campaign,
    partial: usize,
    launches: usize,
    hang_instead: bool,
}

struct DoneHandle;
impl WorkerHandle for DoneHandle {
    fn status(&mut self) -> WorkerStatus {
        WorkerStatus::Exited
    }
    fn kill(&mut self) {}
}

/// Reports `Exited` once the worker thread finished — the exact behavior
/// of [`ThreadTransport`]'s handles. With `hang` set the handle claims to
/// be running forever (a wedged machine): only a deadline kill ends it.
struct Join {
    thread: std::thread::JoinHandle<()>,
    hang: bool,
    killed: bool,
}
impl WorkerHandle for Join {
    fn status(&mut self) -> WorkerStatus {
        if self.killed || (!self.hang && self.thread.is_finished()) {
            WorkerStatus::Exited
        } else {
            WorkerStatus::Running
        }
    }
    fn kill(&mut self) {
        self.killed = true;
    }
}

impl WorkerTransport for CrashFirst {
    fn launch(&mut self, assignment: &WorkerAssignment) -> Result<Box<dyn WorkerHandle>, String> {
        let first = self.launches == 0;
        self.launches += 1;
        if !first {
            let campaign = self.campaign.clone();
            let assignment = assignment.clone();
            let thread = std::thread::spawn(move || {
                run_worker(&campaign, &assignment).expect("healthy worker");
            });
            return Ok(Box::new(Join {
                thread,
                hang: false,
                killed: false,
            }));
        }
        // The crashing/hanging worker: stream `partial` points, no report.
        let campaign = self.campaign.clone();
        let ids: BTreeSet<usize> = assignment.ids.iter().take(self.partial).copied().collect();
        let stream_path = assignment.stream_path.clone();
        let thread = std::thread::spawn(move || {
            let plan = campaign.plan().restrict(&ids);
            let file = std::fs::File::create(&stream_path).expect("stream file");
            let mut sink = JsonLinesSink::new(file, ObjectiveKind::DEFAULT.to_vec());
            campaign.run_plan_with_sink(plan, &mut sink);
        });
        Ok(Box::new(Join {
            thread,
            hang: self.hang_instead,
            killed: false,
        }))
    }
}

#[test]
fn thread_fleet_converges_to_the_single_shot_front() {
    let campaign = Campaign::new(ScenarioGrid::smoke());
    let single = campaign.run();
    let work = WorkDir::new("fleet");
    let config = CoordinatorConfig::new(3).work_dir(work.path());
    let mut transport = ThreadTransport::new(campaign.clone());
    let report = coordinate(&campaign, &config, &mut transport).expect("coordination");

    assert_eq!(report.front, single.front);
    assert_eq!(report.hypervolume, single.hypervolume);
    assert_eq!(report.points.len(), single.points.len());
    for (a, b) in report.points.iter().zip(&single.points) {
        assert_eq!(a.objectives, b.objectives, "point {}", a.label);
    }
    let provenance = report.coordinator.as_ref().expect("coordinator record");
    assert_eq!(provenance.workers, 3);
    assert_eq!(provenance.waves.len(), 1);
    assert_eq!(provenance.waves[0].completed, 3);
    assert_eq!((provenance.killed(), provenance.redealt()), (0, 0));

    // The merged report is a first-class interchange artifact: the
    // coordinator provenance survives the JSON round trip byte-for-byte.
    let parsed = CampaignReport::from_json(&report.to_json()).expect("parse");
    assert_eq!(parsed.coordinator, report.coordinator);
    assert_eq!(parsed.to_json(), report.to_json());
}

#[test]
fn crashed_worker_redeal_covers_exactly_the_unfinished_ids() {
    let campaign = small_campaign();
    let single = campaign.run();
    let work = WorkDir::new("crash");
    let config = CoordinatorConfig::new(2).work_dir(work.path());
    let mut transport = Recording::new(CrashFirst {
        campaign: campaign.clone(),
        partial: 1,
        launches: 0,
        hang_instead: false,
    });
    let report = coordinate(&campaign, &config, &mut transport).expect("coordination");

    // Wave 0 dealt ids 0,1 to the crasher (which finished only id 0) and
    // 2,3 to the healthy worker; wave 1 must re-deal exactly {1}.
    let dealt = transport.dealt();
    assert_eq!(dealt.len(), 3, "one re-dealt worker expected");
    assert_eq!(dealt[0].ids, vec![0, 1]);
    assert_eq!(dealt[1].ids, vec![2, 3]);
    assert_eq!(dealt[2].ids, vec![1], "only the unfinished id is re-dealt");
    assert_eq!(dealt[2].wave, 1);

    let provenance = report.coordinator.as_ref().unwrap();
    assert_eq!(provenance.waves.len(), 2);
    assert_eq!(provenance.waves[0].completed, 1);
    assert_eq!(provenance.waves[0].salvaged_points, 1);
    assert_eq!(provenance.waves[0].redealt, 1);
    assert_eq!(provenance.waves[1].redealt, 0);

    // And the moral of it all: the front never noticed the crash.
    assert_eq!(report.front, single.front);
    assert_eq!(report.points.len(), single.points.len());
    for (a, b) in report.points.iter().zip(&single.points) {
        assert_eq!(a.objectives, b.objectives, "point {}", a.label);
    }
}

#[test]
fn hung_straggler_is_killed_at_the_deadline_and_redealt() {
    let campaign = small_campaign();
    let single = campaign.run();
    let work = WorkDir::new("straggler");
    let config = CoordinatorConfig::new(2)
        .work_dir(work.path())
        .deadline(Duration::from_millis(2500));
    let mut transport = Recording::new(CrashFirst {
        campaign: campaign.clone(),
        partial: 1,
        launches: 0,
        hang_instead: true,
    });
    let report = coordinate(&campaign, &config, &mut transport).expect("coordination");

    let provenance = report.coordinator.as_ref().unwrap();
    assert_eq!(provenance.killed(), 1, "the straggler must be killed");
    assert!(provenance.waves.len() >= 2);
    assert_eq!(provenance.waves[0].killed, 1);
    // Its streamed point was salvaged, the rest re-dealt.
    assert_eq!(provenance.waves[0].salvaged_points, 1);
    assert_eq!(transport.dealt()[2].ids, vec![1]);
    assert_eq!(report.front, single.front);
}

#[test]
fn stale_artifacts_in_a_reused_work_dir_are_not_trusted() {
    let campaign = small_campaign();
    let work = WorkDir::new("stale");
    let config = CoordinatorConfig::new(2).work_dir(work.path());

    // Run 1: a healthy fleet leaves wave0_worker{0,1}.json behind.
    coordinate(
        &campaign,
        &config,
        &mut ThreadTransport::new(campaign.clone()),
    )
    .expect("first coordination");
    assert!(work.path().join("wave0_worker0.json").exists());

    // Run 2 in the SAME work dir: worker 0 crashes after one point.
    // Artifact names are deterministic, so without pre-launch clearing
    // the first run's stale wave0_worker0.json would be credited to the
    // crashed worker and its unfinished ids never re-dealt.
    let mut transport = Recording::new(CrashFirst {
        campaign: campaign.clone(),
        partial: 1,
        launches: 0,
        hang_instead: false,
    });
    let report = coordinate(&campaign, &config, &mut transport).expect("second coordination");
    let provenance = report.coordinator.as_ref().unwrap();
    assert_eq!(
        provenance.waves.len(),
        2,
        "the crash must force a re-deal despite the stale report"
    );
    assert_eq!(transport.dealt()[2].ids, vec![1]);
    assert_eq!(report.front, campaign.run().front);
}

#[test]
fn unreliable_fleet_eventually_gives_up() {
    // Every worker crashes before streaming anything: no wave can make
    // progress, and the coordinator must error out instead of spinning.
    struct AlwaysCrash;
    impl WorkerTransport for AlwaysCrash {
        fn launch(&mut self, _: &WorkerAssignment) -> Result<Box<dyn WorkerHandle>, String> {
            Ok(Box::new(DoneHandle))
        }
    }
    let campaign = small_campaign();
    let work = WorkDir::new("giveup");
    let config = CoordinatorConfig::new(2).work_dir(work.path());
    let err = coordinate(&campaign, &config, &mut AlwaysCrash).unwrap_err();
    assert!(err.contains("no progress"), "{err}");
}
