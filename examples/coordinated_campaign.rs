//! A coordinated multi-worker campaign that loses a worker mid-run and
//! still folds to the single-shot front:
//!
//! ```text
//! cargo run --release --example coordinated_campaign
//! ```
//!
//! The coordinator deals the grid to two workers (in-process threads
//! here; the `explore coordinate` CLI uses real OS processes). Fault
//! injection kills worker 0 once it has streamed one point. The
//! coordinator salvages the points that worker flushed to its JSON-Lines
//! stream, re-deals only its unfinished scenario ids in a second wave, and
//! merges every report into the exact single-shot Pareto front.

use noc::prelude::*;
use noc_explore::coordinate::{coordinate, ChaosKill, CoordinatorConfig, ThreadTransport};
use noc_explore::prelude::*;

fn main() {
    let campaign = Campaign::new(
        ScenarioGrid::new()
            .workloads([
                WorkloadSpec::fixed(WorkloadFamily::Fig5),
                WorkloadSpec::new(WorkloadFamily::Tgff, 8, 8),
                WorkloadSpec::new(WorkloadFamily::PajekPlanted, 10, 3),
            ])
            .synthesis_objectives([Objective::Links, Objective::Energy]),
    );
    let single = campaign.run();
    println!(
        "single-shot reference: {} points, front {:?}\n",
        single.points.len(),
        single.front
    );

    let work_dir = std::env::temp_dir().join(format!("coordinated_demo_{}", std::process::id()));
    let config = CoordinatorConfig::new(2)
        .work_dir(&work_dir)
        .chaos(ChaosKill::first_worker());
    let mut transport = ThreadTransport::new(campaign.clone());
    let report = coordinate(&campaign, &config, &mut transport).expect("coordination");

    let provenance = report.coordinator.as_ref().expect("provenance");
    for wave in &provenance.waves {
        println!(
            "wave {}: {} worker(s), {} completed, {} killed, {} point(s) salvaged, {} re-dealt",
            wave.wave,
            wave.workers,
            wave.completed,
            wave.killed,
            wave.salvaged_points,
            wave.redealt
        );
    }
    assert!(provenance.killed() >= 1, "fault injection killed no worker");
    assert!(
        provenance.redealt() >= 1,
        "the killed worker left nothing to re-deal"
    );
    assert_eq!(
        report.front, single.front,
        "fleet diverged from single-shot"
    );
    println!("front == single-shot front");

    std::fs::remove_dir_all(&work_dir).ok();
}
