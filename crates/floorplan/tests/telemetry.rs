//! The floorplanner's telemetry: one `floorplan.run` span per run and
//! move counters that account for the exact skips, the reused costs and
//! the reused slot geometry.
//! The process-wide handle installs once per process, so this file holds
//! a single test.

use noc_floorplan::{Core, SlicingFloorplanner};
use noc_telemetry::{Field, Telemetry};

const COUNTERS: [&str; 6] = [
    "floorplan.temperature_steps",
    "floorplan.moves_proposed",
    "floorplan.moves_accepted",
    "floorplan.evaluations",
    "floorplan.cost_reuses",
    "floorplan.geometry_reuses",
];

#[test]
fn a_traced_run_records_its_span_and_move_counters() {
    let squares = SlicingFloorplanner::new(
        (0..6)
            .map(|i| Core::new(format!("s{i}"), 1.0, 1.0))
            .collect(),
    )
    .seed(4)
    .wirelength(0.1, vec![(0, 5, 2.0), (1, 4, 1.0)]);
    // No two footprints are equal under any rotation, so no move skips.
    let rectangles = SlicingFloorplanner::new(
        (0..5)
            .map(|i| Core::new(format!("r{i}"), 1.0 + i as f64, 0.5))
            .collect(),
    )
    .seed(4);
    let untraced = (squares.run(), rectangles.run());

    assert!(noc_telemetry::install(Telemetry::recording()));
    let tel = noc_telemetry::active().expect("handle just installed");
    let counters = || COUNTERS.map(|name| tel.counter_value(name));

    assert_eq!(squares.run(), untraced.0, "tracing changed the placement");
    let [steps, proposed, accepted, evaluations, reuses, geometry_reuses] = counters();
    assert!(steps > 0);
    assert!(
        proposed <= steps * 30 * 6,
        "at most 30 moves per core per step"
    );
    assert!(0 < accepted && accepted <= proposed);
    assert!(
        evaluations < proposed,
        "identical squares skip every rotation and operand swap"
    );
    assert!(
        reuses > 0,
        "a move proposed again in one state reuses its cost"
    );
    assert!(
        geometry_reuses > 0,
        "a move proposed again after an equal-footprint swap reuses its slot geometry"
    );

    assert_eq!(
        rectangles.run(),
        untraced.1,
        "tracing changed the placement"
    );
    let after = counters();
    assert_eq!(
        after[5], geometry_reuses,
        "no shape survives an accept when no footprints match"
    );
    assert_eq!(
        (after[3] - evaluations) + (after[4] - reuses),
        after[1] - proposed,
        "every move is evaluated or reused when no footprints match"
    );

    let spans: Vec<_> = tel
        .drain()
        .into_iter()
        .filter(|e| e.name == "floorplan.run")
        .collect();
    assert_eq!(spans.len(), 2);
    assert!(spans.iter().all(|e| e.dur_us.is_some()));
    assert_eq!(
        spans[0].fields,
        vec![
            ("cores".to_string(), Field::U64(6)),
            ("connections".to_string(), Field::U64(2)),
        ]
    );
}
