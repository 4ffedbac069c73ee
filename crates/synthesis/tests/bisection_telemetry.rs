//! The bisection's telemetry: one `graph.bisection` span per
//! `Architecture::stats` call, and work counters that show which path ran
//! (exact-search nodes up to 20 nodes, Kernighan–Lin passes above). The
//! process-wide handle installs once per process, so this file holds a
//! single test.

use noc_energy::{EnergyModel, TechnologyProfile};
use noc_floorplan::Placement;
use noc_graph::algo::EXACT_BISECTION_MAX_NODES;
use noc_primitives::CommLibrary;
use noc_synthesis::{Architecture, CostModel, Decomposer, Objective};
use noc_telemetry::{EventKind, Field, Telemetry};
use noc_workloads::scenarios::planted_sized;

/// The glued architecture of planted Figure 4b application `n` (seed 0)
/// on the square grid placement.
fn planted_architecture(n: usize) -> Architecture {
    let acg = planted_sized(n, 0);
    let library = CommLibrary::standard();
    let side = (n as f64).sqrt().ceil() as usize;
    let placement = Placement::grid(side, side, 2.0, 2.0);
    let cost = CostModel::new(
        EnergyModel::new(TechnologyProfile::cmos_180nm()),
        placement.clone(),
        Objective::Links,
    );
    let best = Decomposer::new(&acg, &library, cost)
        .run()
        .best
        .expect("an unconstrained search reaches a leaf");
    Architecture::synthesize(&acg, &library, &best, placement)
}

#[test]
fn one_stats_call_records_its_span_and_work_counters() {
    // Built before the handle is installed, so only `stats` is traced.
    let exact = planted_architecture(EXACT_BISECTION_MAX_NODES);
    let kl = planted_architecture(25);
    let untraced = (exact.stats(), kl.stats());

    assert!(noc_telemetry::install(Telemetry::recording()));
    let tel = noc_telemetry::active().expect("handle just installed");
    let counters = || {
        [
            tel.counter_value("graph.bisection.exact_nodes"),
            tel.counter_value("graph.bisection.kl_passes"),
        ]
    };
    // The n ≤ 20 stats call, then the n = 25 one: each reads its span and
    // the counters it moved.
    let mut traced = Vec::new();
    for (arch, mode) in [(&exact, "exact"), (&kl, "kl")] {
        let before = counters();
        traced.push(arch.stats());
        let after = counters();
        let spans: Vec<_> = tel
            .drain()
            .into_iter()
            .filter(|e| e.kind == EventKind::Span && e.name == "graph.bisection")
            .collect();
        assert_eq!(spans.len(), 1, "{mode}: one span per stats call");
        assert_eq!(spans[0].field("mode"), Some(&Field::Str(mode.to_string())));
        let [nodes, passes] = [after[0] - before[0], after[1] - before[1]];
        if mode == "exact" {
            assert!(nodes > 0, "the exact search entered no node");
            assert_eq!(passes, 0, "the exact path runs no Kernighan–Lin");
        } else {
            assert!(passes > 0, "Kernighan–Lin ran no pass");
            assert_eq!(nodes, 0, "the Kernighan–Lin path runs no exact search");
        }
    }
    assert_eq!(
        traced,
        [untraced.0, untraced.1],
        "tracing changed the stats"
    );
}
