//! Golden equivalence suite: the event-driven engine must be
//! **bit-identical** to the reference rescan loop preserved in
//! [`noc_sim::reference`] — every `SimReport` field (cycles, latencies,
//! flit counts, energy joules down to the last f64 bit), every error
//! variant at its exact firing cycle, across the model × traffic
//! matrix.

use std::collections::BTreeMap;

use noc_energy::{EnergyModel, TechnologyProfile};
use noc_graph::{DiGraph, NodeId};
use noc_sim::sweep::{sweep, LoadPoint, SweepConfig};
use noc_sim::{
    reference, traffic, NocModel, Phase, SimConfig, SimError, SimReport, Simulator, TrafficEvent,
};
use proptest::prelude::*;

fn energy() -> EnergyModel {
    EnergyModel::new(TechnologyProfile::cmos_180nm())
}

/// Full-struct equality plus exact bit patterns of every f64 field (f64
/// `==` admits `-0.0 == 0.0`; "bit-identical" must not).
fn assert_bit_identical(new: &SimReport, old: &SimReport) {
    assert_eq!(new, old);
    assert_eq!(
        new.avg_packet_latency_cycles.to_bits(),
        old.avg_packet_latency_cycles.to_bits()
    );
    assert_eq!(
        new.avg_network_latency_cycles.to_bits(),
        old.avg_network_latency_cycles.to_bits()
    );
    assert_eq!(
        new.energy.switch.joules().to_bits(),
        old.energy.switch.joules().to_bits()
    );
    assert_eq!(
        new.energy.link.joules().to_bits(),
        old.energy.link.joules().to_bits()
    );
    assert_eq!(
        new.energy.idle.joules().to_bits(),
        old.energy.idle.joules().to_bits()
    );
}

/// Runs `events` through both cores and demands identical outcomes.
fn check(model: &NocModel, cfg: SimConfig, events: &[TrafficEvent]) {
    let new = Simulator::new(model, cfg, energy()).run(events.to_vec());
    let old = reference::run_reference(model, &cfg, &energy(), events);
    match (new, old) {
        (Ok(n), Ok(o)) => assert_bit_identical(&n, &o),
        (n, o) => assert_eq!(n, o, "error outcomes must match exactly"),
    }
}

/// The synthesized ("custom glued") architecture of the wormhole suite:
/// four cores in a communication cycle, decomposed and glued back with
/// deadlock-free VC assignments, then filled to all pairs.
fn glued_model() -> NocModel {
    use noc_graph::{Acg, EdgeDemand};
    use noc_synthesis::{Architecture, CostModel, Decomposer, Objective};

    let mut g = DiGraph::new(4);
    for s in 0..4usize {
        g.add_edge(NodeId(s), NodeId((s + 2) % 4));
    }
    let acg = Acg::from_graph_uniform(g, EdgeDemand::from_volume(512.0));
    let lib = noc_primitives::CommLibrary::standard();
    let placement = noc_floorplan::Placement::grid(2, 2, 1.0, 1.0);
    let cm = CostModel::new(energy(), placement.clone(), Objective::Links);
    let d = Decomposer::new(&acg, &lib, cm).run().best.unwrap();
    let mut arch = Architecture::synthesize(&acg, &lib, &d, placement);
    arch.fill_all_pairs();
    NocModel::from_architecture(&arch)
}

#[test]
fn mesh_uniform_random_matrix() {
    let configs = [
        SimConfig::default(),
        SimConfig {
            buffer_flits: 1,
            ..SimConfig::default()
        },
        SimConfig {
            flit_bits: 16,
            header_flits: 2,
            ..SimConfig::default()
        },
    ];
    for model in [NocModel::mesh(4, 4, 1.0), NocModel::mesh(5, 3, 2.0)] {
        for cfg in configs {
            for seed in [7, 42] {
                let events = traffic::uniform_random(model.node_count(), 150, 96, seed);
                check(&model, cfg, &events);
            }
        }
    }
}

#[test]
fn o1turn_stochastic_routes_match() {
    let model = NocModel::mesh_o1turn(4, 4, 1.0, 3);
    let events = traffic::uniform_random(16, 200, 128, 11);
    check(&model, SimConfig::default(), &events);
    // Saturating load exercises VC contention on both route layers.
    let heavy = traffic::bernoulli(16, 300, 0.45, 64, 5);
    check(&model, SimConfig::default(), &heavy);
}

#[test]
fn glued_architecture_matches_under_pair_traffic() {
    let model = glued_model();
    let cfg = SimConfig {
        buffer_flits: 1,
        stall_cycles: 1000,
        ..SimConfig::default()
    };
    let cyclic: Vec<TrafficEvent> = (0..4)
        .map(|s| TrafficEvent::new(0, NodeId(s), NodeId((s + 2) % 4), 512))
        .collect();
    check(&model, cfg, &cyclic);
    let pairs = vec![(NodeId(0), NodeId(2)), (NodeId(3), NodeId(1))];
    let bern = traffic::bernoulli_pairs(&pairs, 250, 0.3, 96, 9);
    check(&model, SimConfig::default(), &bern);
}

#[test]
fn release_gaps_skip_idle_cycles_with_identical_reports() {
    // Bursts separated by long idle gaps: the engine jumps the gaps via
    // its release heap; makespan, latency and energy (which integrates
    // idle power over *all* cycles) must still match the cycle-by-cycle
    // reference exactly.
    let model = NocModel::mesh(3, 3, 1.0);
    let mut events = Vec::new();
    for burst in 0..4u64 {
        let at = burst * 2_000;
        events.push(TrafficEvent::new(at, NodeId(0), NodeId(8), 256));
        events.push(TrafficEvent::new(at + 3, NodeId(4), NodeId(2), 64));
    }
    check(&model, SimConfig::default(), &events);
    // Same but on an FPGA-style profile where idle energy is nonzero, so
    // a miscounted makespan would show up in joules too.
    let fpga = EnergyModel::new(TechnologyProfile::fpga_virtex2());
    let new = Simulator::new(&model, SimConfig::default(), fpga.clone())
        .run(events.clone())
        .unwrap();
    let old = reference::run_reference(&model, &SimConfig::default(), &fpga, &events).unwrap();
    assert_bit_identical(&new, &old);
}

#[test]
fn deadlock_errors_match_including_blocked_snapshots() {
    // Cyclic routes on a single VC with tiny buffers deadlock; both cores
    // must report the same cycle, undelivered count and blocked-buffer
    // snapshot.
    let topo = DiGraph::cycle(4);
    let mut routes = BTreeMap::new();
    for s in 0..4usize {
        let d = (s + 2) % 4;
        routes.insert(
            (NodeId(s), NodeId(d)),
            vec![NodeId(s), NodeId((s + 1) % 4), NodeId(d)],
        );
    }
    let model = NocModel::from_parts("cyclic", topo, routes, BTreeMap::new(), 1.0);
    let cfg = SimConfig {
        buffer_flits: 1,
        stall_cycles: 200,
        ..SimConfig::default()
    };
    let events: Vec<TrafficEvent> = (0..4)
        .map(|s| TrafficEvent::new(0, NodeId(s), NodeId((s + 2) % 4), 512))
        .collect();
    let new = Simulator::new(&model, cfg, energy())
        .run(events.clone())
        .unwrap_err();
    let old = reference::run_reference(&model, &cfg, &energy(), &events).unwrap_err();
    assert_eq!(new, old);
    match new {
        SimError::Deadlock { blocked, .. } => {
            assert!(
                !blocked.is_empty(),
                "a real buffer deadlock must name the blocked (channel, VC)s"
            );
            for b in &blocked {
                assert!(b.occupancy > 0);
            }
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn ideal_fidelity_is_the_bit_identical_compatibility_config() {
    // The compatibility guarantee of the router-fidelity axis: a config
    // that *explicitly* selects `RouterFidelity::Ideal` produces reports
    // bit-identical to both a default config (which carries the same
    // fidelity implicitly) and the preserved reference loop, across the
    // model × traffic matrix. The credit pipeline must never leak into
    // the ideal path.
    use noc_sim::RouterFidelity;
    let mesh = NocModel::mesh(4, 4, 1.0);
    let o1 = NocModel::mesh_o1turn(4, 4, 1.0, 3);
    let glued = glued_model();
    let glued_pairs = vec![(NodeId(0), NodeId(2)), (NodeId(3), NodeId(1))];
    let cases: Vec<(&NocModel, Vec<TrafficEvent>)> = vec![
        (&mesh, traffic::uniform_random(16, 150, 96, 7)),
        (&mesh, traffic::bernoulli(16, 200, 0.35, 64, 3)),
        (&o1, traffic::uniform_random(16, 200, 128, 11)),
        (
            &glued,
            traffic::bernoulli_pairs(&glued_pairs, 250, 0.3, 96, 9),
        ),
    ];
    for (model, events) in &cases {
        let explicit = SimConfig {
            router: RouterFidelity::Ideal,
            ..SimConfig::default()
        };
        // Explicit Ideal ≡ reference (every f64 down to the bit).
        check(model, explicit, events);
        // Explicit Ideal ≡ implicit default-config engine run.
        let a = Simulator::new(model, explicit, energy())
            .run(events.clone())
            .unwrap();
        let b = Simulator::new(model, SimConfig::default(), energy())
            .run(events.clone())
            .unwrap();
        assert_bit_identical(&a, &b);
    }
    // Error outcomes too: the cyclic-route deadlock fires at the same
    // cycle with the same snapshot under an explicit Ideal config.
    let topo = DiGraph::cycle(4);
    let mut routes = BTreeMap::new();
    for s in 0..4usize {
        let d = (s + 2) % 4;
        routes.insert(
            (NodeId(s), NodeId(d)),
            vec![NodeId(s), NodeId((s + 1) % 4), NodeId(d)],
        );
    }
    let cyclic = NocModel::from_parts("cyclic", topo, routes, BTreeMap::new(), 1.0);
    let cfg = SimConfig {
        buffer_flits: 1,
        stall_cycles: 200,
        router: RouterFidelity::Ideal,
        ..SimConfig::default()
    };
    let events: Vec<TrafficEvent> = (0..4)
        .map(|s| TrafficEvent::new(0, NodeId(s), NodeId((s + 2) % 4), 512))
        .collect();
    check(&cyclic, cfg, &events);
}

#[test]
fn watchdog_and_release_gap_stalls_match() {
    let model = NocModel::mesh(4, 4, 1.0);
    // Watchdog: budget far below the drain time.
    let cfg = SimConfig {
        max_cycles: 3,
        ..SimConfig::default()
    };
    let events = traffic::uniform_random(16, 50, 256, 1);
    check(&model, cfg, &events);
    // Watchdog during an idle gap: the skip must not jump past the cap.
    let gap_cfg = SimConfig {
        max_cycles: 500,
        ..SimConfig::default()
    };
    let gapped = vec![TrafficEvent::new(900, NodeId(0), NodeId(5), 64)];
    check(&model, gap_cfg, &gapped);
    // Stall detector during an idle gap (release beyond stall_cycles):
    // the reference loop calls this deadlock, so the engine must too.
    let stall_cfg = SimConfig {
        stall_cycles: 100,
        ..SimConfig::default()
    };
    let late = vec![TrafficEvent::new(5_000, NodeId(1), NodeId(2), 64)];
    check(&model, stall_cfg, &late);
}

/// Replicates the sweep's ramp and cutoff on top of the reference core:
/// the oracle for `sweep()`.
fn reference_sweep(
    model: &NocModel,
    config: &SweepConfig,
    energy: &EnergyModel,
) -> Result<Vec<LoadPoint>, SimError> {
    let mut points = Vec::new();
    let mut zero_load: Option<(f64, f64)> = None;
    for &rate in &config.rates {
        let events = match &config.pairs {
            Some(pairs) => traffic::bernoulli_pairs(
                pairs,
                config.duration_cycles,
                rate,
                config.payload_bits,
                config.seed,
            ),
            None => traffic::bernoulli(
                model.node_count(),
                config.duration_cycles,
                rate,
                config.payload_bits,
                config.seed,
            ),
        };
        let report = reference::run_reference(model, &config.sim, energy, &events)?;
        let point = LoadPoint {
            injection_rate: rate,
            avg_latency_cycles: report.avg_packet_latency_cycles,
            throughput_bits_per_cycle: report.throughput_bits_per_cycle(),
            packets: report.packets_delivered,
            energy_joules: report.energy.total().joules(),
        };
        let latency = point.avg_latency_cycles;
        let delivered = point.packets > 0;
        points.push(point);
        if delivered && zero_load.is_none_or(|(anchor_rate, _)| rate < anchor_rate) {
            zero_load = Some((rate, latency));
        }
        if let (Some(cutoff), Some((_, baseline))) = (config.saturation_cutoff, zero_load) {
            if latency > cutoff * baseline {
                break;
            }
        }
    }
    Ok(points)
}

#[test]
fn sweeps_match_reference_across_thread_counts_and_cutoffs() {
    let mesh = NocModel::mesh(4, 4, 1.0);
    let o1 = NocModel::mesh_o1turn(4, 4, 1.0, 3);
    let glued = glued_model();
    let glued_pairs = vec![(NodeId(0), NodeId(2)), (NodeId(1), NodeId(3))];
    for (model, pairs) in [(&mesh, None), (&o1, None), (&glued, Some(glued_pairs))] {
        for cutoff in [None, Some(2.0)] {
            let config = SweepConfig {
                rates: vec![0.02, 0.45, 0.55, 0.65],
                duration_cycles: 250,
                saturation_cutoff: cutoff,
                pairs: pairs.clone(),
                ..Default::default()
            };
            let oracle = reference_sweep(model, &config, &energy()).unwrap();
            let got = sweep(model, &config, &energy()).unwrap();
            assert_eq!(got.len(), oracle.len(), "cutoff={cutoff:?}");
            for (g, o) in got.iter().zip(&oracle) {
                assert_eq!(g.injection_rate, o.injection_rate);
                assert_eq!(g.packets, o.packets);
                assert_eq!(
                    g.avg_latency_cycles.to_bits(),
                    o.avg_latency_cycles.to_bits()
                );
                assert_eq!(
                    g.throughput_bits_per_cycle.to_bits(),
                    o.throughput_bits_per_cycle.to_bits()
                );
                assert_eq!(g.energy_joules.to_bits(), o.energy_joules.to_bits());
            }
        }
    }
}

#[test]
fn phased_runs_match_a_reference_fold() {
    let model = NocModel::mesh(2, 2, 1.0);
    let e = |s: usize, d: usize| TrafficEvent::new(0, NodeId(s), NodeId(d), 64);
    let phases = vec![
        Phase {
            label: "shift".into(),
            compute_cycles: 12,
            events: vec![e(0, 1), e(1, 3)],
        },
        Phase {
            label: "mix".into(),
            compute_cycles: 7,
            events: vec![e(3, 0), e(2, 1), e(0, 2)],
        },
        Phase {
            label: "quiet".into(),
            compute_cycles: 42,
            events: Vec::new(),
        },
    ];
    let report = Simulator::new(&model, SimConfig::default(), energy())
        .run_phases(&phases)
        .unwrap();
    // Fold the same phases through the reference core.
    let mut comm = 0u64;
    for (phase, got) in phases.iter().zip(&report.phase_reports) {
        let old = reference::run_reference(&model, &SimConfig::default(), &energy(), &phase.events)
            .unwrap();
        assert_bit_identical(got, &old);
        comm += old.total_cycles;
    }
    assert_eq!(report.comm_cycles, comm);
    assert_eq!(report.compute_cycles, 61);
    assert_eq!(report.total_cycles, comm + 61);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The active-set property: over random meshes, loads, buffer depths
    /// and release patterns (including long idle gaps), the event-driven
    /// engine reports exactly what the cycle-by-cycle reference loop
    /// reports. Identical `total_cycles` and flit counts mean the active
    /// sets never skipped a cycle in which a flit could move — a skipped
    /// movable cycle would stretch the makespan or drop a grant.
    #[test]
    fn random_workloads_are_bit_identical(
        cols in 2usize..=4,
        rows in 1usize..=3,
        o1turn in proptest::bool::ANY,
        buffer_flits in 1usize..=4,
        payload in proptest::sample::select(vec![16u64, 64, 256]),
        seed in 0u64..1_000,
        rate in 0.05f64..0.6,
        gap in proptest::sample::select(vec![0u64, 3_000]),
    ) {
        let model = if o1turn && cols * rows > 1 {
            NocModel::mesh_o1turn(cols, rows, 1.0, seed)
        } else {
            NocModel::mesh(cols, rows, 1.0)
        };
        let cfg = SimConfig { buffer_flits, ..SimConfig::default() };
        let mut events = traffic::bernoulli(model.node_count(), 60, rate, payload, seed);
        // Optionally push a delayed straggler to exercise idle skipping.
        if gap > 0 && model.node_count() > 1 {
            events.push(TrafficEvent::new(gap, NodeId(0), NodeId(model.node_count() - 1), payload));
        }
        let new = Simulator::new(&model, cfg, energy()).run(events.clone());
        let old = reference::run_reference(&model, &cfg, &energy(), &events);
        match (new, old) {
            (Ok(n), Ok(o)) => {
                prop_assert_eq!(&n, &o);
                prop_assert_eq!(n.energy.switch.joules().to_bits(), o.energy.switch.joules().to_bits());
                prop_assert_eq!(n.energy.link.joules().to_bits(), o.energy.link.joules().to_bits());
            }
            (n, o) => prop_assert_eq!(n, o),
        }
    }
}
