//! End-to-end pipeline integration tests spanning every crate:
//! ACG -> floorplan -> decomposition -> architecture -> simulation.

use noc::graph::algo;
use noc::prelude::*;
use noc::sim::traffic;
use noc::workloads::{automotive_18, pajek, tgff, TgffConfig, WorkloadFamily};

/// Runs the whole flow and simulates one ACG iteration on the result.
fn flow_and_simulate(acg: Acg) -> (noc::FlowResult, noc::sim::SimReport) {
    let result = SynthesisFlow::new(acg.clone())
        .seed(5)
        .run()
        .expect("flow succeeds");
    let model = result.noc_model();
    let energy = EnergyModel::new(TechnologyProfile::cmos_180nm());
    let report = Simulator::new(&model, SimConfig::default(), energy)
        .run(traffic::acg_iteration(&acg))
        .expect("all ACG pairs are routable on the synthesized network");
    (result, report)
}

#[test]
fn gossip_application_end_to_end() {
    let acg = Acg::from_graph_uniform(DiGraph::complete(4), EdgeDemand::new(64.0, 1.0e6));
    let (result, report) = flow_and_simulate(acg);
    assert_eq!(result.decomposition.matchings.len(), 1);
    assert_eq!(report.packets_delivered, 12);
    assert_eq!(report.flits_injected, report.flits_ejected);
}

#[test]
fn automotive_benchmark_end_to_end() {
    let acg = automotive_18();
    let (result, report) = flow_and_simulate(acg.clone());
    // Every ACG edge is covered exactly once across matches + remainder.
    assert_eq!(
        result.decomposition.all_edges(&CommLibrary::standard()),
        acg.graph().edge_vec()
    );
    assert_eq!(report.packets_delivered, acg.graph().edge_count());
    // The ECU fan-out must have matched at least one broadcast primitive.
    assert!(result
        .decomposition
        .matchings
        .iter()
        .any(|m| m.label.starts_with('G')));
}

#[test]
fn planted_benchmarks_end_to_end() {
    for seed in 0..5 {
        let acg = pajek::planted(&pajek::PlantedConfig {
            n: 14,
            seed,
            ..pajek::PlantedConfig::default()
        });
        if acg.graph().edge_count() == 0 {
            continue;
        }
        let (result, report) = flow_and_simulate(acg.clone());
        assert!(result.decomposition.total_cost.value() > 0.0, "seed {seed}");
        assert_eq!(report.packets_delivered, acg.graph().edge_count());
    }
}

#[test]
fn tgff_suite_end_to_end() {
    for tasks in [6usize, 10, 14] {
        let acg = tgff(&TgffConfig {
            tasks,
            seed: 2 * tasks as u64,
            ..TgffConfig::default()
        });
        let (result, report) = flow_and_simulate(acg.clone());
        assert_eq!(
            result.decomposition.all_edges(&CommLibrary::standard()),
            acg.graph().edge_vec(),
            "tasks = {tasks}"
        );
        assert_eq!(report.packets_delivered, acg.graph().edge_count());
    }
}

#[test]
fn extended_library_reduces_or_matches_cost() {
    // A graph with an 8-gossip: the extended library (with MGG8) must do at
    // least as well as the standard one under the Links objective.
    let acg = Acg::from_graph_uniform(DiGraph::complete(8), EdgeDemand::from_volume(8.0));
    let std_cost = SynthesisFlow::new(acg.clone())
        .placement(Placement::grid(3, 3, 2.0, 2.0))
        .run()
        .unwrap()
        .decomposition
        .total_cost
        .value();
    let ext_cost = SynthesisFlow::new(acg)
        .placement(Placement::grid(3, 3, 2.0, 2.0))
        .library(CommLibrary::extended())
        .run()
        .unwrap()
        .decomposition
        .total_cost
        .value();
    assert!(
        ext_cost <= std_cost,
        "extended {ext_cost} should beat standard {std_cost}"
    );
}

#[test]
fn custom_architecture_simulates_arbitrary_traffic_after_fill() {
    // After fill_all_pairs, uniform random traffic runs on the custom
    // topology (when it is strongly connected, as gossip networks are).
    let acg = Acg::from_graph_uniform(DiGraph::complete(4), EdgeDemand::from_volume(8.0));
    let result = SynthesisFlow::new(acg).run().unwrap();
    let model = result.noc_model();
    let events = traffic::uniform_random(4, 100, 64, 3);
    let energy = EnergyModel::new(TechnologyProfile::cmos_180nm());
    let report = Simulator::new(&model, SimConfig::default(), energy)
        .run(events)
        .unwrap();
    assert_eq!(report.packets_delivered, 100);
}

#[test]
fn filled_routes_on_the_full_grid_architectures_are_per_pair_shortest_paths() {
    // The `explore --full` grid's 13 applications, synthesized as its
    // links-objective points are (seed 1, 1 mm² cores).
    let mut apps = vec![
        WorkloadFamily::Fig5.instantiate(0, 0),
        WorkloadFamily::Automotive.instantiate(0, 0),
        WorkloadFamily::Multimedia.instantiate(0, 0),
    ];
    for seed in [1, 2] {
        for n in [8, 12, 15] {
            apps.push(WorkloadFamily::Tgff.instantiate(n, seed));
        }
        for n in [10, 16] {
            apps.push(WorkloadFamily::PajekPlanted.instantiate(n, seed));
        }
    }
    assert_eq!(apps.len(), 13);
    for acg in apps {
        let n = acg.core_count();
        let arch = SynthesisFlow::new(acg)
            .seed(1)
            .core_area_mm2(1.0)
            .run()
            .expect("unconstrained synthesis always succeeds")
            .architecture;
        let mut filled = arch.clone();
        let added = filled.fill_all_pairs();
        let mut missing = 0;
        for s in arch.topology().nodes() {
            for d in arch.topology().nodes() {
                if s == d {
                    continue;
                }
                let expected = match arch.route(s, d) {
                    Some(route) => Some(route.to_vec()),
                    None => {
                        missing += 1;
                        algo::shortest_path(arch.topology(), s, d)
                    }
                };
                assert_eq!(
                    filled.route(s, d),
                    expected.as_deref(),
                    "{n} cores: {s} -> {d}"
                );
            }
        }
        assert!(
            0 < added && added <= missing,
            "{n} cores: {added} of {missing}"
        );
    }
}

#[test]
fn bandwidth_constraints_propagate_through_flow() {
    // Demands that oversubscribe a tiny-link technology must be rejected
    // when constraints are enforced.
    let tech = TechnologyProfile::builder("tiny")
        .link_bandwidth_bps(1.0e3)
        .build();
    let acg = Acg::from_graph_uniform(DiGraph::complete(4), EdgeDemand::new(64.0, 1.0e6));
    let err = SynthesisFlow::new(acg)
        .technology(tech)
        .enforce_constraints()
        .run()
        .unwrap_err();
    assert!(matches!(err, noc::FlowError::NoLegalDecomposition { .. }));
}

#[test]
fn energy_and_links_objectives_both_complete() {
    let acg = pajek::fig5_benchmark();
    for objective in [Objective::Links, Objective::Energy] {
        let result = SynthesisFlow::new(acg.clone())
            .objective(objective)
            .run()
            .unwrap();
        assert!(result.decomposition.remainder.is_edgeless());
    }
}

#[test]
fn phased_aes_traffic_runs_on_both_architectures() {
    let comparison = AesPrototype::new().run().unwrap();
    // 552 messages per block on both.
    assert_eq!(comparison.mesh.packets_delivered, 552);
    assert_eq!(comparison.custom.packets_delivered, 552);
    // Identical compute cycles (same engine), different comm cycles.
    assert_eq!(
        comparison.mesh.compute_cycles,
        comparison.custom.compute_cycles
    );
    assert_ne!(comparison.mesh.comm_cycles, comparison.custom.comm_cycles);
}

#[test]
fn multimedia_benchmark_end_to_end() {
    // The VOPD-style decoder: pipeline-dominated traffic with a control
    // broadcast; the flow must produce a mostly point-to-point architecture
    // with single-hop routes for the heavy stream edges.
    let acg = noc::workloads::multimedia_16();
    let (result, report) = flow_and_simulate(acg.clone());
    assert_eq!(report.packets_delivered, acg.graph().edge_count());
    let stats = result.architecture.stats();
    assert!(stats.avg_route_hops <= 1.5, "stream edges should be direct");
    // The heavy vop-mem -> vop-rec edge gets a dedicated link.
    let route = result
        .architecture
        .route(NodeId(9), NodeId(7))
        .expect("reference-frame route exists");
    assert_eq!(route.len(), 2, "heavy stream edge should be one hop");
}
