//! `fig4_fixed`: the Figure 4a and 4b instances on the given grid
//! placement, as the paper times them, through decompose → glue →
//! constraints → verify. The floorplanner and the simulator stay idle.

use std::time::Instant;

use noc::graph::Acg;
use noc::prelude::*;
use noc::synthesis::constraints;
use noc::workloads::{automotive_18, scenarios::planted_sized};
use noc::FlowResult;

use crate::{golden, shuffle, Pass, Trace, Workload};

/// Figure 4a: TGFF task graphs of these sizes (generator seed = size).
const FIG4A_SIZES: [usize; 6] = [5, 8, 10, 12, 15, 18];
/// Figure 4b: planted Pajek graphs of these sizes, generator seeds 0..9.
const FIG4B_SIZES: [usize; 7] = [10, 15, 20, 25, 30, 35, 40];
const FIG4B_SEEDS: u64 = 9;

/// The square grid the core coordinates are given on.
pub fn grid_placement(cores: usize) -> Placement {
    let side = (cores as f64).sqrt().ceil() as usize;
    Placement::grid(side, side, 2.0, 2.0)
}

/// Decompose, glue and check one application on a given placement, each
/// layer timed on its own. `constraints::check` computes the bisection
/// inside; `Architecture::stats` is timed beside it on the same
/// architecture, and that time is split out of the check as the
/// bisection's share.
pub fn synthesize(
    tr: &mut Trace,
    acg: &Acg,
    library: &CommLibrary,
    technology: &TechnologyProfile,
    objective: Objective,
    engine: &DecomposerConfig,
    placement: Placement,
) -> Option<FlowResult> {
    let cost = CostModel::new(
        EnergyModel::new(technology.clone()),
        placement.clone(),
        objective,
    );
    let outcome = tr.time("decompose", || {
        Decomposer::new(acg, library, cost)
            .config(engine.clone())
            .run()
    });
    let stats = outcome.stats;
    tr.count("decompose.nodes_visited", stats.nodes_visited as f64);
    tr.count("decompose.leaves_evaluated", stats.leaves_evaluated as f64);
    tr.count("decompose.branches_pruned", stats.branches_pruned as f64);
    tr.count("decompose.cache_hits", stats.cache_hits as f64);
    tr.count("decompose.cache_misses", stats.cache_misses as f64);
    let decomposition = outcome.best?;
    let architecture = tr.time("glue", || {
        Architecture::synthesize(acg, library, &decomposition, placement.clone())
    });

    let t0 = Instant::now();
    let report = constraints::check(&architecture, acg, technology);
    let check_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    std::hint::black_box(architecture.stats());
    let stats_ms = t0.elapsed().as_secs_f64() * 1e3;
    tr.add_ms("constraints", (check_ms - stats_ms).max(0.0));
    tr.add_ms("bisection", check_ms.min(stats_ms));
    tr.add_ms(crate::trace::PROBE, stats_ms);

    Some(FlowResult {
        decomposition,
        architecture,
        placement,
        stats,
        constraints: report,
    })
}

struct Instance {
    label: String,
    acg: Acg,
    placement: Placement,
}

pub struct Fig4Bench {
    instances: Vec<Instance>,
    library: CommLibrary,
    /// Decomposition cost per instance in the last pass.
    last: Vec<(String, f64)>,
}

impl Fig4Bench {
    /// Generates the 70 instances in the seed's order, and checks the
    /// paper's printed anchors: Figure 5 COST 17 and the AES ACG COST 28.
    pub fn setup(seed: u64, tr: &mut Trace, checks: &mut Pass) -> Self {
        let mut specs: Vec<(String, Box<dyn Fn() -> Acg>)> = Vec::new();
        for tasks in FIG4A_SIZES {
            specs.push((
                format!("tgff_n{tasks}"),
                Box::new(move || {
                    noc::workloads::tgff(&TgffConfig {
                        tasks,
                        seed: tasks as u64,
                        ..TgffConfig::default()
                    })
                }),
            ));
        }
        specs.push(("automotive18".into(), Box::new(automotive_18)));
        for n in FIG4B_SIZES {
            for s in 0..FIG4B_SEEDS {
                specs.push((
                    format!("planted_n{n}_s{s}"),
                    Box::new(move || planted_sized(n, s)),
                ));
            }
        }
        let mut instances: Vec<Instance> = specs
            .into_iter()
            .map(|(label, make)| {
                let acg = tr.time("workloads.instantiate", make);
                let placement = grid_placement(acg.core_count());
                Instance {
                    label,
                    acg,
                    placement,
                }
            })
            .collect();
        shuffle(&mut instances, seed);

        let anchors = [
            ("fig5", noc::workloads::pajek::fig5_benchmark(), 17.0),
            ("aes", noc::aes::aes_acg(0.0), 28.0),
        ];
        for (name, acg, want) in anchors {
            let placement = grid_placement(acg.core_count());
            let result = SynthesisFlow::new(acg).placement(placement).run();
            let cost = result.map(|r| r.decomposition.total_cost.value());
            checks.check(cost == Ok(want), || {
                format!("{name}: COST {cost:?}, paper prints {want}")
            });
        }
        Fig4Bench {
            instances,
            library: CommLibrary::standard(),
            last: Vec::new(),
        }
    }

    /// The golden check on one instance's outcome.
    fn check(&mut self, label: &str, cost: Option<f64>, deadlock_free: bool, out: &mut Pass) {
        let want = golden::lookup(golden::FIG4_COSTS, label);
        out.check(
            cost.is_some() && cost.map(f64::to_bits) == want.map(f64::to_bits),
            || format!("{label}: cost {cost:?}, golden {want:?}"),
        );
        out.check(deadlock_free, || {
            format!("{label}: verifier rejected the routes")
        });
        out.flows += 1;
        self.last
            .push((label.to_string(), cost.unwrap_or(f64::NAN)));
    }
}

impl Workload for Fig4Bench {
    fn pass(&mut self, out: &mut Pass) {
        self.last.clear();
        for i in 0..self.instances.len() {
            let inst = &self.instances[i];
            let t0 = Instant::now();
            let result = SynthesisFlow::new(inst.acg.clone())
                .placement(inst.placement.clone())
                .run();
            let verdict = result.as_ref().map(|r| r.architecture.verify());
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            out.flow_ms.push(ms);
            let cost = result
                .as_ref()
                .ok()
                .map(|r| r.decomposition.total_cost.value());
            let ok = verdict.is_ok_and(|v| v.is_deadlock_free());
            let label = inst.label.clone();
            self.check(&label, cost, ok, out);
        }
    }

    fn traced_pass(&mut self, trace: &mut Trace, out: &mut Pass) {
        self.last.clear();
        let config = DecomposerConfig::default();
        let technology = TechnologyProfile::cmos_180nm();
        for i in 0..self.instances.len() {
            let inst = &self.instances[i];
            let result = synthesize(
                trace,
                &inst.acg,
                &self.library,
                &technology,
                Objective::Links,
                &config,
                inst.placement.clone(),
            );
            let verdict = result
                .as_ref()
                .map(|r| trace.time("verify", || r.architecture.verify()));
            if let Some(v) = &verdict {
                trace.count("verify.routes_checked", v.routes_checked as f64);
                trace.count("verify.cdg_edges", v.cdg_edges as f64);
            }
            let cost = result.map(|r| r.decomposition.total_cost.value());
            let ok = verdict.is_some_and(|v| v.is_deadlock_free());
            let label = inst.label.clone();
            self.check(&label, cost, ok, out);
        }
    }

    fn print_golden(&self) {
        let mut rows = self.last.clone();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        eprintln!("pub const FIG4_COSTS: &[(&str, f64)] = &[");
        for (label, cost) in rows {
            eprintln!("    (\"{label}\", {cost:?}),");
        }
        eprintln!("];");
    }
}
