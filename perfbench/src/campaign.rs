//! `campaign_full`: the `explore --full` grid on one worker, run as one
//! range shard per application (as `explore shard` and `explore merge`
//! do) sharing one match cache, then merged; then the report written with
//! `to_json` and read back with `from_json`, as `run --out` / `--resume`
//! do.

use std::collections::HashMap;
use std::time::Instant;

use noc::graph::{Acg, NodeId};
use noc::prelude::*;
use noc::workloads::WorkloadFamily;
use noc_explore::report::{SweepPointRecord, VerifyRecord};
use noc_explore::{
    merge_reports, Campaign, CampaignReport, NullSink, ObjectiveKind, PointRecord, Scenario,
    ScenarioGrid, ShardManifest, SimSpec, WorkloadSpec, CACHE_CAPACITY,
};

use crate::sim::{run_ramp, Load, Ramp};
use crate::{fig4, golden, shuffle, Pass, Trace, Workload};

/// The 13 applications of the full grid, in `explore --full` order.
pub fn full_workloads() -> Vec<WorkloadSpec> {
    let mut specs = vec![
        WorkloadSpec::fixed(WorkloadFamily::Fig5),
        WorkloadSpec::fixed(WorkloadFamily::Automotive),
        WorkloadSpec::fixed(WorkloadFamily::Multimedia),
    ];
    for (family, sizes) in [
        (WorkloadFamily::Tgff, &[8, 12, 15][..]),
        (WorkloadFamily::PajekPlanted, &[10, 16][..]),
    ] {
        for seed in [1, 2] {
            for &n in sizes {
                specs.push(WorkloadSpec::new(family, n, seed));
            }
        }
    }
    specs
}

/// The full grid over `workloads`: × {Links, Energy} × {180 nm, 100 nm},
/// one 4-rate ramp of 300 cycles per point.
fn full_grid(workloads: Vec<WorkloadSpec>) -> ScenarioGrid {
    ScenarioGrid::new()
        .workloads(workloads)
        .synthesis_objectives([Objective::Links, Objective::Energy])
        .technologies([
            TechnologyProfile::cmos_180nm(),
            TechnologyProfile::cmos_100nm(),
        ])
        .sims([SimSpec {
            label: "ramp".into(),
            rates: vec![0.05, 0.15, 0.30, 0.45],
            duration_cycles: 300,
            saturation_cutoff: Some(6.0),
            ..SimSpec::default()
        }])
}

/// The application's demand pairs: the traffic population a custom
/// architecture routes.
pub fn demand_pairs(acg: &Acg) -> Vec<(NodeId, NodeId)> {
    acg.demands()
        .filter(|(_, d)| d.volume > 0.0)
        .map(|(e, _)| (e.src, e.dst))
        .collect()
}

pub struct CampaignBench {
    grid: ScenarioGrid,
    campaign: Campaign,
    /// Range shards of the grid: one per application, since the workload
    /// axis is the grid's outermost.
    shards: usize,
    /// The grid as one `Campaign::run`, made by the first pass: every
    /// merged report must equal it.
    single_run: Option<CampaignReport>,
    /// The last untraced report: the reference a traced replay must equal.
    last: Option<CampaignReport>,
}

impl CampaignBench {
    /// Builds the grid with its workload axis in the seed's order.
    pub fn setup(seed: u64, tr: &mut Trace, checks: &mut Pass) -> Self {
        let mut specs = full_workloads();
        shuffle(&mut specs, seed);
        for spec in &specs {
            let acg = tr.time("workloads.instantiate", || spec.instantiate());
            let want = spec.family.effective_size(spec.n);
            checks.check(acg.core_count() == want, || {
                format!("{}: {} cores, want {want}", spec.label(), acg.core_count())
            });
        }
        let shards = specs.len();
        let grid = full_grid(specs);
        CampaignBench {
            campaign: Campaign::new(grid.clone()).threads(1),
            grid,
            shards,
            single_run: None,
            last: None,
        }
    }

    /// The golden checks on a campaign report: every point clean, the
    /// front's labels and the hypervolume's bits as recorded.
    fn check_report(report: &CampaignReport, out: &mut Pass) {
        for p in &report.points {
            out.check(p.error.is_none(), || format!("{}: {:?}", p.label, p.error));
        }
        let front = front_labels(report);
        out.check(front == golden::CAMPAIGN_FRONT, || {
            format!("front {front:?}, golden {:?}", golden::CAMPAIGN_FRONT)
        });
        out.check(
            report.hypervolume.to_bits() == golden::CAMPAIGN_HYPERVOLUME.to_bits(),
            || {
                format!(
                    "hypervolume {:?}, golden {:?}",
                    report.hypervolume,
                    golden::CAMPAIGN_HYPERVOLUME
                )
            },
        );
        out.flows += report.flows_synthesized as u64;
        out.hypervolume = report.hypervolume;
    }

    /// Writes the report out and reads it back, as `run --out` and
    /// `--resume` do; the copy must carry the same results.
    fn round_trip(tr: &mut Trace, report: &CampaignReport, out: &mut Pass) {
        let text = tr.time("report.to_json", || report.to_json());
        tr.count("report.bytes", text.len() as f64);
        let parsed = tr.time("report.from_json", || CampaignReport::from_json(&text));
        match parsed {
            Ok(parsed) => out.check(same_results(&parsed, report), || {
                "report changed in a to_json/from_json round trip".into()
            }),
            Err(e) => out.check(false, || format!("from_json: {e}")),
        }
    }

    /// The campaign's flows replayed through the public per-layer calls,
    /// with the campaign's floorplan de-duplication and its campaign-wide
    /// match cache, folded, and checked bit for bit against the last
    /// untraced report.
    fn replay(&mut self, tr: &mut Trace, out: &mut Pass) {
        let library = CommLibrary::standard();
        let match_cache = SharedMatchCache::new(CACHE_CAPACITY);
        let mut placements = HashMap::new();
        let records: Vec<PointRecord> = self
            .grid
            .enumerate()
            .iter()
            .map(|s| replay_point(tr, &library, &match_cache, &mut placements, s))
            .collect();
        tr.count("campaign.placement_keys", placements.len() as f64);
        let kinds = ObjectiveKind::DEFAULT.to_vec();
        let mut report = tr.time("explore.fold", || CampaignReport::assemble(kinds, records));
        report.flows_synthesized = report.points.len();
        let reference = self.last.as_ref().expect("an untraced pass ran first");
        out.check(same_results(&report, reference), || {
            "replay differs from the campaign's report".into()
        });
        Self::check_report(&report, out);
        Self::round_trip(tr, &report, out);
    }
}

impl Workload for CampaignBench {
    fn pass(&mut self, out: &mut Pass) {
        let single_run = self.single_run.get_or_insert_with(|| self.campaign.run());
        let cache = SharedMatchCache::new(CACHE_CAPACITY);
        let mut reports = Vec::with_capacity(self.shards);
        for i in 0..self.shards {
            let plan = self
                .campaign
                .plan_shard(&ShardManifest::range(i, self.shards));
            reports.push(
                self.campaign
                    .run_plan_with_cache(plan, &mut NullSink, &cache),
            );
        }
        match merge_reports(&reports) {
            Ok(report) => {
                out.check(same_results(&report, single_run), || {
                    "merged shards differ from one Campaign::run".into()
                });
                Self::check_report(&report, out);
                Self::round_trip(&mut Trace::off(), &report, out);
                self.last = Some(report);
            }
            Err(e) => out.check(false, || format!("merge_reports: {e}")),
        }
    }

    fn traced_pass(&mut self, trace: &mut Trace, out: &mut Pass) {
        self.replay(trace, out);
    }

    fn print_golden(&self) {
        let report = self.last.as_ref().expect("a pass ran");
        eprintln!(
            "pub const CAMPAIGN_FRONT: &[&str] = &{:#?};",
            front_labels(report)
        );
        eprintln!(
            "pub const CAMPAIGN_HYPERVOLUME: f64 = {:?};",
            report.hypervolume
        );
    }
}

/// The front as sorted point labels: independent of the grid order the
/// seed picks, unlike front ids.
fn front_labels(report: &CampaignReport) -> Vec<String> {
    let mut labels: Vec<String> = report
        .front
        .iter()
        .map(|&id| report.points[id].label.clone())
        .collect();
    labels.sort();
    labels
}

/// Same front, hypervolume and per-point results, to the bit: the
/// decomposition and its search statistics, the verifier's work, every
/// simulated load point and the objectives. Timings are left out.
fn same_results(a: &CampaignReport, b: &CampaignReport) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let sweep_bits = |p: &PointRecord| {
        p.sweep
            .iter()
            .flat_map(|s| {
                [
                    s.rate,
                    s.latency_cycles,
                    s.throughput_bits_per_cycle,
                    s.energy_joules,
                ]
            })
            .map(f64::to_bits)
            .collect::<Vec<_>>()
    };
    let verify_work = |p: &PointRecord| {
        p.verify
            .as_ref()
            .map(|v| (v.deadlock_free, v.routes_checked, v.cdg_edges))
    };
    a.front == b.front
        && a.hypervolume.to_bits() == b.hypervolume.to_bits()
        && a.points.len() == b.points.len()
        && a.points.iter().zip(&b.points).all(|(p, q)| {
            p.label == q.label
                && p.total_cost.to_bits() == q.total_cost.to_bits()
                && p.nodes_visited == q.nodes_visited
                && p.cache_hits == q.cache_hits
                && verify_work(p) == verify_work(q)
                && sweep_bits(p) == sweep_bits(q)
                && p.saturated == q.saturated
                && bits(&p.objectives) == bits(&q.objectives)
                && p.error == q.error
        })
}

type PlacementKey = (String, u64, u64);

/// One scenario through floorplan (once per placement key, as the
/// campaign de-duplicates it), decompose, glue, constraints, model,
/// verify and the load ramp; mirrors `Campaign`'s synthesize + measure.
fn replay_point(
    tr: &mut Trace,
    library: &CommLibrary,
    match_cache: &SharedMatchCache,
    placements: &mut HashMap<PlacementKey, Placement>,
    s: &Scenario,
) -> PointRecord {
    let mut record = PointRecord {
        scenario_id: s.id,
        label: s.label(),
        workload: s.workload.label(),
        nodes: s.workload.family.effective_size(s.workload.n),
        engine: s.engine_label.clone(),
        synthesis_objective: format!("{:?}", s.objective),
        technology: s.technology.name().to_string(),
        sim: s.sim.label.clone(),
        router_fidelity: s.router_fidelity.label().to_string(),
        objectives: Vec::new(),
        on_front: false,
        reused_synthesis: false,
        total_cost: f64::NAN,
        nodes_visited: 0,
        cache_hits: 0,
        synth_ms: f64::NAN,
        verify: None,
        sweep: Vec::new(),
        saturated: false,
        error: None,
    };
    let acg = tr.time("workloads.instantiate", || s.workload.instantiate());
    let pairs = demand_pairs(&acg);
    let key = (
        s.workload.label(),
        s.floorplan_seed,
        s.core_area_mm2.to_bits(),
    );
    let placement = match placements.get(&key) {
        Some(p) => p.clone(),
        None => {
            let flow = SynthesisFlow::new(acg.clone())
                .objective(s.objective)
                .technology(s.technology.clone())
                .seed(s.floorplan_seed)
                .core_area_mm2(s.core_area_mm2);
            let p = tr.time("floorplan", || flow.auto_placement());
            tr.count("floorplan.calls", 1.0);
            tr.count("floorplan.cores", acg.core_count() as f64);
            tr.count("floorplan.chip_area_mm2", p.chip_area_mm2());
            tr.count("campaign.floorplans_computed", 1.0);
            placements.insert(key, p.clone());
            p
        }
    };

    let mut engine = s.engine.clone();
    if engine.use_match_cache {
        engine.shared_cache = Some(match_cache.clone());
    }
    let t0 = Instant::now();
    let Some(flow) = fig4::synthesize(
        tr,
        &acg,
        library,
        &s.technology,
        s.objective,
        &engine,
        placement,
    ) else {
        record.error = Some("no legal decomposition".into());
        return record;
    };
    record.synth_ms = t0.elapsed().as_secs_f64() * 1e3;
    record.total_cost = flow.decomposition.total_cost.value();
    record.nodes_visited = flow.stats.nodes_visited;
    record.cache_hits = flow.stats.cache_hits;

    let model = tr.time("sim.model", || flow.noc_model());
    let t0 = Instant::now();
    let verdict = tr.time("verify", || {
        let spec = model.routing_spec().require_pairs(pairs.iter().copied());
        noc::verify::verify_with(&spec, noc::telemetry::active())
    });
    tr.count("verify.routes_checked", verdict.routes_checked as f64);
    tr.count("verify.cdg_edges", verdict.cdg_edges as f64);
    let verify = VerifyRecord::from_verdict(&verdict, t0.elapsed().as_secs_f64() * 1e3);
    let deadlock_free = verify.deadlock_free;
    record.verify = Some(verify);
    if !deadlock_free {
        record.error = Some("verification failed".into());
        return record;
    }

    let ramp = Ramp {
        rates: s.sim.rates.clone(),
        duration_cycles: s.sim.duration_cycles,
        payload_bits: s.sim.payload_bits,
        seed: s.sim.seed,
        cutoff: s.sim.saturation_cutoff,
    };
    let energy = EnergyModel::new(s.technology.clone());
    let points = match run_ramp(
        tr,
        &model,
        &Load::Pairs(pairs),
        &ramp,
        s.router_fidelity,
        &energy,
    ) {
        Ok(out) if !out.points.is_empty() => out.points,
        Ok(_) => {
            record.error = Some("sim spec has no load points".into());
            return record;
        }
        Err(e) => {
            record.error = Some(e.to_string());
            return record;
        }
    };
    record.saturated = points.len() < s.sim.rates.len();
    record.sweep = points
        .iter()
        .map(|p| SweepPointRecord {
            rate: p.rate,
            latency_cycles: p.latency_cycles,
            throughput_bits_per_cycle: p.throughput_bits_per_cycle,
            energy_joules: p.energy_joules,
        })
        .collect();
    let m = &points[s.sim.measure_index.min(points.len() - 1)];
    if m.packets == 0 {
        record.error = Some("measurement point delivered no packets".into());
        return record;
    }
    record.objectives = vec![
        m.energy_joules,
        m.latency_cycles,
        flow.placement.chip_area_mm2(),
    ];
    record
}
