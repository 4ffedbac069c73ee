//! `sim_ramp`: saturating load ramps on synthesized and mesh models under
//! both router fidelities, plus the load-ramp runner the campaign replay
//! shares.

use std::time::Instant;

use noc::graph::NodeId;
use noc::prelude::*;
use noc::sim::{traffic, SimError};

use crate::{campaign, fig4, golden, shuffle, Pass, Trace, Workload};

/// Which sources and destinations a ramp draws packets between.
pub enum Load {
    /// Only these pairs (a custom architecture routes only its ACG pairs).
    Pairs(Vec<(NodeId, NodeId)>),
    /// Uniform pairs over this many nodes.
    Uniform(usize),
}

/// A load ramp: rates in order, fresh seeded traffic at each.
pub struct Ramp {
    pub rates: Vec<f64>,
    pub duration_cycles: u64,
    pub payload_bits: u64,
    pub seed: u64,
    /// Stop past this multiple of the zero-load latency.
    pub cutoff: Option<f64>,
}

/// One simulated rate: the fields of `noc::sim::sweep::LoadPoint`.
pub struct RampPoint {
    pub rate: f64,
    pub latency_cycles: f64,
    pub throughput_bits_per_cycle: f64,
    pub packets: usize,
    pub energy_joules: f64,
}

impl RampPoint {
    fn words(&self) -> [u64; 5] {
        [
            self.rate.to_bits(),
            self.latency_cycles.to_bits(),
            self.throughput_bits_per_cycle.to_bits(),
            self.packets as u64,
            self.energy_joules.to_bits(),
        ]
    }
}

pub struct RampOut {
    pub points: Vec<RampPoint>,
    pub flits: u64,
    /// Every packet offered was delivered and every flit injected ejected.
    pub conserved: bool,
}

/// Runs `ramp` on `model` through the simulator's public calls: one
/// compiled simulator, fresh traffic per rate, and the saturation cut-off
/// rule of `noc::sim::sweep::sweep` (anchored at the lowest delivered
/// rate), so a campaign's sweep is reproduced point for point.
pub fn run_ramp(
    tr: &mut Trace,
    model: &NocModel,
    load: &Load,
    ramp: &Ramp,
    router: RouterFidelity,
    energy: &EnergyModel,
) -> Result<RampOut, SimError> {
    let (run_layer, flits_key, cycles_key) = match router {
        RouterFidelity::Ideal => ("sim.run.ideal", "sim.flits.ideal", "sim.cycles.ideal"),
        RouterFidelity::Credit(_) => ("sim.run.credit", "sim.flits.credit", "sim.cycles.credit"),
    };
    let config = SimConfig {
        router,
        ..SimConfig::default()
    };
    let sim = tr.time("sim.compile", || {
        Simulator::new(model, config, energy.clone())
    });
    let mut out = RampOut {
        points: Vec::with_capacity(ramp.rates.len()),
        flits: 0,
        conserved: true,
    };
    let mut zero_load: Option<(f64, f64)> = None;
    for &rate in &ramp.rates {
        let (cycles, payload, seed) = (ramp.duration_cycles, ramp.payload_bits, ramp.seed);
        let events = tr.time("sim.traffic", || match load {
            Load::Pairs(pairs) => traffic::bernoulli_pairs(pairs, cycles, rate, payload, seed),
            Load::Uniform(nodes) => traffic::bernoulli(*nodes, cycles, rate, payload, seed),
        });
        let report = tr.time(run_layer, || sim.run(events))?;
        out.conserved &= report.packets_delivered == report.packets_offered
            && report.flits_injected == report.flits_ejected;
        out.flits += report.flits_ejected;
        tr.count(flits_key, report.flits_ejected as f64);
        tr.count(cycles_key, report.total_cycles as f64);
        let latency = report.avg_packet_latency_cycles;
        out.points.push(RampPoint {
            rate,
            latency_cycles: latency,
            throughput_bits_per_cycle: report.throughput_bits_per_cycle(),
            packets: report.packets_delivered,
            energy_joules: report.energy.total().joules(),
        });
        if report.packets_delivered > 0 && zero_load.is_none_or(|(anchor, _)| rate < anchor) {
            zero_load = Some((rate, latency));
        }
        if let (Some(cutoff), Some((_, baseline))) = (ramp.cutoff, zero_load) {
            if latency > cutoff * baseline {
                break;
            }
        }
    }
    Ok(out)
}

/// The two router models every sim_ramp model runs under.
const FIDELITIES: [RouterFidelity; 2] = [
    RouterFidelity::Ideal,
    RouterFidelity::Credit(noc::sim::CreditConfig {
        rc_cycles: 1,
        st_cycles: 1,
        credit_return_cycles: 1,
    }),
];

/// Ramp on the synthesized architectures, ACG-pair traffic.
fn custom_ramp() -> Ramp {
    Ramp {
        rates: vec![0.05, 0.15, 0.30, 0.45, 0.60],
        duration_cycles: 400,
        payload_bits: 64,
        seed: 1,
        cutoff: None,
    }
}

/// Ramp on the meshes, uniform traffic: past saturation on both sizes.
fn mesh_ramp() -> Ramp {
    Ramp {
        rates: vec![0.02, 0.05, 0.10, 0.15, 0.20, 0.30],
        duration_cycles: 400,
        payload_bits: 64,
        seed: 1,
        cutoff: None,
    }
}

enum Source {
    Flow(Box<FlowResult>),
    Mesh(usize),
}

struct SimModel {
    name: String,
    source: Source,
    load: Load,
    ramp: Ramp,
}

pub struct SimBench {
    models: Vec<SimModel>,
    /// (model, fidelity) sweeps in the seed's order.
    order: Vec<(usize, usize)>,
    energy: EnergyModel,
    /// Digest of the last pass's points per `model/fidelity`.
    last: Vec<(String, u64)>,
}

impl SimBench {
    /// Synthesizes the 13 full-grid workloads (links objective, 180 nm) on
    /// the square grid placement, as Figure 4 and the AES prototype do, so
    /// the floorplanner stays out of this workload; builds the meshes; and
    /// runs the Section 5.2 AES comparison as the simulator's accuracy
    /// statement.
    pub fn setup(seed: u64, tr: &mut Trace, checks: &mut Pass) -> Self {
        let mut models = Vec::new();
        for spec in campaign::full_workloads() {
            let acg = tr.time("workloads.instantiate", || spec.instantiate());
            let pairs = campaign::demand_pairs(&acg);
            let placement = fig4::grid_placement(acg.core_count());
            let result = SynthesisFlow::new(acg)
                .placement(placement)
                .run()
                .expect("unconstrained synthesis always succeeds");
            models.push(SimModel {
                name: spec.label(),
                source: Source::Flow(Box::new(result)),
                load: Load::Pairs(pairs),
                ramp: custom_ramp(),
            });
        }
        for k in [4, 8] {
            models.push(SimModel {
                name: format!("mesh{k}x{k}"),
                source: Source::Mesh(k),
                load: Load::Uniform(k * k),
                ramp: mesh_ramp(),
            });
        }
        aes_accuracy(tr, checks);
        let mut order: Vec<(usize, usize)> = (0..models.len())
            .flat_map(|m| (0..FIDELITIES.len()).map(move |f| (m, f)))
            .collect();
        shuffle(&mut order, seed);
        SimBench {
            models,
            order,
            energy: EnergyModel::new(TechnologyProfile::cmos_180nm()),
            last: Vec::new(),
        }
    }

    fn run(&mut self, tr: &mut Trace, out: &mut Pass) {
        self.last.clear();
        for &(m, f) in &self.order {
            let def = &self.models[m];
            let key = format!("{}/{}", def.name, FIDELITIES[f].label());
            let t0 = Instant::now();
            let model = tr.time("sim.model", || match &def.source {
                Source::Flow(result) => result.noc_model(),
                Source::Mesh(k) => NocModel::mesh(*k, *k, 1.0),
            });
            let ramp = run_ramp(
                tr,
                &model,
                &def.load,
                &def.ramp,
                FIDELITIES[f],
                &self.energy,
            );
            let secs = t0.elapsed().as_secs_f64();
            match ramp {
                Ok(ramp) => {
                    out.sim[f].0 += ramp.flits;
                    out.sim[f].1 += secs;
                    let digest = golden::fnv1a(ramp.points.iter().flat_map(RampPoint::words));
                    let want = golden::lookup(golden::SIM_DIGESTS, &key);
                    out.check(ramp.conserved, || format!("{key}: packets or flits lost"));
                    out.check(want == Some(digest), || {
                        format!("{key}: load points digest {digest:#018x}, golden {want:x?}")
                    });
                    self.last.push((key, digest));
                }
                Err(e) => out.check(false, || format!("{key}: {e}")),
            }
        }
    }
}

impl Workload for SimBench {
    fn pass(&mut self, out: &mut Pass) {
        self.run(&mut Trace::off(), out);
    }

    fn traced_pass(&mut self, trace: &mut Trace, out: &mut Pass) {
        self.run(trace, out);
    }

    fn print_golden(&self) {
        let mut rows = self.last.clone();
        rows.sort();
        eprintln!("pub const SIM_DIGESTS: &[(&str, u64)] = &[");
        for (key, digest) in rows {
            eprintln!("    (\"{key}\", {digest:#018x}),");
        }
        eprintln!("];");
    }
}

/// Section 5.2: the AES-128 engine on the 4x4 mesh and on the synthesized
/// architecture. The simulated deltas are stated beside the paper's; the
/// simulator is not validated against hardware, so the paper's figures
/// are the only reference.
fn aes_accuracy(tr: &mut Trace, checks: &mut Pass) {
    let cmp = match AesPrototype::new().run() {
        Ok(cmp) => cmp,
        Err(e) => return checks.check(false, || format!("AES prototype: {e}")),
    };
    let (mesh, custom) = (cmp.mesh.total_cycles, cmp.custom.total_cycles);
    let cycles_pct = 100.0 * (custom as f64 / mesh as f64 - 1.0);
    let energy_pct = -100.0 * cmp.energy_reduction();
    checks.check((mesh, custom) == golden::AES_CYCLES_PER_BLOCK, || {
        format!(
            "AES cycles/block mesh -> custom {mesh} -> {custom}, golden {:?}",
            golden::AES_CYCLES_PER_BLOCK
        )
    });
    tr.count("aes.cycles_delta_pct", cycles_pct);
    tr.count("aes.energy_delta_pct", energy_pct);
    static STATED: std::sync::Once = std::sync::Once::new();
    STATED.call_once(|| {
        eprintln!(
        "AES prototype, simulated vs paper: cycles/block {mesh} -> {custom} ({cycles_pct:+.1}%) \
         vs 271 -> 199 (-26.6%); energy/block {energy_pct:+.1}% vs -51%"
        )
    });
}
