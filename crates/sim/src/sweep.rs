//! Injection-rate sweeps: the latency-vs-offered-load curves standard in
//! NoC evaluation (and the natural experiment for the routing-strategy
//! future work of the paper's Section 6).

use std::time::Instant;

use noc_energy::EnergyModel;
use noc_graph::NodeId;

use crate::engine::{EnergyTable, SimCore, SimState};
use crate::{traffic, NocModel, SimConfig, SimError};

/// One point of a load sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPoint {
    /// Offered injection rate (packets per node per cycle).
    pub injection_rate: f64,
    /// Mean packet latency, cycles.
    pub avg_latency_cycles: f64,
    /// Delivered throughput, payload bits per cycle.
    pub throughput_bits_per_cycle: f64,
    /// Packets delivered at this point.
    pub packets: usize,
    /// Total communication energy dissipated at this point, joules.
    pub energy_joules: f64,
}

/// Configuration of a [`sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Injection rates to sample (packets/node/cycle).
    pub rates: Vec<f64>,
    /// Cycles of traffic generated per point.
    pub duration_cycles: u64,
    /// Payload bits per packet.
    pub payload_bits: u64,
    /// Traffic seed.
    pub seed: u64,
    /// Simulator configuration.
    pub sim: SimConfig,
    /// Stop the rate ramp once a point's mean latency exceeds this multiple
    /// of the zero-load latency — anchored at the delivered point with the
    /// **lowest offered rate** sampled so far, not simply the first
    /// delivered point: a ramp that starts at a high rate would otherwise
    /// compare against an already-congested baseline and never (or
    /// spuriously) cut. `None` (the default) simulates every configured
    /// rate. Past saturation the closed-loop latency only keeps climbing,
    /// so cutting the ramp saves the most expensive points of a sweep
    /// without changing any point that is reported.
    pub saturation_cutoff: Option<f64>,
    /// Restrict traffic to these source–destination pairs (see
    /// [`traffic::bernoulli_pairs`]). `None` (the default) draws uniform
    /// pairs over all nodes — the right model for meshes, but unroutable
    /// on custom architectures that only provide application routes.
    pub pairs: Option<Vec<(NodeId, NodeId)>>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            rates: vec![0.02, 0.05, 0.10, 0.15, 0.20, 0.30],
            duration_cycles: 500,
            payload_bits: 64,
            seed: 1,
            sim: SimConfig::default(),
            saturation_cutoff: None,
            pairs: None,
        }
    }
}

/// Runs a uniform-random Bernoulli load sweep over `model`.
///
/// Each point generates fresh traffic at the given rate and simulates it to
/// completion (closed makespan measurement: the curve turns upward as the
/// network saturates). With
/// [`saturation_cutoff`](SweepConfig::saturation_cutoff) set, the ramp
/// stops after the first point whose latency exceeds the cutoff multiple of
/// the zero-load latency, so the returned curve may be shorter than
/// `config.rates`. This is [`sweep_each`] with one energy model.
///
/// # Errors
///
/// Propagates the first [`SimError`] (e.g. an unroutable pair on a model
/// without all-pairs routes).
///
/// # Examples
///
/// ```
/// use noc_sim::{sweep, NocModel};
/// use noc_energy::{EnergyModel, TechnologyProfile};
///
/// let model = NocModel::mesh(3, 3, 1.0);
/// let config = sweep::SweepConfig {
///     rates: vec![0.02, 0.2],
///     duration_cycles: 100,
///     ..Default::default()
/// };
/// let energy = EnergyModel::new(TechnologyProfile::cmos_180nm());
/// let points = sweep::sweep(&model, &config, &energy)?;
/// assert_eq!(points.len(), 2);
/// // Latency grows with load.
/// assert!(points[1].avg_latency_cycles >= points[0].avg_latency_cycles);
/// # Ok::<(), noc_sim::SimError>(())
/// ```
pub fn sweep(
    model: &NocModel,
    config: &SweepConfig,
    energy: &EnergyModel,
) -> Result<Vec<LoadPoint>, SimError> {
    let mut curves = sweep_each(model, config, std::slice::from_ref(energy))?;
    Ok(curves.pop().expect("one curve per energy model"))
}

/// [`sweep`] under several energy models from one simulation per rate:
/// one curve per model, in order, each equal to `sweep(model, config,
/// &energies[i])` in every [`LoadPoint`] field, bit for bit.
///
/// Routes, arbitration and latency never read a technology constant, so
/// every model sees the same flit schedule; each model keeps its own
/// switch/link tables, energy sums (summed in grant order), idle energy
/// and clock. The cutoff reads latency only, so every curve stops at the
/// same rate. An empty `energies` runs nothing and returns no curves.
///
/// # Errors
///
/// As [`sweep`]: the first [`SimError`], which no energy model affects.
///
/// # Examples
///
/// ```
/// use noc_sim::{sweep, NocModel};
/// use noc_energy::{EnergyModel, TechnologyProfile};
///
/// let model = NocModel::mesh(3, 3, 1.0);
/// let config = sweep::SweepConfig {
///     rates: vec![0.02, 0.2],
///     duration_cycles: 100,
///     ..Default::default()
/// };
/// let energies = [
///     EnergyModel::new(TechnologyProfile::cmos_180nm()),
///     EnergyModel::new(TechnologyProfile::cmos_100nm()),
/// ];
/// let curves = sweep::sweep_each(&model, &config, &energies)?;
/// assert_eq!(curves[1], sweep::sweep(&model, &config, &energies[1])?);
/// // Same flits, cheaper technology.
/// assert_eq!(curves[0][1].avg_latency_cycles, curves[1][1].avg_latency_cycles);
/// assert!(curves[1][1].energy_joules < curves[0][1].energy_joules);
/// # Ok::<(), noc_sim::SimError>(())
/// ```
pub fn sweep_each(
    model: &NocModel,
    config: &SweepConfig,
    energies: &[EnergyModel],
) -> Result<Vec<Vec<LoadPoint>>, SimError> {
    if energies.is_empty() {
        return Ok(Vec::new());
    }
    let telemetry = noc_telemetry::active();
    // One compiled core, one energy table per model and one engine state
    // for the whole ramp.
    let core = SimCore::compile(model, config.sim);
    let tables: Vec<EnergyTable> = energies
        .iter()
        .map(|energy| EnergyTable::compile(&core, model, energy.clone()))
        .collect();
    let mut state = SimState::default();
    let mut curves: Vec<Vec<LoadPoint>> = energies
        .iter()
        .map(|_| Vec::with_capacity(config.rates.len()))
        .collect();
    // Zero-load anchor: (offered rate, latency) of the delivered point
    // with the lowest rate so far. On an ascending ramp this is the first
    // delivered point; on a ramp that opens past saturation it re-anchors
    // as soon as a lower-rate point delivers, so the cutoff never
    // compares against a congested baseline.
    let mut zero_load: Option<(f64, f64)> = None;
    for &rate in &config.rates {
        let t0 = Instant::now();
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
        let reports = core.run_each(&mut state, &events, &tables)?;
        let elapsed = t0.elapsed();
        for (curve, report) in curves.iter_mut().zip(&reports) {
            curve.push(LoadPoint {
                injection_rate: rate,
                avg_latency_cycles: report.avg_packet_latency_cycles,
                throughput_bits_per_cycle: report.throughput_bits_per_cycle(),
                packets: report.packets_delivered,
                energy_joules: report.energy.total().joules(),
            });
        }
        // Latency and delivery are the same under every energy model.
        let latency = reports[0].avg_packet_latency_cycles;
        let packets = reports[0].packets_delivered;
        if let Some(tel) = telemetry {
            tel.add("sim.sweep.points", 1);
            tel.span_event(
                "sim.sweep.point",
                elapsed,
                &[
                    ("rate", rate.into()),
                    ("packets", packets.into()),
                    ("latency_cycles", latency.into()),
                ],
            );
        }
        if packets > 0 && zero_load.is_none_or(|(anchor_rate, _)| rate < anchor_rate) {
            zero_load = Some((rate, latency));
        }
        if let (Some(cutoff), Some((anchor_rate, baseline))) = (config.saturation_cutoff, zero_load)
        {
            if latency > cutoff * baseline {
                if let Some(tel) = telemetry {
                    tel.add("sim.sweep.cutoffs", 1);
                    tel.event(
                        "sim.sweep.saturation_cutoff",
                        &[
                            ("rate", rate.into()),
                            ("latency_cycles", latency.into()),
                            ("anchor_rate", anchor_rate.into()),
                            ("anchor_latency_cycles", baseline.into()),
                        ],
                    );
                }
                break;
            }
        }
    }
    Ok(curves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_energy::TechnologyProfile;
    use noc_graph::NodeId;

    fn energy() -> EnergyModel {
        EnergyModel::new(TechnologyProfile::cmos_180nm())
    }

    #[test]
    fn latency_is_monotone_in_load_on_mesh() {
        let model = NocModel::mesh(4, 4, 1.0);
        let config = SweepConfig {
            rates: vec![0.02, 0.10, 0.25],
            duration_cycles: 400,
            ..Default::default()
        };
        let points = sweep(&model, &config, &energy()).unwrap();
        assert_eq!(points.len(), 3);
        assert!(points[0].avg_latency_cycles <= points[1].avg_latency_cycles);
        assert!(points[1].avg_latency_cycles <= points[2].avg_latency_cycles);
    }

    #[test]
    fn zero_rate_point_is_empty_but_valid() {
        let model = NocModel::mesh(2, 2, 1.0);
        let config = SweepConfig {
            rates: vec![0.0],
            duration_cycles: 50,
            ..Default::default()
        };
        let points = sweep(&model, &config, &energy()).unwrap();
        assert_eq!(points[0].packets, 0);
        assert_eq!(points[0].avg_latency_cycles, 0.0);
    }

    #[test]
    fn saturation_cutoff_truncates_the_ramp() {
        let model = NocModel::mesh(4, 4, 1.0);
        let saturating = vec![0.02, 0.45, 0.55, 0.65, 0.75];
        let full = sweep(
            &model,
            &SweepConfig {
                rates: saturating.clone(),
                duration_cycles: 400,
                ..Default::default()
            },
            &energy(),
        )
        .unwrap();
        assert_eq!(full.len(), saturating.len(), "default keeps every rate");

        let cut = sweep(
            &model,
            &SweepConfig {
                rates: saturating,
                duration_cycles: 400,
                saturation_cutoff: Some(2.0),
                ..Default::default()
            },
            &energy(),
        )
        .unwrap();
        assert!(cut.len() < full.len(), "cutoff should stop the ramp early");
        // The points that are reported are identical to the full sweep.
        assert_eq!(cut, full[..cut.len()]);
        // Everything before the stopping point is below the cutoff.
        let zero_load = cut[0].avg_latency_cycles;
        for p in &cut[..cut.len() - 1] {
            assert!(p.avg_latency_cycles <= 2.0 * zero_load);
        }
    }

    #[test]
    fn cutoff_anchors_at_the_lowest_rate_not_the_first_delivered() {
        // A ramp that *opens* past saturation: the first delivered point
        // is already congested. Anchoring zero-load there (the pre-fix
        // behavior) inflates the baseline by the congestion factor, so a
        // later saturated point never exceeds cutoff × baseline and the
        // ramp runs to the end. Anchoring at the lowest offered rate
        // re-baselines when the genuine low-load point arrives, and the
        // next saturated point cuts the ramp.
        let model = NocModel::mesh(4, 4, 1.0);
        let rates = vec![0.45, 0.02, 0.55, 0.65];
        let config = SweepConfig {
            rates: rates.clone(),
            duration_cycles: 400,
            saturation_cutoff: Some(2.0),
            ..Default::default()
        };
        let points = sweep(&model, &config, &energy()).unwrap();
        // Sanity: the opening point really is past saturation relative to
        // the true zero-load latency measured at rate 0.02.
        assert!(points[0].avg_latency_cycles > 2.0 * points[1].avg_latency_cycles);
        // The 0.55 point exceeds 2 × the (re-anchored) zero-load latency,
        // so the ramp stops there instead of simulating 0.65 too.
        assert_eq!(points.len(), 3, "ramp should cut after the 0.55 point");
        assert_eq!(points[2].injection_rate, 0.55);
        // And every reported point matches the uncut sweep.
        let full = sweep(
            &model,
            &SweepConfig {
                rates,
                duration_cycles: 400,
                ..Default::default()
            },
            &energy(),
        )
        .unwrap();
        assert_eq!(points, full[..points.len()]);
    }

    #[test]
    fn pair_restricted_sweep_only_loads_those_pairs() {
        let model = NocModel::mesh(3, 3, 1.0);
        let pairs = vec![(NodeId(0), NodeId(8)), (NodeId(4), NodeId(2))];
        let points = sweep(
            &model,
            &SweepConfig {
                rates: vec![0.5],
                duration_cycles: 200,
                pairs: Some(pairs),
                ..Default::default()
            },
            &energy(),
        )
        .unwrap();
        assert!(points[0].packets > 0);
        // Two sources at rate 0.5 over 200 cycles ≈ 200 offered packets;
        // uniform traffic over 9 nodes would offer ~900.
        assert!(points[0].packets < 400);
    }

    #[test]
    fn points_account_energy() {
        let model = NocModel::mesh(3, 3, 1.0);
        let points = sweep(
            &model,
            &SweepConfig {
                rates: vec![0.05, 0.15],
                duration_cycles: 200,
                ..Default::default()
            },
            &energy(),
        )
        .unwrap();
        assert!(points[0].energy_joules > 0.0);
        // More offered traffic dissipates more energy.
        assert!(points[1].energy_joules > points[0].energy_joules);
    }

    #[test]
    fn an_active_trace_records_each_point_without_changing_the_curve() {
        // The sweep reads only the process-wide handle, so this test
        // installs it — and because the unit-test binary runs its tests
        // concurrently against that shared log, it marks its own events
        // with distinctive injection rates and filters on them.
        let model = NocModel::mesh(4, 4, 1.0);
        let markers = [0.0123, 0.9371];
        let config = SweepConfig {
            rates: markers.to_vec(),
            duration_cycles: 400,
            saturation_cutoff: Some(2.0),
            ..Default::default()
        };
        let untraced = sweep(&model, &config, &energy()).unwrap();
        noc_telemetry::install(noc_telemetry::Telemetry::recording());
        let traced = sweep(&model, &config, &energy()).unwrap();
        assert_eq!(traced, untraced, "tracing must not change the curve");

        let tel = noc_telemetry::active().expect("handle just installed");
        let is_marked = |e: &&noc_telemetry::Event| {
            e.fields.iter().any(|(k, v)| {
                k == "rate" && matches!(v, noc_telemetry::Field::F64(r) if markers.contains(r))
            })
        };
        let events = tel.drain();
        let points: Vec<_> = events
            .iter()
            .filter(|e| e.name == "sim.sweep.point")
            .filter(is_marked)
            .collect();
        assert_eq!(points.len(), traced.len(), "one point span per rate");
        assert!(points.iter().all(|e| e.dur_us.is_some()));
        // The saturated second rate trips the cutoff, and the event
        // names the low-rate anchor the decision was made against.
        let cutoffs: Vec<_> = events
            .iter()
            .filter(|e| e.name == "sim.sweep.saturation_cutoff")
            .filter(is_marked)
            .collect();
        assert_eq!(cutoffs.len(), 1, "the 0.9371 point must cut the ramp");
        assert!(cutoffs[0].fields.iter().any(|(k, v)| {
            k == "anchor_rate" && matches!(v, noc_telemetry::Field::F64(r) if *r == markers[0])
        }));
    }

    #[test]
    fn sweep_reports_the_first_error_only() {
        // Every rate point on a model with no routes fails; the ramp stops
        // at the first and returns exactly the error that rate alone gives.
        let topo = noc_graph::DiGraph::from_edges(2, [(0, 1)]).unwrap();
        let model = NocModel::from_parts(
            "routeless",
            topo,
            std::collections::BTreeMap::new(),
            std::collections::BTreeMap::new(),
            1.0,
        );
        let mk = |rates: Vec<f64>| SweepConfig {
            rates,
            duration_cycles: 50,
            ..Default::default()
        };
        let ramp = sweep(&model, &mk(vec![0.4, 0.5]), &energy()).unwrap_err();
        let first = sweep(&model, &mk(vec![0.4]), &energy()).unwrap_err();
        assert_eq!(ramp, first);
        // No energy model changes it.
        let each = sweep_each(&model, &mk(vec![0.4, 0.5]), &technologies()).unwrap_err();
        assert_eq!(each, first);
    }

    #[test]
    fn credit_mode_knees_earlier_than_ideal() {
        // The credit pipeline congests sooner than the ideal router: the
        // same cutoff truncates the credit ramp at a strictly lower rate.
        use crate::{CreditConfig, RouterFidelity};
        let model = NocModel::mesh(4, 4, 1.0);
        let rates = vec![0.02, 0.05, 0.08, 0.12, 0.16, 0.2, 0.25];
        // A deep pipeline (2-cycle switch traversal, slow credit loop)
        // so the credit knee sits well clear of the ideal one.
        let pipe = CreditConfig {
            rc_cycles: 1,
            st_cycles: 2,
            credit_return_cycles: 4,
        };
        let mk = |router: RouterFidelity| SweepConfig {
            rates: rates.clone(),
            duration_cycles: 400,
            saturation_cutoff: Some(2.8),
            sim: crate::SimConfig {
                router,
                ..crate::SimConfig::default()
            },
            ..Default::default()
        };
        let ideal = sweep(&model, &mk(RouterFidelity::Ideal), &energy()).unwrap();
        let credit = sweep(&model, &mk(RouterFidelity::Credit(pipe)), &energy()).unwrap();
        assert!(
            credit.len() < ideal.len(),
            "credit ramp must knee earlier: credit {} points vs ideal {}",
            credit.len(),
            ideal.len()
        );
        assert!(credit.len() < rates.len(), "credit cutoff must fire");
        // The cutoff anchored at the true zero-load point: every reported
        // point except the saturated last one stays under the knee.
        let zero_load = credit[0].avg_latency_cycles;
        for p in &credit[..credit.len() - 1] {
            assert!(p.avg_latency_cycles <= 2.8 * zero_load);
        }
        assert!(credit.last().unwrap().avg_latency_cycles > 2.8 * zero_load);
    }

    #[test]
    fn credit_cutoff_reanchors_at_the_lowest_rate() {
        // The anchor rule under credit fidelity: a ramp that opens past
        // saturation re-baselines when the genuine low-load point
        // arrives, then cuts at the first point past cutoff × anchor.
        use crate::{CreditConfig, RouterFidelity};
        let model = NocModel::mesh(4, 4, 1.0);
        let config = SweepConfig {
            rates: vec![0.45, 0.02, 0.55, 0.65],
            duration_cycles: 400,
            saturation_cutoff: Some(2.0),
            sim: crate::SimConfig {
                router: RouterFidelity::Credit(CreditConfig::default()),
                ..crate::SimConfig::default()
            },
            ..Default::default()
        };
        let points = sweep(&model, &config, &energy()).unwrap();
        // The congested opener does not trip the cutoff against itself…
        assert!(points[0].avg_latency_cycles > 2.0 * points[1].avg_latency_cycles);
        // …and the first point past the re-anchored baseline ends the ramp.
        assert_eq!(points.len(), 3, "ramp should cut after the 0.55 point");
        assert_eq!(points[2].injection_rate, 0.55);
    }

    /// The three technologies the sharing tests run: two ASIC nodes with
    /// different clocks, and the FPGA profile with radix-scaled switches
    /// and nonzero idle energy.
    fn technologies() -> Vec<EnergyModel> {
        [
            TechnologyProfile::cmos_180nm(),
            TechnologyProfile::cmos_100nm(),
            TechnologyProfile::fpga_virtex2(),
        ]
        .into_iter()
        .map(EnergyModel::new)
        .collect()
    }

    /// A synthesized architecture: four cores in a communication cycle,
    /// decomposed and glued back, then filled to all pairs.
    fn glued_model() -> NocModel {
        use noc_graph::{Acg, DiGraph, EdgeDemand, NodeId};
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

    /// Traffic pairs a model routes (`None`: all pairs).
    type Pairs = Option<Vec<(NodeId, NodeId)>>;

    /// The XY mesh, the O1TURN mesh and the glued model, each with the
    /// traffic pairs it routes.
    fn sharing_models() -> Vec<(NocModel, Pairs)> {
        vec![
            (NocModel::mesh(4, 4, 1.0), None),
            (NocModel::mesh_o1turn(4, 4, 1.0, 3), None),
            (
                glued_model(),
                Some(vec![(NodeId(0), NodeId(2)), (NodeId(1), NodeId(3))]),
            ),
        ]
    }

    fn fidelities() -> [crate::RouterFidelity; 2] {
        [
            crate::RouterFidelity::Ideal,
            crate::RouterFidelity::Credit(crate::CreditConfig::default()),
        ]
    }

    fn point_bits(p: &LoadPoint) -> (u64, u64, u64, usize, u64) {
        (
            p.injection_rate.to_bits(),
            p.avg_latency_cycles.to_bits(),
            p.throughput_bits_per_cycle.to_bits(),
            p.packets,
            p.energy_joules.to_bits(),
        )
    }

    #[test]
    fn sweep_each_equals_one_sweep_per_technology() {
        let techs = technologies();
        for (model, pairs) in sharing_models() {
            for router in fidelities() {
                let config = SweepConfig {
                    rates: vec![0.02, 0.3, 0.45, 0.6],
                    duration_cycles: 250,
                    saturation_cutoff: Some(2.0),
                    pairs: pairs.clone(),
                    sim: crate::SimConfig {
                        router,
                        ..crate::SimConfig::default()
                    },
                    ..Default::default()
                };
                let curves = sweep_each(&model, &config, &techs).unwrap();
                assert_eq!(curves.len(), techs.len());
                for (curve, energy) in curves.iter().zip(&techs) {
                    let single = sweep(&model, &config, energy).unwrap();
                    let got: Vec<_> = curve.iter().map(point_bits).collect();
                    let want: Vec<_> = single.iter().map(point_bits).collect();
                    assert_eq!(
                        got,
                        want,
                        "{} under {}, {}",
                        model.name(),
                        router.label(),
                        energy.profile().name()
                    );
                }
                // The technologies really price the same flits differently.
                assert_ne!(curves[0][0].energy_joules, curves[1][0].energy_joules);
                assert_ne!(curves[0][0].energy_joules, curves[2][0].energy_joules);
            }
        }
        assert!(
            sweep_each(&NocModel::mesh(2, 2, 1.0), &SweepConfig::default(), &[])
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn one_run_reports_every_technology_as_its_single_run_does() {
        use crate::engine::{EnergyTable, SimCore, SimState};
        use crate::{SimReport, Simulator};

        fn bits(r: &SimReport) -> [u64; 6] {
            [
                r.avg_packet_latency_cycles.to_bits(),
                r.avg_network_latency_cycles.to_bits(),
                r.energy.switch.joules().to_bits(),
                r.energy.link.joules().to_bits(),
                r.energy.idle.joules().to_bits(),
                r.clock_hz.to_bits(),
            ]
        }

        let techs = technologies();
        for (model, pairs) in sharing_models() {
            let events = match &pairs {
                Some(pairs) => traffic::bernoulli_pairs(pairs, 300, 0.4, 96, 5),
                None => traffic::bernoulli(model.node_count(), 300, 0.2, 96, 5),
            };
            for router in fidelities() {
                let config = crate::SimConfig {
                    router,
                    ..crate::SimConfig::default()
                };
                let core = SimCore::compile(&model, config);
                let tables: Vec<EnergyTable> = techs
                    .iter()
                    .map(|e| EnergyTable::compile(&core, &model, e.clone()))
                    .collect();
                let shared = core
                    .run_each(&mut SimState::default(), &events, &tables)
                    .unwrap();
                assert_eq!(shared.len(), techs.len());
                for (report, energy) in shared.iter().zip(&techs) {
                    let single = Simulator::new(&model, config, energy.clone())
                        .run(events.clone())
                        .unwrap();
                    let what = format!(
                        "{} under {}, {}",
                        model.name(),
                        router.label(),
                        energy.profile().name()
                    );
                    assert_eq!(report, &single, "{what}");
                    assert_eq!(bits(report), bits(&single), "{what}");
                }
                assert!(shared[2].energy.idle.joules() > 0.0);
                assert_ne!(shared[0].clock_hz, shared[1].clock_hz);
            }
        }
    }

    #[test]
    fn o1turn_and_xy_sweeps_both_complete() {
        let config = SweepConfig {
            rates: vec![0.05, 0.15],
            duration_cycles: 200,
            ..Default::default()
        };
        let xy = NocModel::mesh(4, 4, 1.0);
        let o1 = NocModel::mesh_o1turn(4, 4, 1.0, 3);
        let a = sweep(&xy, &config, &energy()).unwrap();
        let b = sweep(&o1, &config, &energy()).unwrap();
        assert_eq!(a[0].packets, b[0].packets); // same offered traffic
    }
}
