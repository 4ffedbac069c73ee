//! Simulator throughput: simulated cycles and ejected flits per wall-clock
//! second on saturating uniform-traffic load ramps over square meshes,
//! comparing the event-driven engine against the preserved seed-semantics
//! rescan loop (`noc::sim::reference`) it replaced.
//!
//! The comparison is honest because it is *proved* first: before any
//! timing, every swept (mesh, rate) point is run through both cores and
//! the reports must match bit for bit. A speedup over a core producing
//! different answers would be meaningless.
//!
//! The ≥ 5× gate is measured *paired*: rounds of one seed ramp and one
//! event ramp back to back, gating on the median per-round ratio, so a
//! frequency or thermal drift across the run scales both sides of each
//! round and cancels — unlike comparing two criterion groups measured
//! minutes apart.
//!
//! Rows follow `BENCH_decompose.json`'s labeling: each records its
//! `threads` (always 1), the `hardware_threads` it ran on, and a `mode`
//! label — no headline `speedup` column. Per mesh there are four rows:
//! `seed_semantics` (the preserved rescan loop run over the ramp,
//! regenerating traffic per point exactly as `sweep()` does),
//! `sequential` (the event core over the *same* per-point loop — the
//! like-for-like engine comparison, gated at ≥ 5× on 4×4), `sweep` (the
//! full `sweep()` driver), and `credit` (the same per-point loop under
//! the credit-based pipelined router, `RouterFidelity::Credit` at the
//! default one-cycle pipeline). The per-row `vs_seed` ratio on event
//! rows tracks the rework itself.
//!
//! The credit pipeline's cost is budgeted the same paired way the
//! engine's speedup is gated: rounds of one ideal ramp and one credit
//! ramp back to back on the 4×4 mesh, and the median per-round slowdown
//! must stay ≤ 2× — full fidelity may not cost more than two ideal
//! runs. The `credit_gate` object in the JSON records the measurement.
//!
//! Writes `BENCH_sim.json` at the repository root.
//!
//! Run with: `cargo bench --bench sim_throughput`. Set
//! `NOC_BENCH_QUICK=1` for the CI smoke run (4×4 only, short windows).

use std::time::Duration;

use criterion::Criterion;
use noc::energy::{EnergyModel, TechnologyProfile};
use noc::sim::sweep::{sweep, SweepConfig};
use noc::sim::{
    reference, traffic, CreditConfig, NocModel, RouterFidelity, Simulator, TrafficEvent,
};

/// The load ramp: low-load points (latency anchors) up through
/// saturation, where every buffer stays contended.
const RATES: [f64; 4] = [0.05, 0.25, 0.45, 0.6];
const SEED: u64 = 7;
const PAYLOAD_BITS: u64 = 64;
/// Most a credit-router ramp may cost, as a multiple of the ideal
/// router's (median of the paired rounds).
const CREDIT_BUDGET: f64 = 2.0;

fn quick_mode() -> bool {
    std::env::var_os("NOC_BENCH_QUICK").is_some_and(|v| v != "0")
}

fn sides() -> &'static [usize] {
    if quick_mode() {
        &[4]
    } else {
        &[4, 6, 8]
    }
}

/// Ramp length. Long enough that steady-state forwarding dominates the
/// post-injection drain tail; quick mode trims the mesh list and the
/// measurement window instead of the workload.
fn duration() -> u64 {
    1_000
}

fn energy() -> EnergyModel {
    EnergyModel::new(TechnologyProfile::cmos_180nm())
}

fn sweep_config(duration: u64) -> SweepConfig {
    SweepConfig {
        rates: RATES.to_vec(),
        duration_cycles: duration,
        payload_bits: PAYLOAD_BITS,
        seed: SEED,
        saturation_cutoff: None, // fixed work per iteration
        ..Default::default()
    }
}

/// The same traffic `sweep()` generates for each ramp point.
fn ramp_events(model: &NocModel, duration: u64) -> Vec<Vec<TrafficEvent>> {
    RATES
        .iter()
        .map(|&rate| traffic::bernoulli(model.node_count(), duration, rate, PAYLOAD_BITS, SEED))
        .collect()
}

/// Runs the whole ramp through the seed-semantics core, regenerating
/// traffic per point exactly as `sweep()` does — the baseline workload.
fn seed_ramp(model: &NocModel, duration: u64) -> u64 {
    let energy = energy();
    let cfg = noc::sim::SimConfig::default();
    let mut cycles = 0u64;
    for &rate in &RATES {
        let events = traffic::bernoulli(model.node_count(), duration, rate, PAYLOAD_BITS, SEED);
        let report =
            reference::run_reference(model, &cfg, &energy, &events).expect("seed ramp completes");
        cycles += report.total_cycles;
    }
    cycles
}

/// The same per-point loop on the event core — identical workload,
/// identical traffic regeneration, only the engine swapped.
fn event_ramp(sim: &Simulator, nodes: usize, duration: u64) -> u64 {
    let mut cycles = 0u64;
    for &rate in &RATES {
        let events = traffic::bernoulli(nodes, duration, rate, PAYLOAD_BITS, SEED);
        let report = sim.run(events).expect("event ramp completes");
        cycles += report.total_cycles;
    }
    cycles
}

/// The credit-router configuration under test: the default one-cycle
/// pipeline (RC 1, ST 1, credit return 1).
fn credit_config() -> noc::sim::SimConfig {
    noc::sim::SimConfig {
        router: RouterFidelity::Credit(CreditConfig::default()),
        ..noc::sim::SimConfig::default()
    }
}

/// `event_ramp`, but also folding ejected flits — the credit rows report
/// their own totals because the pipeline stretches the simulated ramp.
fn ramp_totals(sim: &Simulator, nodes: usize, duration: u64) -> (u64, u64) {
    let mut cycles = 0u64;
    let mut flits = 0u64;
    for &rate in &RATES {
        let events = traffic::bernoulli(nodes, duration, rate, PAYLOAD_BITS, SEED);
        let report = sim.run(events).expect("credit ramp completes");
        cycles += report.total_cycles;
        flits += report.flits_ejected;
    }
    (cycles, flits)
}

fn main() {
    let duration = duration();
    let hw = std::thread::available_parallelism().map_or(1, |t| t.get());

    // Equivalence preflight: both cores, every point, bit for bit.
    let mut totals = Vec::new(); // (side, total_cycles, total_flits)
    for &side in sides() {
        let model = NocModel::mesh(side, side, 1.0);
        let cfg = noc::sim::SimConfig::default();
        let mut cycles = 0u64;
        let mut flits = 0u64;
        for events in ramp_events(&model, duration) {
            let new = Simulator::new(&model, cfg, energy())
                .run(events.clone())
                .expect("event core completes");
            let old = reference::run_reference(&model, &cfg, &energy(), &events)
                .expect("seed core completes");
            assert_eq!(new, old, "cores disagree on {side}x{side}");
            assert_eq!(
                new.energy.total().joules().to_bits(),
                old.energy.total().joules().to_bits(),
                "energy bits disagree on {side}x{side}"
            );
            cycles += new.total_cycles;
            flits += new.flits_ejected;
        }
        let credit_sim = Simulator::new(&model, credit_config(), energy());
        let (credit_cycles, credit_flits) = ramp_totals(&credit_sim, model.node_count(), duration);
        totals.push((side, cycles, flits, credit_cycles, credit_flits));
    }

    // Paired gate measurement on the 4×4 mesh (see module docs). The
    // zeroth round warms caches and the frequency governor and is
    // discarded.
    let gate_rounds = if quick_mode() { 15 } else { 21 };
    let mut gate_ratios = Vec::with_capacity(gate_rounds);
    {
        let model = NocModel::mesh(4, 4, 1.0);
        let sim = Simulator::new(&model, noc::sim::SimConfig::default(), energy());
        for round in 0..gate_rounds + 1 {
            let t0 = std::time::Instant::now();
            let c0 = seed_ramp(&model, duration);
            let seed_t = t0.elapsed();
            let t0 = std::time::Instant::now();
            let c1 = event_ramp(&sim, model.node_count(), duration);
            let event_t = t0.elapsed();
            assert_eq!(c0, c1, "ramps simulate different cycle counts");
            if round > 0 {
                gate_ratios.push(seed_t.as_secs_f64() / event_t.as_secs_f64());
            }
        }
    }
    gate_ratios.sort_by(|a, b| a.total_cmp(b));
    let gate_vs_seed = gate_ratios[gate_ratios.len() / 2];
    assert!(
        gate_vs_seed >= 5.0,
        "event core is only {gate_vs_seed:.2}x the seed loop on the \
         saturating 4x4 ramp (median of {gate_rounds} paired rounds, \
         need >= 5x)"
    );

    // Paired credit-overhead budget on the same 4x4 ramp: ideal and
    // credit rounds back to back, gating on the median per-round
    // slowdown so drift cancels exactly as in the speedup gate above.
    let mut credit_ratios = Vec::with_capacity(gate_rounds);
    {
        let model = NocModel::mesh(4, 4, 1.0);
        let ideal = Simulator::new(&model, noc::sim::SimConfig::default(), energy());
        let credit = Simulator::new(&model, credit_config(), energy());
        for round in 0..gate_rounds + 1 {
            let t0 = std::time::Instant::now();
            event_ramp(&ideal, model.node_count(), duration);
            let ideal_t = t0.elapsed();
            let t0 = std::time::Instant::now();
            ramp_totals(&credit, model.node_count(), duration);
            let credit_t = t0.elapsed();
            if round > 0 {
                credit_ratios.push(credit_t.as_secs_f64() / ideal_t.as_secs_f64());
            }
        }
    }
    credit_ratios.sort_by(|a, b| a.total_cmp(b));
    let credit_vs_ideal = credit_ratios[credit_ratios.len() / 2];
    assert!(
        credit_vs_ideal <= CREDIT_BUDGET,
        "credit-mode ramp costs {credit_vs_ideal:.2}x the ideal router on \
         the saturating 4x4 ramp (median of {gate_rounds} paired rounds, \
         budget <= {CREDIT_BUDGET}x)"
    );

    let mut criterion = Criterion::default();
    let window = Duration::from_millis(if quick_mode() { 300 } else { 1_500 });
    for &side in sides() {
        let model = NocModel::mesh(side, side, 1.0);
        let name = format!("sim_{side}x{side}");
        let mut group = criterion.benchmark_group(&name);
        group.sample_size(10);
        group.measurement_time(window);
        let sim = Simulator::new(&model, noc::sim::SimConfig::default(), energy());
        let credit_sim = Simulator::new(&model, credit_config(), energy());
        group.bench_function("seed", |b| b.iter(|| seed_ramp(&model, duration)));
        group.bench_function("event_t1", |b| {
            b.iter(|| event_ramp(&sim, model.node_count(), duration))
        });
        group.bench_function("event_sweep", |b| {
            b.iter(|| {
                sweep(&model, &sweep_config(duration), &energy())
                    .unwrap()
                    .len()
            })
        });
        group.bench_function("credit_t1", |b| {
            b.iter(|| ramp_totals(&credit_sim, model.node_count(), duration))
        });
        group.finish();
    }

    let mean_of = |id: String| {
        criterion
            .results()
            .iter()
            .find(|r| r.id == id)
            .unwrap_or_else(|| panic!("no criterion result for {id}"))
            .mean_ns
    };
    let mut rows = Vec::new();
    for &(side, cycles, flits, credit_cycles, credit_flits) in &totals {
        let seed_ns = mean_of(format!("sim_{side}x{side}/seed"));
        for (bench, mode) in [
            ("seed", "seed_semantics"),
            ("event_t1", "sequential"),
            ("event_sweep", "sweep"),
            ("credit_t1", "credit"),
        ] {
            let ns = mean_of(format!("sim_{side}x{side}/{bench}"));
            // The credit pipeline simulates its own (longer) ramp; its
            // throughput row reports the cycles it actually retired.
            let (row_cycles, row_flits) = if bench == "credit_t1" {
                (credit_cycles, credit_flits)
            } else {
                (cycles, flits)
            };
            let cps = row_cycles as f64 / (ns / 1e9);
            let fps = row_flits as f64 / (ns / 1e9);
            let vs_seed = if bench == "seed" {
                String::new()
            } else {
                format!(", \"vs_seed\": {:.3}", seed_ns / ns)
            };
            rows.push(format!(
                "    {{\"mesh\": \"{side}x{side}\", \"ramp_points\": {}, \"simulated_cycles\": {row_cycles}, \"flits\": {row_flits}, \"threads\": 1, \"hardware_threads\": {hw}, \"mode\": \"{mode}\", \"mean_ms\": {:.4}, \"cycles_per_sec\": {:.1}, \"flits_per_sec\": {:.1}{vs_seed}}}",
                RATES.len(),
                ns / 1e6,
                cps,
                fps,
            ));
        }
    }
    let json = format!(
        "{{\n  \"bench\": \"sim_throughput\",\n  \"workload\": \"uniform_bernoulli_ramp\",\n  \"rates\": [0.05, 0.25, 0.45, 0.6],\n  \"duration_cycles\": {duration},\n  \"payload_bits\": {PAYLOAD_BITS},\n  \"seed\": {SEED},\n  \"unit\": \"simulated_cycles_per_second\",\n  \"equivalence\": \"all ramp points bit-identical to seed semantics\",\n  \"gate\": {{\"mesh\": \"4x4\", \"paired_rounds\": {gate_rounds}, \"median_vs_seed\": {gate_vs_seed:.3}, \"floor\": 5.0}},\n  \"credit_gate\": {{\"mesh\": \"4x4\", \"paired_rounds\": {gate_rounds}, \"median_vs_ideal\": {credit_vs_ideal:.3}, \"budget\": {CREDIT_BUDGET:.1}}},\n  \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    std::fs::write(path, &json).expect("write BENCH_sim.json");
    println!("\nwrote {path}");
}
