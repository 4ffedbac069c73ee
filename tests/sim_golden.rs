//! Both router fidelities against `tests/golden/sim.jsonl`.
//!
//! The ideal router is held to its oracle, `noc::sim::reference`, by
//! `crates/sim/tests/equivalence.rs`. The credit router has no oracle, so
//! this table is the bit-level pin on its reports, errors and counters.
//! It holds one row per run:
//!
//! * *the benchmark's `sim_ramp` matrix*: the 13 applications of
//!   `ScenarioGrid::full()` synthesized on the square grid placement
//!   (Links, 180 nm) under ACG-pair traffic at rates 0.05–0.60, and the
//!   4×4 and 8×8 meshes under uniform traffic at rates 0.02–0.30; 400
//!   cycles, 64-bit payloads, seed 1, under `Ideal` and the default
//!   `Credit` pipeline;
//! * *seeded random credit configurations*: XY or O1TURN meshes up to
//!   5×4 and a ring whose two-hop routes can deadlock, RC 0–3, ST 0–3,
//!   credit return 0–4, buffers 1–4, and some low stall and cycle
//!   budgets, so deadlock and watchdog errors, blocked snapshots
//!   included, are pinned too.
//!
//! A row holds every `SimReport` field, floats compared by their bits, or
//! else the whole `SimError`, and the run's deltas of the telemetry
//! counters in `COUNTERS`. Telemetry installs once per process, so this
//! file holds a single test.
//!
//! A mismatch names the model, fidelity, config, rate and field.
//! Regenerate with `NOC_BLESS=1 cargo test -p noc-explore --test
//! sim_golden`; a normal run never writes the file.

use std::collections::BTreeMap;
use std::fmt::Write;

use noc::graph::NodeId;
use noc::prelude::*;
use noc::sim::{traffic, TrafficEvent};
use noc::telemetry::json::{JsonValue, Quoted};
use noc::telemetry::{self, Telemetry};
use noc_explore::ScenarioGrid;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/sim.jsonl");

/// The counters whose per-run deltas each row pins.
const COUNTERS: [&str; 5] = [
    "sim.cycles",
    "sim.flits",
    "sim.idle_cycles_skipped",
    "sim.credit_stall_cycles",
    "sim.vc_alloc_conflicts",
];

/// How many random credit configurations the table holds.
const RANDOM_CONFIGS: u64 = 400;

/// Mismatches a failure lists.
const SHOWN: usize = 40;

/// The fields that identify a row; every other field is an outcome.
const IDENTITY: [&str; 4] = ["model", "fidelity", "config", "rate"];

/// Which sources and destinations packets are drawn between.
enum Pairs {
    /// Only these pairs (a synthesized architecture routes only its ACG
    /// pairs).
    Listed(Vec<(NodeId, NodeId)>),
    /// Uniform pairs over this many nodes.
    Uniform(usize),
}

/// Seeded Bernoulli traffic.
struct Load {
    pairs: Pairs,
    cycles: u64,
    payload_bits: u64,
    seed: u64,
}

impl Load {
    fn events(&self, rate: f64) -> Vec<TrafficEvent> {
        let (cycles, payload, seed) = (self.cycles, self.payload_bits, self.seed);
        match &self.pairs {
            Pairs::Listed(pairs) => traffic::bernoulli_pairs(pairs, cycles, rate, payload, seed),
            Pairs::Uniform(nodes) => traffic::bernoulli(*nodes, cycles, rate, payload, seed),
        }
    }
}

/// Runs `load` at `rate` on `model` under `config` and renders the
/// outcome as one golden line.
fn row(model: &str, sim: &Simulator, config: &SimConfig, load: &Load, rate: f64) -> String {
    let tel = telemetry::active().expect("the test installs telemetry first");
    let before = COUNTERS.map(|name| tel.counter_value(name));
    let result = sim.run(load.events(rate));
    let mut described = format!(
        "buf{} stall{} max{}",
        config.buffer_flits, config.stall_cycles, config.max_cycles
    );
    if let RouterFidelity::Credit(pipe) = config.router {
        write!(
            described,
            " rc{} st{} cr{}",
            pipe.rc_cycles, pipe.st_cycles, pipe.credit_return_cycles
        )
        .unwrap();
    }
    write!(
        described,
        " {} cycles, {}-bit payloads, seed {}",
        load.cycles, load.payload_bits, load.seed
    )
    .unwrap();
    let mut line = format!(
        "{{\"model\": {}, \"fidelity\": {}, \"config\": {}, \"rate\": {rate:?}",
        Quoted(model),
        Quoted(config.router.label()),
        Quoted(&described),
    );
    match result {
        Ok(r) => write!(
            line,
            ", \"model_name\": {}, \"total_cycles\": {}, \"packets_offered\": {}, \"packets_delivered\": {}, \"payload_bits\": {}, \"avg_packet_latency_cycles\": {:?}, \"avg_network_latency_cycles\": {:?}, \"flits_injected\": {}, \"flits_ejected\": {}, \"energy_switch_j\": {:?}, \"energy_link_j\": {:?}, \"energy_idle_j\": {:?}, \"clock_hz\": {:?}",
            Quoted(&r.model_name),
            r.total_cycles,
            r.packets_offered,
            r.packets_delivered,
            r.payload_bits,
            r.avg_packet_latency_cycles,
            r.avg_network_latency_cycles,
            r.flits_injected,
            r.flits_ejected,
            r.energy.switch.joules(),
            r.energy.link.joules(),
            r.energy.idle.joules(),
            r.clock_hz,
        ),
        Err(e) => write!(line, ", \"error\": {}", Quoted(&format!("{e:?}"))),
    }
    .unwrap();
    for (name, was) in COUNTERS.iter().zip(before) {
        write!(
            line,
            ", {}: {}",
            Quoted(name),
            tel.counter_value(name) - was
        )
        .unwrap();
    }
    line.push('}');
    line
}

/// The benchmark's `sim_ramp` matrix.
fn ramp_rows(rows: &mut Vec<String>) {
    let ideal = SimConfig::default();
    let credit = SimConfig {
        router: RouterFidelity::Credit(CreditConfig::default()),
        ..ideal
    };
    let energy = EnergyModel::new(TechnologyProfile::cmos_180nm());
    let mut models: Vec<(String, NocModel, Pairs, &[f64])> = Vec::new();
    let mut last = String::new();
    for scenario in ScenarioGrid::full().enumerate() {
        let spec = scenario.workload;
        if spec.label() == last {
            continue;
        }
        last = spec.label();
        let acg = spec.instantiate();
        let pairs = acg
            .demands()
            .filter(|(_, d)| d.volume > 0.0)
            .map(|(e, _)| (e.src, e.dst))
            .collect();
        let side = (acg.core_count() as f64).sqrt().ceil() as usize;
        let result = SynthesisFlow::new(acg)
            .placement(Placement::grid(side, side, 2.0, 2.0))
            .run()
            .expect("unconstrained synthesis always succeeds");
        models.push((
            last.clone(),
            result.noc_model(),
            Pairs::Listed(pairs),
            &[0.05, 0.15, 0.30, 0.45, 0.60],
        ));
    }
    assert_eq!(models.len(), 13, "the full grid's applications");
    for k in [4, 8] {
        models.push((
            format!("mesh{k}x{k}"),
            NocModel::mesh(k, k, 1.0),
            Pairs::Uniform(k * k),
            &[0.02, 0.05, 0.10, 0.15, 0.20, 0.30],
        ));
    }
    for (name, model, pairs, rates) in models {
        let load = Load {
            pairs,
            cycles: 400,
            payload_bits: 64,
            seed: 1,
        };
        for config in [ideal, credit] {
            let sim = Simulator::new(&model, config, energy.clone());
            for &rate in rates {
                rows.push(row(&name, &sim, &config, &load, rate));
            }
        }
    }
}

/// SplitMix64, the random configurations' only source of randomness.
struct SplitMix(u64);

impl SplitMix {
    /// A draw in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// Four nodes in a one-way ring, each sending two hops ahead: a cyclic
/// channel dependency, so small buffers deadlock.
fn ring() -> (NocModel, Pairs) {
    let mut routes = BTreeMap::new();
    for s in 0..4usize {
        let d = (s + 2) % 4;
        routes.insert(
            (NodeId(s), NodeId(d)),
            vec![NodeId(s), NodeId((s + 1) % 4), NodeId(d)],
        );
    }
    let pairs = Pairs::Listed(routes.keys().copied().collect());
    let model = NocModel::from_parts("ring4", DiGraph::cycle(4), routes, BTreeMap::new(), 1.0);
    (model, pairs)
}

/// Seeded random credit configurations, one run each.
fn random_rows(rows: &mut Vec<String>) {
    let energy = EnergyModel::new(TechnologyProfile::cmos_180nm());
    let mut rng = SplitMix(0x5157_601d);
    for _ in 0..RANDOM_CONFIGS {
        let seed = rng.below(1_000);
        let (name, model, pairs) = if rng.below(16) == 0 {
            let (model, pairs) = ring();
            ("ring4".to_string(), model, pairs)
        } else {
            let (cols, rows) = (2 + rng.below(4) as usize, 1 + rng.below(4) as usize);
            let (routing, model) = if rng.below(2) == 0 {
                ("mesh", NocModel::mesh(cols, rows, 1.0))
            } else {
                ("o1turn", NocModel::mesh_o1turn(cols, rows, 1.0, seed))
            };
            let name = format!("{routing}{cols}x{rows}");
            (name, model, Pairs::Uniform(cols * rows))
        };
        let pipe = CreditConfig {
            rc_cycles: rng.below(4),
            st_cycles: rng.below(4),
            credit_return_cycles: rng.below(5),
        };
        let defaults = SimConfig::default();
        let config = SimConfig {
            buffer_flits: 1 + rng.below(4) as usize,
            stall_cycles: if rng.below(8) == 0 {
                1 + rng.below(12)
            } else {
                defaults.stall_cycles
            },
            max_cycles: if rng.below(16) == 0 {
                20 + rng.below(80)
            } else {
                defaults.max_cycles
            },
            router: RouterFidelity::Credit(pipe),
            ..defaults
        };
        let load = Load {
            pairs,
            cycles: 40 + 20 * rng.below(5),
            payload_bits: [16, 64, 256][rng.below(3) as usize],
            seed,
        };
        let rate = [0.05, 0.1, 0.2, 0.3, 0.45, 0.6][rng.below(6) as usize];
        let sim = Simulator::new(&model, config, energy.clone());
        rows.push(row(&name, &sim, &config, &load, rate));
    }
}

/// The mismatches between a row and its golden line, each naming the
/// run and the field.
fn diff(got: &JsonValue, want: &JsonValue) -> Vec<String> {
    let (JsonValue::Object(got_members), JsonValue::Object(want_members)) = (got, want) else {
        return vec!["a row is not a JSON object".to_string()];
    };
    let run = IDENTITY.map(|key| match want.get(key) {
        Some(JsonValue::String(s)) => s.clone(),
        Some(JsonValue::F64(x)) => format!("{x:?}"),
        v => show(v),
    });
    let keys = want_members
        .iter()
        .chain(got_members.iter().filter(|(k, _)| want.get(k).is_none()))
        .map(|(k, _)| k);
    let mut out = Vec::new();
    for key in keys {
        let (g, w) = (got.get(key), want.get(key));
        let same = match (g, w) {
            (Some(JsonValue::F64(a)), Some(JsonValue::F64(b))) => a.to_bits() == b.to_bits(),
            _ => g == w,
        };
        if !same {
            out.push(format!(
                "{} {} [{}] rate {}: {key} = {}, golden {}",
                run[0],
                run[1],
                run[2],
                run[3],
                show(g),
                show(w)
            ));
        }
    }
    out
}

fn show(v: Option<&JsonValue>) -> String {
    match v {
        None => "(absent)".to_string(),
        Some(JsonValue::U64(n)) => n.to_string(),
        Some(JsonValue::F64(x)) => format!("{x:?} (bits {:#x})", x.to_bits()),
        Some(JsonValue::String(s)) => s.clone(),
        Some(v) => format!("{v:?}"),
    }
}

#[test]
fn both_router_fidelities_match_the_golden_table() {
    assert!(telemetry::install(Telemetry::recording()));
    let mut rows = Vec::new();
    ramp_rows(&mut rows);
    random_rows(&mut rows);
    if std::env::var_os("NOC_BLESS").is_some_and(|v| v == "1") {
        let text: String = rows.iter().map(|row| row.clone() + "\n").collect();
        std::fs::write(GOLDEN, text).expect("write the simulator golden table");
        return;
    }
    let text = std::fs::read_to_string(GOLDEN)
        .expect("tests/golden/sim.jsonl exists (NOC_BLESS=1 regenerates it)");
    let golden: Vec<JsonValue> = text
        .lines()
        .enumerate()
        .map(|(i, line)| {
            JsonValue::parse(line).unwrap_or_else(|e| panic!("sim.jsonl:{}: {e}", i + 1))
        })
        .collect();
    assert_eq!(
        golden.len(),
        rows.len(),
        "the golden table lists another number of runs"
    );
    let mismatches: Vec<String> = rows
        .iter()
        .zip(&golden)
        .flat_map(|(got, want)| diff(&JsonValue::parse(got).expect("rows are valid JSON"), want))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} mismatch(es) against tests/golden/sim.jsonl, the first {}:\n{}",
        mismatches.len(),
        mismatches.len().min(SHOWN),
        mismatches[..mismatches.len().min(SHOWN)].join("\n")
    );
}
