//! Per-layer accounting from outside the program: every call into a
//! layer's public API is wrapped in a timer here, in the benchmark's own
//! files, and summed by layer name. The summed rows make the self-time
//! tree printed by a traced run.

use std::collections::BTreeMap;
use std::time::Instant;

/// Layer rows: the row name, the workspace crate it times, and what the
/// timer wraps.
pub const LAYERS: &[(&str, &str, &str)] = &[
    (
        "workloads.instantiate",
        "noc-workloads",
        "WorkloadSpec::instantiate",
    ),
    (
        "floorplan",
        "noc-floorplan",
        "SynthesisFlow::auto_placement",
    ),
    ("decompose", "noc-synthesis", "Decomposer::run"),
    ("glue", "noc-synthesis", "Architecture::synthesize"),
    (
        "constraints",
        "noc-synthesis",
        "constraints::check minus its bisection",
    ),
    (
        "bisection",
        "noc-graph",
        "Architecture::stats inside constraints::check",
    ),
    ("verify", "noc-verify", "routing spec + verify"),
    (
        "sim.model",
        "noc-sim",
        "FlowResult::noc_model / NocModel::mesh",
    ),
    ("sim.compile", "noc-sim", "Simulator::new"),
    ("sim.traffic", "noc-sim", "traffic::bernoulli*"),
    ("sim.run.ideal", "noc-sim", "Simulator::run, ideal router"),
    ("sim.run.credit", "noc-sim", "Simulator::run, credit router"),
    ("explore.fold", "noc-explore", "CampaignReport::assemble"),
    ("report.to_json", "noc-explore", "CampaignReport::to_json"),
    (
        "report.from_json",
        "noc-explore",
        "CampaignReport::from_json",
    ),
];

/// The second `Architecture::stats` call that splits the bisection out of
/// `constraints::check`. It exists only to measure, so its time is taken
/// out of the traced wall.
pub const PROBE: &str = "bisection.probe";

/// Summed layer times (ms) and counters over the passes of one run.
#[derive(Debug, Default)]
pub struct Trace {
    on: bool,
    ms: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
    /// Wall time of the passes the rows were recorded in.
    wall_ms: f64,
}

impl Trace {
    /// A trace that records.
    pub fn on() -> Self {
        Trace {
            on: true,
            ..Trace::default()
        }
    }

    /// A trace whose timers only run the call.
    pub fn off() -> Self {
        Trace::default()
    }

    /// Runs `f`, adding its duration to `layer` when recording.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let value = f();
        self.add_ms(layer, t0.elapsed().as_secs_f64() * 1e3);
        value
    }

    /// Adds an externally measured duration to `layer`.
    pub fn add_ms(&mut self, layer: &'static str, ms: f64) {
        debug_assert!(
            layer == PROBE || LAYERS.iter().any(|(name, ..)| *name == layer),
            "unknown layer {layer}"
        );
        if self.on {
            *self.ms.entry(layer).or_default() += ms;
        }
    }

    /// Adds `n` to a counter.
    pub fn count(&mut self, name: &'static str, n: f64) {
        if self.on {
            *self.counts.entry(name).or_default() += n;
        }
    }

    pub fn add_wall(&mut self, ms: f64) {
        self.wall_ms += ms;
    }

    pub fn ms(&self, layer: &str) -> f64 {
        self.ms.get(layer).copied().unwrap_or(0.0)
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// The time the rows are measured against.
    pub fn total_ms(&self) -> f64 {
        self.wall_ms - self.ms(PROBE)
    }

    /// Time covered by the layer rows.
    pub fn attributed_ms(&self) -> f64 {
        LAYERS.iter().map(|(name, ..)| self.ms(name)).sum()
    }

    /// The self-time tree: one branch per crate, one leaf per row, and an
    /// explicit `unattributed` row, all in ms per pass.
    pub fn render(&self, workload: &str, passes: usize) -> String {
        let per = |ms: f64| ms / passes.max(1) as f64;
        let total = self.total_ms();
        let share = |ms: f64| if total > 0.0 { 100.0 * ms / total } else { 0.0 };
        let mut out = format!(
            "{workload}: {:.3} ms per pass over {passes} traced passes\n",
            per(total)
        );
        let mut crates: Vec<&str> = LAYERS.iter().map(|(_, krate, _)| *krate).collect();
        crates.dedup();
        for krate in crates {
            let rows: Vec<_> = LAYERS
                .iter()
                .filter(|(name, k, _)| *k == krate && self.ms(name) > 0.0)
                .collect();
            if rows.is_empty() {
                continue;
            }
            let sum: f64 = rows.iter().map(|(name, ..)| self.ms(name)).sum();
            out += &format!("  {krate:<44} {:>10.3} {:>6.1}%\n", per(sum), share(sum));
            for (name, _, what) in rows {
                let ms = self.ms(name);
                out += &format!(
                    "    {:<42} {:>10.3} {:>6.1}%  {what}\n",
                    name,
                    per(ms),
                    share(ms)
                );
            }
        }
        let unattributed = total - self.attributed_ms();
        out += &format!(
            "  {:<44} {:>10.3} {:>6.1}%\n",
            "unattributed",
            per(unattributed),
            share(unattributed)
        );
        if self.ms(PROBE) > 0.0 {
            out += &format!(
                "  {:<44} {:>10.3}  not in the total\n",
                PROBE,
                per(self.ms(PROBE))
            );
        }
        out
    }
}
