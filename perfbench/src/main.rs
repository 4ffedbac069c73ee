//! The repository benchmark: three workloads over the NoC synthesis
//! workspace, measured end to end with tracing off, and layer by layer in
//! a separate traced run that times calls into each crate's public API
//! from here.
//!
//! ```text
//! perfbench --workload campaign_full|fig4_fixed|sim_ramp
//!           --seed N --seconds S --trace 0|1 [--print-golden]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` beside
//! this package for the workloads, the metrics and the golden checks.

mod campaign;
mod fig4;
mod golden;
mod pace;
mod sim;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use trace::Trace;

/// Set-up is sampled `MIN_SETUPS` times before the first pass, then again
/// after any pass that leaves set-ups under `SETUP_SHARE` of the measured
/// time, so the samples span the run; `setup_s` is the median sample,
/// paced as `totals` paces `wall_s`. A sample repeats set-up until
/// `SETUP_SAMPLE_S` have gone and takes the mean, so a set-up of
/// microseconds is not a single clock reading.
const MIN_SETUPS: usize = 3;
const SETUP_SHARE: f64 = 0.1;
const SETUP_SAMPLE_S: f64 = 0.02;
/// Fewest measured passes per run, however long a pass takes.
const MIN_PASSES: usize = 3;

/// What one pass produced besides its wall time: golden-check tallies and
/// the work done, for the rate metrics.
#[derive(Debug, Default)]
pub struct Pass {
    pub attempted: u64,
    pub failed: u64,
    /// Synthesis flows completed.
    pub flows: u64,
    /// Per-flow wall times, ms (Figure 4 instances).
    pub flow_ms: Vec<f64>,
    /// Delivered flits and host seconds, ideal then credit router.
    pub sim: [(u64, f64); 2],
    pub hypervolume: f64,
    /// Time spent in measurement-only calls, taken out of the pass wall.
    pub excluded_s: f64,
}

impl Pass {
    /// Counts one checked operation; a mismatch is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// One workload's fixed work, built once by its set-up.
pub trait Workload {
    /// One pass, untraced.
    fn pass(&mut self, out: &mut Pass);
    /// The same work with every layer call timed into `trace`.
    fn traced_pass(&mut self, trace: &mut Trace, out: &mut Pass);
    /// Prints the values the golden tables hold, as Rust source.
    fn print_golden(&self);
}

pub const WORKLOADS: [&str; 3] = ["campaign_full", "fig4_fixed", "sim_ramp"];

fn setup(name: &str, seed: u64, trace: &mut Trace, checks: &mut Pass) -> Box<dyn Workload> {
    match name {
        "campaign_full" => Box::new(campaign::CampaignBench::setup(seed, trace, checks)),
        "fig4_fixed" => Box::new(fig4::Fig4Bench::setup(seed, trace, checks)),
        "sim_ramp" => Box::new(sim::SimBench::setup(seed, trace, checks)),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// A deterministic permutation of `items` drawn from `seed`
/// (SplitMix64-driven Fisher–Yates).
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_golden: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        print_golden: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-golden" {
            args.print_golden = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One measured pass.
struct Timed {
    /// Wall time, s.
    wall_s: f64,
    /// Mean of the pace samples just before and just after the pass, ms.
    pace_ms: f64,
    out: Pass,
}

/// Runs `pass` until `seconds` have elapsed and at least [`MIN_PASSES`]
/// passes are done, taking a pace sample between passes and calling
/// `between` with the elapsed seconds after each.
fn measure(
    seconds: f64,
    mut pass: impl FnMut(&mut Pass),
    mut between: impl FnMut(f64),
) -> Vec<Timed> {
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut before = pace::sample();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let mut out = Pass::default();
        let t0 = Instant::now();
        pass(&mut out);
        let wall_s = t0.elapsed().as_secs_f64() - out.excluded_s;
        let after = pace::sample();
        passes.push(Timed {
            wall_s,
            pace_ms: (before + after) / 2.0,
            out,
        });
        before = after;
        between(start.elapsed().as_secs_f64());
    }
    passes
}

/// Times set-ups of one workload.
struct SetupClock<'a> {
    args: &'a Args,
    /// Mean seconds per set-up and the mean of the pace samples around
    /// it, ms, one entry per sample.
    samples: Vec<(f64, f64)>,
    spent: f64,
}

impl SetupClock<'_> {
    /// The set-up whose workload is measured: one timed call.
    fn first(&mut self, trace: &mut Trace, checks: &mut Pass) -> Box<dyn Workload> {
        let before = pace::sample();
        let t0 = Instant::now();
        let workload = setup(&self.args.workload, self.args.seed, trace, checks);
        let secs = t0.elapsed().as_secs_f64();
        self.record(secs, 1, before);
        workload
    }

    /// One sample of discarded set-ups.
    fn sample(&mut self) {
        let before = pace::sample();
        let t0 = Instant::now();
        let mut n = 0;
        while n == 0 || t0.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
            setup(
                &self.args.workload,
                self.args.seed,
                &mut Trace::off(),
                &mut Pass::default(),
            );
            n += 1;
        }
        self.record(t0.elapsed().as_secs_f64(), n, before);
    }

    fn record(&mut self, secs: f64, setups: usize, pace_before: f64) {
        let pace_ms = (pace_before + pace::sample()) / 2.0;
        self.samples.push((secs / setups as f64, pace_ms));
        self.spent += secs;
    }

    /// Median set-up time, s, at the reference pace, and the fastest raw
    /// sample.
    fn setup_s(&self) -> (f64, f64) {
        let mut paced: Vec<f64> = self.samples.iter().map(|(s, p)| s / p).collect();
        let mut raw: Vec<f64> = self.samples.iter().map(|(s, _)| *s).collect();
        (
            quantile(&mut paced, 0.5) * pace::REFERENCE_MS,
            quantile(&mut raw, 0.0),
        )
    }

    /// Another sample if set-ups are under their share of `elapsed`
    /// measured seconds.
    fn between_passes(&mut self, elapsed: f64) {
        if self.spent < SETUP_SHARE * elapsed {
            self.sample();
        }
    }
}

/// Linear-interpolated quantile `q` of `values` (sorted in place).
fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// Totals over a set of passes.
struct Totals {
    wall_s: f64,
    /// Median raw pass wall time, s, and pace sample, ms.
    raw_wall_s: f64,
    pace_ms: f64,
    flows_per_s: f64,
    flow_ms: Vec<f64>,
    mflits_per_s: [f64; 2],
    hypervolume: f64,
    attempted: u64,
    failed: u64,
}

/// `wall_s` is the median over the passes of each pass's wall time over
/// the pace samples around it, in seconds at [`pace::REFERENCE_MS`] per
/// kernel run: the time one pass's work takes at the reference host speed.
fn totals(passes: &[Timed]) -> Totals {
    let mut paced: Vec<f64> = passes.iter().map(|t| t.wall_s / t.pace_ms).collect();
    let wall_s = quantile(&mut paced, 0.5) * pace::REFERENCE_MS;
    let mut walls: Vec<f64> = passes.iter().map(|t| t.wall_s).collect();
    let mut paces: Vec<f64> = passes.iter().map(|t| t.pace_ms).collect();
    let mut sim = [(0u64, 0.0f64); 2];
    for p in passes.iter().map(|t| &t.out) {
        for (acc, (flits, secs)) in sim.iter_mut().zip(p.sim) {
            acc.0 += flits;
            acc.1 += secs;
        }
    }
    let last = &passes.last().expect("at least one pass").out;
    Totals {
        wall_s,
        raw_wall_s: quantile(&mut walls, 0.5),
        pace_ms: quantile(&mut paces, 0.5),
        flows_per_s: last.flows as f64 / wall_s,
        flow_ms: passes.iter().flat_map(|t| t.out.flow_ms.clone()).collect(),
        mflits_per_s: sim.map(|(flits, secs)| {
            if secs > 0.0 {
                flits as f64 / secs / 1e6
            } else {
                0.0
            }
        }),
        hypervolume: last.hypervolume,
        attempted: passes.iter().map(|t| t.out.attempted).sum(),
        failed: passes.iter().map(|t| t.out.failed).sum(),
    }
}

fn print_result(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--print-golden]"
            );
            return ExitCode::from(2);
        }
    };

    // Set-up; the checks and layer rows of the first one count.
    let mut checks = Pass::default();
    let mut setup_trace = if args.trace {
        Trace::on()
    } else {
        Trace::off()
    };
    let mut clock = SetupClock {
        args: &args,
        samples: Vec::new(),
        spent: 0.0,
    };
    let mut workload = clock.first(&mut setup_trace, &mut checks);
    for _ in 1..MIN_SETUPS {
        clock.sample();
    }

    // One warm-up pass fills lazy state and is checked like the others.
    workload.pass(&mut checks);
    if args.print_golden {
        workload.print_golden();
    }

    if !args.trace {
        let passes = measure(
            args.seconds,
            |out| workload.pass(out),
            |elapsed| clock.between_passes(elapsed),
        );
        let t = totals(&passes);
        let (setup_s, raw_setup_s) = clock.setup_s();
        let mut walls: Vec<f64> = passes.iter().map(|t| t.wall_s).collect();
        eprintln!(
            "{}: {} passes, wall_s {:.4}; raw pass s min {:.4} median {:.4} max {:.4}; \
             pace ms median {:.4}; {} set-up samples, setup_s {:.3e}, raw s min {:.3e}",
            args.workload,
            passes.len(),
            t.wall_s,
            quantile(&mut walls, 0.0),
            quantile(&mut walls, 0.5),
            quantile(&mut walls, 1.0),
            t.pace_ms,
            clock.samples.len(),
            setup_s,
            raw_setup_s,
        );
        print_result(
            checks.attempted + t.attempted,
            checks.failed + t.failed,
            &[
                ("setup_s", setup_s, "s"),
                ("wall_s", t.wall_s, "s"),
                ("peak_rss_mb", peak_rss_mb(), "MB"),
            ],
        );
        return ExitCode::SUCCESS;
    }

    // Traced run, in three phases of equal length: untraced passes (the
    // baseline and the workload-level figures); the same passes with a
    // recording `noc-telemetry` handle installed, for the telemetry's own
    // cost; then the traced passes, every layer call timed from here.
    let phase_s = args.seconds / 3.0;
    let untraced = measure(phase_s, |out| workload.pass(out), |_| {});
    let u = totals(&untraced);
    noc::telemetry::install(noc::telemetry::Telemetry::recording());
    let tel = noc::telemetry::active().expect("telemetry just installed");
    let recorded = measure(
        phase_s,
        |out| workload.pass(out),
        |_| {
            tel.drain();
        },
    );
    let r = totals(&recorded);
    let sim_counters = [
        "sim.idle_cycles_skipped",
        "sim.credit_stall_cycles",
        "sim.vc_alloc_conflicts",
    ];
    let counters_before = sim_counters.map(|name| tel.counter_value(name));
    let mut trace = Trace::on();
    let traced = measure(
        phase_s,
        |out| {
            let probe = trace.ms(trace::PROBE);
            let t0 = Instant::now();
            workload.traced_pass(&mut trace, out);
            trace.add_wall(t0.elapsed().as_secs_f64() * 1e3);
            out.excluded_s = (trace.ms(trace::PROBE) - probe) / 1e3;
        },
        |_| {
            tel.drain();
        },
    );
    let t = totals(&traced);
    let n = traced.len() as f64;
    eprint!("{}", trace.render(&args.workload, traced.len()));

    let attempted = checks.attempted + u.attempted + r.attempted + t.attempted;
    let failed = checks.failed + u.failed + r.failed + t.failed;
    let tr = &trace;
    let per = |v: f64| v / n;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut flow_ms = u.flow_ms.clone();
    let mut flow_quantile = |q| {
        if flow_ms.is_empty() {
            0.0
        } else {
            quantile(&mut flow_ms, q)
        }
    };
    let counters_ratio =
        |hits: &str, misses: &str| ratio(tr.counter(hits), tr.counter(hits) + tr.counter(misses));
    let mut metrics = vec![
        ("wall_raw_s", u.raw_wall_s, "s"),
        ("pace_ms", u.pace_ms, "ms"),
        ("flows_per_s", u.flows_per_s, "1/s"),
        ("flow_ms_p50", flow_quantile(0.5), "ms"),
        ("flow_ms_p90", flow_quantile(0.9), "ms"),
        ("flow_samples", u.flow_ms.len() as f64, "count"),
        ("sim_ideal_mflits_per_s", u.mflits_per_s[0], "Mflit/s"),
        ("sim_credit_mflits_per_s", u.mflits_per_s[1], "Mflit/s"),
        ("front_hypervolume", u.hypervolume, "ratio"),
        (
            "error_rate",
            ratio(failed as f64, attempted as f64),
            "ratio",
        ),
        (
            "workloads.instantiate_ms",
            setup_trace.ms("workloads.instantiate") + per(tr.ms("workloads.instantiate")),
            "ms",
        ),
        (
            "floorplan.ms_per_core",
            ratio(tr.ms("floorplan"), tr.counter("floorplan.cores")),
            "ms",
        ),
        (
            "campaign.floorplan_useful_ratio",
            ratio(
                tr.counter("campaign.placement_keys"),
                tr.counter("campaign.floorplans_computed"),
            ),
            "ratio",
        ),
        (
            "decompose.prune_ratio",
            counters_ratio("decompose.branches_pruned", "decompose.nodes_visited"),
            "ratio",
        ),
        (
            "decompose.cache_hit_ratio",
            counters_ratio("decompose.cache_hits", "decompose.cache_misses"),
            "ratio",
        ),
        (
            "sim.ns_per_flit.ideal",
            ratio(tr.ms("sim.run.ideal") * 1e6, tr.counter("sim.flits.ideal")),
            "ns",
        ),
        (
            "sim.ns_per_flit.credit",
            ratio(
                tr.ms("sim.run.credit") * 1e6,
                tr.counter("sim.flits.credit"),
            ),
            "ns",
        ),
        (
            "telemetry.overhead_pct",
            100.0 * (r.wall_s / u.wall_s - 1.0),
            "%",
        ),
        (
            "trace.attributed_share",
            ratio(tr.attributed_ms(), tr.total_ms()),
            "ratio",
        ),
        (
            "trace.unattributed_ms",
            per(tr.total_ms() - tr.attributed_ms()),
            "ms",
        ),
        (
            "aes.cycles_delta_pct",
            setup_trace.counter("aes.cycles_delta_pct"),
            "%",
        ),
        (
            "aes.energy_delta_pct",
            setup_trace.counter("aes.energy_delta_pct"),
            "%",
        ),
    ];
    // Layer times per pass: metric name, trace row.
    for (metric, row) in [
        ("floorplan.ms", "floorplan"),
        ("decompose.ms", "decompose"),
        ("glue.ms", "glue"),
        ("constraints.ms", "constraints"),
        ("bisection.ms", "bisection"),
        ("verify.ms", "verify"),
        ("sim.model_ms", "sim.model"),
        ("sim.compile_ms", "sim.compile"),
        ("sim.traffic_ms", "sim.traffic"),
        ("sim.run_ms.ideal", "sim.run.ideal"),
        ("sim.run_ms.credit", "sim.run.credit"),
        ("explore.fold_ms", "explore.fold"),
        ("report.to_json_ms", "report.to_json"),
        ("report.from_json_ms", "report.from_json"),
    ] {
        metrics.push((metric, per(tr.ms(row)), "ms"));
    }
    // Counts per pass, recorded under their metric names.
    for (name, unit) in [
        ("floorplan.calls", "count"),
        ("floorplan.chip_area_mm2", "mm2"),
        ("campaign.floorplans_computed", "count"),
        ("decompose.nodes_visited", "count"),
        ("decompose.leaves_evaluated", "count"),
        ("verify.routes_checked", "count"),
        ("verify.cdg_edges", "count"),
        ("sim.flits.ideal", "count"),
        ("sim.flits.credit", "count"),
        ("sim.cycles.ideal", "count"),
        ("sim.cycles.credit", "count"),
        ("report.bytes", "bytes"),
    ] {
        metrics.push((name, per(tr.counter(name)), unit));
    }
    // The simulator's own counters over the traced passes, read from the
    // recording handle.
    for (name, before) in sim_counters.into_iter().zip(counters_before) {
        metrics.push((name, (tel.counter_value(name) - before) as f64 / n, "count"));
    }
    print_result(attempted, failed, &metrics);
    ExitCode::SUCCESS
}
