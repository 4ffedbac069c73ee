//! Decomposition runtime on the Figure 4b size sweep (10–40-node
//! Pajek-style graphs), the perf trajectory of the explicit-frontier
//! engine.
//!
//! Besides the usual criterion output, this bench writes
//! `BENCH_decompose.json` at the repository root: one row per size with
//! the mean runtime of the whole flow call (search, glue, constraint check
//! and its bisection) and the `hardware_threads` it ran on, plus a
//! per-size phase breakdown (root setup / match enumeration / bounding /
//! frontier / leaf evaluation) of the search, built from the `decompose.phase.*`
//! spans a traced run records, so regressions are attributable to a
//! specific engine layer rather than to "the search got slower".
//!
//! The `telemetry` object is the disabled-overhead gate: with no trace
//! installed the engine's only telemetry cost is one relaxed atomic load
//! per run, measured directly and asserted ≤ 2% of an n = 30
//! decomposition (`traced_ms` shows the same size with a recording
//! handle installed, bounding the cost of `--trace`).
//!
//! Run with: `cargo bench --bench decompose_scaling`. Set
//! `NOC_BENCH_QUICK=1` for the CI smoke run (small sizes, short
//! measurement windows).

use std::time::Duration;

use criterion::{BenchmarkId, Criterion};
use noc_bench::{fig4b_workload, timed_decomposition, FIG4B_SIZES};
use noc_telemetry::Telemetry;

const SEED: u64 = 7;

fn quick_mode() -> bool {
    std::env::var_os("NOC_BENCH_QUICK").is_some_and(|v| v != "0")
}

fn sizes() -> &'static [usize] {
    if quick_mode() {
        &FIG4B_SIZES[..3]
    } else {
        &FIG4B_SIZES
    }
}

fn bench_decompose_scaling(c: &mut Criterion) {
    let window = Duration::from_millis(if quick_mode() { 200 } else { 750 });
    let mut group = c.benchmark_group("decompose");
    group.sample_size(10);
    group.measurement_time(window);
    for &n in sizes() {
        let acg = fig4b_workload(n, SEED);
        group.bench_with_input(BenchmarkId::from_parameter(n), &acg, |b, acg| {
            b.iter(|| timed_decomposition(acg).0.decomposition.total_cost)
        });
    }
    group.finish();
}

/// Mean per-phase milliseconds of the search, summed from the
/// `decompose.phase.*` spans the engine records on the installed handle
/// `tel`; `flow_ms` is the `decompose.run` span they partition.
fn phase_row(tel: &Telemetry, n: usize, reps: u32) -> String {
    let acg = fig4b_workload(n, SEED);
    tel.drain();
    for _ in 0..reps {
        timed_decomposition(&acg);
    }
    let events = tel.drain();
    let ms = |name: &str| {
        let us: u64 = events
            .iter()
            .filter(|e| e.name == name)
            .filter_map(|e| e.dur_us)
            .sum();
        us as f64 / 1e3 / f64::from(reps)
    };
    format!(
        "    {{\"n\": {n}, \"seed\": {SEED}, \"root_ms\": {:.4}, \"match_enum_ms\": {:.4}, \"bound_ms\": {:.4}, \"frontier_ms\": {:.4}, \"leaf_ms\": {:.4}, \"flow_ms\": {:.4}}}",
        ms("decompose.phase.root"),
        ms("decompose.phase.match_enum"),
        ms("decompose.phase.bound"),
        ms("decompose.phase.frontier"),
        ms("decompose.phase.leaf"),
        ms("decompose.run"),
    )
}

fn main() {
    let mut criterion = Criterion::default();
    bench_decompose_scaling(&mut criterion);

    let hw = std::thread::available_parallelism().map_or(1, |t| t.get());
    let rows: Vec<String> = sizes()
        .iter()
        .map(|&n| {
            let id = format!("decompose/{n}");
            let mean_ns = criterion
                .results()
                .iter()
                .find(|r| r.id == id)
                .unwrap_or_else(|| panic!("no criterion result for {id}"))
                .mean_ns;
            let ms = mean_ns / 1e6;
            format!(
                "    {{\"n\": {n}, \"seed\": {SEED}, \"hardware_threads\": {hw}, \"mean_ms\": {ms:.4}}}"
            )
        })
        .collect();
    // Disabled-telemetry overhead — the CI gate that tracing stays free
    // when off. The engine consults the process-wide handle once per run
    // (`noc_telemetry::active()`, a relaxed atomic load); time that fast
    // path directly, scale by the checks a run performs, and express it
    // as a fraction of an n = 30 decomposition. This block and the phase
    // passes run LAST: installing the global recording handle below is
    // irreversible and would otherwise trace the criterion passes above.
    let overhead_n = 30usize;
    let overhead_reps = if quick_mode() { 3u32 } else { 10 };
    let overhead_acg = fig4b_workload(overhead_n, SEED);
    let mut off_ms = 0.0;
    for _ in 0..overhead_reps {
        let (_, elapsed) = timed_decomposition(&overhead_acg);
        off_ms += elapsed.as_secs_f64() * 1e3;
    }
    let off_ms = off_ms / f64::from(overhead_reps);
    let fastpath_ns = {
        let iters = 10_000_000u64;
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            std::hint::black_box(noc_telemetry::active());
        }
        t0.elapsed().as_secs_f64() * 1e9 / iters as f64
    };
    let checks_per_run = 1.0; // one global-handle consult per Decomposer::run
    let disabled_overhead_pct = 100.0 * checks_per_run * fastpath_ns / (off_ms * 1e6);
    assert!(
        disabled_overhead_pct <= 2.0,
        "disabled-telemetry overhead {disabled_overhead_pct:.6}% exceeds 2% \
         at n = {overhead_n} ({fastpath_ns:.2} ns/check against {off_ms:.4} ms/run)"
    );
    // Informational: the same size with a recording handle installed
    // (tracing also turns phase timing on, so this bounds the cost of
    // `--trace`, not of the disabled default).
    noc_telemetry::install(Telemetry::recording());
    let tel = noc_telemetry::active().expect("recording handle installed");
    let mut traced_ms = 0.0;
    for _ in 0..overhead_reps {
        let (_, elapsed) = timed_decomposition(&overhead_acg);
        traced_ms += elapsed.as_secs_f64() * 1e3;
        tel.drain(); // keep the event log bounded across reps
    }
    let traced_ms = traced_ms / f64::from(overhead_reps);
    let phase_reps = if quick_mode() { 1 } else { 5 };
    let phases: Vec<String> = sizes()
        .iter()
        .map(|&n| phase_row(tel, n, phase_reps))
        .collect();
    let telemetry = format!(
        "  \"telemetry\": {{\"n\": {overhead_n}, \"fastpath_ns\": {fastpath_ns:.3}, \"checks_per_run\": {checks_per_run}, \"disabled_overhead_pct\": {disabled_overhead_pct:.6}, \"off_ms\": {off_ms:.4}, \"traced_ms\": {traced_ms:.4}}}"
    );

    let json = format!(
        "{{\n  \"bench\": \"decompose_scaling\",\n  \"workload\": \"fig4b_pajek_planted\",\n  \"unit\": \"milliseconds_mean_per_flow\",\n{},\n  \"results\": [\n{}\n  ],\n  \"phases\": [\n{}\n  ]\n}}\n",
        telemetry,
        rows.join(",\n"),
        phases.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_decompose.json");
    std::fs::write(path, &json).expect("write BENCH_decompose.json");
    println!("\nwrote {path}");
}
