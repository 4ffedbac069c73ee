//! Design-space exploration campaigns from the command line: run, resume,
//! shard, merge, and coordinate worker fleets.
//!
//! Usage:
//!
//! ```text
//! explore [run] [--smoke | --full] [--threads N] [--out PATH] [--stream]
//!               [--resume PATH] [--trace PATH]
//! explore sample --budget N [--policy bandit|halving] [--seed S]
//!               [--smoke | --full] [--threads N] [--out PATH] [--stream]
//!               [--trace PATH]
//! explore shard --index I --of K [--mode modulo|range]
//!               [--smoke | --full] [--threads N] [--out PATH] [--stream]
//! explore merge --out PATH REPORT...
//! explore coordinate --workers N [--deadline SECS] [--work-dir DIR]
//!               [--chaos-kill-first] [--verbose]
//!               [--smoke | --full] [--threads N] [--out PATH] [--trace PATH]
//! explore worker --ids I,J,... --stream-out PATH --out PATH [--stall-ms MS]
//!               [--smoke | --full] [--threads N]
//! explore verify [--smoke | --full] [--threads N] [--out PATH]
//!               [--chaos-cyclic] [REPORT]
//! explore events [--summarize] PATH
//! ```
//!
//! * `run` (default subcommand) — plan and execute a grid. With
//!   `--resume PATH` the campaign first loads a prior report (full JSON or
//!   a JSON-Lines stream left behind by a killed run), skips every
//!   scenario it already records, and folds old + new points into one
//!   front — incremental, crash-safe campaigns.
//! * `sample` — adaptive **budgeted** sampling: evaluate at most
//!   `--budget N` scenario points of the grid, chosen round-by-round by
//!   the `--policy` planner (ε-greedy `bandit` over grid-axis arms, or
//!   successive `halving` promoting arms whose points land on the front)
//!   with a deterministic seeded scenario sequence (`--seed`, default 1).
//!   With `--smoke` this is a CI acceptance gate: the budgeted run must
//!   reach ≥ 90% of the full smoke grid's hypervolume while evaluating
//!   fewer points (whenever the budget is below the grid size).
//! * `shard` — run only shard `I` of a `K`-way partition of the grid
//!   (`--mode range` keeps synthesis-sharing neighbors together, the
//!   default; `--mode modulo` interleaves). Shard reports merge back into
//!   exactly the single-shot front.
//! * `merge` — re-fold previously written shard reports into one report
//!   (permutation-invariant: any order, any grouping).
//! * `coordinate` — the closed distributed loop: spawn `--workers N`
//!   worker *processes* (this same binary, `worker` subcommand), deal
//!   each a slice of the grid, watch their artifacts land under
//!   `--work-dir`, kill stragglers at `--deadline` and re-deal exactly
//!   their unfinished scenario ids, then merge everything into one
//!   report. `--chaos-kill-first` injects the CI fault: worker 0 is
//!   stalled and killed mid-stream, proving the salvage + re-deal path
//!   converges to the exact single-shot front.
//! * `worker` — one coordinated worker: run exactly the `--ids` slice,
//!   streaming each point to `--stream-out` (the salvage artifact) and
//!   finishing with a report at `--out`. Not usually typed by hand, but
//!   it is a stable wire format — any fleet scheduler can exec it.
//! * `--smoke` (default grid) — the CI grid: 12 scenario points over 3
//!   small workloads. In `run` mode (without `--resume`) this is the CI
//!   acceptance gate: it additionally proves the **three-way front
//!   equality** (single-shot == kill/resume == shard+merge, sequential and
//!   parallel) and that the campaign-wide match cache served several graph
//!   sizes with cross-size hits.
//! * `--full` — a larger grid: TGFF and Pajek size sweeps × two synthesis
//!   objectives × two technologies with a load ramp per point.
//! * `--credit` — double the grid with a router-fidelity axis: every
//!   scenario runs under both the ideal wormhole router and the
//!   credit-based pipelined router (`RouterFidelity::Credit`), labeled
//!   `.../credit` in reports (schema v5 `router_fidelity` field). The
//!   smoke acceptance gates compare against the plain smoke grid, so
//!   they are skipped under `--credit`.
//! * `--threads N` — campaign worker threads (`0` = one per hardware
//!   thread; default).
//! * `--out PATH` — where to write the JSON campaign report
//!   (default `EXPLORE_report.json`).
//! * `--stream` — additionally stream each completed point to stdout as
//!   JSON Lines (the resumable crash artifact: `explore --stream >
//!   points.jsonl`, then `--resume points.jsonl` after a kill). All
//!   human-readable progress text moves to stderr so the captured stream
//!   stays pure JSON Lines.
//! * `--trace PATH` (`run`, `sample`, `coordinate`) — record the
//!   structured telemetry event stream (spans, counters, lifecycle
//!   events — see the `noc-telemetry` crate) and write it to `PATH` as
//!   JSON Lines when the main campaign finishes. The trace covers the
//!   requested campaign only, not the smoke acceptance gates that re-run
//!   extra in-process campaigns afterwards. Under `coordinate` the trace
//!   holds the coordinator's wave lifecycle (deal/complete/kill/salvage/
//!   re-deal) — worker processes run untraced.
//! * `verify` — static deadlock analysis over an existing report
//!   (default `EXPLORE_report.json`): re-synthesize each synthesis key of
//!   the grid, run the `noc-verify` extended-CDG pass, write a fresh
//!   verdict into every point, and rewrite the report (to `--out`, or in
//!   place). Exits nonzero when any architecture fails verification,
//!   printing its witness cycle. `--chaos-cyclic` is the CI fault
//!   injection: verify a deliberately cyclic 2x2 routing table instead,
//!   succeeding only when the verifier *rejects* it with a concrete
//!   channel-cycle witness.
//! * `events [--summarize] PATH` — read a trace back: validate it and
//!   report its size, or render the phase-time/counter table with
//!   `--summarize`.
//! * `coordinate --verbose` — narrate wave lifecycle to stderr live.

use std::process::ExitCode;
use std::time::Duration;

use noc::prelude::*;
use noc_explore::coordinate::{
    coordinate, run_worker, ChaosKill, CoordinatorConfig, ProcessTransport, WorkerAssignment,
};
use noc_explore::prelude::*;
use noc_explore::NullSink;

/// Human-readable progress text. With `--stream` active, stdout carries
/// the machine-readable JSON Lines records (the resumable crash
/// artifact), so prose must go to stderr — interleaving would corrupt a
/// captured stream.
macro_rules! note {
    ($stream:expr, $($arg:tt)*) => {
        if $stream {
            eprintln!($($arg)*)
        } else {
            println!($($arg)*)
        }
    };
}

/// The grid the flags select: smoke or full, optionally crossed with the
/// router-fidelity axis.
fn grid_for(common: &CommonArgs) -> ScenarioGrid {
    let grid = if common.smoke {
        ScenarioGrid::smoke()
    } else {
        ScenarioGrid::full()
    };
    if common.credit {
        grid.router_fidelities([
            RouterFidelity::Ideal,
            RouterFidelity::Credit(CreditConfig::default()),
        ])
    } else {
        grid
    }
}

#[derive(Default)]
struct CommonArgs {
    smoke: bool,
    /// Add the credit-router fidelity axis to the grid (`--credit`).
    credit: bool,
    threads: usize,
    out: String,
    stream: bool,
    /// Telemetry trace output (`--trace`), honored by `run`, `sample`
    /// and `coordinate`.
    trace: Option<String>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (subcommand, rest) = match args.first().map(String::as_str) {
        Some("shard") => ("shard", &args[1..]),
        Some("merge") => ("merge", &args[1..]),
        Some("sample") => ("sample", &args[1..]),
        Some("coordinate") => ("coordinate", &args[1..]),
        Some("worker") => ("worker", &args[1..]),
        Some("verify") => ("verify", &args[1..]),
        Some("events") => ("events", &args[1..]),
        Some("run") => ("run", &args[1..]),
        _ => ("run", &args[..]),
    };
    match subcommand {
        "merge" => merge_command(rest),
        "shard" => shard_command(rest),
        "sample" => sample_command(rest),
        "coordinate" => coordinate_command(rest),
        "worker" => worker_command(rest),
        "verify" => verify_command(rest),
        "events" => events_command(rest),
        _ => run_command(rest),
    }
}

fn parse_common(
    arg: &str,
    iter: &mut std::slice::Iter<'_, String>,
    common: &mut CommonArgs,
) -> Result<bool, ExitCode> {
    match arg {
        "--smoke" => common.smoke = true,
        "--full" => common.smoke = false,
        "--credit" => common.credit = true,
        "--stream" => common.stream = true,
        "--threads" => match iter.next().and_then(|v| v.parse().ok()) {
            Some(n) => common.threads = n,
            None => return Err(usage("--threads needs an integer")),
        },
        "--out" => match iter.next() {
            Some(path) => common.out = path.clone(),
            None => return Err(usage("--out needs a path")),
        },
        "--trace" => match iter.next() {
            Some(path) => common.trace = Some(path.clone()),
            None => return Err(usage("--trace needs a path")),
        },
        _ => return Ok(false),
    }
    Ok(true)
}

fn run_command(args: &[String]) -> ExitCode {
    let mut common = CommonArgs {
        smoke: true,
        out: "EXPLORE_report.json".into(),
        ..CommonArgs::default()
    };
    let mut resume: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match parse_common(arg, &mut iter, &mut common) {
            Ok(true) => continue,
            Err(code) => return code,
            Ok(false) => {}
        }
        match arg.as_str() {
            "--resume" => match iter.next() {
                Some(path) => resume = Some(path.clone()),
                None => return usage("--resume needs a path"),
            },
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }

    let grid = grid_for(&common);
    let campaign = Campaign::new(grid.clone()).threads(common.threads);

    let prior = match &resume {
        None => None,
        Some(path) => match load_report(path) {
            Ok(report) => Some(report),
            Err(e) => {
                eprintln!("error: cannot resume from {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let plan = match &prior {
        None => campaign.plan(),
        Some(prior) => match campaign.plan_resume(prior) {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    note!(
        common.stream,
        "campaign: {} of {} scenario points to run ({} carried), {} mode, {} worker thread(s)",
        plan.to_run(),
        plan.grid_len(),
        plan.carried(),
        if common.smoke { "smoke" } else { "full" },
        thread_label(common.threads),
    );

    let tel = install_trace(&common);
    let report = execute(&campaign, plan, common.stream);
    write_trace(&common, tel, common.stream);

    // The acceptance gates run on a fresh smoke campaign only: a resume
    // must never cost a full re-run just to check itself (CI asserts the
    // resumed front against the single-shot report externally).
    if common.smoke && !common.credit && prior.is_none() {
        smoke_gates(&campaign, &report, common.stream);
    }

    print_summary(&report, common.stream);
    write_report(&common.out, &report, common.stream)
}

fn sample_command(args: &[String]) -> ExitCode {
    let mut common = CommonArgs {
        smoke: true,
        out: "EXPLORE_sampled.json".into(),
        ..CommonArgs::default()
    };
    let mut budget: Option<usize> = None;
    let mut policy = SamplerPolicy::DEFAULT_BANDIT;
    let mut seed = 1u64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match parse_common(arg, &mut iter, &mut common) {
            Ok(true) => continue,
            Err(code) => return code,
            Ok(false) => {}
        }
        match arg.as_str() {
            "--budget" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => budget = Some(n),
                _ => return usage("--budget needs a positive integer"),
            },
            "--policy" => match iter.next().and_then(|p| SamplerPolicy::from_label(p)) {
                Some(p) => policy = p,
                None => return usage("--policy must be 'bandit' or 'halving'"),
            },
            "--seed" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => return usage("--seed needs an integer"),
            },
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }
    let Some(budget) = budget else {
        return usage("sample needs --budget N");
    };

    let grid = grid_for(&common);
    let campaign = Campaign::new(grid).threads(common.threads);
    let config = SamplerConfig::new(budget).policy(policy).seed(seed);
    note!(
        common.stream,
        "sampled campaign: budget {} of {} grid points, {} policy, seed {}, {} worker thread(s)",
        budget,
        campaign.plan().grid_len(),
        policy.label(),
        seed,
        thread_label(common.threads),
    );
    let tel = install_trace(&common);
    let report = if common.stream {
        let mut sink = JsonLinesSink::new(std::io::stdout(), ObjectiveKind::DEFAULT.to_vec());
        campaign.run_sampled_with_sink(&config, &mut sink)
    } else {
        campaign.run_sampled(&config)
    };
    write_trace(&common, tel, common.stream);

    let provenance = report.sampler.as_ref().expect("sampled report provenance");
    for round in &provenance.rounds {
        note!(
            common.stream,
            "round {}: {} flow(s), hypervolume {:.6}, arms [{}]",
            round.round,
            round.flows,
            round.hypervolume,
            round.arms.join(", "),
        );
    }

    // The CI acceptance gate: on the smoke grid, a budgeted run must hold
    // ≥ 90% of the exhaustive front's hypervolume — with strictly fewer
    // evaluated flows whenever the budget is below the grid size.
    if common.smoke {
        let full = Campaign::new(grid_for(&common))
            .threads(common.threads)
            .run();
        assert!(
            report.hypervolume >= 0.9 * full.hypervolume,
            "sampled hypervolume {} fell below 90% of the full grid's {}",
            report.hypervolume,
            full.hypervolume
        );
        assert!(
            provenance.flows_spent <= provenance.budget,
            "sampler overspent its budget"
        );
        if budget < provenance.grid_len {
            assert!(
                provenance.flows_spent < provenance.grid_len,
                "budget below grid size must evaluate fewer points"
            );
        }
        note!(
            common.stream,
            "sampling gate: {:.2}% of full-grid hypervolume with {} of {} flows",
            100.0 * report.hypervolume / full.hypervolume,
            provenance.flows_spent,
            provenance.grid_len,
        );
    }

    print_summary(&report, common.stream);
    write_report(&common.out, &report, common.stream)
}

fn shard_command(args: &[String]) -> ExitCode {
    let mut common = CommonArgs {
        smoke: true,
        out: String::new(),
        ..CommonArgs::default()
    };
    let mut index: Option<usize> = None;
    let mut count: Option<usize> = None;
    let mut mode = ShardMode::Range;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match parse_common(arg, &mut iter, &mut common) {
            Ok(true) => continue,
            Err(code) => return code,
            Ok(false) => {}
        }
        match arg.as_str() {
            "--index" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(i) => index = Some(i),
                None => return usage("--index needs an integer"),
            },
            "--of" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(k) => count = Some(k),
                None => return usage("--of needs an integer"),
            },
            "--mode" => match iter.next().and_then(|m| ShardMode::from_label(m)) {
                Some(m) => mode = m,
                None => return usage("--mode must be 'modulo' or 'range'"),
            },
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }
    let (Some(index), Some(count)) = (index, count) else {
        return usage("shard needs --index I and --of K");
    };
    if index >= count {
        return usage(&format!("--index {index} out of range for --of {count}"));
    }
    let manifest = ShardManifest::new(index, count, mode);
    if common.out.is_empty() {
        common.out = format!("EXPLORE_shard_{index}_of_{count}.json");
    }

    let grid = grid_for(&common);
    let campaign = Campaign::new(grid).threads(common.threads);
    let plan = campaign.plan_shard(&manifest);
    note!(
        common.stream,
        "{}: {} of {} scenario points, {} worker thread(s)",
        manifest.label(),
        plan.to_run(),
        plan.grid_len(),
        thread_label(common.threads),
    );
    let report = execute(&campaign, plan, common.stream);
    print_summary(&report, common.stream);
    write_report(&common.out, &report, common.stream)
}

fn coordinate_command(args: &[String]) -> ExitCode {
    let mut common = CommonArgs {
        smoke: true,
        out: "EXPLORE_coordinated.json".into(),
        ..CommonArgs::default()
    };
    let mut workers: Option<usize> = None;
    let mut deadline = Duration::from_secs(60);
    let mut work_dir = "EXPLORE_coordinate".to_string();
    let mut chaos = false;
    let mut verbose = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match parse_common(arg, &mut iter, &mut common) {
            Ok(true) => continue,
            Err(code) => return code,
            Ok(false) => {}
        }
        match arg.as_str() {
            "--workers" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => workers = Some(n),
                _ => return usage("--workers needs a positive integer"),
            },
            "--deadline" => match iter
                .next()
                .and_then(|v| Duration::try_from_secs_f64(v.parse().ok()?).ok())
            {
                Some(d) if !d.is_zero() => deadline = d,
                _ => return usage("--deadline needs a positive number of seconds"),
            },
            "--work-dir" => match iter.next() {
                Some(dir) => work_dir = dir.clone(),
                None => return usage("--work-dir needs a path"),
            },
            "--chaos-kill-first" => chaos = true,
            "--verbose" => verbose = true,
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }
    let Some(workers) = workers else {
        return usage("coordinate needs --workers N");
    };

    let grid = grid_for(&common);
    let campaign = Campaign::new(grid).threads(common.threads);
    let mut config = CoordinatorConfig::new(workers)
        .deadline(deadline)
        .work_dir(&work_dir)
        .verbose(verbose);
    if chaos {
        config = config.chaos(ChaosKill::first_worker());
    }

    // Workers are this very binary, re-invoked with the worker
    // subcommand and the same grid/thread flags.
    let program = match std::env::current_exe() {
        Ok(path) => path,
        Err(e) => {
            eprintln!("error: cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut base_args = vec![if common.smoke { "--smoke" } else { "--full" }.to_string()];
    if common.credit {
        base_args.push("--credit".into());
    }
    if common.threads != 0 {
        base_args.push("--threads".into());
        base_args.push(common.threads.to_string());
    }
    let mut transport = ProcessTransport::new(program, base_args);

    println!(
        "coordinating {} worker(s) over {} scenario points, deadline {} s{}",
        workers,
        campaign.plan().grid_len(),
        deadline.as_secs_f64(),
        if chaos { ", chaos: kill worker 0" } else { "" },
    );
    let tel = install_trace(&common);
    let report = match coordinate(&campaign, &config, &mut transport) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    write_trace(&common, tel, false);

    let provenance = report.coordinator.as_ref().expect("coordinator provenance");
    for wave in &provenance.waves {
        println!(
            "wave {}: {} worker(s), {} completed, {} killed, {} point(s) salvaged, {} id(s) re-dealt",
            wave.wave, wave.workers, wave.completed, wave.killed, wave.salvaged_points, wave.redealt,
        );
    }

    // The CI acceptance gate: whatever died on the way, the merged front
    // must be the single-shot front — and the injected kill must actually
    // have exercised the salvage + re-deal path.
    if common.smoke {
        let single = Campaign::new(grid_for(&common))
            .threads(common.threads)
            .run();
        assert_eq!(
            report.front, single.front,
            "coordinated front diverged from single-shot"
        );
        assert_eq!(report.hypervolume, single.hypervolume);
        assert_eq!(report.points.len(), single.points.len());
        for (a, b) in report.points.iter().zip(&single.points) {
            assert_eq!(a.objectives, b.objectives, "point {} diverged", a.label);
        }
        if chaos {
            assert!(provenance.killed() >= 1, "chaos killed no worker");
            assert!(
                provenance.redealt() >= 1,
                "the killed worker left nothing to re-deal"
            );
            assert!(
                provenance.waves.len() >= 2,
                "re-dealing must take a second wave"
            );
        }
        println!("coordination gate: merged front == single-shot front");
    }

    print_summary(&report, false);
    write_report(&common.out, &report, false)
}

fn worker_command(args: &[String]) -> ExitCode {
    let mut common = CommonArgs {
        smoke: true,
        ..CommonArgs::default()
    };
    let mut ids: Option<Vec<usize>> = None;
    let mut stream_out: Option<String> = None;
    let mut stall_ms = 0u64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match parse_common(arg, &mut iter, &mut common) {
            Ok(true) => continue,
            Err(code) => return code,
            Ok(false) => {}
        }
        match arg.as_str() {
            "--ids" => {
                let parsed: Option<Vec<usize>> = iter
                    .next()
                    .map(|csv| csv.split(',').map(|id| id.trim().parse().ok()).collect())
                    .unwrap_or(None);
                match parsed {
                    Some(list) if !list.is_empty() => ids = Some(list),
                    _ => return usage("--ids needs a comma-separated id list"),
                }
            }
            "--stream-out" => match iter.next() {
                Some(path) => stream_out = Some(path.clone()),
                None => return usage("--stream-out needs a path"),
            },
            "--stall-ms" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(ms) => stall_ms = ms,
                None => return usage("--stall-ms needs an integer"),
            },
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }
    let (Some(ids), Some(stream_out)) = (ids, stream_out) else {
        return usage("worker needs --ids and --stream-out");
    };
    if common.out.is_empty() {
        return usage("worker needs --out");
    }

    let grid = grid_for(&common);
    let campaign = Campaign::new(grid).threads(common.threads);
    let assignment = WorkerAssignment {
        ordinal: 0,
        wave: 0,
        ids,
        stream_path: stream_out.into(),
        report_path: common.out.clone().into(),
        stall_per_point_ms: stall_ms,
    };
    match run_worker(&campaign, &assignment) {
        Ok(report) => {
            eprintln!(
                "worker: {} point(s) done, report at {}",
                report.points.len(),
                common.out
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn verify_command(args: &[String]) -> ExitCode {
    let mut common = CommonArgs {
        smoke: true,
        ..CommonArgs::default()
    };
    let mut chaos_cyclic = false;
    let mut report_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match parse_common(arg, &mut iter, &mut common) {
            Ok(true) => continue,
            Err(code) => return code,
            Ok(false) => {}
        }
        match arg.as_str() {
            "--chaos-cyclic" => chaos_cyclic = true,
            path if !path.starts_with("--") => report_path = Some(path.to_string()),
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }
    if chaos_cyclic {
        return chaos_cyclic_gate();
    }

    let path = report_path.unwrap_or_else(|| "EXPLORE_report.json".into());
    let out = if common.out.is_empty() {
        path.clone()
    } else {
        common.out.clone()
    };
    let mut report = match load_report(&path) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let grid = grid_for(&common);
    let campaign = Campaign::new(grid).threads(common.threads);
    let summary = match campaign.verify_report(&mut report) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{summary}");
    for &id in &summary.failed {
        let point = report.point(id).expect("failed id names a report point");
        let verify = point
            .verify
            .as_ref()
            .expect("failed point carries a verdict");
        println!("  NOT VERIFIED {} — {}", point.label, verify.summary());
        for edge in &verify.cycle {
            println!("    {edge}");
        }
        for lint in &verify.lint {
            println!("    {lint}");
        }
    }
    if write_report(&out, &report, false) == ExitCode::FAILURE {
        return ExitCode::FAILURE;
    }
    if summary.all_clear() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} point(s) record measurements of unverified architectures",
            summary.failed.len()
        );
        ExitCode::FAILURE
    }
}

/// The `verify --chaos-cyclic` CI fault injection: a 2x2 mesh whose four
/// routes close a turnaround cycle on one VC — the verifier must reject
/// it and name the cycle. Succeeding on a planted fault proves the gate
/// can actually fail.
fn chaos_cyclic_gate() -> ExitCode {
    use std::collections::BTreeMap;

    let topology = DiGraph::from_edges(
        4,
        [
            (0, 1),
            (1, 0),
            (0, 2),
            (2, 0),
            (1, 3),
            (3, 1),
            (2, 3),
            (3, 2),
        ],
    )
    .expect("2x2 mesh");
    // Each route alone is legal; together they chain the four channels
    // c(0,2) -> c(2,3) -> c(3,1) -> c(1,0) -> c(0,2) into a cycle.
    let routes: BTreeMap<(NodeId, NodeId), Vec<NodeId>> = [
        ((0usize, 3usize), vec![0usize, 2, 3]),
        ((3, 0), vec![3, 1, 0]),
        ((1, 2), vec![1, 0, 2]),
        ((2, 1), vec![2, 3, 1]),
    ]
    .into_iter()
    .map(|((s, d), path)| {
        (
            (NodeId(s), NodeId(d)),
            path.into_iter().map(NodeId).collect(),
        )
    })
    .collect();
    let model = NocModel::from_parts("chaos-cyclic", topology, routes, BTreeMap::new(), 1.0);
    let verdict = model.verify();
    if verdict.is_deadlock_free() {
        eprintln!("error: chaos gate expected the planted cyclic routing table to be rejected");
        return ExitCode::FAILURE;
    }
    let Some(witness) = verdict.cycle.as_ref() else {
        eprintln!("error: the rejection carried no witness cycle:\n{verdict}");
        return ExitCode::FAILURE;
    };
    println!(
        "chaos gate: planted cyclic routing table rejected with a {}-edge witness",
        witness.len()
    );
    println!("{verdict}");
    ExitCode::SUCCESS
}

fn merge_command(args: &[String]) -> ExitCode {
    let mut out = "EXPLORE_report.json".to_string();
    let mut inputs: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => match iter.next() {
                Some(path) => out = path.clone(),
                None => return usage("--out needs a path"),
            },
            path if !path.starts_with("--") => inputs.push(path.to_string()),
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }
    if inputs.is_empty() {
        return usage("merge needs at least one report path");
    }
    let mut reports = Vec::new();
    for path in &inputs {
        match load_report(path) {
            Ok(report) => reports.push(report),
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let merged = match merge_reports(&reports) {
        Ok(merged) => merged,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "merged {} report(s): {} points",
        reports.len(),
        merged.points.len()
    );
    print_summary(&merged, false);
    write_report(&out, &merged, false)
}

fn events_command(args: &[String]) -> ExitCode {
    let mut summarize = false;
    let mut path: Option<String> = None;
    for arg in args {
        match arg.as_str() {
            "--summarize" => summarize = true,
            p if !p.starts_with("--") => path = Some(p.to_string()),
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }
    let Some(path) = path else {
        return usage("events needs a trace path");
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let events = match noc_telemetry::read_jsonl(&text) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("error: corrupt trace {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let summary = noc_telemetry::summarize(&events);
    if summarize {
        print!("{}", summary.render());
    } else {
        println!(
            "{path}: {} event(s), {} span name(s), {} counter(s), {} dropped",
            summary.events,
            summary.spans.len(),
            summary.counters.len(),
            summary.dropped,
        );
    }
    ExitCode::SUCCESS
}

/// Installs the process-wide recording telemetry handle when `--trace`
/// was given. Must run before the campaign; the handle is returned for
/// [`write_trace`] at the end.
fn install_trace(common: &CommonArgs) -> Option<&'static noc_telemetry::Telemetry> {
    common.trace.as_ref()?;
    noc_telemetry::install(noc_telemetry::Telemetry::recording());
    noc_telemetry::active()
}

/// Drains the trace and writes it as JSON Lines. Called right after the
/// main campaign returns — *before* the smoke acceptance gates, which
/// re-run extra in-process campaigns that would pollute the stream.
fn write_trace(common: &CommonArgs, tel: Option<&noc_telemetry::Telemetry>, stream: bool) {
    let (Some(path), Some(tel)) = (common.trace.as_ref(), tel) else {
        return;
    };
    let trace = tel.take_trace();
    if let Err(e) = std::fs::write(path, noc_telemetry::write_jsonl(&trace)) {
        eprintln!("warning: cannot write trace {path}: {e}");
        return;
    }
    note!(stream, "wrote trace {path} ({} event(s))", trace.len());
}

/// Reads a report back: the full JSON form, or — for streams left behind
/// by a killed campaign — JSON Lines under the default objective vector.
fn load_report(path: &str) -> Result<CampaignReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    if text.trim_start().starts_with('{') && text.contains("\"report\"") {
        CampaignReport::from_json(&text)
    } else {
        CampaignReport::from_json_lines(&text, &ObjectiveKind::DEFAULT)
    }
}

fn execute(campaign: &Campaign, plan: CampaignPlan, stream: bool) -> CampaignReport {
    let mut sink: Box<dyn ResultSink> = if stream {
        Box::new(JsonLinesSink::new(
            std::io::stdout(),
            ObjectiveKind::DEFAULT.to_vec(),
        ))
    } else {
        Box::new(NullSink)
    };
    campaign.run_plan_with_sink(plan, sink.as_mut())
}

/// The CI acceptance gates on the smoke grid: three-way front equality
/// (single-shot == kill/resume == shard+merge, across thread counts) plus
/// cross-size shared-cache traffic. Failures abort via panic — in CI a
/// nonzero exit either way, with the assert message as the diagnosis.
fn smoke_gates(campaign: &Campaign, report: &CampaignReport, stream: bool) {
    // 1. Thread-count invariance (the original PR 2 gate).
    let sequential = Campaign::new(ScenarioGrid::smoke()).threads(1).run();
    assert_eq!(
        report.front, sequential.front,
        "parallel front diverged from sequential"
    );
    for (a, b) in report.points.iter().zip(&sequential.points) {
        assert_eq!(a.objectives, b.objectives, "point {} diverged", a.label);
    }

    // 2. Kill/resume: a half-complete campaign — round-tripped through
    // its JSON report, as a real resume would — folds to the same front.
    let half = campaign.run_plan(campaign.plan_shard(&ShardManifest::range(0, 2)));
    let reloaded =
        CampaignReport::from_json(&half.to_json()).expect("half report round-trips through JSON");
    let resumed = campaign
        .resume_from(&reloaded)
        .expect("resume accepts the half report");
    assert_eq!(
        resumed.front, sequential.front,
        "resumed front diverged from single-shot"
    );
    assert_eq!(resumed.carried_points, reloaded.points.len());

    // 3. Shard + merge, both partition modes.
    for mode in [ShardMode::Range, ShardMode::Modulo] {
        let shards: Vec<CampaignReport> = (0..2)
            .map(|i| campaign.run_plan(campaign.plan_shard(&ShardManifest::new(i, 2, mode))))
            .collect();
        let merged = merge_reports(&shards).expect("shard reports merge");
        assert_eq!(
            merged.front,
            sequential.front,
            "{} shard+merge front diverged from single-shot",
            mode.label()
        );
        assert_eq!(merged.hypervolume, sequential.hypervolume);
    }

    // 4. The campaign-wide match cache served several graph sizes, with
    // hits attributed to at least two of them.
    let sizes_with_hits = report.match_cache.iter().filter(|c| c.hits > 0).count();
    assert!(
        report.match_cache.len() >= 2 && sizes_with_hits >= 2,
        "expected cross-size shared-cache traffic, got {:?}",
        report.match_cache
    );

    // 5. Every report row carries a static-verification verdict, and
    // every synthesized VC assignment proves deadlock-free — the verify
    // gate ran on all points and rejected none.
    for point in &report.points {
        let verify = point
            .verify
            .as_ref()
            .unwrap_or_else(|| panic!("point {} carries no verification verdict", point.label));
        assert!(
            verify.deadlock_free,
            "point {} failed static verification: {}",
            point.label,
            verify.summary()
        );
        assert!(
            verify.routes_checked > 0,
            "point {} verified no routes",
            point.label
        );
    }

    note!(
        stream,
        "determinism checks: single-shot == parallel == resumed == sharded-and-merged"
    );
    note!(
        stream,
        "shared match cache: {} size(s), cross-size hits on {}",
        report.match_cache.len(),
        sizes_with_hits
    );
    note!(
        stream,
        "verification gate: all {} point(s) proved deadlock-free",
        report.points.len()
    );
}

fn print_summary(report: &CampaignReport, stream: bool) {
    let failed = report.points.iter().filter(|p| p.error.is_some()).count();
    note!(
        stream,
        "{} synthesized, {} reused, {} carried, {} failed, {:.0} ms wall",
        report.flows_synthesized,
        report.synthesis_reused,
        report.carried_points,
        failed,
        report.wall_ms
    );
    if !report.match_cache.is_empty() {
        let rows: Vec<String> = report
            .match_cache
            .iter()
            .map(|c| format!("n={}: {}h/{}m", c.vertex_count, c.hits, c.misses))
            .collect();
        note!(stream, "match cache by size: {}", rows.join("  "));
        let (hits, misses) = report
            .match_cache
            .iter()
            .fold((0u64, 0u64), |(h, m), c| (h + c.hits, m + c.misses));
        let lookups = hits + misses;
        if lookups > 0 {
            note!(
                stream,
                "match cache total: {:.1}% hit rate ({hits} hit(s) / {misses} miss(es))",
                100.0 * hits as f64 / lookups as f64,
            );
        }
    }
    note!(
        stream,
        "pareto front ({} of {} points): hypervolume {:.6}, spread {:.4}",
        report.front.len(),
        report.points.len(),
        report.hypervolume,
        report.spread,
    );
    let default_kinds = report.objective_kinds == ObjectiveKind::DEFAULT;
    for point in report.front_points() {
        if default_kinds {
            note!(
                stream,
                "  {:<48} energy {:>10.2} pJ  latency {:>7.2} cyc  area {:>6.1} mm2",
                point.label,
                point.objectives[0] * 1e12,
                point.objectives[1],
                point.objectives[2],
            );
        } else {
            let objs: Vec<String> = report
                .objective_kinds
                .iter()
                .zip(&point.objectives)
                .map(|(k, v)| format!("{} {v:.4}", k.label()))
                .collect();
            note!(stream, "  {:<48} {}", point.label, objs.join("  "));
        }
    }
}

fn write_report(out: &str, report: &CampaignReport, stream: bool) -> ExitCode {
    if let Err(e) = std::fs::write(out, report.to_json()) {
        eprintln!("failed to write {out}: {e}");
        return ExitCode::FAILURE;
    }
    note!(stream, "wrote {out}");
    ExitCode::SUCCESS
}

fn thread_label(threads: usize) -> String {
    if threads == 0 {
        "hw".to_string()
    } else {
        threads.to_string()
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!("usage: explore [run] [--smoke | --full] [--credit] [--threads N] [--out PATH] [--stream] [--resume PATH] [--trace PATH]");
    eprintln!("       explore sample --budget N [--policy bandit|halving] [--seed S] [--smoke | --full] [--threads N] [--out PATH] [--trace PATH]");
    eprintln!("       explore shard --index I --of K [--mode modulo|range] [--smoke | --full] [--threads N] [--out PATH]");
    eprintln!("       explore merge --out PATH REPORT...");
    eprintln!("       explore coordinate --workers N [--deadline SECS] [--work-dir DIR] [--chaos-kill-first] [--verbose] [--smoke | --full] [--threads N] [--out PATH] [--trace PATH]");
    eprintln!("       explore worker --ids I,J,... --stream-out PATH --out PATH [--stall-ms MS] [--smoke | --full] [--threads N]");
    eprintln!("       explore verify [--smoke | --full] [--threads N] [--out PATH] [--chaos-cyclic] [REPORT]");
    eprintln!("       explore events [--summarize] PATH");
    ExitCode::from(2)
}
