//! The 70 Figure 4 instances against `tests/golden/fig4.jsonl`.
//!
//! Each instance runs as the runtime figures time it (and as the
//! benchmark's `fig4_fixed` workload runs it): the default engine on the
//! given square grid placement, then glue, the Section 4.2 constraint
//! check and the deadlock verifier. One golden row per instance pins
//!
//! * *results*: the decomposition cost's bits, an FNV-1a digest of
//!   `paper_report()` (every matching, mapping and remainder edge), the
//!   architecture's `bisection_links` and the verifier's verdict;
//! * *work counters*: the search's `nodes_visited` and `leaves_evaluated`.
//!
//! A moved result is a bug. A moved counter is a change in how much the
//! search explores; it is accepted only by regenerating the file on
//! purpose and saying so in the change log. Regenerate with
//! `NOC_BLESS=1 cargo test -p noc-bench --test fig4_golden`; a normal run
//! never writes the file.

use noc::telemetry::json::{JsonValue, Quoted};
use noc_bench::{
    fig4a_automotive, fig4a_workload, fig4b_workload, timed_decomposition, FIG4A_SIZES,
    FIG4B_SEEDS, FIG4B_SIZES,
};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/fig4.jsonl");

/// One instance's pinned outcome.
struct Row {
    label: String,
    cost_bits: u64,
    report_fnv1a: u64,
    bisection_links: usize,
    deadlock_free: bool,
    nodes_visited: u64,
    leaves_evaluated: u64,
}

impl Row {
    fn to_json(&self) -> String {
        format!(
            "{{\"label\": {}, \"total_cost_bits\": {}, \"report_fnv1a\": {}, \"bisection_links\": {}, \"deadlock_free\": {}, \"nodes_visited\": {}, \"leaves_evaluated\": {}}}",
            Quoted(&self.label),
            self.cost_bits,
            self.report_fnv1a,
            self.bisection_links,
            self.deadlock_free,
            self.nodes_visited,
            self.leaves_evaluated,
        )
    }

    fn from_json(line: &str) -> Result<Row, String> {
        let v = JsonValue::parse(line).map_err(|e| e.to_string())?;
        Ok(Row {
            label: v.need_str("label")?.to_string(),
            cost_bits: v.need_u64("total_cost_bits")?,
            report_fnv1a: v.need_u64("report_fnv1a")?,
            bisection_links: v.need_usize("bisection_links")?,
            deadlock_free: v.need_bool("deadlock_free")?,
            nodes_visited: v.need_u64("nodes_visited")?,
            leaves_evaluated: v.need_u64("leaves_evaluated")?,
        })
    }
}

/// FNV-1a over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The Figure 4a TGFF sizes, the automotive benchmark, then the Figure 4b
/// planted sizes × seeds — the instances of the benchmark's `fig4_fixed`.
fn instances() -> Vec<(String, noc::graph::Acg)> {
    let mut out: Vec<_> = FIG4A_SIZES
        .iter()
        .map(|&tasks| (format!("tgff_n{tasks}"), fig4a_workload(tasks)))
        .collect();
    out.push(("automotive18".to_string(), fig4a_automotive()));
    for n in FIG4B_SIZES {
        for seed in 0..FIG4B_SEEDS {
            out.push((format!("planted_n{n}_s{seed}"), fig4b_workload(n, seed)));
        }
    }
    out
}

fn run(label: String, acg: &noc::graph::Acg) -> Row {
    let (result, _) = timed_decomposition(acg);
    Row {
        label,
        cost_bits: result.decomposition.total_cost.value().to_bits(),
        report_fnv1a: fnv1a(result.decomposition.paper_report().as_bytes()),
        bisection_links: result.architecture.stats().bisection_links,
        deadlock_free: result.architecture.verify().is_deadlock_free(),
        nodes_visited: result.stats.nodes_visited,
        leaves_evaluated: result.stats.leaves_evaluated,
    }
}

/// The mismatches between `got` and `want`, each saying whether a result
/// or a work counter moved.
fn diff(got: &Row, want: &Row) -> Vec<String> {
    let mut out = Vec::new();
    let mut field = |kind: &str, name: &str, read: fn(&Row) -> String| {
        let (g, w) = (read(got), read(want));
        if g != w {
            out.push(format!(
                "{kind} moved: {} {name} = {g}, golden {w}",
                got.label
            ));
        }
    };
    field("result", "total_cost", |r| {
        format!("{} (bits {:#x})", f64::from_bits(r.cost_bits), r.cost_bits)
    });
    field("result", "paper_report digest", |r| {
        format!("{:#x}", r.report_fnv1a)
    });
    field("result", "bisection_links", |r| {
        r.bisection_links.to_string()
    });
    field("result", "deadlock_free", |r| r.deadlock_free.to_string());
    field("work counter", "nodes_visited", |r| {
        r.nodes_visited.to_string()
    });
    field("work counter", "leaves_evaluated", |r| {
        r.leaves_evaluated.to_string()
    });
    out
}

#[test]
fn fig4_instances_match_the_golden_table() {
    let rows: Vec<Row> = instances()
        .into_iter()
        .map(|(label, acg)| run(label, &acg))
        .collect();
    assert_eq!(rows.len(), 70);
    if std::env::var_os("NOC_BLESS").is_some_and(|v| v == "1") {
        let text: String = rows.iter().map(|row| row.to_json() + "\n").collect();
        std::fs::write(GOLDEN, text).expect("write the Figure 4 golden table");
        return;
    }
    let text = std::fs::read_to_string(GOLDEN)
        .expect("tests/golden/fig4.jsonl exists (NOC_BLESS=1 regenerates it)");
    let golden: Vec<Row> = text
        .lines()
        .enumerate()
        .map(|(i, line)| {
            Row::from_json(line).unwrap_or_else(|e| panic!("fig4.jsonl:{}: {e}", i + 1))
        })
        .collect();
    assert_eq!(
        golden.iter().map(|r| &r.label).collect::<Vec<_>>(),
        rows.iter().map(|r| &r.label).collect::<Vec<_>>(),
        "the golden table lists other instances"
    );
    let mismatches: Vec<String> = rows
        .iter()
        .zip(&golden)
        .flat_map(|(got, want)| diff(got, want))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} mismatch(es) against tests/golden/fig4.jsonl:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
