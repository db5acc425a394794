//! **Bench 5** — transposition-table memoization: folding the exploration
//! tree into a DAG (status-keyed subtree memo, `navigator::memo`).
//!
//! For each depth it runs the paper's §5.1 goal-driven count three ways —
//! un-memoized, memoized against a cold table, and memoized again against
//! the now-warm table — asserting byte-identical counts and statistics
//! each time, and records one JSON row per run:
//!
//! ```text
//! {"bench":"count","config":"5sem/memoized-cold","wall_ms":…,
//!  "nodes_expanded":…,"memo_hits":…}
//! ```
//!
//! `nodes_expanded` is *work actually done*: the logical (response)
//! statistics are identical across all three runs by construction, so the
//! rows report the memoized runs' work ledger instead — the whole point
//! of the table is that it falls, hard, while the answer stays the same.
//!
//! Run: `cargo run -p coursenav-bench --release --bin bench5 [-- --smoke]`
//!
//! The full run writes `BENCH_5.json` to the working directory (the repo
//! root under `./ci.sh` conventions); `--smoke` runs the shallow depth
//! only and skips the file, so CI exercises the harness without dirtying
//! the committed artifact.

#![forbid(unsafe_code)]

use coursenav_bench::{
    paper_goal_explorer, paper_instance, sparse_instance, synthetic_goal_explorer, timed,
};
use coursenav_navigator::{Explorer, PathCounts, PruneConfig, TranspositionTable};

struct Row {
    bench: &'static str,
    config: String,
    wall_ms: f64,
    nodes_expanded: u64,
    memo_hits: u64,
}

fn json_rows(rows: &[Row]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"bench\":\"{}\",\"config\":\"{}\",\"wall_ms\":{:.3},\
             \"nodes_expanded\":{},\"memo_hits\":{}}}{}\n",
            r.bench,
            r.config,
            r.wall_ms,
            r.nodes_expanded,
            r.memo_hits,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs one configuration three ways (plain, cold table, warm table),
/// asserts equivalence, prints the comparison, and appends the JSON rows.
/// `require_fold` asserts the cold run expands strictly fewer nodes —
/// demanded wherever the tree is deep enough to transpose.
fn run_config(rows: &mut Vec<Row>, label: &str, explorer: &Explorer<'_>, require_fold: bool) {
    let (plain, t_plain) = timed(|| explorer.count_paths());
    let table = TranspositionTable::new(1 << 20);
    let ((cold, cold_work), t_cold) = timed(|| explorer.count_paths_memo(&table));
    let ((warm, warm_work), t_warm) = timed(|| explorer.count_paths_memo(&table));

    // The memo is an optimization, never an approximation: counts and
    // logical statistics must match the plain run bit for bit.
    assert_eq!(plain, cold, "{label}: cold memoized counts must match");
    assert_eq!(plain, warm, "{label}: warm memoized counts must match");
    if require_fold {
        assert!(
            cold_work.nodes_expanded < plain.stats.nodes_expanded,
            "{label}: the DAG fold must expand strictly fewer nodes"
        );
    }

    let variants: [(&str, std::time::Duration, &PathCounts, u64, u64); 3] = [
        ("unmemoized", t_plain, &plain, plain.stats.nodes_expanded, 0),
        (
            "memoized-cold",
            t_cold,
            &cold,
            cold_work.nodes_expanded,
            cold_work.memo_hits,
        ),
        (
            "memoized-warm",
            t_warm,
            &warm,
            warm_work.nodes_expanded,
            warm_work.memo_hits,
        ),
    ];
    for (variant, wall, _, expanded, hits) in variants {
        println!(
            "{:>14} | {:>16} {:>12.3} {:>14} {:>12}",
            label,
            variant,
            ms(wall),
            expanded,
            hits
        );
        rows.push(Row {
            bench: "count",
            config: format!("{label}/{variant}"),
            wall_ms: ms(wall),
            nodes_expanded: expanded,
            memo_hits: hits,
        });
    }
    println!(
        "{:>14}   cold speedup: {:.1}x   warm speedup: {:.1}x",
        "",
        t_plain.as_secs_f64() / t_cold.as_secs_f64().max(1e-9),
        t_plain.as_secs_f64() / t_warm.as_secs_f64().max(1e-9),
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let data = paper_instance();
    let mut rows = Vec::new();

    println!("Bench 5: status-keyed subtree memoization (goal-driven count, m = 3)\n");
    println!(
        "{:>14} | {:>16} {:>12} {:>14} {:>12}",
        "config", "variant", "wall ms", "expanded", "memo hits"
    );
    println!("{}", "-".repeat(78));

    // The 4-semester paper tree is too shallow to transpose (ten internal
    // nodes, all with distinct enrollment statuses), so no fold is
    // demanded of it; from five semesters on, reorderings of the same
    // selections collide and the fold must pay off.
    run_config(
        &mut rows,
        "4sem",
        &paper_goal_explorer(&data, 4, PruneConfig::all()),
        false,
    );
    if !smoke {
        run_config(
            &mut rows,
            "5sem",
            &paper_goal_explorer(&data, 5, PruneConfig::all()),
            true,
        );
        // The deepest configuration: the sparse registrar-shaped instance
        // Figure 4 runs on, seven selection semesters out. Deep trees
        // transpose heavily — this is where the DAG fold earns its keep.
        let synth = sparse_instance(8);
        run_config(
            &mut rows,
            "sparse-7sem",
            &synthetic_goal_explorer(&synth, 7),
            true,
        );
    }

    let json = json_rows(&rows);
    println!("\n{json}");
    if !smoke {
        std::fs::write("BENCH_5.json", format!("{json}\n")).expect("write BENCH_5.json");
        println!("\nwrote BENCH_5.json");
    }
}
