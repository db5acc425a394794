//! **Figure 4** — runtime of the ranked learning paths algorithm.
//!
//! Paper: time-based ranking, CS-major goal, k ∈ {10, 100, 500, 1000}
//! output paths, academic periods of 6, 7, and 8 semesters; even at 8
//! semesters and k = 1000 the runtime stays interactive (< 25 s on their
//! Java prototype).
//!
//! The bundled catalog covers 7 semesters, so this experiment runs on the
//! paper-shaped synthetic instance with an 8-semester schedule (DESIGN.md
//! §3). Prints one series per period, like the figure, plus each cell's
//! expansion count, after asserting every cell's path count, last path's
//! cost and expansions against `coursenav_bench::FIG4_GOLDENS`. Runtimes
//! are printed, never asserted.
//!
//! Run: `cargo run -p coursenav-bench --release --bin fig4 [--csv]`
//! (`--csv` emits `k,period_semesters,seconds,paths,expanded` rows for
//! plotting.)

#![forbid(unsafe_code)]

use std::time::Duration;

use coursenav_bench::{fig4_cell, secs, sparse_instance, timed, FIG4_GOLDENS};

fn main() {
    let csv = std::env::args().any(|a| a == "--csv");
    let synth = sparse_instance(8);
    let periods = [6i32, 7, 8];
    // Every cell, checked against its golden: (k, period, paths,
    // expansions, time).
    let cells: Vec<(usize, i32, usize, u64, Duration)> = FIG4_GOLDENS
        .iter()
        .map(|&(k, period, count, last_cost, expanded)| {
            let ((paths, stats), t) = timed(|| fig4_cell(&synth, k, period));
            assert_eq!(
                (
                    paths.len(),
                    paths.last().map(|p| p.cost),
                    stats.nodes_expanded
                ),
                (count, Some(last_cost), expanded),
                "Figure 4 cell k = {k}, {period} semesters moved from its golden"
            );
            (k, period, paths.len(), stats.nodes_expanded, t)
        })
        .collect();

    if csv {
        println!("k,period_semesters,seconds,paths,expanded");
        for (k, period, paths, expanded, t) in cells {
            println!("{k},{period},{},{paths},{expanded}", secs(t));
        }
        return;
    }

    println!("Figure 4: runtime (s) of ranked learning paths (time-based ranking, top-k)");
    println!("(sparse synthetic 38-course instance, CS-major-shaped goal, m = 3)\n");
    let header = || {
        print!("{:>12}", "k \\ period");
        for p in periods {
            print!(" {:>14}", format!("{p} semesters"));
        }
        println!();
        println!("{}", "-".repeat(12 + 15 * periods.len()));
    };
    header();
    for row in cells.chunks(periods.len()) {
        print!("{:>12}", row[0].0);
        for &(k, _, paths, _, t) in row {
            let label = if paths < k {
                format!("{}* ({paths})", secs(t))
            } else {
                secs(t)
            };
            print!(" {:>14}", label);
        }
        println!();
    }
    println!("\n(* = fewer than k goal paths exist; count in parentheses)");

    println!("\nNodes expanded per cell (deterministic; pinned in FIG4_GOLDENS)\n");
    header();
    for row in cells.chunks(periods.len()) {
        print!("{:>12}", row[0].0);
        for &(_, _, _, expanded, _) in row {
            print!(" {expanded:>14}");
        }
        println!();
    }
}
