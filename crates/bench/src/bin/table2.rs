//! **Table 2** — deadline-driven vs goal-driven learning path generation.
//!
//! Paper (38 Brandeis CS courses, m = 3, CS-major goal, 4–7 semesters):
//!
//! ```text
//! semesters | deadline #paths  runtime | goal #paths     runtime
//!         4 |     740,677      17.878  |      1,979        1.011
//!         5 |     971,128      20.143  |      3,791        1.295
//!         6 |     N/A          N/A     | 41,556,657        1,845
//!         7 |     N/A          N/A     | 50,960,005        2,472
//! ```
//!
//! The deadline-driven "N/A" cells are out-of-memory failures in the paper;
//! we reproduce them with a materialization node budget. The binary
//! asserts each deadline cell it runs against
//! [`coursenav_bench::TABLE2_DEADLINE_GOLDENS`] — a path count, or the
//! budget overflow — before printing it. The goal column is counted
//! through a cold transposition table (the memoized count), and every
//! cell is asserted against [`coursenav_bench::TABLE2_GOAL_GOLDENS`].
//!
//! The default run counts every goal cell, the seven-semester one (the
//! paper's † row) included, and the deadline cells of semesters 4–6; it
//! prints the 7-semester deadline cell as "N/A †" without materializing
//! it. `--full` materializes that one too, a manual run (see
//! EXPERIMENTS.md for its cost).
//!
//! Run: `cargo run -p coursenav-bench --release --bin table2 [-- --full]`

#![forbid(unsafe_code)]

use coursenav_bench::{
    paper_instance, secs, table2_deadline_count, table2_goal_count, timed, PAPER_MEMO_ENTRIES,
    TABLE2_DEADLINE_GOLDENS, TABLE2_GOAL_GOLDENS, TABLE2_NODE_BUDGET,
};

/// The horizon whose deadline cell only `--full` materializes.
const SEVEN: i32 = 7;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let data = paper_instance();

    println!("Table 2: deadline-driven vs. goal-driven learning paths generation");
    println!(
        "(CS-major goal, m = 3, start {}; deadline graph budget {} nodes)\n",
        data.horizon.0, TABLE2_NODE_BUDGET
    );
    println!(
        "{:>9} | {:>16} {:>12} | {:>16} {:>12}",
        "semesters", "deadline #paths", "runtime(s)", "goal #paths", "runtime(s)"
    );
    println!("{}", "-".repeat(76));

    for (&(semesters, pinned), &(goal_semesters, paths, goal_paths)) in
        TABLE2_DEADLINE_GOLDENS.iter().zip(TABLE2_GOAL_GOLDENS)
    {
        assert_eq!(
            semesters, goal_semesters,
            "the two columns share their rows"
        );
        let counted = semesters < SEVEN || full;
        // Deadline-driven: materialize the graph (the paper's Algorithm 1
        // stores it), reporting N/A when the budget is exceeded.
        let (d_paths, d_time) = if !counted {
            ("N/A".to_string(), "N/A".to_string())
        } else {
            let (paths, dt) = timed(|| table2_deadline_count(&data, semesters));
            assert_eq!(
                paths, pinned,
                "Table 2's {semesters}-semester deadline cell moved from its golden"
            );
            match paths {
                Some(paths) => (paths.to_string(), secs(dt)),
                None => ("N/A".to_string(), "N/A".to_string()),
            }
        };

        // Goal-driven with both pruning strategies, memoized.
        let (counts, g_time) = timed(|| table2_goal_count(&data, semesters, PAPER_MEMO_ENTRIES));
        assert_eq!(
            (counts.total_paths, counts.goal_paths),
            (paths, goal_paths),
            "Table 2's {semesters}-semester goal cell moved from its golden"
        );

        println!(
            "{:>9} | {:>16} {:>12} | {:>16} {:>12}{}",
            semesters,
            d_paths,
            d_time,
            counts.total_paths,
            secs(g_time),
            if counted { "" } else { " †" }
        );
    }

    println!("\n(goal #paths counts paths surviving pruning; the goal-satisfying subset");
    println!(" is smaller still — see table1. Goal runtimes are memoized counts through");
    println!(" a cold transposition table, not path-by-path streaming. Deadline N/A =");
    println!(" node budget exceeded, the analogue of the paper's out-of-memory failure.");
    println!(" † = deadline cell not run by default; `table2 -- --full` materializes it —");
    println!(" see EXPERIMENTS.md.)");
}
