//! **Table 1** — goal-driven path generation with and without pruning.
//!
//! Paper (38 Brandeis CS courses, m = 3, CS-major goal):
//!
//! ```text
//! semesters |   Pruning #paths  runtime |  No-pruning #paths  runtime
//!         4 |      1,979   1.011 s      |       525,583   7.43 s
//!         5 |      3,791   1.295 s      |       760,677  74.03 s
//! ```
//!
//! Plus the §5.2 breakdown: "82% of them are pruned using time-based
//! pruning strategy and 18% are pruned by course-availability".
//!
//! The binary asserts every count it prints against its pin before
//! printing it: Table 1's rows against `coursenav_bench::TABLE1_GOLDENS`,
//! and with `--ablate` each Ablation A configuration's explored paths.
//! Runtimes are printed, never asserted.
//!
//! Run: `cargo run -p coursenav-bench --release --bin table1 [--ablate]`

#![forbid(unsafe_code)]

use coursenav_bench::{paper_goal_explorer, paper_instance, secs, timed, TABLE1_GOLDENS};
use coursenav_navigator::PruneConfig;

fn main() {
    let ablate = std::env::args().any(|a| a == "--ablate");
    let data = paper_instance();

    println!("Table 1: goal-driven learning path generation with and without pruning");
    println!(
        "(CS-major goal, m = 3, start {}; counts are explored paths)\n",
        data.horizon.0
    );
    println!(
        "{:>9} | {:>14} {:>12} | {:>14} {:>12} | {:>10}",
        "semesters", "prune #paths", "runtime(s)", "noprune #paths", "runtime(s)", "goal paths"
    );
    println!("{}", "-".repeat(88));

    for &(semesters, paths, goal_paths, unpruned_paths) in TABLE1_GOLDENS {
        let pruned = paper_goal_explorer(&data, semesters, PruneConfig::all());
        let (pc, pt) = timed(|| pruned.count_paths());
        let unpruned = paper_goal_explorer(&data, semesters, PruneConfig::none());
        let (uc, ut) = timed(|| unpruned.count_paths());
        assert_eq!(
            pc.goal_paths, uc.goal_paths,
            "pruning must preserve goal paths"
        );
        assert_eq!(
            (pc.total_paths, pc.goal_paths, uc.total_paths),
            (paths, goal_paths, unpruned_paths),
            "Table 1's {semesters}-semester row moved from its golden"
        );
        println!(
            "{:>9} | {:>14} {:>12} | {:>14} {:>12} | {:>10}",
            semesters,
            pc.total_paths,
            secs(pt),
            uc.total_paths,
            secs(ut),
            pc.goal_paths
        );
        let total = pc.stats.pruned_total().max(1);
        println!(
            "{:>9}   pruned nodes: {} ({}% time-based, {}% availability-based)",
            "",
            pc.stats.pruned_total(),
            pc.stats.pruned_time * 100 / total,
            pc.stats.pruned_availability * 100 / total
        );
    }

    if ablate {
        println!("\nAblation A: individual pruning strategies (5 semesters)");
        println!(
            "{:>28} | {:>14} {:>12} | {:>12} {:>12}",
            "configuration", "#paths", "runtime(s)", "pruned-time", "pruned-avail"
        );
        println!("{}", "-".repeat(88));
        // (name, pruning, strategic floor, pinned explored paths).
        let configs: [(&str, PruneConfig, bool, u128); 5] = [
            ("none", PruneConfig::none(), false, 17_180_112),
            ("time-only", PruneConfig::time_only(), false, 8_777_855),
            (
                "availability-only",
                PruneConfig::availability_only(),
                false,
                5_514_503,
            ),
            ("both (paper)", PruneConfig::all(), false, 3_180_719),
            (
                "both + strategic selections",
                PruneConfig::all(),
                true,
                2_593_068,
            ),
        ];
        for (name, config, strategic, pinned) in configs {
            let e = paper_goal_explorer(&data, 5, config).with_strategic_selections(strategic);
            let (c, t) = timed(|| e.count_paths());
            assert_eq!(c.total_paths, pinned, "Ablation A's {name} row moved");
            println!(
                "{:>28} | {:>14} {:>12} | {:>12} {:>12}",
                name,
                c.total_paths,
                secs(t),
                c.stats.pruned_time,
                c.stats.pruned_availability
            );
        }
        println!("\nAblation: availability strategy with prerequisite closure (5 semesters)");
        let closure = PruneConfig {
            availability_respects_prereqs: true,
            ..PruneConfig::all()
        };
        let e = paper_goal_explorer(&data, 5, closure);
        let (c, t) = timed(|| e.count_paths());
        assert_eq!(c.total_paths, 3_156_378, "the prereq-closure row moved");
        println!(
            "  prereq-closure availability: {} paths, {} s, {} availability prunes",
            c.total_paths,
            secs(t),
            c.stats.pruned_availability
        );
    }
}
