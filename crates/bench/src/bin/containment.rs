//! **§5.2 "Comparison with Existing Learning Paths"** — the containment
//! experiment.
//!
//! Paper: 83 anonymized Brandeis transcripts rebuilt into actual learning
//! paths (Fall '12 – Fall '15) are all contained in the 41,556,657
//! generated goal-driven paths; the generator therefore offers students
//! tens of millions of options they never considered.
//!
//! Here the 83 transcripts are simulated (three student policies over the
//! bundled catalog; DESIGN.md §3), containment is decided by the exact
//! membership predicate, and the generated-path count comes from the
//! memoized counter over a transposition table. The binary asserts both
//! pinned facts: 83/83 contained, and the count golden, which is Table 2's
//! six-semester goal cell ([`coursenav_bench::TABLE2_GOAL_GOLDENS`]).
//!
//! Run: `cargo run -p coursenav-bench --release --bin containment`

use coursenav_bench::{
    paper_goal_explorer, paper_instance, secs, table2_goal_count, timed, PAPER_M,
    PAPER_MEMO_ENTRIES, TABLE2_GOAL_GOLDENS,
};
use coursenav_navigator::PruneConfig;
use coursenav_transcript::{
    check_containment, GreedyCorePolicy, RandomValidPolicy, SelectionPolicy, TranscriptSimulator,
    WorkloadAversePolicy,
};

fn main() {
    let data = paper_instance();
    let degree = data.degree.clone().expect("CS major declared");
    let (start, end) = data.horizon;

    // --- Simulate the cohort (the paper's 83 transcripts).
    let sim = TranscriptSimulator::new(&data.catalog, &degree, start, end + (-1), PAPER_M);
    let greedy = GreedyCorePolicy;
    let random = RandomValidPolicy;
    let averse = WorkloadAversePolicy::default();
    let policies: Vec<&dyn SelectionPolicy> = vec![&greedy, &random, &averse];
    // Sample students until 83 graduates exist, as the paper's dataset is
    // exactly the graduating population.
    let mut graduates = Vec::new();
    let mut simulated = 0usize;
    let mut seed = 0u64;
    while graduates.len() < 83 && simulated < 5_000 {
        let t = sim.simulate(policies[simulated % policies.len()], seed);
        if let Some(g) = t.truncate_at_goal(|c| degree.satisfied(c)) {
            graduates.push(g);
        }
        simulated += 1;
        seed += 1;
    }
    println!(
        "simulated {simulated} students to obtain {} graduating transcripts (period {start} .. {end})",
        graduates.len()
    );

    // --- Containment against the full-period goal-driven exploration.
    let semesters = end - start;
    let explorer = paper_goal_explorer(&data, semesters, PruneConfig::all());
    let (contained, t) = timed(|| {
        graduates
            .iter()
            .filter(|g| check_containment(&explorer, g).is_ok())
            .count()
    });
    println!(
        "containment check: {contained}/{} actual paths generated ({} s)",
        graduates.len(),
        secs(t)
    );

    // --- How many options does the generator offer beyond the actual ones?
    let (counts, t) = timed(|| table2_goal_count(&data, semesters, PAPER_MEMO_ENTRIES));
    println!(
        "goal-driven generator: {} paths to the CS major over {} semesters ({} s, memoized count)",
        counts.goal_paths,
        semesters,
        secs(t)
    );
    let extra = counts.goal_paths.saturating_sub(graduates.len() as u128);
    println!("=> {extra} generated paths were never followed by any simulated student");
    assert_eq!(contained, graduates.len(), "the paper's containment result");
    let &(_, paths, goal_paths) = TABLE2_GOAL_GOLDENS
        .iter()
        .find(|row| row.0 == semesters)
        .expect("Table 2 pins the full period");
    assert_eq!(
        (counts.total_paths, counts.goal_paths),
        (paths, goal_paths),
        "the {semesters}-semester count golden"
    );
}
