//! **Bench 10** — hash-consed path DAG + BDD-style apply: what-if
//! advising from shared structure (`navigator::unique` / `navigator::apply`).
//!
//! The interactive-advising claim: once one base exploration has been
//! interned into the unique table, every "what if I drop X / cap my
//! workload" variant is answered by set algebra over the shared DAG —
//! milliseconds, not a re-exploration. The workload is the catalog-wide
//! impact sweep (drop every course in turn, then cap the semester
//! workload); for each configuration the harness measures:
//!
//! 1. `reexplore`: the status quo — each delta re-explored from scratch
//!    against a cold PR 5 transposition table (the strongest pre-DAG
//!    baseline; an unmemoized run is slower still).
//! 2. `dag-build`: the one-time cost of interning the base exploration
//!    into the unique table, with the node ledger — interned nodes vs.
//!    the raw allocations a consing-free build would have made (one per
//!    distinct state reached).
//! 3. `whatif-apply`: the same deltas answered warm from the shared DAG
//!    (the counting fold + root cache), counts asserted equal to the
//!    re-explored answers delta by delta.
//!
//! Each phase is run several times (21 for `4sem`, 5 for `5sem`, 3 for
//! `sparse-7sem`) and its row reports the median wall clock.
//!
//! ```text
//! {"bench":"whatif","config":"sparse-7sem/whatif-apply","wall_ms":…,
//!  "deltas":…,"dag_nodes":…,"raw_nodes":…,"speedup_vs_reexplore":…}
//! ```
//!
//! Run: `cargo run -p coursenav-bench --release --bin bench10 [-- --smoke]`
//!
//! The full run asserts the headline claim in-run — on `sparse-7sem` the
//! mean what-if apply is ≥ 20× faster than re-exploration — and writes
//! `BENCH_10.json`. `--smoke` runs the shallow configuration only and
//! validates the committed artifact instead of rewriting it (the CI
//! guard). Byte-level equivalence (stats and all, warm and cold,
//! sequential and parallel) is pinned by the `whatif_proptests` suite in
//! `crates/navigator`.

#![forbid(unsafe_code)]

use coursenav_bench::{paper_instance, sparse_instance, timed, PAPER_M};
use coursenav_navigator::{
    ExplorationRequest, ExplorationResponse, GoalSpec, NavigatorService, TranspositionTable,
    UniqueTable, WhatIfDelta, WhatIfRequest, WhatIfServed,
};

struct Row {
    config: String,
    wall_ms: f64,
    deltas: usize,
    dag_nodes: u64,
    raw_nodes: u64,
    speedup_vs_reexplore: f64,
}

fn json_rows(rows: &[Row]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"bench\":\"whatif\",\"config\":\"{}\",\"wall_ms\":{:.3},\"deltas\":{},\
             \"dag_nodes\":{},\"raw_nodes\":{},\"speedup_vs_reexplore\":{:.1}}}{}\n",
            r.config,
            r.wall_ms,
            r.deltas,
            r.dag_nodes,
            r.raw_nodes,
            r.speedup_vs_reexplore,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn counts(resp: &ExplorationResponse) -> (u128, u128) {
    match resp {
        ExplorationResponse::Counts {
            total_paths,
            goal_paths,
            ..
        } => (*total_paths, *goal_paths),
        _ => unreachable!("count requests answer counts"),
    }
}

/// One configuration: a service, its base request, the advising
/// session's delta vocabulary — every course in the catalog to drop in
/// turn, plus a workload cap — and how many times each phase is timed.
struct Config<'a> {
    label: &'static str,
    runs: usize,
    service: NavigatorService<'a>,
    base: ExplorationRequest,
    drop_codes: Vec<String>,
    cap: f64,
}

/// The per-delta what-if requests: the catalog-wide impact sweep — "what
/// does dropping each course do to my options?" for *every* course, no
/// sampling — then a workload cap ("keep my semesters humane"). Forced
/// courses are deliberately absent: they have no request-level
/// equivalent, so the status quo can only answer them by collecting and
/// filtering full path sets (the `whatif_proptests` oracle, which pins
/// their correctness) — seconds per question at this scale, an unbounded
/// win that would only flatter the ratio.
fn deltas(cfg: &Config<'_>) -> Vec<WhatIfRequest> {
    let blank = || WhatIfRequest {
        base: cfg.base.clone(),
        transcript: None,
        delta: WhatIfDelta::default(),
    };
    let mut out: Vec<WhatIfRequest> = cfg
        .drop_codes
        .iter()
        .map(|code| {
            let mut req = blank();
            req.delta.avoid = vec![code.clone()];
            req
        })
        .collect();
    let mut capped = blank();
    capped.delta.max_semester_workload = Some(cfg.cap);
    out.push(capped);
    out
}

/// The median of `times`.
fn median(mut times: Vec<std::time::Duration>) -> std::time::Duration {
    times.sort_unstable();
    times[times.len() / 2]
}

/// Runs one configuration end to end and appends its three JSON rows.
/// Each phase is timed `cfg.runs` times and reported as its median, so
/// a row whose work takes microseconds is not one scheduler hiccup.
/// Returns the apply-vs-reexplore speedup for the headline assertion.
fn run_config(rows: &mut Vec<Row>, cfg: &Config<'_>) -> f64 {
    let whatifs = deltas(cfg);
    let baseline = WhatIfRequest {
        base: cfg.base.clone(),
        transcript: None,
        delta: WhatIfDelta::default(),
    };
    let (mut t_reexplore, mut t_build, mut t_apply) = (Vec::new(), Vec::new(), Vec::new());
    let mut stats = None;
    for _ in 0..cfg.runs {
        // Status quo: every delta is a fresh exploration against a cold
        // memo table (the strongest pre-DAG path for a first-time
        // question).
        let mut reexplored = Vec::with_capacity(whatifs.len());
        let (_, t) = timed(|| {
            for req in &whatifs {
                let memo = TranspositionTable::new(1 << 20);
                let resp = cfg
                    .service
                    .run_until_memo(&req.merged_request(), None, 1, Some(&memo))
                    .expect("re-exploration answers");
                reexplored.push(counts(&resp));
            }
        });
        t_reexplore.push(t);

        // One-time: intern the base exploration into a fresh unique table
        // (a warm one would answer from its root cache).
        let table = UniqueTable::new(0);
        let (built, t) = timed(|| {
            cfg.service
                .whatif_until(&baseline, None, 1, None, Some(&table))
                .expect("base DAG builds")
        });
        t_build.push(t);
        assert_eq!(built.served, WhatIfServed::Applied, "{}", cfg.label);
        stats = Some(table.snapshot());

        // The claim: every delta answered warm from the shared DAG, counts
        // identical to the re-explored answers. The table's fold cache
        // would answer a repeated delta without a walk, so each run
        // applies against the table it just built.
        let mut applied = Vec::with_capacity(whatifs.len());
        let (_, t) = timed(|| {
            for req in &whatifs {
                let outcome = cfg
                    .service
                    .whatif_until(req, None, 1, None, Some(&table))
                    .expect("what-if answers");
                assert_eq!(outcome.served, WhatIfServed::Applied, "{}", cfg.label);
                applied.push(counts(&outcome.response));
            }
        });
        t_apply.push(t);
        for (i, (got, want)) in applied.iter().zip(&reexplored).enumerate() {
            assert_eq!(
                got, want,
                "{}: delta {i} apply answer diverges from re-exploration",
                cfg.label
            );
        }
    }
    let stats = stats.expect("at least one run");
    let (t_reexplore, t_build, t_apply) = (median(t_reexplore), median(t_build), median(t_apply));
    // The nodes a consing-free build would allocate: one per distinct
    // state reached, terminal states included (counted untimed).
    let raw_nodes = cfg
        .service
        .build_explorer(&cfg.base)
        .expect("the base exploration is valid")
        .distinct_states() as u64;

    let speedup = t_reexplore.as_secs_f64() / t_apply.as_secs_f64().max(1e-9);
    let per = |d: std::time::Duration| ms(d) / whatifs.len() as f64;
    println!(
        "{:>12} | reexplore {:>9.3} ms/delta | build once {:>9.3} ms | \
         apply {:>7.3} ms/delta | {:>6.1}x | {} nodes ({} raw)",
        cfg.label,
        per(t_reexplore),
        ms(t_build),
        per(t_apply),
        speedup,
        stats.nodes,
        raw_nodes
    );
    rows.push(Row {
        config: format!("{}/reexplore", cfg.label),
        wall_ms: ms(t_reexplore),
        deltas: whatifs.len(),
        dag_nodes: 0,
        raw_nodes: 0,
        speedup_vs_reexplore: 1.0,
    });
    rows.push(Row {
        config: format!("{}/dag-build", cfg.label),
        wall_ms: ms(t_build),
        deltas: 0,
        dag_nodes: stats.nodes,
        raw_nodes,
        speedup_vs_reexplore: 0.0,
    });
    rows.push(Row {
        config: format!("{}/whatif-apply", cfg.label),
        wall_ms: ms(t_apply),
        deltas: whatifs.len(),
        dag_nodes: stats.nodes,
        raw_nodes,
        speedup_vs_reexplore: speedup,
    });
    speedup
}

/// Every course code in the catalog — the sweep's drop vocabulary.
fn all_codes(catalog: &coursenav_catalog::Catalog) -> Vec<String> {
    catalog.courses().map(|c| c.code().to_string()).collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!("Bench 10: what-if advising over the hash-consed path DAG (m = {PAPER_M})\n");

    let paper = paper_instance();
    let degree = paper.degree.clone().expect("bundled degree");
    let sparse = sparse_instance(8);
    let mut rows = Vec::new();

    let base = |start: coursenav_catalog::Semester, n: i32| {
        let mut req = ExplorationRequest::deadline_count(start, start + n, PAPER_M);
        req.goal = Some(GoalSpec::Degree);
        req
    };

    // The shallow configuration runs in both modes (the smoke run must
    // exercise the full reexplore/build/apply pipeline).
    let shallow = Config {
        label: "4sem",
        runs: 21,
        service: NavigatorService::new(&paper.catalog)
            .with_degree(&degree)
            .with_offering_model(paper.offering.as_ref().expect("bundled offering")),
        base: base(paper.horizon.0, 4),
        drop_codes: all_codes(&paper.catalog),
        cap: 40.0,
    };
    run_config(&mut rows, &shallow);

    let mut sparse_speedup = None;
    if !smoke {
        let five = Config {
            label: "5sem",
            runs: 5,
            service: NavigatorService::new(&paper.catalog)
                .with_degree(&degree)
                .with_offering_model(paper.offering.as_ref().expect("bundled offering")),
            base: base(paper.horizon.0, 5),
            drop_codes: all_codes(&paper.catalog),
            cap: 40.0,
        };
        run_config(&mut rows, &five);

        // The deep configuration caps at 46: triples run 36–48 credits,
        // so 46 trims the heaviest semesters — an interactive question. A
        // much tighter cap is a rebuild in disguise, not a what-if.
        let deep = Config {
            label: "sparse-7sem",
            runs: 3,
            service: NavigatorService::new(&sparse.catalog)
                .with_degree(&sparse.degree)
                .with_offering_model(&sparse.offering),
            base: base(sparse.start, 7),
            drop_codes: all_codes(&sparse.catalog),
            cap: 46.0,
        };
        sparse_speedup = Some(run_config(&mut rows, &deep));
    }

    let json = json_rows(&rows);
    println!("\n{json}");
    if smoke {
        // CI guard: the committed artifact must stay well-formed and must
        // still show the headline speedup.
        let committed = std::fs::read_to_string("BENCH_10.json").expect("read BENCH_10.json");
        let value: serde_json::Value =
            serde_json::from_str(&committed).expect("BENCH_10.json is valid JSON");
        let rows = value.as_array().expect("BENCH_10.json is a row array");
        assert!(!rows.is_empty(), "BENCH_10.json has rows");
        for row in rows {
            for key in [
                "bench",
                "config",
                "wall_ms",
                "deltas",
                "dag_nodes",
                "raw_nodes",
                "speedup_vs_reexplore",
            ] {
                assert!(
                    !row[key].is_null(),
                    "BENCH_10.json row missing {key}: {row:?}"
                );
            }
        }
        let apply = rows
            .iter()
            .find(|r| r["config"].as_str() == Some("sparse-7sem/whatif-apply"))
            .expect("BENCH_10.json has the sparse-7sem apply row");
        let speedup = apply["speedup_vs_reexplore"].as_f64().unwrap();
        assert!(
            speedup >= 20.0,
            "committed artifact speedup {speedup} < 20x"
        );
        let sharing = rows
            .iter()
            .find(|r| r["config"].as_str() == Some("sparse-7sem/dag-build"))
            .expect("BENCH_10.json has the sparse-7sem build row");
        assert!(
            sharing["dag_nodes"].as_u64().unwrap() < sharing["raw_nodes"].as_u64().unwrap(),
            "hash-consing must shrink the node count"
        );
        println!("\nBENCH_10.json is well-formed ({} rows)", rows.len());
    } else {
        let speedup = sparse_speedup.expect("full run measures sparse-7sem");
        assert!(
            speedup >= 20.0,
            "headline claim: sparse-7sem apply {speedup:.1}x < 20x vs re-exploration"
        );
        std::fs::write("BENCH_10.json", format!("{json}\n")).expect("write BENCH_10.json");
        println!("\nwrote BENCH_10.json");
    }
}
