//! Ablation benchmarks (DESIGN.md §4, Ablations A–C):
//!
//! - **A.** strategic-selection floor on vs off (goal-driven);
//! - **B.** memoized-DAG counting vs streaming vs parallel streaming
//!   (deadline-driven);
//! - **C.** best-first top-k vs enumerate-then-sort (ranked);
//! - **D.** A* (admissible heuristic) vs plain best-first for the
//!   workload ranking, where accumulated-cost ordering floods the
//!   frontier, and both vs the memoized k-best from a cold table (the
//!   bundled catalog's whole-hour workloads sum exactly, so the memo
//!   serves the workload ranking).

use coursenav_bench::{
    paper_deadline_explorer, paper_goal_explorer, paper_instance, sparse_instance,
    synthetic_goal_explorer, PAPER_M,
};
use coursenav_navigator::{
    ExplorationRequest, NavigatorService, OutputMode, PruneConfig, RankingSpec, TimeRanking,
    TranspositionTable, WorkloadHeuristic, WorkloadRanking,
};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

fn bench_strategic_selections(c: &mut Criterion) {
    let data = paper_instance();
    let mut group = c.benchmark_group("ablation_a_strategic");
    group.sample_size(10);
    group.bench_function("floor_off_4sem", |b| {
        b.iter_batched(
            || paper_goal_explorer(&data, 4, PruneConfig::all()),
            |e| e.count_paths(),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("floor_on_4sem", |b| {
        b.iter_batched(
            || paper_goal_explorer(&data, 4, PruneConfig::all()).with_strategic_selections(true),
            |e| e.count_paths(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_counting_modes(c: &mut Criterion) {
    let data = paper_instance();
    let mut group = c.benchmark_group("ablation_b_counting");
    group.sample_size(10);
    for semesters in [3i32, 4] {
        group.bench_function(format!("streaming_{semesters}sem"), |b| {
            b.iter_batched(
                || paper_deadline_explorer(&data, semesters),
                |e| e.count_paths(),
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("dedup_{semesters}sem"), |b| {
            b.iter_batched(
                || paper_deadline_explorer(&data, semesters),
                |e| e.count_paths_dedup(),
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("parallel4_{semesters}sem"), |b| {
            b.iter_batched(
                || paper_deadline_explorer(&data, semesters),
                |e| e.count_paths_parallel(4),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_topk_strategy(c: &mut Criterion) {
    let synth = sparse_instance(8);
    let mut group = c.benchmark_group("ablation_c_topk_strategy");
    group.sample_size(10);
    // Small horizon so enumerate-then-sort terminates quickly.
    group.bench_function("best_first_top10_5sem", |b| {
        b.iter_batched(
            || synthetic_goal_explorer(&synth, 5),
            |e| e.top_k(&TimeRanking, 10).expect("goal set"),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("enumerate_sort_top10_5sem", |b| {
        b.iter_batched(
            || synthetic_goal_explorer(&synth, 5),
            |e| e.top_k_by_enumeration(&TimeRanking, 10).expect("goal set"),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_astar(c: &mut Criterion) {
    let data = paper_instance();
    let mut group = c.benchmark_group("ablation_d_astar");
    group.sample_size(10);
    // 4-transition horizon: plain best-first is still tractable here, so
    // both variants can be sampled (at 6 transitions plain runs minutes).
    group.bench_function("workload_plain_top5_4sem", |b| {
        b.iter_batched(
            || paper_goal_explorer(&data, 4, PruneConfig::all()),
            |e| e.top_k(&WorkloadRanking, 5).expect("goal set"),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("workload_astar_top5_4sem", |b| {
        b.iter_batched(
            || paper_goal_explorer(&data, 4, PruneConfig::all()),
            |e| {
                e.top_k_astar(&WorkloadRanking, &WorkloadHeuristic, 5)
                    .expect("goal set")
            },
            BatchSize::SmallInput,
        )
    });
    // The same frame as a service request, so the memoized k-best
    // answers it; a fresh table per sample keeps every run cold.
    let service = NavigatorService::new(&data.catalog).with_degree(
        data.degree
            .as_ref()
            .expect("bundled catalog declares the CS major"),
    );
    let mut req = ExplorationRequest::degree_paths(
        data.horizon.0,
        data.horizon.0 + 4,
        PAPER_M,
        OutputMode::TopK { k: 5 },
    );
    req.ranking = Some(RankingSpec::Workload);
    group.bench_function("workload_memo_top5_4sem", |b| {
        b.iter_batched(
            || TranspositionTable::new(1 << 16),
            |table| {
                service
                    .run_until_memo(&req, None, 1, Some(&table))
                    .expect("goal set")
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_strategic_selections,
    bench_counting_modes,
    bench_topk_strategy,
    bench_astar
);
criterion_main!(benches);
