//! The projected table key ([`Explorer::table_key`]) against the
//! table-free engine.
//!
//! Random catalogs whose schedules thin out toward the deadline, so that
//! completed courses die while goal regions still count them; random
//! transcripts, goals of every compiled shape, filters, pruning, wait
//! policies and strategic floors. Every engine that reads or writes a
//! table under the key — count, parallel count, paged count, the memoized
//! top-k, the advise impacts, the DAG build and its what-if fold — must
//! answer as the walker does without a table, counts and logical
//! statistics alike. A second student whose transcript differs from the
//! first's by dead courses then reads the first one's warm tables, so a
//! stored top-k suffix is replayed from a status it was not computed at.
//!
//! The key must also be exactly as fine as what a subtree can read, no
//! finer: a cold count expands each *abstract* state once, counted here
//! from the catalog and the goal's public shape alone.

use std::collections::HashSet;
use std::sync::Arc;

use coursenav_catalog::{
    Catalog, CatalogBuilder, CourseId, CourseSet, CourseSpec, DegreeRequirement, Semester, Term,
};
use coursenav_prereq::Expr;
use proptest::prelude::*;

use crate::apply::Restriction;
use crate::expand::WaitPolicy;
use crate::expiry::Expiry;
use crate::explorer::eager::{self, Eager};
use crate::explorer::Explorer;
use crate::filter::{AvoidCourses, MaxSemesterWorkload};
use crate::goal::Goal;
use crate::impact::SelectionImpact;
use crate::memo::{ranking_signature, TranspositionTable};
use crate::path::LeafKind;
use crate::pruning::PruneConfig;
use crate::ranking::TimeRanking;
use crate::request::RankingSpec;
use crate::stats::PathCounts;
use crate::status::EnrollmentStatus;
use crate::unique::UniqueTable;

/// Random cases the test runs.
const CASES: u64 = 160;

/// Semesters every generated schedule covers, from [`first`].
const WINDOW: i32 = 6;

fn first() -> Semester {
    Semester::new(2012, Term::Fall)
}

fn below(rng: &mut TestRng, n: usize) -> usize {
    rng.below(n as u128) as usize
}

fn chance(rng: &mut TestRng, p: f64) -> bool {
    rng.next_f64() < p
}

/// Each of the first `n` courses with probability `p`.
fn subset(rng: &mut TestRng, n: usize, p: f64) -> CourseSet {
    (0..n as u16)
        .filter(|_| chance(rng, p))
        .map(CourseId::new)
        .collect()
}

/// 10–14 courses, each offered through a random last semester of the
/// window (and in that one): later semesters offer fewer courses, so
/// states die toward the deadline. Most courses past the second need one
/// or two earlier ones.
fn random_catalog(rng: &mut TestRng) -> Catalog {
    let n = 10 + below(rng, 5);
    let mut b = CatalogBuilder::new();
    b.allow_unreachable(true);
    for i in 0..n {
        let last = 1 + below(rng, WINDOW as usize) as i32;
        let offered: Vec<Semester> = (0..last)
            .filter(|&t| t == last - 1 || chance(rng, 0.7))
            .map(|t| first() + t)
            .collect();
        let mut spec = CourseSpec::new(format!("C{i}").as_str(), format!("Course {i}"))
            .offered(offered)
            .workload((4 + below(rng, 9)) as f64);
        if i >= 2 && chance(rng, 0.4) {
            let atom =
                |rng: &mut TestRng| Expr::Atom(format!("C{}", below(rng, i)).as_str().into());
            let prereq = match below(rng, 3) {
                0 => atom(rng),
                1 => atom(rng).and(atom(rng)),
                _ => atom(rng).or(atom(rng)),
            };
            spec = spec.prereq(prereq);
        }
        b.add_course(spec);
    }
    b.build().expect("generated catalogs are valid")
}

/// No goal, a disjoint degree, a degree whose pools overlap, a one-term
/// expression, or a three-term one, over the catalog's courses in random
/// order but those of `likely` first, so that most goals can be met.
fn random_goal(rng: &mut TestRng, n: usize, likely: &CourseSet) -> Option<Goal> {
    let mut ids: Vec<CourseId> = (0..n as u16).map(CourseId::new).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, below(rng, i + 1));
    }
    ids.sort_by_key(|&id| !likely.contains(id));
    let set = |ids: &[CourseId]| ids.iter().copied().collect::<CourseSet>();
    let atom = |i: usize| Expr::Atom(ids[i]);
    match below(rng, 6) {
        0 => None,
        // Disjoint degrees twice as often: only they cap counts.
        1 | 4 => {
            let core = 1 + below(rng, 2);
            let req = DegreeRequirement::with_core(set(&ids[..core]))
                .elective(1 + below(rng, 2), set(&ids[core..core + 3]))
                .elective(1, set(&ids[core + 3..core + 6]));
            Some(Goal::degree(req))
        }
        2 => {
            let req = DegreeRequirement::with_core(set(&ids[..1]))
                .elective(1 + below(rng, 2), set(&ids[1..4]))
                .elective(1 + below(rng, 2), set(&ids[3..6]));
            Some(Goal::degree(req))
        }
        3 => Some(Goal::complete_all(set(&ids[..2 + below(rng, 2)]))),
        _ => Some(Goal::courses(
            atom(0).and(atom(1)).or(atom(2).and(atom(3))).or(atom(4)),
        )),
    }
}

/// Everything an exploration is configured with but its start.
struct Frame {
    catalog: Catalog,
    goal: Option<Goal>,
    deadline: Semester,
    m: usize,
    prune: PruneConfig,
    wait: WaitPolicy,
    strategic: bool,
    avoid: CourseSet,
    cap: Option<f64>,
}

impl Frame {
    fn explorer(&self, start: EnrollmentStatus) -> Explorer<'_> {
        let e = match &self.goal {
            Some(goal) => {
                Explorer::goal_driven(&self.catalog, start, self.deadline, self.m, goal.clone())
            }
            None => Explorer::deadline_driven(&self.catalog, start, self.deadline, self.m),
        }
        .expect("valid frames")
        .with_prune(self.prune)
        .with_wait_policy(self.wait)
        .with_strategic_selections(self.strategic);
        with_filters(e, self.avoid, self.cap)
    }
}

fn with_filters(mut e: Explorer<'_>, avoid: CourseSet, cap: Option<f64>) -> Explorer<'_> {
    if !avoid.is_empty() {
        e = e.with_filter(Arc::new(AvoidCourses(avoid)));
    }
    if let Some(cap) = cap {
        e = e.with_filter(Arc::new(MaxSemesterWorkload(cap)));
    }
    e
}

/// A frame and two students of it: the first with a random transcript in
/// one of the window's early semesters, the second with the same
/// transcript but for some courses dead for both, taken or not.
fn random_case(rng: &mut TestRng) -> (Frame, EnrollmentStatus, CourseSet) {
    let catalog = random_catalog(rng);
    let n = catalog.len();
    let semester = first() + 1 + below(rng, 3) as i32;
    let m = 1 + below(rng, 3);
    let deadline = semester + 2 + below(rng, if m == 3 { 3 } else { 4 }) as i32;
    let completed = subset(rng, n, 0.3);
    let likely = completed.union(&catalog.offered_between(semester, deadline + (-1)));
    let frame = Frame {
        goal: random_goal(rng, n, &likely),
        deadline,
        m,
        prune: [
            PruneConfig::all(),
            PruneConfig::none(),
            PruneConfig::time_only(),
            PruneConfig::availability_only(),
            PruneConfig {
                availability_respects_prereqs: true,
                ..PruneConfig::all()
            },
        ][below(rng, 5)],
        wait: [
            WaitPolicy::WhenNoOptions,
            WaitPolicy::Never,
            WaitPolicy::Always,
        ][below(rng, 3)],
        strategic: chance(rng, 0.5),
        avoid: if chance(rng, 0.3) {
            subset(rng, n, 0.15)
        } else {
            CourseSet::EMPTY
        },
        cap: chance(rng, 0.3).then(|| (8 + below(rng, 20)) as f64),
        catalog,
    };
    let start = EnrollmentStatus::new(&frame.catalog, semester, completed);
    let dead =
        frame
            .catalog
            .all_courses()
            .difference(&live_courses(&frame.catalog, semester, deadline));
    let toggled = subset(rng, n, 0.5).intersection(&dead);
    let twin = completed
        .difference(&toggled)
        .union(&toggled.difference(&completed));
    (frame, start, twin)
}

/// Every course offered in `semester … deadline−1`, and every course
/// their prerequisites name.
fn live_courses(catalog: &Catalog, semester: Semester, deadline: Semester) -> CourseSet {
    let offered = catalog.offered_between(semester, deadline + (-1));
    let mut live = offered;
    for id in &offered {
        for atom in catalog.course(id).prereq().atoms() {
            live.insert(atom);
        }
    }
    live
}

/// What a subtree can read of a state, from the catalog and the goal's
/// public shape: its live courses, and per goal region either the capped
/// count of dead courses (one alternative of disjoint regions) or the
/// dead region courses themselves.
type Abstract = (i32, CourseSet, Vec<usize>, CourseSet);

fn abstract_state(e: &Explorer<'_>, status: &EnrollmentStatus) -> Abstract {
    let live = live_courses(e.catalog(), status.semester(), e.deadline());
    let dead = status.completed().difference(&live);
    let (mut counts, mut kept) = (Vec::new(), CourseSet::EMPTY);
    if let Some(goal) = e.goal() {
        // `whole`: an overlapping degree or several DNF terms, whose dead
        // region courses count as they are.
        let (regions, whole): (Vec<(CourseSet, usize)>, bool) = match goal.as_degree() {
            Some(req) => {
                let regions: Vec<_> = std::iter::once((*req.core(), req.core().len()))
                    .chain(req.electives().iter().map(|rule| (rule.pool, rule.k)))
                    .collect();
                let sizes: usize = regions.iter().map(|(mask, _)| mask.len()).sum();
                (regions, sizes != req.relevant_courses().len())
            }
            None => {
                let dnf = goal
                    .as_expr()
                    .expect("goals are degrees or expressions")
                    .to_dnf();
                let regions: Vec<_> = dnf
                    .terms()
                    .iter()
                    .map(|term| (term.iter().copied().collect::<CourseSet>(), term.len()))
                    .collect();
                let several = regions.len() != 1;
                (regions, several)
            }
        };
        if whole {
            for (mask, _) in &regions {
                kept.union_with(&dead.intersection(mask));
            }
        } else {
            counts = regions
                .iter()
                .map(|(mask, need)| dead.intersection(mask).len().min(*need))
                .collect();
        }
    }
    (
        status.semester().index(),
        status.completed().intersection(&live),
        counts,
        kept,
    )
}

/// The expanding states of the exploration tree: how many distinct full
/// states, and how many distinct abstract ones.
fn expanding_states(e: &Explorer<'_>) -> (usize, usize) {
    let (mut seen, mut abstracts, mut expanding) = (HashSet::new(), HashSet::new(), 0);
    let mut stack = vec![*e.start()];
    while let Some(status) = stack.pop() {
        if !seen.insert(status.state_key()) {
            continue;
        }
        let (
            Eager::Expand {
                min_selection,
                include_empty,
                ..
            },
            _,
        ) = eager::disposition(e, &status)
        else {
            continue;
        };
        expanding += 1;
        abstracts.insert(abstract_state(e, &status));
        for selection in eager::admitted(e, &status, min_selection, include_empty) {
            stack.push(status.advance(e.catalog(), &selection));
        }
    }
    (expanding, abstracts.len())
}

/// A paged count through `table`, `cap` leaves a page, each page resumed
/// from the last one's cursor.
fn paged_count(e: &Explorer<'_>, table: &TranspositionTable, cap: u128) -> PathCounts {
    let mut stream = e.paths_iter().with_table(Some(table));
    let (mut total, mut goal) = (0, 0);
    loop {
        let more = stream.tally(cap, &mut Expiry::per_step(None));
        let page = stream.counts();
        total += page.total_paths;
        goal += page.goal_paths;
        if !more {
            return PathCounts {
                total_paths: total,
                goal_paths: goal,
                stats: page.stats,
            };
        }
        let cursor = stream.cursor();
        stream = e
            .resume_paths_iter(&cursor)
            .expect("own cursors resume")
            .with_table(Some(table));
    }
}

/// The impacts of the root's selections, each subtree counted by the
/// table-free walker, in selection order.
fn table_free_impacts(e: &Explorer<'_>) -> Vec<SelectionImpact> {
    let Some((_, children)) = e.expand_root() else {
        return Vec::new();
    };
    children
        .into_iter()
        .map(|(selection, child)| {
            let subtree = e.restarted(child);
            let counts = subtree.count_paths();
            SelectionImpact {
                selection,
                options_next_semester: subtree.start().options().len(),
                paths: counts.total_paths,
                goal_paths: counts.goal_paths,
            }
        })
        .collect()
}

fn by_selection(mut impacts: Vec<SelectionImpact>) -> Vec<SelectionImpact> {
    impacts.sort_by_key(|impact| impact.selection.iter().collect::<Vec<_>>());
    impacts
}

/// The `(paths, goal paths)` of the table-free walk that take every
/// course of `force` not completed at the start.
fn forced_counts(e: &Explorer<'_>, force: &CourseSet) -> (u128, u128) {
    let remaining = force.difference(e.start().completed());
    let (mut paths, mut goal) = (0, 0);
    for (path, kind) in e.paths_iter() {
        if remaining.is_subset(&path.courses_taken()) {
            paths += 1;
            goal += u128::from(kind == LeafKind::Goal);
        }
    }
    (paths, goal)
}

/// What one case showed besides its answers.
struct Coverage {
    /// The projection merged expanding states the full key keeps apart.
    merged: bool,
    /// The second student's top-k replayed suffixes stored by the first's.
    replayed: bool,
}

fn check_case(rng: &mut TestRng) -> Result<Coverage, TestCaseError> {
    let (frame, start, twin_completed) = random_case(rng);
    let cat = &frame.catalog;
    let e = frame.explorer(start);
    let plain = e.count_paths();

    // Count: cold then warm, each abstract state expanded exactly once.
    let table = TranspositionTable::new(1 << 16);
    let (cold, work) = e.count_paths_memo(&table);
    prop_assert_eq!(cold, plain, "cold count");
    let (expanding, abstracts) = expanding_states(&e);
    prop_assert_eq!(table.snapshot().evictions, 0);
    prop_assert_eq!(
        work.memo_misses,
        abstracts as u64,
        "one miss per abstract state"
    );
    prop_assert_eq!(e.count_paths_memo(&table).0, plain, "warm count");

    // Parallel count, cold and on the warm table.
    let fresh = TranspositionTable::new(1 << 16);
    let parallel = e.count_paths_parallel_until(2, None, Some(&fresh));
    prop_assert_eq!(parallel, (plain, false), "parallel count");
    let parallel = e.count_paths_parallel_until(2, None, Some(&table));
    prop_assert_eq!(parallel, (plain, false), "warm parallel count");

    // Paged count, each page resumed from a cursor.
    let cap = 1 + below(rng, 6) as u128;
    let paged = paged_count(&e, &TranspositionTable::new(1 << 16), cap);
    prop_assert_eq!(paged, plain, "paged count");

    // The advise impacts.
    let impacts = e.selection_impacts_memo_until(&TranspositionTable::new(1 << 16), None);
    prop_assert!(!impacts.1);
    prop_assert_eq!(
        by_selection(impacts.0),
        by_selection(table_free_impacts(&e))
    );

    // Decomposable top-k, cold and warm.
    let k = 1 + below(rng, 6);
    let sig = ranking_signature(&RankingSpec::Time);
    let ranked = TranspositionTable::new(1 << 16);
    if frame.goal.is_some() {
        let expected = e.top_k_until(&TimeRanking, k, None).unwrap().0;
        for round in ["cold", "warm"] {
            let got = e
                .top_k_memo_until(&TimeRanking, sig, k, &ranked, None)
                .unwrap()
                .expect("no deadline");
            prop_assert_eq!(&got.0, &expected, "{} top-k", round);
        }
    }

    // The DAG build, and what-ifs folded over it.
    let dag = UniqueTable::new(0);
    let root = e.build_path_dag(&dag, None, None).unwrap();
    let node = dag.node(root);
    prop_assert_eq!(
        (node.paths, node.goal_paths, node.stats),
        (plain.total_paths, plain.goal_paths, plain.stats)
    );
    let restriction = Restriction {
        avoid: subset(rng, cat.len(), 0.2),
        max_workload: chance(rng, 0.5).then(|| (6 + below(rng, 20)) as f64),
    };
    let filtered = with_filters(
        frame.explorer(start),
        restriction.avoid,
        restriction.max_workload,
    )
    .count_paths();
    let folded = dag.whatif_counts(
        root,
        cat,
        &restriction,
        &CourseSet::EMPTY,
        start.completed(),
    );
    prop_assert_eq!(
        folded,
        (filtered.total_paths, filtered.goal_paths, filtered.stats),
        "restricted what-if"
    );
    let force = subset(rng, cat.len(), 0.25);
    let forced = dag.whatif_counts(
        root,
        cat,
        &Restriction::default(),
        &force,
        start.completed(),
    );
    prop_assert_eq!(
        (forced.0, forced.1),
        forced_counts(&e, &force),
        "forced what-if"
    );

    // A second student, differing by dead courses, on the warm tables.
    let twin = EnrollmentStatus::new(cat, start.semester(), twin_completed);
    let t = frame.explorer(twin);
    let twin_plain = t.count_paths();
    prop_assert_eq!(t.count_paths_memo(&table).0, twin_plain, "twin count");
    let twin_root = t.build_path_dag(&dag, None, None).unwrap();
    let node = dag.node(twin_root);
    prop_assert_eq!(
        (node.paths, node.goal_paths, node.stats),
        (
            twin_plain.total_paths,
            twin_plain.goal_paths,
            twin_plain.stats
        )
    );
    let twin_impacts = t.selection_impacts_memo_until(&table, None).0;
    prop_assert_eq!(
        by_selection(twin_impacts),
        by_selection(table_free_impacts(&t))
    );
    let mut coverage = Coverage {
        merged: abstracts < expanding,
        replayed: false,
    };
    if frame.goal.is_some() {
        let expected = t.top_k_until(&TimeRanking, k, None).unwrap().0;
        let got = t
            .top_k_memo_until(&TimeRanking, sig, k, &ranked, None)
            .unwrap()
            .expect("no deadline");
        prop_assert_eq!(&got.0, &expected, "twin top-k");
        // The twin's states all differ from the first student's, so an
        // entry of theirs that saved the twin an expansion was stored
        // under another status and replayed from the twin's.
        let alone = t
            .top_k_memo_until(
                &TimeRanking,
                sig,
                k,
                &TranspositionTable::new(1 << 16),
                None,
            )
            .unwrap()
            .expect("no deadline")
            .1;
        coverage.replayed = twin_completed != *start.completed()
            && !expected.is_empty()
            && got.1.nodes_expanded < alone.nodes_expanded;
    }
    Ok(coverage)
}

/// Every case answers like the table-free engine; in a stated share of
/// them the projection merged states, and a replayed top-k suffix was
/// spliced onto a different student's status.
#[test]
fn projected_keys_answer_like_the_table_free_engine() {
    let (mut merged, mut replayed) = (0, 0);
    for case in 0..CASES {
        let mut rng = TestRng::new(0x0007_ab1e_0000 + case);
        match check_case(&mut rng) {
            Ok(coverage) => {
                merged += u64::from(coverage.merged);
                replayed += u64::from(coverage.replayed);
            }
            Err(err) => panic!("case {case}: {err}"),
        }
    }
    assert!(
        merged * 4 >= CASES,
        "the projection merged states in {merged} of {CASES} cases"
    );
    assert!(
        replayed * 8 >= CASES,
        "a suffix was replayed across statuses in {replayed} of {CASES} cases"
    );
}
