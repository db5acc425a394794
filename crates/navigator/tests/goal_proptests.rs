//! The goal oracles against their references. [`Goal`] compiles itself
//! into `(mask, need)` regions at construction; its two per-state oracles,
//! `left_lower_bound` and `satisfied`, must answer exactly what the
//! uncompiled definitions do:
//!
//! - a degree goal, against `total_slots − slots_covered` and
//!   `DegreeRequirement::satisfied` — both for disjoint pools (the
//!   compiled path) and overlapping ones (the matching path);
//! - an expression goal, against term-by-term evaluation of its DNF and
//!   against the expression itself.

use coursenav_catalog::{CourseId, CourseSet, DegreeRequirement};
use coursenav_navigator::Goal;
use coursenav_prereq::Expr;
use proptest::prelude::*;

/// Courses the generated goals draw from.
const UNIVERSE: usize = 16;

/// The `i`-th course of the universe. Spread over all four words of a
/// [`CourseSet`], so masks span word boundaries.
fn course(i: usize) -> CourseId {
    CourseId::new((i * 23 % CourseSet::CAPACITY) as u16)
}

/// The courses of the universe whose bit is set in `bits`.
fn subset(bits: u32) -> CourseSet {
    (0..UNIVERSE)
        .filter(|i| bits & (1 << i) != 0)
        .map(course)
        .collect()
}

fn arb_subset() -> impl Strategy<Value = CourseSet> {
    (0u32..1 << UNIVERSE).prop_map(subset)
}

/// A degree whose core and pools are pairwise disjoint: every course of
/// the universe lands in at most one region (label 0 is "none", 1 the
/// core, `2 + r` pool `r`). Some `k` exceed their pool.
fn arb_disjoint_degree() -> impl Strategy<Value = DegreeRequirement> {
    (
        prop::collection::vec(0usize..5, UNIVERSE),
        prop::collection::vec(0usize..4, 0..4),
    )
        .prop_map(|(labels, ks)| {
            let region = |label: usize| -> CourseSet {
                (0..UNIVERSE)
                    .filter(|&i| labels[i] == label)
                    .map(course)
                    .collect()
            };
            ks.iter()
                .enumerate()
                .fold(DegreeRequirement::with_core(region(1)), |req, (r, &k)| {
                    req.elective(k, region(2 + r))
                })
        })
}

/// A degree whose regions overlap: independent random core and pools,
/// with one course forced into both the core and the first pool.
fn arb_overlapping_degree() -> impl Strategy<Value = DegreeRequirement> {
    (
        arb_subset(),
        prop::collection::vec((0usize..4, arb_subset()), 1..4),
        0usize..UNIVERSE,
    )
        .prop_map(|(mut core, electives, shared)| {
            core.insert(course(shared));
            electives.into_iter().enumerate().fold(
                DegreeRequirement::with_core(core),
                |req, (r, (k, mut pool))| {
                    if r == 0 {
                        pool.insert(course(shared));
                    }
                    req.elective(k, pool)
                },
            )
        })
}

/// Expressions over the universe, with `True`, `False` and nested
/// `All`/`Any` (empty ones included).
fn arb_expr() -> impl Strategy<Value = Expr<CourseId>> {
    let leaf = prop_oneof![
        1 => Just(Expr::True),
        1 => Just(Expr::False),
        6 => (0usize..UNIVERSE).prop_map(|i| Expr::Atom(course(i))),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Expr::All),
            prop::collection::vec(inner, 0..4).prop_map(Expr::Any),
        ]
    })
}

/// Checks `goal` against the degree's own slot oracle on `completed`.
fn check_degree(req: &DegreeRequirement, completed: &CourseSet) -> Result<(), TestCaseError> {
    let goal = Goal::degree(req.clone());
    prop_assert_eq!(
        goal.left_lower_bound(completed),
        Some(req.total_slots() - req.slots_covered(completed)),
        "{:?} on {:?}",
        req,
        completed
    );
    prop_assert_eq!(
        goal.satisfied(completed),
        req.satisfied(completed),
        "{:?} on {:?}",
        req,
        completed
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn disjoint_degrees_match_the_slot_oracle(
        req in arb_disjoint_degree(),
        completed in arb_subset(),
    ) {
        check_degree(&req, &completed)?;
    }

    #[test]
    fn overlapping_degrees_match_the_slot_oracle(
        req in arb_overlapping_degree(),
        completed in arb_subset(),
    ) {
        check_degree(&req, &completed)?;
    }

    #[test]
    fn expression_goals_match_term_by_term_dnf(
        expr in arb_expr(),
        completed in arb_subset(),
    ) {
        let dnf = expr.to_dnf();
        let has = |id: &CourseId| completed.contains(*id);
        let satisfied = dnf.terms().iter().any(|term| term.iter().all(has));
        let left = dnf
            .terms()
            .iter()
            .map(|term| term.iter().filter(|id| !has(id)).count())
            .min();
        let goal = Goal::courses(expr.clone());
        prop_assert_eq!(goal.satisfied(&completed), satisfied, "{:?}", expr);
        prop_assert_eq!(goal.satisfied(&completed), expr.eval(&has), "{:?}", expr);
        prop_assert_eq!(goal.left_lower_bound(&completed), left, "{:?}", expr);
        // The engines read `left_i = 0` as the goal test.
        prop_assert_eq!(left == Some(0), satisfied, "{:?}", expr);
    }
}
