//! Goal requirements for goal-driven exploration (§4.2).
//!
//! The paper lets the user specify "his desired goal requirement as a
//! boolean expression on the student's enrollment status". Two goal shapes
//! cover the paper's uses:
//!
//! - an arbitrary boolean expression over completed courses (e.g. "complete
//!   all of {11A, 21A, 29A}", the §4.2.3 walkthrough), and
//! - a slot-based degree requirement (the §5.1 CS major: 7 core + 5
//!   electives).
//!
//! Both expose the two oracles the algorithms need: a satisfaction test on
//! `X_i`, and the `left_i` minimum-remaining-courses bound for time-based
//! pruning. Every engine runs both on every child state it classifies, so
//! construction compiles the goal once into a *mask form*: a list of
//! alternatives, each a list of `(mask, need)` region constraints ("at
//! least `need` courses of `mask`"). An expression goal becomes one
//! alternative per DNF term, `[(term, |term|)]`; a degree whose core and
//! elective pools are pairwise disjoint becomes one alternative
//! `[(core, |core|), (pool_i, k_i)…]`. Both oracles are then a few word
//! operations per region. A degree with overlapping pools has no such
//! closed form and keeps the matching oracle in `coursenav-catalog`.

use coursenav_catalog::{CourseId, CourseSet, DegreeRequirement};
use coursenav_prereq::{min_extra_to_satisfy, Dnf, Expr, MinSat};

/// A goal requirement: a condition on the completed-course set.
#[derive(Debug, Clone)]
pub struct Goal {
    kind: GoalKind,
    /// The mask form both per-state oracles run on (see the module docs);
    /// `None` only for a degree whose pools overlap.
    alternatives: Option<Vec<Vec<Region>>>,
}

/// One region constraint of a compiled alternative: at least `need`
/// courses of `mask` are completed. Constraints with `need == 0` are
/// dropped at compile time.
#[derive(Debug, Clone)]
struct Region {
    mask: CourseSet,
    need: usize,
    /// `need == |mask|`: the constraint is `mask ⊆ X`, a subset test.
    whole: bool,
}

impl Region {
    /// The alternative made of these `(mask, need)` constraints.
    fn alternative(constraints: impl IntoIterator<Item = (CourseSet, usize)>) -> Vec<Region> {
        constraints
            .into_iter()
            .filter(|&(_, need)| need > 0)
            .map(|(mask, need)| Region {
                mask,
                need,
                whole: need == mask.len(),
            })
            .collect()
    }

    /// Courses this constraint still lacks in `completed`.
    #[inline]
    fn missing(&self, completed: &CourseSet) -> usize {
        self.need
            .saturating_sub(completed.intersection(&self.mask).len())
    }

    #[inline]
    fn met_by(&self, completed: &CourseSet) -> bool {
        if self.whole {
            self.mask.is_subset(completed)
        } else {
            completed.intersection(&self.mask).len() >= self.need
        }
    }
}

#[derive(Debug, Clone)]
enum GoalKind {
    Courses {
        expr: Expr<CourseId>,
        dnf: Dnf<CourseId>,
    },
    Degree(DegreeRequirement),
}

impl Goal {
    /// Goal: make the boolean expression over completed courses true.
    pub fn courses(expr: Expr<CourseId>) -> Goal {
        let dnf = expr.to_dnf();
        let alternatives = dnf
            .terms()
            .iter()
            .map(|term| Region::alternative([(term.iter().copied().collect(), term.len())]))
            .collect();
        Goal {
            kind: GoalKind::Courses { expr, dnf },
            alternatives: Some(alternatives),
        }
    }

    /// Goal: complete every course in `set`.
    pub fn complete_all(set: CourseSet) -> Goal {
        Goal::courses(Expr::all(set.iter().map(Expr::Atom)))
    }

    /// Goal: satisfy a slot-based degree requirement.
    pub fn degree(req: DegreeRequirement) -> Goal {
        let regions = std::iter::once((*req.core(), req.core().len()))
            .chain(req.electives().iter().map(|rule| (rule.pool, rule.k)));
        // Pairwise disjoint exactly when no course is counted twice.
        let mut union = CourseSet::EMPTY;
        let mut sizes = 0;
        for (mask, _) in regions.clone() {
            union.union_with(&mask);
            sizes += mask.len();
        }
        let alternatives = (union.len() == sizes).then(|| vec![Region::alternative(regions)]);
        Goal {
            kind: GoalKind::Degree(req),
            alternatives,
        }
    }

    /// The degree an uncompiled goal falls back to.
    fn matching_oracle(&self) -> &DegreeRequirement {
        self.as_degree()
            .expect("only degrees with overlapping pools go uncompiled")
    }

    /// Whether `completed` satisfies the goal.
    pub fn satisfied(&self, completed: &CourseSet) -> bool {
        match &self.alternatives {
            Some(alternatives) => alternatives
                .iter()
                .any(|alt| alt.iter().all(|region| region.met_by(completed))),
            None => self.matching_oracle().satisfied(completed),
        }
    }

    /// The `left_i` oracle (§4.2.1): the minimum number of additional
    /// courses, drawn from `obtainable`, needed to satisfy the goal given
    /// `completed`. Exact for both goal shapes, hence admissible — the
    /// precondition of the paper's Lemma 1.
    pub fn min_remaining(&self, completed: &CourseSet, obtainable: &CourseSet) -> MinSat {
        match &self.kind {
            GoalKind::Courses { dnf, .. } => {
                min_extra_to_satisfy(dnf, &|id| completed.contains(*id), &|id| {
                    obtainable.contains(*id)
                })
            }
            GoalKind::Degree(req) => req.min_remaining(completed, obtainable),
        }
    }

    /// The `left_i` bound assuming *every* untaken course is obtainable —
    /// the schedule-agnostic form the time-based strategy actually uses
    /// (§4.2.1). Cheaper than [`Goal::min_remaining`]: no feasibility
    /// matching against an obtainable set. Returns `None` when the goal is
    /// unsatisfiable even with every course (callers should have checked
    /// satisfiability once up front).
    pub fn left_lower_bound(&self, completed: &CourseSet) -> Option<usize> {
        match &self.alternatives {
            Some(alternatives) => alternatives
                .iter()
                .map(|alt| alt.iter().map(|region| region.missing(completed)).sum())
                .min(),
            None => {
                let req = self.matching_oracle();
                Some(req.total_slots() - req.slots_covered(completed))
            }
        }
    }

    /// The boolean expression, when the goal is expression-shaped.
    pub fn as_expr(&self) -> Option<&Expr<CourseId>> {
        match &self.kind {
            GoalKind::Courses { expr, .. } => Some(expr),
            GoalKind::Degree(_) => None,
        }
    }

    /// The degree requirement, when the goal is degree-shaped.
    pub fn as_degree(&self) -> Option<&DegreeRequirement> {
        match &self.kind {
            GoalKind::Degree(req) => Some(req),
            GoalKind::Courses { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u16) -> CourseId {
        CourseId::new(n)
    }

    fn set(ns: &[u16]) -> CourseSet {
        ns.iter().map(|&n| id(n)).collect()
    }

    #[test]
    fn complete_all_requires_every_course() {
        let goal = Goal::complete_all(set(&[1, 2, 3]));
        assert!(!goal.satisfied(&set(&[1, 2])));
        assert!(goal.satisfied(&set(&[1, 2, 3])));
        assert!(goal.satisfied(&set(&[1, 2, 3, 4])));
    }

    #[test]
    fn expression_goal_with_alternatives() {
        // (1 and 2) or 3
        let goal = Goal::courses(
            Expr::Atom(id(1))
                .and(Expr::Atom(id(2)))
                .or(Expr::Atom(id(3))),
        );
        assert!(goal.satisfied(&set(&[3])));
        assert!(goal.satisfied(&set(&[1, 2])));
        assert!(!goal.satisfied(&set(&[1])));
    }

    #[test]
    fn min_remaining_for_expression_goals() {
        let goal = Goal::complete_all(set(&[1, 2, 3]));
        assert_eq!(
            goal.min_remaining(&set(&[1]), &set(&[2, 3])),
            MinSat::Needs(2)
        );
        assert_eq!(
            goal.min_remaining(&set(&[1]), &set(&[2])),
            MinSat::Unreachable
        );
        assert_eq!(
            goal.min_remaining(&set(&[1, 2, 3]), &CourseSet::EMPTY),
            MinSat::Satisfied
        );
    }

    #[test]
    fn degree_goal_delegates_to_matching() {
        let req = DegreeRequirement::with_core(set(&[0, 1])).elective(1, set(&[5, 6]));
        let goal = Goal::degree(req);
        assert!(!goal.satisfied(&set(&[0, 1])));
        assert!(goal.satisfied(&set(&[0, 1, 6])));
        assert_eq!(
            goal.min_remaining(&set(&[0]), &set(&[1, 5])),
            MinSat::Needs(2)
        );
    }

    #[test]
    fn left_lower_bound_matches_unbounded_min_remaining() {
        let all: CourseSet = (0..8u16).map(id).collect();
        let goals = [
            Goal::complete_all(set(&[1, 2, 3])),
            Goal::courses(
                Expr::Atom(id(1))
                    .and(Expr::Atom(id(2)))
                    .or(Expr::Atom(id(3))),
            ),
            Goal::degree(DegreeRequirement::with_core(set(&[0, 1])).elective(1, set(&[5, 6]))),
        ];
        for goal in &goals {
            for mask in 0u32..256 {
                let completed: CourseSet =
                    (0..8u16).filter(|i| mask & (1 << i) != 0).map(id).collect();
                let fast = goal.left_lower_bound(&completed);
                let slow = goal.min_remaining(&completed, &all.difference(&completed));
                match slow {
                    MinSat::Satisfied => assert_eq!(fast, Some(0)),
                    MinSat::Needs(n) => assert_eq!(fast, Some(n)),
                    MinSat::Unreachable => {
                        // Unreachable-with-everything means the pruner's
                        // up-front satisfiability check fires instead.
                        assert!(!goal.satisfied(&all));
                    }
                }
            }
        }
    }

    #[test]
    fn accessors_expose_shape() {
        let goal = Goal::complete_all(set(&[1]));
        assert!(goal.as_expr().is_some());
        assert!(goal.as_degree().is_none());
        let goal = Goal::degree(DegreeRequirement::default());
        assert!(goal.as_expr().is_none());
        assert!(goal.as_degree().is_some());
    }

    #[test]
    fn empty_complete_all_is_trivially_satisfied() {
        let goal = Goal::complete_all(CourseSet::EMPTY);
        assert!(goal.satisfied(&CourseSet::EMPTY));
        assert_eq!(
            goal.min_remaining(&CourseSet::EMPTY, &CourseSet::EMPTY),
            MinSat::Satisfied
        );
    }
}
