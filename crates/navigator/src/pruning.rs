//! The paper's two path-pruning strategies (§4.2.1–§4.2.2).
//!
//! Both are *safe*: they only cut nodes from which no goal-satisfying path
//! can exist (Lemma 1 for the time-based strategy; the availability check is
//! a straightforward upper-bound argument), so goal-driven exploration with
//! pruning returns exactly the goal paths of the unpruned exploration —
//! an invariant the integration tests verify exhaustively on small
//! instances.

use std::sync::Arc;

use coursenav_catalog::{Catalog, CourseSet, Semester};
use serde::{Deserialize, Serialize};

use crate::goal::Goal;
use crate::stats::ExploreStats;
use crate::status::EnrollmentStatus;

/// Which pruning strategies goal-driven exploration applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct PruneConfig {
    /// Time-based strategy (§4.2.1): prune when even taking `m` courses
    /// every remaining semester cannot close the `left_i` gap.
    pub time_based: bool,
    /// Course-availability strategy (§4.2.2): prune when taking *all*
    /// courses offered in the remaining semesters still misses the goal.
    pub availability_based: bool,
    /// Extension (not in the paper): make the availability check respect
    /// prerequisites by closing over eligibility semester by semester,
    /// instead of assuming every offered course can be taken. Strictly
    /// stronger pruning, still safe. Off by default for paper fidelity.
    pub availability_respects_prereqs: bool,
}

impl PruneConfig {
    /// Both paper strategies on (the goal-driven default).
    pub fn all() -> PruneConfig {
        PruneConfig {
            time_based: true,
            availability_based: true,
            availability_respects_prereqs: false,
        }
    }

    /// No pruning (the paper's Table 1 baseline).
    pub fn none() -> PruneConfig {
        PruneConfig {
            time_based: false,
            availability_based: false,
            availability_respects_prereqs: false,
        }
    }

    /// Only the time-based strategy (ablation).
    pub fn time_only() -> PruneConfig {
        PruneConfig {
            availability_based: false,
            ..PruneConfig::all()
        }
    }

    /// Only the course-availability strategy (ablation).
    pub fn availability_only() -> PruneConfig {
        PruneConfig {
            time_based: false,
            ..PruneConfig::all()
        }
    }
}

impl Default for PruneConfig {
    fn default() -> PruneConfig {
        PruneConfig::all()
    }
}

/// Per-strategy prune counters for one run (the §5.2 82%/18% breakdown).
pub type PruneStats = ExploreStats;

/// Courses offered in `s ..= d−1` for every semester `s` from an
/// exploration's start to its deadline `d`: the availability strategy's
/// `C_offered`, the pool the wait rule reads, and the base of the
/// explorer's `Live(s)`. Built back to front once per explorer and shared
/// by every run and every restarted copy of it.
#[derive(Debug, Clone)]
pub(crate) struct OfferedRest {
    /// `Semester::index()` of `suffix[0]`.
    first: i32,
    suffix: Arc<[CourseSet]>,
}

impl OfferedRest {
    pub(crate) fn new(catalog: &Catalog, start: Semester, deadline: Semester) -> OfferedRest {
        let span = (deadline - start).max(0) as usize;
        let mut suffix = vec![CourseSet::EMPTY; span];
        let mut acc = CourseSet::EMPTY;
        for i in (0..span).rev() {
            acc.union_with(&catalog.offered_in(start + i as i32));
            suffix[i] = acc;
        }
        OfferedRest {
            first: start.index(),
            suffix: suffix.into(),
        }
    }

    /// Courses offered in `semester ..= d−1`; empty from `d` on.
    ///
    /// # Panics
    /// If `semester` precedes the start the table was built from: no state
    /// of an exploration, or of a subtree restarted from one, does.
    pub(crate) fn from(&self, semester: Semester) -> CourseSet {
        let offset = usize::try_from(semester.index() - self.first)
            .expect("states never precede the exploration's start");
        self.suffix.get(offset).copied().unwrap_or(CourseSet::EMPTY)
    }
}

/// Decision oracle bundling the goal, deadline, and per-semester caps.
///
/// `should_prune` is invoked on a node *before* expanding it, exactly as
/// §4.2.3 describes ("before creating new edges and nodes at node `n_i` …
/// we use our time-based and course-availability based pruning strategies").
///
/// Construction precomputes whether the goal is satisfiable at all; the
/// per-semester suffix unions of course offerings the availability
/// strategy consults are the explorer's `OfferedRest`, so the oracles
/// run allocation-free per node.
#[derive(Debug, Clone)]
pub struct Pruner<'a> {
    catalog: &'a Catalog,
    goal: &'a Goal,
    deadline: Semester,
    max_per_semester: usize,
    config: PruneConfig,
    /// Whether the goal holds even when every course is completed; when
    /// false, every node prunes immediately (time-based).
    reachable_with_all: bool,
    offered: &'a OfferedRest,
}

/// Why a node was pruned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneReason {
    /// §4.2.1: not enough semesters left even at `m` courses each.
    Time,
    /// §4.2.2: not enough course offerings left.
    Availability,
}

/// Outcome of evaluating a node against the pruning strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneDecision {
    /// Stop exploring this node.
    Prune(PruneReason),
    /// Keep exploring. `min_selection_size` is the paper's `min_i`
    /// (§4.2.1): "the student has to take at least `min_i` courses in
    /// semester `s_i`" — the intro's *strategic course selections*
    /// optimization. Zero when the time-based strategy is disabled or
    /// imposes no floor.
    Explore {
        /// The paper's `min_i` floor on this semester's selection size.
        min_selection_size: usize,
    },
}

impl<'a> Pruner<'a> {
    /// Builds a pruner for one exploration run over `offered`.
    pub(crate) fn new(
        catalog: &'a Catalog,
        goal: &'a Goal,
        deadline: Semester,
        max_per_semester: usize,
        config: PruneConfig,
        offered: &'a OfferedRest,
    ) -> Pruner<'a> {
        Pruner {
            catalog,
            goal,
            deadline,
            max_per_semester,
            config,
            reachable_with_all: goal.satisfied(&catalog.all_courses()),
            offered,
        }
    }

    /// Tests the node against the enabled strategies; `None` means explore.
    /// The time-based strategy is evaluated first (it is the cheaper oracle
    /// and the paper's §5.2 attributes shared prunes to it).
    pub fn should_prune(&self, status: &EnrollmentStatus) -> Option<PruneReason> {
        match self.evaluate(status) {
            PruneDecision::Prune(reason) => Some(reason),
            PruneDecision::Explore { .. } => None,
        }
    }

    /// Full evaluation: prune decision plus the strategic minimum selection
    /// size when exploration continues.
    pub fn evaluate(&self, status: &EnrollmentStatus) -> PruneDecision {
        let left = if self.config.time_based {
            self.goal.left_lower_bound(status.completed())
        } else {
            None
        };
        self.evaluate_state(status.semester(), status.completed(), left)
    }

    /// [`Pruner::evaluate`] on a `(semester, completed)` state whose goal
    /// gap `left` ([`Goal::left_lower_bound`] of `completed`) the caller
    /// already computed; `left` is read only by the time-based strategy.
    /// Options are never consulted, so the state need not be materialized.
    pub(crate) fn evaluate_state(
        &self,
        semester: Semester,
        completed: &CourseSet,
        left: Option<usize>,
    ) -> PruneDecision {
        let mut min_selection_size = 0;
        if self.config.time_based {
            match self.time_oracle(semester, left) {
                None => return PruneDecision::Prune(PruneReason::Time),
                Some(min_i) => min_selection_size = min_i,
            }
        }
        if self.config.availability_based && self.prune_availability(semester, completed) {
            return PruneDecision::Prune(PruneReason::Availability);
        }
        PruneDecision::Explore { min_selection_size }
    }

    /// §4.2.1. With `left_i` the minimum number of remaining courses and
    /// `d − s_i − 1` full semesters after this one, the student must take
    /// `min_i = left_i − m·(d − s_i − 1)` courses *this* semester; prune when
    /// `min_i > m`, i.e. `left_i > m·(d − s_i)`. Returns `None` to prune,
    /// otherwise `Some(max(min_i, 0))`.
    ///
    /// `left_i` is computed against the whole untaken catalog (`C − X_i`) —
    /// the strategy is deliberately "agnostic of the course schedule";
    /// schedule feasibility is the availability strategy's job.
    fn time_oracle(&self, semester: Semester, left: Option<usize>) -> Option<usize> {
        if !self.reachable_with_all {
            // `completed ∪ (C − completed) = C` for every node, so
            // unreachability is a run-level constant checked once.
            return None;
        }
        let left = left?;
        if left == 0 {
            return Some(0);
        }
        let semesters_left = (self.deadline - semester).max(0) as usize;
        if left > self.max_per_semester * semesters_left {
            return None;
        }
        Some(left.saturating_sub(self.max_per_semester * semesters_left.saturating_sub(1)))
    }

    /// §4.2.2. Assume the student takes every course offered in the
    /// remaining semesters (`s_i ..= d−1`; a selection made in semester `t`
    /// is completed at `t+1 ≤ d`). If even that superset of any reachable
    /// `X` misses the goal, prune.
    fn prune_availability(&self, semester: Semester, completed: &CourseSet) -> bool {
        if self.deadline <= semester {
            // No selections remain; the node is terminal anyway.
            return !self.goal.satisfied(completed);
        }
        let best_case = if self.config.availability_respects_prereqs {
            // Extension: semester-by-semester eligibility closure.
            let last_selection_semester = self.deadline + (-1);
            let mut completed = *completed;
            for sem in semester.through(last_selection_semester) {
                let eligible = self.catalog.eligible(&completed, sem);
                completed.union_with(&eligible);
            }
            completed
        } else {
            // Paper-faithful: all offerings, prerequisites ignored.
            completed.union(&self.offered.from(semester))
        };
        !self.goal.satisfied(&best_case)
    }
}

/// Records a prune decision into the run's counters.
pub fn record_prune(stats: &mut ExploreStats, reason: PruneReason) {
    match reason {
        PruneReason::Time => stats.pruned_time += 1,
        PruneReason::Availability => stats.pruned_availability += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coursenav_catalog::{CatalogBuilder, CourseSpec, Term};

    fn fall(y: i32) -> Semester {
        Semester::new(y, Term::Fall)
    }

    fn spring(y: i32) -> Semester {
        Semester::new(y, Term::Spring)
    }

    /// Fig. 3 catalog (11A/29A every Fall, 21A Spring-only with prereq 11A).
    fn fig3() -> Catalog {
        let mut b = CatalogBuilder::new();
        b.add_course(CourseSpec::new("11A", "A").offered([fall(2011), fall(2012)]));
        b.add_course(CourseSpec::new("29A", "B").offered([fall(2011), fall(2012)]));
        b.add_course(
            CourseSpec::new("21A", "C")
                .prereq(coursenav_prereq::Expr::Atom("11A".into()))
                .offered([spring(2012)]),
        );
        b.build().unwrap()
    }

    fn all_three_goal(cat: &Catalog) -> Goal {
        Goal::complete_all(cat.all_courses())
    }

    #[test]
    fn paper_example_prunes_n4_by_availability() {
        // §4.2.3: goal = all three courses, deadline Fall '12. At node n4
        // (Spring '12, completed {29A}), only 21A is offered in the remaining
        // semester, so even taking everything misses 11A.
        let cat = fig3();
        let goal = all_three_goal(&cat);
        let offered = OfferedRest::new(&cat, fall(2011), fall(2012));
        let pruner = Pruner::new(&cat, &goal, fall(2012), 3, PruneConfig::all(), &offered);
        let n1 = EnrollmentStatus::fresh(&cat, fall(2011));
        let only_29a = CourseSet::from_iter([cat.id_of_str("29A").unwrap()]);
        let n4 = n1.advance(&cat, &only_29a);
        assert_eq!(pruner.should_prune(&n4), Some(PruneReason::Availability));
    }

    #[test]
    fn promising_nodes_are_not_pruned() {
        let cat = fig3();
        let goal = all_three_goal(&cat);
        let offered = OfferedRest::new(&cat, fall(2011), fall(2012));
        let pruner = Pruner::new(&cat, &goal, fall(2012), 3, PruneConfig::all(), &offered);
        let n1 = EnrollmentStatus::fresh(&cat, fall(2011));
        assert_eq!(pruner.should_prune(&n1), None);
        // n3 (completed {11A, 29A}) can still finish via 21A in Spring '12.
        let both = *n1.options();
        let n3 = n1.advance(&cat, &both);
        assert_eq!(pruner.should_prune(&n3), None);
    }

    #[test]
    fn time_pruning_fires_when_semesters_run_out() {
        // Goal: all 3 courses by Spring '12 with m=1. At the root (Fall '11)
        // left=3 but only 2 selection semesters remain at 1 course each.
        let cat = fig3();
        let goal = all_three_goal(&cat);
        let offered = OfferedRest::new(&cat, fall(2011), spring(2012));
        let pruner = Pruner::new(&cat, &goal, spring(2012), 1, PruneConfig::all(), &offered);
        let n1 = EnrollmentStatus::fresh(&cat, fall(2011));
        assert_eq!(pruner.should_prune(&n1), Some(PruneReason::Time));
    }

    #[test]
    fn time_pruning_formula_boundary() {
        // left = 3, m = 3: one selection semester left suffices exactly.
        let cat = fig3();
        let goal = all_three_goal(&cat);
        // Deadline Spring '12: semesters_left = 1 at the Fall '11 root.
        let offered = OfferedRest::new(&cat, fall(2011), spring(2012));
        let pruner = Pruner::new(
            &cat,
            &goal,
            spring(2012),
            3,
            PruneConfig::time_only(),
            &offered,
        );
        let n1 = EnrollmentStatus::fresh(&cat, fall(2011));
        // 3 <= 3*1: not pruned by time (availability would catch it, but
        // that strategy is off in this config).
        assert_eq!(pruner.should_prune(&n1), None);
    }

    #[test]
    fn disabled_strategies_never_fire() {
        let cat = fig3();
        let goal = all_three_goal(&cat);
        let offered = OfferedRest::new(&cat, fall(2011), spring(2012));
        let pruner = Pruner::new(&cat, &goal, spring(2012), 1, PruneConfig::none(), &offered);
        let n1 = EnrollmentStatus::fresh(&cat, fall(2011));
        assert_eq!(pruner.should_prune(&n1), None);
    }

    #[test]
    fn prereq_closure_variant_prunes_more() {
        // Goal: complete 21A by Spring '12 starting Spring '12 with nothing
        // completed. 21A is offered in Spring '12... but selections in
        // Spring '12 complete at Fall '12 > deadline. Use deadline Fall '12:
        // paper-faithful availability sees 21A offered and does not prune;
        // the prereq-closure variant sees 21A ineligible (11A missing,
        // not offered in Spring '12) and prunes.
        let cat = fig3();
        let goal = Goal::complete_all(CourseSet::from_iter([cat.id_of_str("21A").unwrap()]));
        let status = EnrollmentStatus::fresh(&cat, spring(2012));

        let offered = OfferedRest::new(&cat, spring(2012), fall(2012));
        let faithful = Pruner::new(
            &cat,
            &goal,
            fall(2012),
            3,
            PruneConfig::availability_only(),
            &offered,
        );
        assert_eq!(faithful.should_prune(&status), None);

        let mut closure_cfg = PruneConfig::availability_only();
        closure_cfg.availability_respects_prereqs = true;
        let closure = Pruner::new(&cat, &goal, fall(2012), 3, closure_cfg, &offered);
        assert_eq!(
            closure.should_prune(&status),
            Some(PruneReason::Availability)
        );
    }

    #[test]
    fn node_at_deadline_pruned_iff_goal_unmet() {
        let cat = fig3();
        let goal = Goal::complete_all(CourseSet::from_iter([cat.id_of_str("11A").unwrap()]));
        let offered = OfferedRest::new(&cat, fall(2011), fall(2011));
        let pruner = Pruner::new(&cat, &goal, fall(2011), 3, PruneConfig::all(), &offered);
        let unmet = EnrollmentStatus::fresh(&cat, fall(2011));
        assert!(pruner.should_prune(&unmet).is_some());
        let met = EnrollmentStatus::new(
            &cat,
            fall(2011),
            CourseSet::from_iter([cat.id_of_str("11A").unwrap()]),
        );
        assert_eq!(pruner.should_prune(&met), None);
    }

    #[test]
    fn evaluate_reports_strategic_minimum_selection() {
        // Goal: all 3 courses by Fall '12 (2 selection semesters), m = 2.
        // At the root left = 3, so min_1 = 3 - 2*1 = 1: the student must take
        // at least one course this semester.
        let cat = fig3();
        let goal = all_three_goal(&cat);
        let offered = OfferedRest::new(&cat, fall(2011), fall(2012));
        let pruner = Pruner::new(
            &cat,
            &goal,
            fall(2012),
            2,
            PruneConfig::time_only(),
            &offered,
        );
        let n1 = EnrollmentStatus::fresh(&cat, fall(2011));
        assert_eq!(
            pruner.evaluate(&n1),
            PruneDecision::Explore {
                min_selection_size: 1
            }
        );
        // With m = 3 the floor vanishes (3 - 3 = 0).
        let pruner = Pruner::new(
            &cat,
            &goal,
            fall(2012),
            3,
            PruneConfig::time_only(),
            &offered,
        );
        assert_eq!(
            pruner.evaluate(&n1),
            PruneDecision::Explore {
                min_selection_size: 0
            }
        );
    }

    #[test]
    fn evaluate_without_time_strategy_has_no_floor() {
        let cat = fig3();
        let goal = all_three_goal(&cat);
        let offered = OfferedRest::new(&cat, fall(2011), fall(2012));
        let pruner = Pruner::new(&cat, &goal, fall(2012), 1, PruneConfig::none(), &offered);
        let n1 = EnrollmentStatus::fresh(&cat, fall(2011));
        assert_eq!(
            pruner.evaluate(&n1),
            PruneDecision::Explore {
                min_selection_size: 0
            }
        );
    }

    #[test]
    fn record_prune_attributes_to_strategy() {
        let mut stats = ExploreStats::default();
        record_prune(&mut stats, PruneReason::Time);
        record_prune(&mut stats, PruneReason::Time);
        record_prune(&mut stats, PruneReason::Availability);
        assert_eq!(stats.pruned_time, 2);
        assert_eq!(stats.pruned_availability, 1);
    }
}
