//! What-if analysis of this semester's course selections.
//!
//! The paper's introduction motivates exactly this question: *"which course
//! selections increase my future course options and number of possible
//! paths to a CS major?"* [`Explorer::selection_impacts`] answers it: for
//! every selection the student could make this semester, it reports the
//! options unlocked next semester and the number of learning paths (and
//! goal paths, for goal-driven runs) in the resulting subtree — read
//! straight off the hash-consed path DAG ([`crate::unique`]), where every
//! root edge's child node already carries its subtree counts, so even
//! 10⁷-path subtrees answer in milliseconds.

use std::time::Instant;

use coursenav_catalog::CourseSet;
use serde::{Deserialize, Serialize};

use crate::explorer::{no_table, Disposition, Explorer};
use crate::memo::TranspositionTable;
use crate::unique::{DagNodeId, DagNodeKind, UniqueTable};

/// The downstream effect of electing one selection this semester.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SelectionImpact {
    /// The courses elected this semester.
    pub selection: CourseSet,
    /// `|Y|` of the resulting enrollment status: courses eligible next
    /// semester after this selection.
    pub options_next_semester: usize,
    /// Learning paths in the subtree rooted at the resulting status.
    pub paths: u128,
    /// Goal-satisfying paths in that subtree (0 for deadline-driven runs).
    pub goal_paths: u128,
}

impl Explorer<'_> {
    /// Ranks every possible current-semester selection by its downstream
    /// effect. Entries are sorted by descending `goal_paths`, then
    /// descending `paths`, then ascending selection size — "which choice
    /// keeps the most doors open".
    ///
    /// Returns an empty vector when the start node is terminal (deadline
    /// reached, goal already satisfied, or no options and no wait).
    pub fn selection_impacts(&self) -> Vec<SelectionImpact> {
        let table = UniqueTable::new(0);
        let root = self
            .build_path_dag(&table, None, None)
            .expect("unbudgeted build cannot fail");
        self.impacts_from_dag(&table, root)
    }

    /// Projects [`SelectionImpact`]s out of an already-built path DAG
    /// rooted at this explorer's start state: each root edge already
    /// carries the subtree's path counts on its interned child node, so
    /// no re-exploration happens at all. Returns an empty vector when the
    /// root is terminal.
    pub fn impacts_from_dag(&self, table: &UniqueTable, root: DagNodeId) -> Vec<SelectionImpact> {
        let node = table.node(root);
        let DagNodeKind::Interior { edges, .. } = &node.kind else {
            return Vec::new();
        };
        let start = *self.start();
        let mut impacts = Vec::new();
        for (selection, child_id) in edges.iter() {
            let child_status = start.advance(self.catalog(), &selection);
            let child = table.node(child_id);
            impacts.push(SelectionImpact {
                selection,
                options_next_semester: child_status.options().len(),
                paths: child.paths,
                goal_paths: child.goal_paths,
            });
        }
        impacts.sort_by(|a, b| {
            b.goal_paths
                .cmp(&a.goal_paths)
                .then(b.paths.cmp(&a.paths))
                .then(a.selection.len().cmp(&b.selection.len()))
        });
        impacts
    }

    /// [`Explorer::selection_impacts`] through a transposition table: each
    /// root selection's subtree is counted with the memoized counter, so
    /// subtrees already in `table` (from earlier requests, or from other
    /// students in a cohort whose transcripts converge on the same
    /// enrollment status) answer without re-expansion, and newly-counted
    /// subtrees warm the table for the next caller. The impacts — counts,
    /// order, everything — are byte-identical to the un-memoized ones.
    ///
    /// The boolean marks truncation: when `deadline` expires mid-count the
    /// affected entries are lower bounds and nothing partial was cached.
    pub(crate) fn selection_impacts_memo_until(
        &self,
        table: &TranspositionTable,
        deadline: Option<Instant>,
    ) -> (Vec<SelectionImpact>, bool) {
        let pruner = self.pruner();
        let start = *self.start();
        let Disposition::Expand(expansion) = self.disposition(start, pruner.as_ref(), no_table)
        else {
            return (Vec::new(), false);
        };
        let mut impacts = Vec::new();
        let mut truncated = false;
        for selection in expansion.selections(self.max_per_semester()) {
            if selection.len() < expansion.min_selection {
                continue;
            }
            if !self.selection_allowed(&start, &selection) {
                continue;
            }
            // Each impact reports the child's options, so every child is
            // materialized.
            let child = start.advance(self.catalog(), &selection);
            let (counts, _work, expired) = self
                .restarted(child)
                .count_paths_memo_until(table, deadline);
            truncated |= expired;
            impacts.push(SelectionImpact {
                selection,
                options_next_semester: child.options().len(),
                paths: counts.total_paths,
                goal_paths: counts.goal_paths,
            });
        }
        impacts.sort_by(|a, b| {
            b.goal_paths
                .cmp(&a.goal_paths)
                .then(b.paths.cmp(&a.paths))
                .then(a.selection.len().cmp(&b.selection.len()))
        });
        (impacts, truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goal::Goal;
    use crate::status::EnrollmentStatus;
    use coursenav_catalog::{
        Catalog, CatalogBuilder, CourseSpec, Semester, SyntheticCatalog, SyntheticConfig, Term,
    };
    use coursenav_prereq::Expr;

    fn fall(y: i32) -> Semester {
        Semester::new(y, Term::Fall)
    }

    fn fig3() -> Catalog {
        let spring12 = Semester::new(2012, Term::Spring);
        let mut b = CatalogBuilder::new();
        b.add_course(CourseSpec::new("11A", "A").offered([fall(2011), fall(2012)]));
        b.add_course(CourseSpec::new("29A", "B").offered([fall(2011), fall(2012)]));
        b.add_course(
            CourseSpec::new("21A", "C")
                .prereq(Expr::Atom("11A".into()))
                .offered([spring12]),
        );
        b.build().unwrap()
    }

    #[test]
    fn impacts_cover_every_root_selection() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let e =
            Explorer::deadline_driven(&cat, start, Semester::new(2013, Term::Spring), 3).unwrap();
        let impacts = e.selection_impacts();
        // Root selections: {11A}, {29A}, {11A,29A}.
        assert_eq!(impacts.len(), 3);
        let total: u128 = impacts.iter().map(|i| i.paths).sum();
        assert_eq!(total, e.count_paths().total_paths);
    }

    #[test]
    fn taking_the_prerequisite_keeps_doors_open() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let e =
            Explorer::deadline_driven(&cat, start, Semester::new(2013, Term::Spring), 3).unwrap();
        let impacts = e.selection_impacts();
        let find = |codes: &[&str]| {
            impacts
                .iter()
                .find(|i| {
                    let got: Vec<String> = i
                        .selection
                        .iter()
                        .map(|id| cat.course(id).code().to_string())
                        .collect();
                    got == codes
                })
                .unwrap()
        };
        // Taking 11A unlocks 21A next semester; taking only 29A unlocks nothing.
        assert_eq!(find(&["11A"]).options_next_semester, 1);
        assert_eq!(find(&["29A"]).options_next_semester, 0);
    }

    #[test]
    fn goal_runs_rank_by_goal_paths() {
        let s = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&s.catalog, s.start);
        let goal = Goal::degree(s.degree.clone());
        let e = Explorer::goal_driven(&s.catalog, start, s.start + 4, 3, goal).unwrap();
        let impacts = e.selection_impacts();
        assert!(!impacts.is_empty());
        for pair in impacts.windows(2) {
            assert!(pair[0].goal_paths >= pair[1].goal_paths);
        }
        let total_goal: u128 = impacts.iter().map(|i| i.goal_paths).sum();
        assert_eq!(total_goal, e.count_paths().goal_paths);
    }

    #[test]
    fn memoized_impacts_match_cold_and_warm() {
        let s = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&s.catalog, s.start);
        let goal = Goal::degree(s.degree.clone());
        let e = Explorer::goal_driven(&s.catalog, start, s.start + 4, 3, goal).unwrap();
        let plain = e.selection_impacts();
        let table = TranspositionTable::new(1 << 14);
        let (cold, cold_truncated) = e.selection_impacts_memo_until(&table, None);
        assert!(!cold_truncated);
        assert_eq!(cold, plain);
        // Sibling subtrees overlap, so even the cold pass hits the table;
        // the warm pass must answer identically again.
        let (warm, warm_truncated) = e.selection_impacts_memo_until(&table, None);
        assert!(!warm_truncated);
        assert_eq!(warm, plain);
        assert!(table.snapshot().hits > 0, "{:?}", table.snapshot());
    }

    #[test]
    fn terminal_start_has_no_impacts() {
        let cat = fig3();
        let start = EnrollmentStatus::fresh(&cat, fall(2011));
        let e = Explorer::deadline_driven(&cat, start, fall(2011), 3).unwrap();
        assert!(e.selection_impacts().is_empty());
    }
}
