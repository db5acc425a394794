//! Enrollment statuses — the nodes of the learning graph.

use coursenav_catalog::{Catalog, CourseSet, Semester};
use serde::{Deserialize, Serialize};

/// A student's enrollment status at one point in time (§2 of the paper):
/// the current semester `s_i`, the completed courses `X_i`, and the course
/// options `Y_i` — courses offered in `s_i`, not yet completed, whose
/// prerequisite condition `X_i` satisfies.
///
/// `options` is derived state (`Y_i = {c_j ∈ C − X_i | Q_j(X_i), s_i ∈ S_j}`)
/// kept alongside so the expansion loop never recomputes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EnrollmentStatus {
    semester: Semester,
    completed: CourseSet,
    options: CourseSet,
}

impl EnrollmentStatus {
    /// The status of a student in `semester` having completed `completed`.
    pub fn new(catalog: &Catalog, semester: Semester, completed: CourseSet) -> EnrollmentStatus {
        #[cfg(test)]
        ELIGIBLE_CALLS.with(|calls| calls.set(calls.get() + 1));
        EnrollmentStatus {
            semester,
            completed,
            options: catalog.eligible(&completed, semester),
        }
    }

    /// A student with no completed courses.
    pub fn fresh(catalog: &Catalog, semester: Semester) -> EnrollmentStatus {
        EnrollmentStatus::new(catalog, semester, CourseSet::EMPTY)
    }

    /// Current semester `s_i`.
    pub fn semester(&self) -> Semester {
        self.semester
    }

    /// Completed courses `X_i`.
    pub fn completed(&self) -> &CourseSet {
        &self.completed
    }

    /// Course options `Y_i`.
    pub fn options(&self) -> &CourseSet {
        &self.options
    }

    /// The transition rule (§2): electing `selection ⊆ Y_i` in `s_i` yields
    /// the status for `s_{i+1} = s_i + 1` with `X_{i+1} = X_i ∪ W_{i,i+1}`.
    ///
    /// # Panics
    /// Debug-asserts that `selection ⊆ Y_i` — callers enumerate selections
    /// from `options`, so a violation is a logic error.
    pub fn advance(&self, catalog: &Catalog, selection: &CourseSet) -> EnrollmentStatus {
        self.child(selection).materialize(catalog)
    }

    /// [`EnrollmentStatus::advance`] without computing the child's options:
    /// the engine classifies a child before deciding whether it needs them.
    pub(crate) fn child(&self, selection: &CourseSet) -> Unexpanded {
        debug_assert!(
            selection.is_subset(&self.options),
            "selection {selection:?} not drawn from options {:?}",
            self.options
        );
        Unexpanded {
            semester: self.semester.next(),
            completed: self.completed.union(selection),
        }
    }

    /// Compact dedup key: `(semester index, completed)` determines the whole
    /// subtree below a node, since `options` is derived from them. Paths,
    /// cursors and the dedup views key states by it; a transposition table
    /// keys them by the coarser `Explorer::table_key`, which keeps only
    /// what the subtree can still read.
    pub fn state_key(&self) -> (i32, CourseSet) {
        (self.semester.index(), self.completed)
    }
}

/// A status whose options `Y_i` are not computed yet — what an expansion
/// hands its children. Most children end as leaves, prunes or memo hits,
/// decided from `(semester, completed)` alone; only the ones that expand
/// (or are emitted in a [`crate::Path`]) are materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Unexpanded {
    semester: Semester,
    completed: CourseSet,
}

impl From<EnrollmentStatus> for Unexpanded {
    /// The status with its options dropped, to be recomputed on demand.
    fn from(status: EnrollmentStatus) -> Unexpanded {
        Unexpanded {
            semester: status.semester,
            completed: status.completed,
        }
    }
}

/// What the engine's classifier reads of a state: its semester and
/// completed set up front, and its options only once it expands. A
/// materialized status is its own materialization, so roots handed in
/// whole are never recomputed.
pub(crate) trait Classifiable: Copy {
    /// Current semester `s_i`.
    fn semester(&self) -> Semester;
    /// Completed courses `X_i`.
    fn completed(&self) -> &CourseSet;
    /// The full status, options included.
    fn materialize(self, catalog: &Catalog) -> EnrollmentStatus;
}

impl Classifiable for Unexpanded {
    fn semester(&self) -> Semester {
        self.semester
    }

    fn completed(&self) -> &CourseSet {
        &self.completed
    }

    /// Equal to the status [`EnrollmentStatus::advance`] builds.
    fn materialize(self, catalog: &Catalog) -> EnrollmentStatus {
        EnrollmentStatus::new(catalog, self.semester, self.completed)
    }
}

impl Classifiable for EnrollmentStatus {
    fn semester(&self) -> Semester {
        self.semester
    }

    fn completed(&self) -> &CourseSet {
        &self.completed
    }

    fn materialize(self, _: &Catalog) -> EnrollmentStatus {
        self
    }
}

#[cfg(test)]
thread_local! {
    /// Options computations (`Catalog::eligible` calls) made through
    /// [`EnrollmentStatus::new`] on this thread.
    static ELIGIBLE_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Options computations made on this thread so far (tests only).
#[cfg(test)]
pub(crate) fn eligible_calls() -> u64 {
    ELIGIBLE_CALLS.with(std::cell::Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coursenav_catalog::{CatalogBuilder, CourseSpec, Term};
    use coursenav_prereq::Expr;

    /// The paper's Figure 3 catalog: 11A, 29A (no prereqs, Fall '11 and
    /// Fall '12), 21A (prereq 11A, Spring '12 only).
    pub(crate) fn fig3_catalog() -> Catalog {
        let fall11 = Semester::new(2011, Term::Fall);
        let spring12 = Semester::new(2012, Term::Spring);
        let fall12 = Semester::new(2012, Term::Fall);
        let mut b = CatalogBuilder::new();
        b.add_course(CourseSpec::new("11A", "A").offered([fall11, fall12]));
        b.add_course(CourseSpec::new("29A", "B").offered([fall11, fall12]));
        b.add_course(
            CourseSpec::new("21A", "C")
                .prereq(Expr::Atom("11A".into()))
                .offered([spring12]),
        );
        b.build().unwrap()
    }

    #[test]
    fn fresh_status_computes_y1() {
        let cat = fig3_catalog();
        let s = EnrollmentStatus::fresh(&cat, Semester::new(2011, Term::Fall));
        assert!(s.completed().is_empty());
        assert_eq!(s.options().len(), 2); // {11A, 29A}
    }

    #[test]
    fn advance_follows_paper_transition() {
        let cat = fig3_catalog();
        let fall11 = Semester::new(2011, Term::Fall);
        let n1 = EnrollmentStatus::fresh(&cat, fall11);
        // Take both 11A and 29A -> node n3 of Fig. 3.
        let both = *n1.options();
        let n3 = n1.advance(&cat, &both);
        assert_eq!(n3.semester(), Semester::new(2012, Term::Spring));
        assert_eq!(n3.completed().len(), 2);
        // Y3 = {21A}: offered Spring '12, prereq 11A completed.
        assert_eq!(n3.options().len(), 1);
        assert!(n3.options().contains(cat.id_of_str("21A").unwrap()));
    }

    #[test]
    fn advance_with_unmet_prereq_gives_empty_options() {
        let cat = fig3_catalog();
        let fall11 = Semester::new(2011, Term::Fall);
        let n1 = EnrollmentStatus::fresh(&cat, fall11);
        // Take only 29A -> node n4: Y4 = {} (11A not offered, 21A prereq unmet).
        let only_29a = CourseSet::from_iter([cat.id_of_str("29A").unwrap()]);
        let n4 = n1.advance(&cat, &only_29a);
        assert!(n4.options().is_empty());
    }

    #[test]
    fn empty_selection_waits_a_semester() {
        let cat = fig3_catalog();
        let n1 = EnrollmentStatus::fresh(&cat, Semester::new(2011, Term::Fall));
        let only_29a = CourseSet::from_iter([cat.id_of_str("29A").unwrap()]);
        let n4 = n1.advance(&cat, &only_29a);
        // n4 --{}-> n7: Fall '12 offers 11A again.
        let n7 = n4.advance(&cat, &CourseSet::EMPTY);
        assert_eq!(n7.semester(), Semester::new(2012, Term::Fall));
        assert_eq!(n7.completed(), n4.completed());
        assert!(n7.options().contains(cat.id_of_str("11A").unwrap()));
    }

    #[test]
    fn materialized_children_equal_advanced_ones() {
        let cat = fig3_catalog();
        let n1 = EnrollmentStatus::fresh(&cat, Semester::new(2011, Term::Fall));
        let both = *n1.options();
        let advanced = n1.advance(&cat, &both);
        let before = eligible_calls();
        let child = n1.child(&both);
        assert_eq!(child.semester(), Semester::new(2012, Term::Spring));
        assert_eq!(child.completed(), advanced.completed());
        assert_eq!(eligible_calls(), before, "a child costs no options");
        let status = child.materialize(&cat);
        assert_eq!(eligible_calls(), before + 1, "one options computation");
        assert_eq!(status, advanced);
        assert_eq!(Classifiable::materialize(status, &cat), status);
        assert_eq!(eligible_calls(), before + 1, "a whole status is free");
    }

    #[test]
    fn state_key_identifies_equal_states() {
        let cat = fig3_catalog();
        let fall11 = Semester::new(2011, Term::Fall);
        let a = EnrollmentStatus::fresh(&cat, fall11);
        let b = EnrollmentStatus::fresh(&cat, fall11);
        assert_eq!(a.state_key(), b.state_key());
        let c = a.advance(&cat, &CourseSet::EMPTY);
        assert_ne!(a.state_key(), c.state_key());
    }
}
