//! Selection and path filters.
//!
//! The paper's front end lets students state constraints beyond `m` —
//! "courses to avoid" (§3) — and its future work calls for "customizable
//! filters of the final learning paths" (§6). Both hooks live here:
//!
//! - [`SelectionFilter`]s veto individual course selections *during*
//!   expansion, shrinking the search space. A filter sees the selection
//!   and the catalog only, never the state it is made from;
//! - [`PathFilter`]s veto complete paths *after* generation, for criteria
//!   that only make sense end-to-end.

use coursenav_catalog::{Catalog, CourseSet};

use crate::path::Path;

/// Vetoes course selections during expansion.
///
/// The verdict reads the selection alone, never the completed set it is
/// made from. That is what lets the engine share a subtree between states
/// that differ only in courses nothing below them can read again (its
/// transposition-table key, `Explorer::table_key`): a filter that read
/// the completed set could tell such states apart.
pub trait SelectionFilter: Send + Sync {
    /// Whether electing `selection` is allowed.
    fn allow(&self, catalog: &Catalog, selection: &CourseSet) -> bool;

    /// Diagnostic name.
    fn name(&self) -> &str {
        "selection-filter"
    }
}

/// Never elect any course from the given set ("courses to avoid", §3).
#[derive(Debug, Clone)]
pub struct AvoidCourses(pub CourseSet);

impl SelectionFilter for AvoidCourses {
    fn allow(&self, _: &Catalog, selection: &CourseSet) -> bool {
        selection.is_disjoint(&self.0)
    }

    fn name(&self) -> &str {
        "avoid-courses"
    }
}

/// Cap the summed weekly workload of any single semester's selection.
#[derive(Debug, Clone, Copy)]
pub struct MaxSemesterWorkload(pub f64);

impl SelectionFilter for MaxSemesterWorkload {
    fn allow(&self, catalog: &Catalog, selection: &CourseSet) -> bool {
        let load: f64 = selection
            .iter()
            .map(|id| catalog.course(id).workload())
            .sum();
        load <= self.0
    }

    fn name(&self) -> &str {
        "max-semester-workload"
    }
}

/// Require at least `n` courses whenever any selection is made (models
/// full-time enrollment floors). Empty "wait" transitions are exempt — they
/// exist only where no option is available.
#[derive(Debug, Clone, Copy)]
pub struct MinCoursesPerSemester(pub usize);

impl SelectionFilter for MinCoursesPerSemester {
    fn allow(&self, _: &Catalog, selection: &CourseSet) -> bool {
        selection.is_empty() || selection.len() >= self.0
    }

    fn name(&self) -> &str {
        "min-courses-per-semester"
    }
}

/// Vetoes complete paths after generation.
pub trait PathFilter: Send + Sync {
    /// Whether the finished path should be kept.
    fn allow(&self, catalog: &Catalog, path: &Path) -> bool;

    /// Diagnostic name.
    fn name(&self) -> &str {
        "path-filter"
    }
}

/// Keep only paths whose total workload stays under a budget.
#[derive(Debug, Clone, Copy)]
pub struct MaxTotalWorkload(pub f64);

impl PathFilter for MaxTotalWorkload {
    fn allow(&self, catalog: &Catalog, path: &Path) -> bool {
        path.total_workload(catalog) <= self.0
    }

    fn name(&self) -> &str {
        "max-total-workload"
    }
}

/// Keep only paths that elect every course in the given set.
#[derive(Debug, Clone)]
pub struct MustInclude(pub CourseSet);

impl PathFilter for MustInclude {
    fn allow(&self, _: &Catalog, path: &Path) -> bool {
        self.0.is_subset(&path.courses_taken())
    }

    fn name(&self) -> &str {
        "must-include"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::EnrollmentStatus;
    use coursenav_catalog::{CatalogBuilder, CourseSpec, Semester, Term};

    fn catalog() -> Catalog {
        let fall = Semester::new(2011, Term::Fall);
        let mut b = CatalogBuilder::new();
        b.add_course(CourseSpec::new("A", "A").offered([fall]).workload(8.0));
        b.add_course(CourseSpec::new("B", "B").offered([fall]).workload(6.0));
        b.build().unwrap()
    }

    fn status(cat: &Catalog) -> EnrollmentStatus {
        EnrollmentStatus::fresh(cat, Semester::new(2011, Term::Fall))
    }

    #[test]
    fn avoid_courses_vetoes_overlap() {
        let cat = catalog();
        let a = cat.id_of_str("A").unwrap();
        let b = cat.id_of_str("B").unwrap();
        let f = AvoidCourses(CourseSet::from_iter([a]));
        assert!(!f.allow(&cat, &CourseSet::from_iter([a])));
        assert!(!f.allow(&cat, &CourseSet::from_iter([a, b])));
        assert!(f.allow(&cat, &CourseSet::from_iter([b])));
    }

    #[test]
    fn workload_cap_sums_selection() {
        let cat = catalog();
        let a = cat.id_of_str("A").unwrap();
        let b = cat.id_of_str("B").unwrap();
        let f = MaxSemesterWorkload(10.0);
        assert!(f.allow(&cat, &CourseSet::from_iter([a])));
        assert!(!f.allow(&cat, &CourseSet::from_iter([a, b]))); // 14 > 10
    }

    #[test]
    fn min_courses_floor_exempts_waits() {
        let cat = catalog();
        let a = cat.id_of_str("A").unwrap();
        let f = MinCoursesPerSemester(2);
        assert!(f.allow(&cat, &CourseSet::EMPTY));
        assert!(!f.allow(&cat, &CourseSet::from_iter([a])));
    }

    #[test]
    fn path_filters_check_complete_paths() {
        let cat = catalog();
        let a = cat.id_of_str("A").unwrap();
        let b = cat.id_of_str("B").unwrap();
        let st = status(&cat);
        let sel = CourseSet::from_iter([a, b]);
        let next = st.advance(&cat, &sel);
        let path = Path::new(vec![st, next], vec![sel]);

        assert!(MaxTotalWorkload(20.0).allow(&cat, &path));
        assert!(!MaxTotalWorkload(10.0).allow(&cat, &path));
        assert!(MustInclude(CourseSet::from_iter([a])).allow(&cat, &path));
        let c_missing = CourseSet::from_iter([a, b, coursenav_catalog::CourseId::new(99)]);
        assert!(!MustInclude(c_missing).allow(&cat, &path));
    }
}
