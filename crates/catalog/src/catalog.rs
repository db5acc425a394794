//! The course catalog: the paper's course set `C` with `Q_i` and `S_i`.

use std::collections::{BTreeSet, HashMap};

use coursenav_prereq::Expr;
use serde::{Deserialize, Serialize};

use crate::course::{Course, CourseCode, CourseId, PrereqCondition};
use crate::error::CatalogError;
use crate::semester::Semester;
use crate::set::CourseSet;

/// An immutable, validated course catalog.
///
/// Construct one with [`CatalogBuilder`]. Besides the course table, the
/// catalog precomputes a per-semester offering bitmap so the learning-graph
/// expansion's `Y_i` computation (courses offered in `s_i` whose
/// prerequisites `X_i` satisfies, §2) touches only bitset words and the
/// per-course DNF masks.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(try_from = "CatalogTables", into = "CatalogTables")]
pub struct Catalog {
    courses: Vec<Course>,
    by_code: HashMap<CourseCode, CourseId>,
    /// Bitmap of courses offered per semester.
    offered_by_semester: OfferingTable,
    /// Earliest and latest semester appearing in any schedule.
    semester_range: Option<(Semester, Semester)>,
    /// See [`Catalog::workload_sums_exact`]; derived from the courses, so
    /// never serialized.
    workload_sums_exact: bool,
}

/// A catalog's serialized fields: everything but what is derived from
/// them, which deserializing recomputes.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CatalogTables {
    courses: Vec<Course>,
    by_code: HashMap<CourseCode, CourseId>,
    offered_by_semester: OfferingTable,
    semester_range: Option<(Semester, Semester)>,
}

impl From<CatalogTables> for Catalog {
    fn from(tables: CatalogTables) -> Catalog {
        let workload_sums_exact = sums_exact(tables.courses.iter().map(Course::workload));
        Catalog {
            courses: tables.courses,
            by_code: tables.by_code,
            offered_by_semester: tables.offered_by_semester,
            semester_range: tables.semester_range,
            workload_sums_exact,
        }
    }
}

impl From<Catalog> for CatalogTables {
    fn from(catalog: Catalog) -> CatalogTables {
        CatalogTables {
            courses: catalog.courses,
            by_code: catalog.by_code,
            offered_by_semester: catalog.offered_by_semester,
            semester_range: catalog.semester_range,
        }
    }
}

/// Whether every sum of a subset of `values` is exact in `f64`, in any
/// order of addition: every value is finite and non-negative, a whole
/// multiple of one power of two, the largest one they share, and the
/// total is below 2^53 of that unit. Every partial sum is then a whole
/// number of units below 2^53 of them, which an `f64` holds exactly.
/// (The builder rejects negative workloads; a deserialized catalog is
/// not checked, so this checks again.)
fn sums_exact(values: impl Iterator<Item = f64> + Clone) -> bool {
    if !values.clone().all(|v| v.is_finite() && v >= 0.0) {
        return false;
    }
    // The exponent of a value's lowest set bit: it is a whole multiple of
    // 2^that and of no larger power of two.
    let lowest_bit = |value: f64| -> i32 {
        let bits = value.to_bits();
        let biased = ((bits >> 52) & 0x7ff) as i32;
        let fraction = bits & ((1 << 52) - 1);
        let (mantissa, exponent) = match biased {
            0 => (fraction, -1074),
            _ => (fraction | 1 << 52, biased - 1075),
        };
        exponent + mantissa.trailing_zeros() as i32
    };
    let Some(unit) = values.clone().filter(|&v| v > 0.0).map(lowest_bit).min() else {
        return true;
    };
    // Rounding is monotone, so the float total reaches the bound exactly
    // when the exact total does.
    let total = values.fold(0.0, |sum, v| sum + v);
    total < 2f64.powi(53 + unit)
}

/// Most semesters one catalog's schedules may span (a thousand years of
/// two terms): the offering table holds a bitmap for each of them.
pub const MAX_SCHEDULE_SPAN: usize = 2_000;

/// The offering bitmaps as a dense vector, one per semester from the
/// earliest offering through the latest, so a lookup is an index rather
/// than a hash. Serialized as the map from `Semester::index()` to bitmap
/// of the semesters that offer something.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(try_from = "HashMap<i32, CourseSet>", into = "HashMap<i32, CourseSet>")]
struct OfferingTable {
    /// `Semester::index()` of `by_offset[0]`.
    first: i32,
    by_offset: Vec<CourseSet>,
}

impl OfferingTable {
    /// The table holding `entries` (`(Semester::index(), bitmap)` pairs;
    /// a semester may repeat). Errors when they span more than
    /// [`MAX_SCHEDULE_SPAN`] semesters.
    fn new(
        entries: impl IntoIterator<Item = (i32, CourseSet)> + Clone,
    ) -> Result<Self, CatalogError> {
        let Some((first, last)) = entries
            .clone()
            .into_iter()
            .map(|(index, _)| (index, index))
            .reduce(|(lo, hi), (a, b)| (lo.min(a), hi.max(b)))
        else {
            return Ok(OfferingTable::default());
        };
        let span = i64::from(last) - i64::from(first) + 1;
        if span > MAX_SCHEDULE_SPAN as i64 {
            return Err(CatalogError::ScheduleSpan {
                first: Semester::from_index(first),
                last: Semester::from_index(last),
            });
        }
        let mut by_offset = vec![CourseSet::EMPTY; span as usize];
        for (index, set) in entries {
            by_offset[(index - first) as usize].union_with(&set);
        }
        Ok(OfferingTable { first, by_offset })
    }

    /// The bitmap of `semester` (empty outside the table).
    fn get(&self, semester: Semester) -> CourseSet {
        usize::try_from(i64::from(semester.index()) - i64::from(self.first))
            .ok()
            .and_then(|offset| self.by_offset.get(offset))
            .copied()
            .unwrap_or(CourseSet::EMPTY)
    }
}

impl TryFrom<HashMap<i32, CourseSet>> for OfferingTable {
    type Error = CatalogError;

    fn try_from(map: HashMap<i32, CourseSet>) -> Result<OfferingTable, CatalogError> {
        OfferingTable::new(map)
    }
}

impl From<OfferingTable> for HashMap<i32, CourseSet> {
    fn from(table: OfferingTable) -> HashMap<i32, CourseSet> {
        (table.first..)
            .zip(table.by_offset)
            .filter(|(_, set)| !set.is_empty())
            .collect()
    }
}

impl Catalog {
    /// Number of courses.
    pub fn len(&self) -> usize {
        self.courses.len()
    }

    /// Whether the catalog has no courses.
    pub fn is_empty(&self) -> bool {
        self.courses.is_empty()
    }

    /// The course with the given id.
    ///
    /// # Panics
    /// Panics if `id` is not from this catalog.
    pub fn course(&self, id: CourseId) -> &Course {
        &self.courses[id.as_usize()]
    }

    /// Looks up a course by code.
    pub fn get(&self, code: &CourseCode) -> Option<&Course> {
        self.by_code.get(code).map(|&id| self.course(id))
    }

    /// Resolves a course code to its id.
    pub fn id_of(&self, code: &CourseCode) -> Option<CourseId> {
        self.by_code.get(code).copied()
    }

    /// Resolves a raw code string (normalized) to its id.
    pub fn id_of_str(&self, code: &str) -> Option<CourseId> {
        self.id_of(&CourseCode::new(code))
    }

    /// Iterates all courses in id order.
    pub fn courses(&self) -> impl ExactSizeIterator<Item = &Course> {
        self.courses.iter()
    }

    /// The set of all course ids.
    pub fn all_courses(&self) -> CourseSet {
        (0..self.courses.len() as u16).map(CourseId::new).collect()
    }

    /// Bitmap of courses offered in `semester` (empty when none).
    pub fn offered_in(&self, semester: Semester) -> CourseSet {
        self.offered_by_semester.get(semester)
    }

    /// The paper's `Y_i`: courses not yet completed, offered in `semester`,
    /// whose prerequisite condition is satisfied by `completed`.
    pub fn eligible(&self, completed: &CourseSet, semester: Semester) -> CourseSet {
        let mut options = CourseSet::new();
        for id in &self.offered_in(semester).difference(completed) {
            if self.course(id).prereq_satisfied(completed) {
                options.insert(id);
            }
        }
        options
    }

    /// Union of `offered_in` over `from..=to` — the course-availability
    /// pruning strategy's `C_offered` (§4.2.2).
    pub fn offered_between(&self, from: Semester, to: Semester) -> CourseSet {
        let mut set = CourseSet::new();
        for s in from.through(to) {
            set.union_with(&self.offered_in(s));
        }
        set
    }

    /// Earliest and latest scheduled semester across all courses, if any
    /// course has a schedule.
    pub fn semester_range(&self) -> Option<(Semester, Semester)> {
        self.semester_range
    }

    /// Whether every path's workload sums exactly in `f64`, whatever the
    /// order of its additions: every course workload is a whole multiple
    /// of one power of two (whole hours qualify; tenths do not) and the
    /// catalog's total workload is below 2^53 of that unit. The memoized
    /// top-k ranks by workload only then, since its suffix costs sum
    /// bottom-up while the best-first search sums from the root. Computed
    /// once, when the catalog is built.
    pub fn workload_sums_exact(&self) -> bool {
        self.workload_sums_exact
    }
}

/// Specification of one course fed to [`CatalogBuilder::add_course`].
///
/// Prerequisites are expressed over course *codes*; the builder resolves
/// them to interned ids once all courses are known, so declaration order
/// doesn't matter.
#[derive(Debug, Clone)]
pub struct CourseSpec {
    /// The course code, e.g. `COSI 11A`.
    pub code: CourseCode,
    /// Human-readable course title.
    pub title: String,
    /// Prerequisite condition over course codes.
    pub prereq: Expr<CourseCode>,
    /// Semesters the course is offered.
    pub offered: BTreeSet<Semester>,
    /// Weekly workload in hours.
    pub workload: f64,
}

impl CourseSpec {
    /// Starts a spec with no prerequisites, no schedule, and a default
    /// workload of 10 hours/week.
    pub fn new(code: impl Into<CourseCode>, title: impl Into<String>) -> CourseSpec {
        CourseSpec {
            code: code.into(),
            title: title.into(),
            prereq: Expr::True,
            offered: BTreeSet::new(),
            workload: 10.0,
        }
    }

    /// Sets the prerequisite condition (over course codes).
    pub fn prereq(mut self, prereq: Expr<CourseCode>) -> CourseSpec {
        self.prereq = prereq;
        self
    }

    /// Adds offered semesters.
    pub fn offered(mut self, semesters: impl IntoIterator<Item = Semester>) -> CourseSpec {
        self.offered.extend(semesters);
        self
    }

    /// Sets the weekly workload in hours.
    pub fn workload(mut self, hours: f64) -> CourseSpec {
        self.workload = hours;
        self
    }
}

/// Builder assembling and validating a [`Catalog`].
#[derive(Debug, Default)]
pub struct CatalogBuilder {
    specs: Vec<CourseSpec>,
    allow_unreachable: bool,
}

impl CatalogBuilder {
    /// An empty builder.
    pub fn new() -> CatalogBuilder {
        CatalogBuilder::default()
    }

    /// Adds a course spec. Order determines [`CourseId`] assignment.
    pub fn add_course(&mut self, spec: CourseSpec) -> &mut Self {
        self.specs.push(spec);
        self
    }

    /// Permits courses whose prerequisites can never be satisfied (cyclic or
    /// unsatisfiable). Off by default: real catalogs should never contain
    /// them, and they silently produce empty exploration results.
    pub fn allow_unreachable(&mut self, allow: bool) -> &mut Self {
        self.allow_unreachable = allow;
        self
    }

    /// Validates and builds the catalog.
    pub fn build(&self) -> Result<Catalog, CatalogError> {
        if self.specs.len() > CourseSet::CAPACITY {
            return Err(CatalogError::TooManyCourses {
                count: self.specs.len(),
                capacity: CourseSet::CAPACITY,
            });
        }
        // Assign ids and detect duplicates.
        let mut by_code: HashMap<CourseCode, CourseId> = HashMap::with_capacity(self.specs.len());
        for (i, spec) in self.specs.iter().enumerate() {
            if by_code
                .insert(spec.code.clone(), CourseId::new(i as u16))
                .is_some()
            {
                return Err(CatalogError::DuplicateCode(spec.code.clone()));
            }
        }
        // Resolve prerequisites and assemble courses.
        let mut courses = Vec::with_capacity(self.specs.len());
        for (i, spec) in self.specs.iter().enumerate() {
            if !spec.workload.is_finite() || spec.workload < 0.0 {
                return Err(CatalogError::InvalidWorkload {
                    course: spec.code.clone(),
                    workload: spec.workload,
                });
            }
            let mut missing: Option<String> = None;
            let prereq: PrereqCondition = spec.prereq.map_atoms(&mut |code: &CourseCode| {
                by_code.get(code).copied().unwrap_or_else(|| {
                    missing.get_or_insert_with(|| code.as_str().to_string());
                    CourseId::new(0)
                })
            });
            if let Some(missing) = missing {
                return Err(CatalogError::UnknownPrereq {
                    course: spec.code.clone(),
                    missing,
                });
            }
            courses.push(Course::assemble(
                CourseId::new(i as u16),
                spec.code.clone(),
                spec.title.clone(),
                prereq,
                spec.offered.clone(),
                spec.workload,
            ));
        }
        // Takeability fixed point: a course is takeable when some DNF term of
        // its prerequisite uses only takeable courses. Courses outside the
        // fixed point sit on a prerequisite cycle (or depend on one, or have
        // an unsatisfiable condition) and can never be completed.
        if !self.allow_unreachable {
            let mut takeable = CourseSet::new();
            loop {
                let mut changed = false;
                for course in &courses {
                    if !takeable.contains(course.id()) && course.prereq_satisfied(&takeable) {
                        takeable.insert(course.id());
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            let stuck: Vec<CourseCode> = courses
                .iter()
                .filter(|c| !takeable.contains(c.id()))
                .map(|c| c.code().clone())
                .collect();
            if !stuck.is_empty() {
                return Err(CatalogError::PrereqCycle { cycle: stuck });
            }
        }
        // Precompute per-semester offering bitmaps.
        let mut semester_range: Option<(Semester, Semester)> = None;
        for &sem in courses.iter().flat_map(Course::offered) {
            semester_range = Some(match semester_range {
                None => (sem, sem),
                Some((lo, hi)) => (lo.min(sem), hi.max(sem)),
            });
        }
        let offered_by_semester = OfferingTable::new(courses.iter().flat_map(|course| {
            course
                .offered()
                .iter()
                .map(|sem| (sem.index(), CourseSet::from_iter([course.id()])))
        }))?;
        Ok(Catalog::from(CatalogTables {
            courses,
            by_code,
            offered_by_semester,
            semester_range,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semester::Term;

    fn fall11() -> Semester {
        Semester::new(2011, Term::Fall)
    }

    fn spring12() -> Semester {
        Semester::new(2012, Term::Spring)
    }

    /// The three-course example of the paper's Figure 3.
    pub(crate) fn fig3_catalog() -> Catalog {
        let fall12 = Semester::new(2012, Term::Fall);
        let mut b = CatalogBuilder::new();
        b.add_course(CourseSpec::new("11A", "Intro A").offered([fall11(), fall12]));
        b.add_course(CourseSpec::new("29A", "Intro B").offered([fall11(), fall12]));
        b.add_course(
            CourseSpec::new("21A", "Data Structures")
                .prereq(Expr::Atom(CourseCode::new("11A")))
                .offered([spring12()]),
        );
        b.build().unwrap()
    }

    #[test]
    fn ids_follow_insertion_order() {
        let c = fig3_catalog();
        assert_eq!(c.id_of_str("11A"), Some(CourseId::new(0)));
        assert_eq!(c.id_of_str("29A"), Some(CourseId::new(1)));
        assert_eq!(c.id_of_str("21A"), Some(CourseId::new(2)));
        assert_eq!(c.id_of_str("99Z"), None);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let c = fig3_catalog();
        assert_eq!(c.id_of_str("11a"), c.id_of_str("11A"));
    }

    #[test]
    fn offered_in_matches_schedules() {
        let c = fig3_catalog();
        let fall11_offered = c.offered_in(fall11());
        assert_eq!(fall11_offered.len(), 2);
        assert!(fall11_offered.contains(c.id_of_str("11A").unwrap()));
        assert!(fall11_offered.contains(c.id_of_str("29A").unwrap()));
        let spring12_offered = c.offered_in(spring12());
        assert_eq!(spring12_offered.len(), 1);
        assert!(spring12_offered.contains(c.id_of_str("21A").unwrap()));
        assert!(c.offered_in(Semester::new(1990, Term::Fall)).is_empty());
    }

    #[test]
    fn eligible_computes_paper_y() {
        let c = fig3_catalog();
        // Paper Fig. 3, node n1: Y1 = {11A, 29A}.
        let y1 = c.eligible(&CourseSet::EMPTY, fall11());
        assert_eq!(y1.len(), 2);
        // Node n4 (completed {29A}) in Spring '12: 21A's prereq 11A unmet => Y = {}.
        let x4 = CourseSet::from_iter([c.id_of_str("29A").unwrap()]);
        assert!(c.eligible(&x4, spring12()).is_empty());
        // Node n3 (completed {11A, 29A}): Y = {21A}.
        let x3 = CourseSet::from_iter([c.id_of_str("11A").unwrap(), c.id_of_str("29A").unwrap()]);
        let y3 = c.eligible(&x3, spring12());
        assert_eq!(y3.len(), 1);
        assert!(y3.contains(c.id_of_str("21A").unwrap()));
    }

    #[test]
    fn eligible_excludes_completed_courses() {
        let c = fig3_catalog();
        let x = CourseSet::from_iter([c.id_of_str("11A").unwrap()]);
        let y = c.eligible(&x, fall11());
        assert!(!y.contains(c.id_of_str("11A").unwrap()));
        assert!(y.contains(c.id_of_str("29A").unwrap()));
    }

    #[test]
    fn offered_between_unions_semesters() {
        let c = fig3_catalog();
        let all = c.offered_between(fall11(), Semester::new(2012, Term::Fall));
        assert_eq!(all.len(), 3);
        let later = c.offered_between(spring12(), spring12());
        assert_eq!(later.len(), 1);
    }

    #[test]
    fn semester_range_spans_schedules() {
        let c = fig3_catalog();
        assert_eq!(
            c.semester_range(),
            Some((fall11(), Semester::new(2012, Term::Fall)))
        );
    }

    #[test]
    fn offered_in_is_empty_in_schedule_gaps_and_outside_the_range() {
        // Fall '11 and Fall '15 are offered; the semesters between are gaps
        // in the dense table.
        let mut b = CatalogBuilder::new();
        let fall15 = Semester::new(2015, Term::Fall);
        b.add_course(CourseSpec::new("A", "A").offered([fall11(), fall15]));
        let c = b.build().unwrap();
        assert_eq!(c.semester_range(), Some((fall11(), fall15)));
        assert_eq!(c.offered_in(fall11()).len(), 1);
        assert_eq!(c.offered_in(fall15).len(), 1);
        for sem in (fall11() + 1).through(fall15 + (-1)) {
            assert!(c.offered_in(sem).is_empty(), "{sem}");
        }
        assert!(c.offered_in(fall11() + (-1)).is_empty());
        assert!(c.offered_in(fall15 + 1).is_empty());
        assert!(c
            .offered_in(Semester::new(i32::MAX / 2, Term::Fall))
            .is_empty());
        assert_eq!(c.offered_between(fall11(), fall15).len(), 1);
    }

    #[test]
    fn schedules_wider_than_the_dense_table_are_rejected() {
        let first = fall11();
        let mut b = CatalogBuilder::new();
        let last = first + (MAX_SCHEDULE_SPAN as i32 - 1);
        b.add_course(CourseSpec::new("A", "A").offered([first, last]));
        assert!(b.build().is_ok(), "exactly the maximum span fits");
        let mut b = CatalogBuilder::new();
        b.add_course(CourseSpec::new("A", "A").offered([first, last + 1]));
        assert_eq!(
            b.build().unwrap_err(),
            CatalogError::ScheduleSpan {
                first,
                last: last + 1
            }
        );
    }

    #[test]
    fn serialized_offerings_are_a_map_of_offering_semesters() {
        let c = fig3_catalog();
        let fall12 = Semester::new(2012, Term::Fall);
        let map = HashMap::from(c.offered_by_semester.clone());
        let expected: HashMap<i32, CourseSet> = [fall11(), spring12(), fall12]
            .into_iter()
            .map(|sem| (sem.index(), c.offered_in(sem)))
            .collect();
        assert_eq!(map, expected);
        let back = OfferingTable::try_from(map).unwrap();
        for sem in (fall11() + (-1)).through(fall12 + 1) {
            assert_eq!(back.get(sem), c.offered_in(sem));
        }
        // A map spanning too many semesters is refused before allocating.
        let wide = HashMap::from([(0, CourseSet::EMPTY), (i32::MAX, CourseSet::EMPTY)]);
        assert!(matches!(
            OfferingTable::try_from(wide),
            Err(CatalogError::ScheduleSpan { .. })
        ));
    }

    #[test]
    fn duplicate_codes_rejected() {
        let mut b = CatalogBuilder::new();
        b.add_course(CourseSpec::new("11A", "One"));
        b.add_course(CourseSpec::new("11a", "Two"));
        assert!(matches!(b.build(), Err(CatalogError::DuplicateCode(_))));
    }

    #[test]
    fn unknown_prereq_rejected() {
        let mut b = CatalogBuilder::new();
        b.add_course(CourseSpec::new("11A", "One").prereq(Expr::Atom(CourseCode::new("MATH 1"))));
        match b.build() {
            Err(CatalogError::UnknownPrereq { course, missing }) => {
                assert_eq!(course, CourseCode::new("11A"));
                assert_eq!(missing, "MATH 1");
            }
            other => panic!("expected UnknownPrereq, got {other:?}"),
        }
    }

    #[test]
    fn invalid_workload_rejected() {
        let mut b = CatalogBuilder::new();
        b.add_course(CourseSpec::new("11A", "One").workload(-1.0));
        assert!(matches!(
            b.build(),
            Err(CatalogError::InvalidWorkload { .. })
        ));
    }

    #[test]
    fn workload_sums_are_exact_in_a_shared_power_of_two_unit() {
        let sums_exact_for = |workloads: &[f64]| {
            let mut b = CatalogBuilder::new();
            for (i, &hours) in workloads.iter().enumerate() {
                b.add_course(CourseSpec::new(format!("C{i}").as_str(), "C").workload(hours));
            }
            b.build().unwrap().workload_sums_exact()
        };
        assert!(sums_exact_for(&[]));
        assert!(sums_exact_for(&[0.0, 0.0]));
        assert!(sums_exact_for(&[6.0, 13.0, 0.0, 10.0]));
        assert!(sums_exact_for(&[6.5, 0.25, 12.0]));
        assert!(!sums_exact_for(&[7.3, 10.0]));
        // 0.1 alone sums exactly; 0.1 + 0.2 famously does not.
        assert!(sums_exact_for(&[0.1]));
        assert!(!sums_exact_for(&[0.1, 0.2]));
        // 2^53 units is one too many: 2^53 + 1 has no f64.
        assert!(sums_exact_for(&[2f64.powi(53) - 2.0, 1.0]));
        assert!(!sums_exact_for(&[2f64.powi(53) - 1.0, 1.0]));
        assert!(sums_exact_for(&[2f64.powi(60), 2f64.powi(61)]));
        assert!(!sums_exact_for(&[f64::MAX, f64::MAX]));
    }

    #[test]
    fn prereq_cycle_rejected_by_default() {
        let mut b = CatalogBuilder::new();
        b.add_course(CourseSpec::new("A", "A").prereq(Expr::Atom(CourseCode::new("B"))));
        b.add_course(CourseSpec::new("B", "B").prereq(Expr::Atom(CourseCode::new("A"))));
        match b.build() {
            Err(CatalogError::PrereqCycle { cycle }) => assert_eq!(cycle.len(), 2),
            other => panic!("expected PrereqCycle, got {other:?}"),
        }
    }

    #[test]
    fn cycle_through_or_branch_is_fine() {
        // A requires (B or nothing-else-needed)? Use: B requires A, A requires (B or C), C free.
        let mut b = CatalogBuilder::new();
        b.add_course(
            CourseSpec::new("A", "A")
                .prereq(Expr::Atom(CourseCode::new("B")).or(Expr::Atom(CourseCode::new("C")))),
        );
        b.add_course(CourseSpec::new("B", "B").prereq(Expr::Atom(CourseCode::new("A"))));
        b.add_course(CourseSpec::new("C", "C"));
        // C -> A -> B all takeable despite the A<->B cycle branch.
        assert!(b.build().is_ok());
    }

    #[test]
    fn allow_unreachable_bypasses_cycle_check() {
        let mut b = CatalogBuilder::new();
        b.add_course(CourseSpec::new("A", "A").prereq(Expr::Atom(CourseCode::new("B"))));
        b.add_course(CourseSpec::new("B", "B").prereq(Expr::Atom(CourseCode::new("A"))));
        b.allow_unreachable(true);
        assert!(b.build().is_ok());
    }

    #[test]
    fn capacity_enforced() {
        let mut b = CatalogBuilder::new();
        for i in 0..=CourseSet::CAPACITY {
            b.add_course(CourseSpec::new(format!("C {i}").as_str(), "x"));
        }
        assert!(matches!(
            b.build(),
            Err(CatalogError::TooManyCourses { .. })
        ));
    }
}
