//! Catalog construction errors.

use std::fmt;

use crate::course::CourseCode;
use crate::semester::Semester;

/// Error raised while building or validating a [`crate::Catalog`].
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogError {
    /// Two courses share a code.
    DuplicateCode(CourseCode),
    /// The catalog exceeds [`crate::CourseSet::CAPACITY`] courses.
    TooManyCourses {
        /// Courses in the catalog being built.
        count: usize,
        /// The bitset capacity limit.
        capacity: usize,
    },
    /// A prerequisite expression references a course code not in the catalog.
    UnknownPrereq {
        /// The course whose prerequisite condition is broken.
        course: CourseCode,
        /// The referenced-but-undeclared course name.
        missing: String,
    },
    /// A workload was negative or non-finite.
    InvalidWorkload {
        /// The offending course.
        course: CourseCode,
        /// The rejected workload value.
        workload: f64,
    },
    /// The prerequisite relation contains a dependency cycle, so none of the
    /// listed courses can ever be taken.
    PrereqCycle {
        /// The courses that can never become takeable.
        cycle: Vec<CourseCode>,
    },
    /// The schedules span more than [`crate::catalog::MAX_SCHEDULE_SPAN`]
    /// semesters.
    ScheduleSpan {
        /// The earliest scheduled semester.
        first: Semester,
        /// The latest scheduled semester.
        last: Semester,
    },
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::DuplicateCode(code) => write!(f, "duplicate course code {code}"),
            CatalogError::TooManyCourses { count, capacity } => {
                write!(f, "catalog has {count} courses; capacity is {capacity}")
            }
            CatalogError::UnknownPrereq { course, missing } => {
                write!(f, "course {course} lists unknown prerequisite {missing:?}")
            }
            CatalogError::InvalidWorkload { course, workload } => {
                write!(f, "course {course} has invalid workload {workload}")
            }
            CatalogError::PrereqCycle { cycle } => {
                write!(f, "prerequisite cycle: ")?;
                for (i, code) in cycle.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{code}")?;
                }
                Ok(())
            }
            CatalogError::ScheduleSpan { first, last } => write!(
                f,
                "schedules span {first} to {last}, more than {} semesters",
                crate::catalog::MAX_SCHEDULE_SPAN
            ),
        }
    }
}

impl std::error::Error for CatalogError {}
