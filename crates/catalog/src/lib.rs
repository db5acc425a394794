//! Course-information substrate for CourseNavigator.
//!
//! Implements the paper's data model (§2): the course set `C`, each course's
//! prerequisite condition `Q_i` and schedule `S_i`, plus everything the
//! evaluation needs around it:
//!
//! - [`Semester`]/[`Term`]: academic-calendar arithmetic (`s_{i+1} = s_i + 1`);
//! - [`CourseId`]/[`Course`]/[`Catalog`]: interned courses with prerequisite
//!   expressions and offering schedules, built through a validating
//!   [`CatalogBuilder`];
//! - [`CourseSet`]: a fixed-capacity bitset for enrollment states — these are
//!   copied on every learning-graph node, so set algebra must be a handful of
//!   word operations;
//! - [`DegreeRequirement`]: slot-based degree rules ("7 core + 5 electives",
//!   §5.1) with a matching-based minimum-remaining-courses oracle (the
//!   `left_i` of §4.2.1, computed via `coursenav-flow`);
//! - [`OfferingModel`]: per-semester offering probabilities for
//!   reliability-based ranking (§4.3.1);
//! - [`synthetic`]: the seed-driven "Brandeis-like" 38-course catalog
//!   generator used by the experiment harness (see DESIGN.md §3 for the
//!   substitution rationale).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod course;
pub mod degree;
pub mod error;
pub mod offering;
pub mod semester;
pub mod set;
pub mod synthetic;

pub use catalog::{Catalog, CatalogBuilder, CourseSpec};
pub use course::{Course, CourseCode, CourseId, PrereqCondition};
pub use degree::{DegreeProgress, DegreeRequirement, ElectiveProgress};
pub use error::CatalogError;
pub use offering::OfferingModel;
pub use semester::{Semester, Term};
pub use set::CourseSet;
pub use synthetic::{
    DepartmentCatalog, InstitutionConfig, PatternWeights, SyntheticCatalog, SyntheticConfig,
    SyntheticInstitution,
};
