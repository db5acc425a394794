//! CourseNavigator — interactive learning-path exploration.
//!
//! Facade crate re-exporting the full public API. See the crate-level
//! documentation of each member for details:
//!
//! - [`catalog`]: courses, semesters, schedules, degree requirements;
//! - [`prereq`]: boolean prerequisite/goal expressions;
//! - [`flow`]: max-flow / bipartite-matching substrate;
//! - [`registrar`]: registrar text-format parsers and bundled sample data;
//! - [`navigator`]: the learning graph and the three path-generation
//!   algorithms (deadline-driven, goal-driven, ranked);
//! - [`transcript`]: student transcript simulation and containment checks;
//! - [`viz`]: DOT / ASCII / JSON visualization of learning graphs and paths.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;

pub use coursenav_catalog as catalog;
pub use coursenav_flow as flow;
pub use coursenav_navigator as navigator;
pub use coursenav_prereq as prereq;
pub use coursenav_registrar as registrar;
pub use coursenav_transcript as transcript;
pub use coursenav_viz as viz;
