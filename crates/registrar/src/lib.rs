//! Registrar back-end for CourseNavigator.
//!
//! The paper's system model (§3, Fig. 2) has a back-end where "the registrar
//! provides all class and degree information which includes the class
//! schedules, course descriptions, and degree requirements", processed by a
//! **Prerequisite Parser** and a **Schedule Parser**. This crate is that
//! back-end:
//!
//! - [`prereq_parser`]: course-description prerequisite text
//!   (`"COSI 21A and (COSI 29A or COSI 12B)"`) → boolean conditions;
//! - [`schedule_parser`]: schedule declarations (explicit semester lists or
//!   patterns like `every fall`) → offering sets;
//! - [`catalog_file`]: the registrar file format tying it together —
//!   courses, degree rules, released-schedule horizon, and historical
//!   offering data — parsed into a validated [`RegistrarData`] bundle;
//! - [`json`]: JSON import/export of catalogs and degree rules for the
//!   front end;
//! - [`sample`]: a bundled Brandeis-like 38-course CS catalog covering the
//!   paper's Fall '12 – Fall '15 academic period (the public stand-in for
//!   the paper's registrar dataset; see DESIGN.md §3).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog_file;
pub mod error;
pub mod json;
pub mod lint;
pub mod prereq_parser;
pub mod sample;
pub mod schedule_parser;
pub mod writer;

pub use catalog_file::{parse_registrar_file, RegistrarData};
pub use error::RegistrarError;
pub use lint::{lint_catalog, LintWarning};
pub use prereq_parser::parse_prereq_text;
pub use sample::brandeis_cs;
pub use schedule_parser::parse_schedule_text;
pub use writer::write_registrar_file;
