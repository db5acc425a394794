//! Learning Path Visualizer (§3, Fig. 2).
//!
//! The paper's front end presents generated learning paths to the student.
//! This crate provides the rendering back-ends a front end needs:
//!
//! - [`dot`]: Graphviz DOT export of a `LearningGraph`, with goal leaves
//!   and pruned nodes styled distinctly;
//! - [`ascii`]: terminal rendering — a semester-by-semester table per path
//!   and compact one-line summaries for path lists;
//! - [`json`]: serde-backed JSON export of graphs and paths for web
//!   front ends.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ascii;
pub mod dot;
pub mod json;

pub use ascii::{render_path, render_path_list};
pub use dot::{graph_to_dot, state_dag_to_dot, DotOptions};
pub use json::{graph_to_json, paths_to_json, JsonGraph, JsonPath};
