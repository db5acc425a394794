//! The CourseNavigator serving benchmark.
//!
//! One runner, `coursenav-bench`, starts a [`coursenav_server::Server`]
//! in-process and drives it over loopback HTTP/1.1 with four seeded
//! workloads (see `BENCHMARK.md` beside this crate for why each was
//! chosen). The [`harness`] module holds everything the runner needs:
//! script generation, the keep-alive client, the closed-loop load generator,
//! the correctness oracles, the traced in-process replay that attributes
//! time to layers, and the metric table the report and `BENCHMARK.json`
//! are both generated from.

pub mod harness;
