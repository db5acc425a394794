//! The benchmark harness behind `coursenav-bench`.
//!
//! - [`workloads`]: the four workloads, their catalogs and seeded scripts;
//! - [`script`]: the script data model (units that stay on a connection);
//! - [`client`] and [`wire`]: the keep-alive client and the closed-loop
//!   load generator of the measured window;
//! - [`oracle`]: correctness checks against fresh engine answers;
//! - [`trace`]: the traced in-process replay and its self-time accounting;
//! - [`stats`]: percentiles (nearest rank, ten samples beyond) and
//!   run-to-run quartiles;
//! - [`report`]: the metric table, result line and `BENCHMARK.json`;
//! - [`run`]: one wire run or one traced run of one workload;
//! - [`cpu`]: pinning the process to one CPU.

pub mod client;
pub mod cpu;
pub mod oracle;
pub mod report;
pub mod rng;
pub mod run;
pub mod script;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workloads;
