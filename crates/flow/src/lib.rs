//! Max-flow / bipartite-matching substrate for CourseNavigator.
//!
//! The paper's time-based pruning strategy (§4.2.1) computes `left_i` — the
//! minimum number of remaining courses needed to reach the student's goal —
//! "using Ford-Fulkerson max-flow algorithm … introduced in \[3\]"
//! (Parameswaran et al., *Recommendation systems with complex constraints*,
//! TOIS 2011). Degree requirements are modeled as requirement *slots*
//! (e.g. 7 specific core courses + 5 electives chosen from a pool); a course
//! may fill at most one slot, so the number of slots already coverable is a
//! maximum bipartite matching, computable by augmenting-path max-flow.
//!
//! This crate implements the substrate from scratch:
//!
//! - [`FlowNetwork`]: an adjacency-list flow network with residual edges;
//! - [`FlowNetwork::max_flow_edmonds_karp`]: BFS-augmenting Ford–Fulkerson
//!   (Edmonds–Karp), the variant the paper cites;
//! - [`FlowNetwork::max_flow_dinic`]: Dinic's algorithm, used as a faster
//!   production path and as an independent cross-check in tests;
//! - [`matching`]: a Hopcroft–Karp-style bipartite maximum matching with a
//!   simpler Kuhn's-algorithm reference implementation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod matching;
pub mod network;

pub use matching::{max_bipartite_matching, max_bipartite_matching_kuhn, BipartiteGraph};
pub use network::{EdgeId, FlowNetwork, NodeId};
