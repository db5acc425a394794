//! CourseNavigator core: the learning graph and the three path-generation
//! algorithms of the paper.
//!
//! The paper (§2) models course selection over time as a directed graph
//! whose nodes are *enrollment statuses* — (semester `s_i`, completed
//! courses `X_i`, eligible options `Y_i`) — and whose edges are course
//! selections `W_{i,i+1} ⊆ Y_i` with `|W| ≤ m`. A *learning path* is a
//! maximal root-to-leaf chain of such transitions.
//!
//! This crate implements:
//!
//! - [`EnrollmentStatus`] and the transition rule (`status`);
//! - the selection enumerator with the paper's implicit "wait" semantics
//!   ([`expand`], [`WaitPolicy`]);
//! - [`LearningGraph`], an arena-backed materialization with node budgets
//!   (`graph`) — the budget reproduces the paper's Table 2 "N/A" cells;
//! - **Algorithm 1**, deadline-driven exploration (§4.1), in three modes:
//!   materialize, stream (visitor or lazy iterator), and count
//!   ([`Explorer`]); streaming and counting drive one resumable
//!   depth-first walker ([`PathStream`]), which also serves every count
//!   and collect request, paged or not;
//! - **Algorithm 2**, goal-driven exploration (§4.2) with the time-based and
//!   course-availability pruning strategies as independently toggleable
//!   flags plus per-strategy counters ([`pruning`]);
//! - **Algorithm 3**, ranked top-k exploration by best-first search (§4.3)
//!   generic over monotone [`Ranking`] functions (time / workload /
//!   reliability / weighted composites);
//! - extensions called out in the paper's future work: selection and path
//!   [`filter`]s, a memoized-DAG counting mode ([`dedup`]), and parallel
//!   counting ([`parallel`]);
//! - a status-keyed transposition table ([`memo`]) that folds the
//!   exploration tree into a DAG: per-subtree counts (read and written by
//!   the walker) and, for rankings whose path costs sum exactly on the
//!   catalog (time; workload in whole hours), top-k summaries, shared
//!   across parallel workers and — via the serving layer — across
//!   requests;
//! - resumable exploration sessions: serializable DFS-frontier cursors
//!   ([`cursor`]) and page-at-a-time request servicing with exact
//!   resume semantics ([`resume`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod advise;
pub mod apply;
pub mod astar;
pub mod cursor;
pub mod dedup;
pub mod error;
pub mod expand;
mod expiry;
pub mod explorer;
pub mod filter;
pub mod goal;
pub mod graph;
pub mod impact;
pub mod memo;
pub mod parallel;
pub mod pareto;
pub mod path;
pub mod pruning;
pub mod ranked;
pub mod ranking;
pub mod request;
pub mod resume;
pub mod service;
pub mod stats;
pub mod status;
pub mod stream;
pub mod unique;
pub mod whatif;

pub use advise::{
    AdviseOutcome, AdviseRequest, AdviseResponse, BatchAdviseRequest, Recommendation,
    StudentStatus, TranscriptSpec,
};
pub use apply::Restriction;
pub use astar::{RemainingCostHeuristic, TimeHeuristic, WorkloadHeuristic, ZeroHeuristic};
pub use cursor::{ExplorationCursor, FrameState, SelectionIterState, StreamCursor};
pub use dedup::{StateDag, StateEdge, StateNode};
pub use error::ExploreError;
pub use expand::{SelectionIter, WaitPolicy};
pub use explorer::Explorer;
pub use goal::Goal;
pub use graph::{EdgeId, LearningGraph, NodeId};
pub use impact::SelectionImpact;
pub use memo::{InsertGate, MemoStats, PortableEntry, RankedSuffix, StateKey, TranspositionTable};
pub use pareto::ParetoPath;
pub use path::LeafKind;
pub use path::{Path, PathVisit};
pub use pruning::{PruneConfig, PruneDecision, PruneReason, PruneStats};
pub use ranked::RankedPath;
pub use ranking::{Ranking, ReliabilityRanking, TimeRanking, WeightedRanking, WorkloadRanking};
pub use request::{ExplorationRequest, GoalSpec, OutputMode, RankingSpec};
pub use resume::{PageOutcome, PageSink, StreamedItem};
pub use service::{ExplorationResponse, NavigatorService, ServiceError, API_VERSION};
pub use stats::{ExploreStats, PathCounts};
pub use status::EnrollmentStatus;
pub use stream::PathStream;
pub use unique::{
    DagBuildError, DagNode, DagNodeId, DagNodeKind, Edges, UniqueTable, UniqueTableStats,
};
pub use whatif::{WhatIfDelta, WhatIfOutcome, WhatIfRequest, WhatIfServed};
