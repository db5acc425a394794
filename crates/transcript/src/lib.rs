//! Student-transcript simulation and the containment experiment.
//!
//! The paper's §5.2 "Comparison with Existing Learning Paths" experiment
//! took 83 anonymized transcripts from the Brandeis registrar, rebuilt the
//! learning paths CS students actually followed (Fall '12 – Fall '15), and
//! verified that *every* actual path appears among the 41.5 M goal-driven
//! paths the system generates. Real transcripts are not public, so this
//! crate simulates them (DESIGN.md §3):
//!
//! - [`policy`]: pluggable student course-selection policies (greedy-core,
//!   random-valid, workload-averse) that behave like plausible students;
//! - [`simulator`]: drives a policy semester by semester to produce a
//!   [`Transcript`];
//! - [`containment`]: the membership predicate deciding whether a
//!   transcript's path is one of the paths the goal-driven algorithm
//!   generates — without enumerating the 10⁷-path set. On small instances,
//!   tests prove the predicate equals literal membership in the enumerated
//!   path set.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod containment;
pub mod policy;
pub mod simulator;
pub mod transcript;

pub use containment::{check_containment, ContainmentError};
pub use policy::{
    GreedyCorePolicy, ProcrastinatorPolicy, RandomValidPolicy, SelectionPolicy,
    WorkloadAversePolicy,
};
pub use simulator::TranscriptSimulator;
pub use transcript::{Transcript, TranscriptError};
