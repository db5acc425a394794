//! The CourseNavigator service: request in, learning paths out (§3).
//!
//! [`NavigatorService`] is the back-end entry point of the paper's system
//! model: configured once with the registrar-derived data (catalog, degree
//! requirement, offering history), it accepts front-end
//! [`ExplorationRequest`]s, resolves course codes, builds the matching
//! [`Explorer`], dispatches to the right algorithm, and returns a
//! serializable [`ExplorationResponse`] for the Learning Path Visualizer.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use coursenav_catalog::{Catalog, CourseCode, CourseSet, DegreeRequirement, OfferingModel};
use coursenav_prereq::parse_expr;
use serde::{Deserialize, Serialize};

use crate::error::ExploreError;
use crate::explorer::Explorer;
use crate::filter::{AvoidCourses, MaxSemesterWorkload};
use crate::goal::Goal;
use crate::memo::TranspositionTable;
use crate::path::Path;
use crate::ranked::RankedPath;
use crate::ranking::{Ranking, ReliabilityRanking, TimeRanking, WeightedRanking, WorkloadRanking};
use crate::request::{ExplorationRequest, GoalSpec, RankingSpec};
use crate::resume::PageSpec;
use crate::stats::ExploreStats;
use crate::status::EnrollmentStatus;

/// Error raised while servicing a request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// A course code in the request is not in the catalog.
    UnknownCourse(String),
    /// The goal expression failed to parse or referenced unknown courses.
    BadGoalExpression(String),
    /// `GoalSpec::Degree` was requested but the service has no degree rule.
    NoDegreeConfigured,
    /// `RankingSpec::Reliability` was requested but the service has no
    /// offering history.
    NoOfferingModelConfigured,
    /// `OutputMode::TopK` without a ranking, or a malformed weighted spec.
    BadRanking(String),
    /// The request's resume cursor is malformed, forged, or belongs to a
    /// different request.
    InvalidCursor(String),
    /// The underlying exploration request was invalid.
    Explore(ExploreError),
}

impl ServiceError {
    /// Stable kebab-case error code for the wire API. Codes are part of
    /// the v1 contract: clients dispatch on them, so they never change
    /// even when the human-readable message does.
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::UnknownCourse(_) => "unknown-course",
            ServiceError::BadGoalExpression(_) => "bad-goal-expression",
            ServiceError::NoDegreeConfigured => "no-degree-configured",
            ServiceError::NoOfferingModelConfigured => "no-offering-model-configured",
            ServiceError::BadRanking(_) => "bad-ranking",
            ServiceError::InvalidCursor(_) => "invalid-cursor",
            ServiceError::Explore(ExploreError::BudgetExceeded { .. }) => "state-budget",
            ServiceError::Explore(ExploreError::InvalidRequest(_)) => "invalid-request",
            ServiceError::Explore(ExploreError::InvalidCursor(_)) => "invalid-cursor",
        }
    }

    /// Whether retrying the identical request could succeed. Most service
    /// errors are deterministic request defects; a `state-budget` overflow
    /// is the exception — the server may have more headroom later (a
    /// larger configured budget, a warmer table), so clients may retry it.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            ServiceError::Explore(ExploreError::BudgetExceeded { .. })
        )
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownCourse(code) => write!(f, "unknown course {code:?}"),
            ServiceError::BadGoalExpression(msg) => write!(f, "bad goal expression: {msg}"),
            ServiceError::NoDegreeConfigured => {
                write!(f, "request asks for the degree goal but none is configured")
            }
            ServiceError::NoOfferingModelConfigured => {
                write!(f, "reliability ranking requires offering history")
            }
            ServiceError::BadRanking(msg) => write!(f, "bad ranking: {msg}"),
            ServiceError::InvalidCursor(msg) => write!(f, "invalid cursor: {msg}"),
            ServiceError::Explore(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ExploreError> for ServiceError {
    fn from(err: ExploreError) -> ServiceError {
        ServiceError::Explore(err)
    }
}

/// The wire API version stamped into every [`ExplorationResponse`].
pub const API_VERSION: u32 = 1;

/// The service's answer, ready for the visualizer (serializable).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum ExplorationResponse {
    /// `OutputMode::Count` result.
    Counts {
        /// Wire API version ([`API_VERSION`]).
        #[serde(default)]
        api_version: u32,
        /// Maximal paths explored. Cumulative across resumed pages.
        total_paths: u128,
        /// Goal-satisfying paths found. Cumulative across resumed pages.
        goal_paths: u128,
        /// Exploration counters.
        stats: ExploreStats,
        /// Whether the wall-clock budget expired before the count finished
        /// (the counts are then lower bounds).
        #[serde(default)]
        truncated: bool,
        /// Resume token for the next page, when the exploration stopped
        /// early and a cursor was retained. Filled by the serving layer.
        #[serde(default)]
        next_cursor: Option<String>,
        /// Wall-clock time spent servicing the request.
        millis: u128,
    },
    /// `OutputMode::Collect` result: up to `limit` paths plus whether more
    /// exist beyond the limit.
    Paths {
        /// Wire API version ([`API_VERSION`]).
        #[serde(default)]
        api_version: u32,
        /// The materialized paths (goal paths for goal-driven runs).
        paths: Vec<Path>,
        /// Whether more paths exist beyond the requested limit or page, or
        /// the wall-clock budget expired before the collection finished.
        truncated: bool,
        /// Resume token for the next page, when the exploration stopped
        /// early and a cursor was retained. Filled by the serving layer.
        #[serde(default)]
        next_cursor: Option<String>,
        /// Wall-clock time spent servicing the request.
        millis: u128,
    },
    /// `OutputMode::TopK` result, lowest cost first.
    Ranked {
        /// Wire API version ([`API_VERSION`]).
        #[serde(default)]
        api_version: u32,
        /// Name of the ranking that ordered the paths.
        ranking: String,
        /// The top-k paths, lowest cost first.
        paths: Vec<RankedPath>,
        /// Whether the wall-clock budget expired before `k` paths were
        /// found (the returned prefix is still best-first-correct).
        #[serde(default)]
        truncated: bool,
        /// Resume token for the next page, when the exploration stopped
        /// early and a cursor was retained. Filled by the serving layer.
        #[serde(default)]
        next_cursor: Option<String>,
        /// Wall-clock time spent servicing the request.
        millis: u128,
    },
}

impl ExplorationResponse {
    /// The response's truncation marker: whether the exploration stopped
    /// early (output limit reached, page filled, or wall-clock budget
    /// expired).
    pub fn truncated(&self) -> bool {
        match self {
            ExplorationResponse::Counts { truncated, .. }
            | ExplorationResponse::Paths { truncated, .. }
            | ExplorationResponse::Ranked { truncated, .. } => *truncated,
        }
    }

    /// The resume token for the next page, if one was issued.
    pub fn next_cursor(&self) -> Option<&str> {
        match self {
            ExplorationResponse::Counts { next_cursor, .. }
            | ExplorationResponse::Paths { next_cursor, .. }
            | ExplorationResponse::Ranked { next_cursor, .. } => next_cursor.as_deref(),
        }
    }

    /// Sets the resume token (the serving layer calls this after storing
    /// the page's cursor in its session store).
    pub fn set_next_cursor(&mut self, token: Option<String>) {
        match self {
            ExplorationResponse::Counts { next_cursor, .. }
            | ExplorationResponse::Paths { next_cursor, .. }
            | ExplorationResponse::Ranked { next_cursor, .. } => *next_cursor = token,
        }
    }
}

/// The configured back end.
pub struct NavigatorService<'a> {
    catalog: &'a Catalog,
    degree: Option<&'a DegreeRequirement>,
    offering: Option<&'a OfferingModel>,
}

impl<'a> NavigatorService<'a> {
    /// A service over a catalog alone (no degree rule, no history).
    pub fn new(catalog: &'a Catalog) -> NavigatorService<'a> {
        NavigatorService {
            catalog,
            degree: None,
            offering: None,
        }
    }

    /// Configures the degree requirement behind [`GoalSpec::Degree`].
    pub fn with_degree(mut self, degree: &'a DegreeRequirement) -> Self {
        self.degree = Some(degree);
        self
    }

    /// Configures the offering history behind [`RankingSpec::Reliability`].
    pub fn with_offering_model(mut self, offering: &'a OfferingModel) -> Self {
        self.offering = Some(offering);
        self
    }

    pub(crate) fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    pub(crate) fn resolve_codes(&self, codes: &[String]) -> Result<CourseSet, ServiceError> {
        codes
            .iter()
            .map(|raw| {
                self.catalog
                    .id_of(&CourseCode::new(raw))
                    .ok_or_else(|| ServiceError::UnknownCourse(raw.clone()))
            })
            .collect()
    }

    fn resolve_goal(&self, spec: &GoalSpec) -> Result<Goal, ServiceError> {
        match spec {
            GoalSpec::CompleteAll(codes) => Ok(Goal::complete_all(self.resolve_codes(codes)?)),
            GoalSpec::Expression(text) => {
                let expr = parse_expr(text, |name| self.catalog.id_of_str(name))
                    .map_err(|e| ServiceError::BadGoalExpression(e.to_string()))?;
                Ok(Goal::courses(expr))
            }
            GoalSpec::Degree => self
                .degree
                .map(|d| Goal::degree(d.clone()))
                .ok_or(ServiceError::NoDegreeConfigured),
        }
    }

    pub(crate) fn resolve_ranking(
        &self,
        spec: &RankingSpec,
    ) -> Result<Arc<dyn Ranking + 'a>, ServiceError> {
        match spec {
            RankingSpec::Time => Ok(Arc::new(TimeRanking)),
            RankingSpec::Workload => Ok(Arc::new(WorkloadRanking)),
            RankingSpec::Reliability => {
                let model = self
                    .offering
                    .ok_or(ServiceError::NoOfferingModelConfigured)?;
                Ok(Arc::new(ReliabilityRanking::new(model)))
            }
            RankingSpec::Weighted(parts) => {
                if parts.is_empty() {
                    return Err(ServiceError::BadRanking("empty weighted ranking".into()));
                }
                let mut combined = WeightedRanking::new();
                for (weight, inner) in parts {
                    if !weight.is_finite() || *weight < 0.0 {
                        return Err(ServiceError::BadRanking(format!(
                            "weight {weight} must be finite and non-negative"
                        )));
                    }
                    let inner: Arc<dyn Ranking + 'a> = self.resolve_ranking(inner)?;
                    combined = combined.with(*weight, inner);
                }
                Ok(Arc::new(combined))
            }
        }
    }

    /// Builds the [`Explorer`] a request describes without running it —
    /// useful when the caller wants streaming access.
    pub fn build_explorer(&self, req: &ExplorationRequest) -> Result<Explorer<'a>, ServiceError> {
        let completed = self.resolve_codes(&req.completed)?;
        let start = EnrollmentStatus::new(self.catalog, req.start_semester, completed);
        let mut explorer = match &req.goal {
            None => {
                Explorer::deadline_driven(self.catalog, start, req.deadline, req.max_per_semester)?
            }
            Some(spec) => {
                let goal = self.resolve_goal(spec)?;
                Explorer::goal_driven(
                    self.catalog,
                    start,
                    req.deadline,
                    req.max_per_semester,
                    goal,
                )?
                .with_prune(req.pruning)
            }
        };
        explorer = explorer.with_wait_policy(req.wait_policy);
        if !req.avoid.is_empty() {
            let avoid = self.resolve_codes(&req.avoid)?;
            explorer = explorer.with_filter(Arc::new(AvoidCourses(avoid)));
        }
        if let Some(cap) = req.max_semester_workload {
            explorer = explorer.with_filter(Arc::new(MaxSemesterWorkload(cap)));
        }
        Ok(explorer)
    }

    /// Services one request end to end, sequentially and without a memo
    /// table. A request with a `budget_ms` is given that wall-clock budget
    /// from this call's entry; see [`NavigatorService::run_until_memo`].
    pub fn run(&self, req: &ExplorationRequest) -> Result<ExplorationResponse, ServiceError> {
        let deadline = req
            .budget_ms
            .map(|ms| Instant::now() + std::time::Duration::from_millis(ms));
        self.run_until_memo(req, deadline, 1, None)
    }

    /// Services one request end to end: the one unpaged dispatch.
    ///
    /// The run stops at `deadline` if the exploration is still running
    /// when it passes. A deadline-stopped response carries whatever was
    /// produced so far with its `truncated` marker set: partial counts are
    /// lower bounds, and a partial top-k is a correct best-first prefix.
    /// An explicit `deadline` overrides the request's own `budget_ms` (the
    /// serving layer passes its per-request deadline here).
    ///
    /// `parallelism > 1` fans the first-level subtrees of a count across
    /// that many scoped worker threads; every other mode runs on one.
    /// With a `table`, whole subtrees already in it are answered from it
    /// instead of being re-explored, and newly-explored subtrees are
    /// inserted for the next run; `None` walks every subtree. Every combination answers
    /// byte-identically — same counts, same paths, same order,
    /// bit-identical costs, same *logical* statistics (memo hits replay the
    /// cached subtree's counters, so the §5.2 pruning breakdown is stable
    /// warm or cold) — so the serving layer caches them under one
    /// canonical key.
    ///
    /// Routing: this is the paged dispatch run as one page with no cursor
    /// and no page size. Count and collect step the one depth-first walker
    /// — a count through the table when there is one, fanned out when
    /// `parallelism > 1`; a collect never reads the table and never fans
    /// out, since its output limit bounds its work. Top-k never fans out:
    /// it uses cached suffix summaries only when every path cost sums
    /// exactly on the catalog ([`RankingSpec::memoizable`]: time and its
    /// positive weighted forms, and workload on whole-hour catalogs), so
    /// the memo's bottom-up sums equal the search's, and the un-memoized
    /// best-first search otherwise — or when the deadline expires
    /// mid-computation, so a deadline-bound response is always a correct
    /// best-first prefix.
    /// An already-expired deadline yields an empty, truncated answer.
    pub fn run_until_memo(
        &self,
        req: &ExplorationRequest,
        deadline: Option<Instant>,
        parallelism: usize,
        table: Option<&TranspositionTable>,
    ) -> Result<ExplorationResponse, ServiceError> {
        let page = PageSpec {
            cursor: None,
            size: None,
            deadline,
            table,
            parallelism,
        };
        Ok(self.dispatch(req, page, None)?.response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::OutputMode;
    use coursenav_catalog::{CatalogBuilder, CourseSpec, Semester, Term};
    use coursenav_prereq::Expr;

    fn fall(y: i32) -> Semester {
        Semester::new(y, Term::Fall)
    }

    fn spring(y: i32) -> Semester {
        Semester::new(y, Term::Spring)
    }

    fn fig3() -> Catalog {
        let mut b = CatalogBuilder::new();
        b.add_course(CourseSpec::new("11A", "A").offered([fall(2011), fall(2012)]));
        b.add_course(CourseSpec::new("29A", "B").offered([fall(2011), fall(2012)]));
        b.add_course(
            CourseSpec::new("21A", "C")
                .prereq(Expr::Atom("11A".into()))
                .offered([spring(2012)]),
        );
        b.build().unwrap()
    }

    fn base_request() -> ExplorationRequest {
        ExplorationRequest::deadline_count(fall(2011), spring(2013), 3)
    }

    #[test]
    fn count_request_matches_direct_exploration() {
        let cat = fig3();
        let service = NavigatorService::new(&cat);
        match service.run(&base_request()).unwrap() {
            ExplorationResponse::Counts { total_paths, .. } => assert_eq!(total_paths, 3),
            other => panic!("expected Counts, got {other:?}"),
        }
    }

    #[test]
    fn collect_truncates_and_reports() {
        let cat = fig3();
        let service = NavigatorService::new(&cat);
        let mut req = base_request();
        req.output = OutputMode::Collect { limit: 2 };
        match service.run(&req).unwrap() {
            ExplorationResponse::Paths {
                paths, truncated, ..
            } => {
                assert_eq!(paths.len(), 2);
                assert!(truncated);
            }
            other => panic!("expected Paths, got {other:?}"),
        }
    }

    #[test]
    fn goal_expression_resolves_codes() {
        let cat = fig3();
        let service = NavigatorService::new(&cat);
        let mut req = base_request();
        req.deadline = fall(2012);
        req.goal = Some(GoalSpec::Expression("11A and 29A and 21A".into()));
        req.output = OutputMode::Collect { limit: 10 };
        match service.run(&req).unwrap() {
            ExplorationResponse::Paths { paths, .. } => {
                assert_eq!(paths.len(), 1, "the §4.2.3 single goal path");
            }
            other => panic!("expected Paths, got {other:?}"),
        }
    }

    #[test]
    fn top_k_with_weighted_ranking() {
        let cat = fig3();
        let service = NavigatorService::new(&cat);
        let mut req = base_request();
        req.goal = Some(GoalSpec::CompleteAll(vec![
            "11A".into(),
            "29A".into(),
            "21A".into(),
        ]));
        req.ranking = Some(RankingSpec::Weighted(vec![
            (1.0, RankingSpec::Time),
            (0.0, RankingSpec::Workload),
        ]));
        req.output = OutputMode::TopK { k: 1 };
        match service.run(&req).unwrap() {
            ExplorationResponse::Ranked { ranking, paths, .. } => {
                assert_eq!(ranking, "weighted");
                assert_eq!(paths.len(), 1);
                assert_eq!(paths[0].cost, 2.0);
            }
            other => panic!("expected Ranked, got {other:?}"),
        }
    }

    #[test]
    fn completed_courses_shift_the_start_state() {
        let cat = fig3();
        let service = NavigatorService::new(&cat);
        let mut req = base_request();
        req.start_semester = spring(2012);
        req.completed = vec!["11A".into(), "29A".into()];
        req.goal = Some(GoalSpec::CompleteAll(vec!["21A".into()]));
        req.deadline = fall(2012);
        req.output = OutputMode::Collect { limit: 10 };
        match service.run(&req).unwrap() {
            ExplorationResponse::Paths { paths, .. } => {
                assert_eq!(paths.len(), 1);
                assert_eq!(paths[0].len(), 1, "take 21A immediately");
            }
            other => panic!("expected Paths, got {other:?}"),
        }
    }

    #[test]
    fn avoid_filter_applies() {
        let cat = fig3();
        let service = NavigatorService::new(&cat);
        let mut req = base_request();
        req.avoid = vec!["29A".into()];
        match service.run(&req).unwrap() {
            ExplorationResponse::Counts { total_paths, .. } => {
                assert!(total_paths < 3, "29A branches removed");
            }
            other => panic!("expected Counts, got {other:?}"),
        }
    }

    #[test]
    fn errors_are_specific() {
        let cat = fig3();
        let service = NavigatorService::new(&cat);

        let mut req = base_request();
        req.completed = vec!["GHOST 1".into()];
        assert_eq!(
            service.run(&req).unwrap_err(),
            ServiceError::UnknownCourse("GHOST 1".into())
        );

        let mut req = base_request();
        req.goal = Some(GoalSpec::Degree);
        assert_eq!(
            service.run(&req).unwrap_err(),
            ServiceError::NoDegreeConfigured
        );

        let mut req = base_request();
        req.goal = Some(GoalSpec::Expression("11A and (".into()));
        assert!(matches!(
            service.run(&req).unwrap_err(),
            ServiceError::BadGoalExpression(_)
        ));

        let mut req = base_request();
        req.goal = Some(GoalSpec::CompleteAll(vec!["11A".into()]));
        req.output = OutputMode::TopK { k: 3 };
        assert!(matches!(
            service.run(&req).unwrap_err(),
            ServiceError::BadRanking(_)
        ));

        let mut req = base_request();
        req.goal = Some(GoalSpec::CompleteAll(vec!["11A".into()]));
        req.output = OutputMode::TopK { k: 3 };
        req.ranking = Some(RankingSpec::Reliability);
        assert_eq!(
            service.run(&req).unwrap_err(),
            ServiceError::NoOfferingModelConfigured
        );
    }

    #[test]
    fn horizons_past_the_bound_are_invalid_requests() {
        let cat = fig3();
        let service = NavigatorService::new(&cat);
        let bound = crate::explorer::MAX_HORIZON_SEMESTERS as i32;
        for goal in [None, Some(GoalSpec::CompleteAll(vec!["11A".into()]))] {
            let mut req = base_request();
            req.goal = goal;
            // Nothing is offered after Fall 2012, so even the longest
            // horizon's tree is small.
            req.deadline = req.start_semester + bound;
            assert!(service.run(&req).is_ok(), "{req:?}");
            // One semester more, and a deadline whose per-semester tables
            // alone would take about 150 GB.
            for deadline in [
                req.start_semester + (bound + 1),
                "Fall 1000000000".parse().unwrap(),
            ] {
                req.deadline = deadline;
                let err = service.run(&req).unwrap_err();
                assert!(
                    matches!(err, ServiceError::Explore(ExploreError::InvalidRequest(_))),
                    "{err:?}"
                );
                assert_eq!(err.code(), "invalid-request");
            }
        }
    }

    #[test]
    fn expired_deadline_truncates_every_output_mode() {
        let cat = fig3();
        let service = NavigatorService::new(&cat);
        let past = Some(Instant::now());

        match service
            .run_until_memo(&base_request(), past, 1, None)
            .unwrap()
        {
            ExplorationResponse::Counts {
                total_paths,
                truncated,
                ..
            } => {
                assert!(truncated);
                assert_eq!(total_paths, 0);
            }
            other => panic!("expected Counts, got {other:?}"),
        }

        let mut req = base_request();
        req.output = OutputMode::Collect { limit: 10 };
        let resp = service.run_until_memo(&req, past, 1, None).unwrap();
        assert!(resp.truncated());

        let mut req = base_request();
        req.goal = Some(GoalSpec::CompleteAll(vec!["11A".into()]));
        req.ranking = Some(RankingSpec::Time);
        req.output = OutputMode::TopK { k: 5 };
        let resp = service.run_until_memo(&req, past, 1, None).unwrap();
        assert!(resp.truncated());

        // A generous budget on the same request runs to completion.
        req.budget_ms = Some(60_000);
        let resp = service.run(&req).unwrap();
        assert!(!resp.truncated());
    }

    /// One rule for an already-expired deadline: a count answers 0 paths,
    /// truncated — with a table or without, sequential or fanned out, at a
    /// root that is a leaf or one that branches.
    #[test]
    fn expired_deadline_counts_nothing_everywhere() {
        let cat = fig3();
        let service = NavigatorService::new(&cat);
        let leaf_root = ExplorationRequest::deadline_count(fall(2011), fall(2011), 3);
        for req in [leaf_root, base_request()] {
            for parallelism in [1, 2] {
                let table = TranspositionTable::new(1 << 10);
                for table in [None, Some(&table)] {
                    let past = Some(Instant::now());
                    match service.run_until_memo(&req, past, parallelism, table) {
                        Ok(ExplorationResponse::Counts {
                            total_paths,
                            goal_paths,
                            truncated,
                            ..
                        }) => {
                            let case = (req.deadline, parallelism, table.is_some());
                            assert_eq!((total_paths, goal_paths), (0, 0), "{case:?}");
                            assert!(truncated, "{case:?}");
                        }
                        other => panic!("expected Counts, got {other:?}"),
                    }
                }
            }
        }
    }

    /// A collect's limit cuts the depth-first order at any parallelism:
    /// the limited prefix is the walk's prefix, truncated exactly when
    /// more paths exist.
    #[test]
    fn collect_respects_the_limit() {
        use coursenav_catalog::{SyntheticCatalog, SyntheticConfig};
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let start = EnrollmentStatus::fresh(&synth.catalog, synth.start);
        let e = Explorer::deadline_driven(&synth.catalog, start, synth.start + 3, 2).unwrap();
        let service = NavigatorService::new(&synth.catalog);
        let collect = |limit| {
            let mut req = ExplorationRequest::deadline_count(synth.start, synth.start + 3, 2);
            req.output = OutputMode::Collect { limit };
            match service.run_until_memo(&req, None, 4, None) {
                Ok(ExplorationResponse::Paths {
                    paths, truncated, ..
                }) => (paths, truncated),
                other => panic!("expected Paths, got {other:?}"),
            }
        };
        let all = e.collect_paths();
        assert!(all.len() > 5, "need enough paths to truncate");
        let (par, truncated) = collect(5);
        assert!(truncated, "more paths exist beyond the limit");
        assert_eq!(par, all[..5], "the limited prefix is the DFS prefix");
        // Exactly at the boundary: everything fits, no truncation.
        let (par, truncated) = collect(all.len());
        assert!(!truncated);
        assert_eq!(par.len(), all.len());
    }

    /// Unpaged collect is served by the walker without a table: handing
    /// it a table changes neither the answer nor the table, at any
    /// parallelism, goal-driven or deadline-driven, limited or not.
    #[test]
    fn collect_leaves_the_table_alone() {
        use coursenav_catalog::{SyntheticCatalog, SyntheticConfig};
        let synth = SyntheticCatalog::generate(&SyntheticConfig::small());
        let service = NavigatorService::new(&synth.catalog).with_degree(&synth.degree);
        let goal = |limit| {
            ExplorationRequest::degree_paths(
                synth.start,
                synth.start + 4,
                2,
                OutputMode::Collect { limit },
            )
        };
        let mut deadline = ExplorationRequest::deadline_count(synth.start, synth.start + 3, 2);
        deadline.output = OutputMode::Collect { limit: 1000 };
        for req in [goal(usize::MAX), goal(3), deadline] {
            for parallelism in [1, 2] {
                let paths = |table: Option<&TranspositionTable>| match service.run_until_memo(
                    &req,
                    None,
                    parallelism,
                    table,
                ) {
                    Ok(ExplorationResponse::Paths {
                        paths, truncated, ..
                    }) => (paths, truncated),
                    other => panic!("expected Paths, got {other:?}"),
                };
                let table = TranspositionTable::new(1 << 16);
                let plain = paths(None);
                assert!(!plain.0.is_empty());
                assert_eq!(paths(Some(&table)), plain, "parallelism={parallelism}");
                let snap = table.snapshot();
                assert_eq!(
                    (snap.hits, snap.misses, snap.inserts),
                    (0, 0, 0),
                    "parallelism={parallelism}"
                );
            }
        }
    }

    #[test]
    fn response_serializes() {
        let cat = fig3();
        let service = NavigatorService::new(&cat);
        let resp = service.run(&base_request()).unwrap();
        let json = serde_json::to_string(&resp).unwrap();
        assert!(json.contains("total-paths") || json.contains("counts"));
    }
}
