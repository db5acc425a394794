//! The transcript-conditioned advising workload.
//!
//! The paper's introduction opens with an advisor's question: *what should
//! this student take next?* Everything the engine serves elsewhere is
//! catalog-global — the same counts and rankings for every caller — while
//! advising is per-student: a transcript in, impact-ranked next-semester
//! selections and top-k ranked completions out.
//!
//! The key design move is that a personalized query is *not* a new kind of
//! exploration. An [`AdviseRequest`] derives a plain
//! [`ExplorationRequest`] whose start state is the student's enrollment
//! status after their transcript (`start semester + transcript length`,
//! completed = union of the transcript's selections) and whose ranking is
//! the student's interest weights — required to be *suffix-decomposable*
//! ([`RankingSpec::decomposable`]), so the existing transposition tables,
//! [`crate::memo::TranspositionTable`] sharing keys
//! ([`ExplorationRequest::memo_key`] masks exactly the per-student
//! fields), cursors, and snapshot machinery all apply unchanged. A cohort
//! of students advised against one catalog therefore warms — and is
//! answered out of — a single shared memo table.

use std::time::Instant;

use coursenav_catalog::{Catalog, CourseSet, Semester};
use serde::{Deserialize, Serialize};

use crate::cursor::ExplorationCursor;
use crate::impact::LOCAL_TABLE_ENTRIES;
use crate::memo::TranspositionTable;
use crate::ranked::RankedPath;
use crate::request::{ExplorationRequest, GoalSpec, OutputMode, RankingSpec};
use crate::resume::PageSpec;
use crate::service::{ExplorationResponse, NavigatorService, ServiceError, API_VERSION};

/// Per-semester course cap assumed when a request leaves it out (the
/// paper's experiments use 3).
pub const DEFAULT_MAX_PER_SEMESTER: usize = 3;

/// Completions returned when a request leaves `k` out.
pub const DEFAULT_K: usize = 5;

/// A transcript as it crosses the wire: the semester the student started
/// and the course *codes* they elected each semester, in order. An empty
/// inner list is a semester without catalog courses.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub struct TranscriptSpec {
    /// The student's first semester.
    pub start: Semester,
    /// Course codes elected each semester, starting at `start`.
    #[serde(default)]
    pub selections: Vec<Vec<String>>,
}

impl TranscriptSpec {
    /// The semester the student is about to select courses for: one past
    /// the last transcript semester.
    pub fn next_semester(&self) -> Semester {
        self.start + self.selections.len() as i32
    }

    /// Every course code the transcript covers (duplicates preserved;
    /// canonicalization downstream sorts and dedups).
    pub fn completed_codes(&self) -> Vec<String> {
        self.selections.iter().flatten().cloned().collect()
    }
}

/// One complete advising request: the student's transcript, their interest
/// weights, and the exploration frame (deadline, per-semester cap, goal).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub struct AdviseRequest {
    /// The student's transcript, validated by the serving layer against
    /// the tenant's catalog before the engine runs.
    pub transcript: TranscriptSpec,
    /// Interest weights ranking the completions; `None` means
    /// [`RankingSpec::Time`]. Must resolve to a suffix-decomposable
    /// ranking ([`RankingSpec::decomposable`]) so memoized top-k suffix
    /// summaries stay exact.
    #[serde(default)]
    pub interests: Option<RankingSpec>,
    /// The end semester of the advising horizon.
    pub deadline: Semester,
    /// Maximum courses per semester; `None` means
    /// [`DEFAULT_MAX_PER_SEMESTER`].
    #[serde(default)]
    pub max_per_semester: Option<usize>,
    /// Advising goal; `None` means [`GoalSpec::Degree`] — the advising
    /// question is "paths to the degree" unless the student asks
    /// otherwise.
    #[serde(default)]
    pub goal: Option<GoalSpec>,
    /// How many ranked completions to return; `None` means [`DEFAULT_K`].
    #[serde(default)]
    pub k: Option<usize>,
    /// Wall-clock budget in milliseconds; same semantics as
    /// [`ExplorationRequest::budget_ms`].
    #[serde(default)]
    pub budget_ms: Option<u64>,
    /// Completions per page; same semantics as
    /// [`ExplorationRequest::page_size`]. Recommendations are delivered on
    /// the first page only.
    #[serde(default)]
    pub page_size: Option<usize>,
    /// Opaque resume token from a previous truncated page.
    #[serde(default)]
    pub cursor: Option<String>,
    /// Which named catalog this request addresses; same semantics as
    /// [`ExplorationRequest::tenant`].
    #[serde(default)]
    pub tenant: Option<String>,
}

impl AdviseRequest {
    /// A minimal advising request for a transcript and deadline, every
    /// optional knob defaulted.
    pub fn new(transcript: TranscriptSpec, deadline: Semester) -> AdviseRequest {
        AdviseRequest {
            transcript,
            interests: None,
            deadline,
            max_per_semester: None,
            goal: None,
            k: None,
            budget_ms: None,
            page_size: None,
            cursor: None,
            tenant: None,
        }
    }

    /// The effective per-semester cap.
    pub fn max_per_semester(&self) -> usize {
        self.max_per_semester.unwrap_or(DEFAULT_MAX_PER_SEMESTER)
    }

    /// The effective completion count.
    pub fn k(&self) -> usize {
        self.k.unwrap_or(DEFAULT_K)
    }

    /// The effective interest ranking.
    pub fn interest_spec(&self) -> RankingSpec {
        self.interests.clone().unwrap_or(RankingSpec::Time)
    }

    /// The effective advising goal.
    pub fn goal_spec(&self) -> GoalSpec {
        self.goal.clone().unwrap_or(GoalSpec::Degree)
    }

    /// The plain exploration this advising request personalizes: start
    /// state derived from the transcript, interest ranking, top-k output.
    /// Everything downstream — cache identity, memo sharing, cursor
    /// fingerprints — rides this derived request, which is what makes
    /// advising memo-transparent.
    pub fn to_exploration(&self) -> ExplorationRequest {
        let mut req = ExplorationRequest::deadline_count(
            self.transcript.next_semester(),
            self.deadline,
            self.max_per_semester(),
        );
        req.completed = self.transcript.completed_codes();
        req.goal = Some(self.goal_spec());
        req.ranking = Some(self.interest_spec());
        req.output = OutputMode::TopK { k: self.k() };
        req.budget_ms = self.budget_ms;
        req.page_size = self.page_size;
        req.cursor = self.cursor.clone();
        req.tenant = self.tenant.clone();
        req.canonicalize()
    }

    /// Deterministic cache key, namespaced apart from `/v1/explore`
    /// responses (the derived request's key identifies the same underlying
    /// exploration, but the advise response *shape* differs). Students
    /// whose transcripts converge on the same enrollment status share a
    /// key — and an answer.
    pub fn cache_key(&self) -> String {
        format!("advise\n{}", self.to_exploration().cache_key())
    }

    /// The transposition-table sharing key — exactly the derived request's
    /// [`ExplorationRequest::memo_key`], so advising shares tables with
    /// explorations of the same shape and, since that key masks the
    /// per-student fields (start semester, completed set, output,
    /// ranking), a whole cohort shares *one* table per tenant epoch.
    pub fn memo_key(&self) -> String {
        self.to_exploration().memo_key()
    }

    /// Serving-layer degradation clamp; same semantics as
    /// [`ExplorationRequest::apply_degradation`].
    pub fn apply_degradation(&mut self, budget_cap_ms: u64, page_cap: usize) {
        self.budget_ms = Some(
            self.budget_ms
                .map_or(budget_cap_ms, |b| b.min(budget_cap_ms)),
        );
        if let Some(page) = self.page_size {
            self.page_size = Some(page.min(page_cap.max(1)));
        }
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Parses from JSON.
    pub fn from_json(json: &str) -> serde_json::Result<AdviseRequest> {
        serde_json::from_str(json)
    }
}

/// A cohort advising request: many transcripts, one shared exploration
/// frame. The serving layer answers it as NDJSON — one line per student —
/// warming a single `(tenant, epoch)` transposition table that the whole
/// cohort shares (every per-student request derives the same
/// [`AdviseRequest::memo_key`]), so the marginal student costs a table
/// lookup where the first cost an exploration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub struct BatchAdviseRequest {
    /// One transcript per student.
    pub students: Vec<TranscriptSpec>,
    /// Shared interest weights; `None` means [`RankingSpec::Time`].
    #[serde(default)]
    pub interests: Option<RankingSpec>,
    /// The end semester of the advising horizon.
    pub deadline: Semester,
    /// Maximum courses per semester; `None` means
    /// [`DEFAULT_MAX_PER_SEMESTER`].
    #[serde(default)]
    pub max_per_semester: Option<usize>,
    /// Shared advising goal; `None` means [`GoalSpec::Degree`].
    #[serde(default)]
    pub goal: Option<GoalSpec>,
    /// Ranked completions per student; `None` means [`DEFAULT_K`].
    #[serde(default)]
    pub k: Option<usize>,
    /// Wall-clock budget in milliseconds, applied per student.
    #[serde(default)]
    pub budget_ms: Option<u64>,
    /// Which named catalog this cohort addresses.
    #[serde(default)]
    pub tenant: Option<String>,
}

impl BatchAdviseRequest {
    /// The per-student [`AdviseRequest`] for `students[index]` — the
    /// shared frame plus that student's transcript, unpaged. Each derived
    /// request is *exactly* what `POST /v1/advise` would have built for
    /// the same student, which is what makes batch answers byte-identical
    /// to N individual cold requests.
    pub fn student(&self, index: usize) -> AdviseRequest {
        AdviseRequest {
            transcript: self.students[index].clone(),
            interests: self.interests.clone(),
            deadline: self.deadline,
            max_per_semester: self.max_per_semester,
            goal: self.goal.clone(),
            k: self.k,
            budget_ms: self.budget_ms,
            page_size: None,
            cursor: None,
            tenant: self.tenant.clone(),
        }
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Parses from JSON.
    pub fn from_json(json: &str) -> serde_json::Result<BatchAdviseRequest> {
        serde_json::from_str(json)
    }
}

/// The student's derived enrollment status, rendered in the wire
/// vocabulary (course codes, sorted).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub struct StudentStatus {
    /// The semester the student is selecting courses for.
    pub semester: Semester,
    /// Courses completed so far, by code.
    pub completed: Vec<String>,
    /// Courses eligible this semester, by code.
    pub options: Vec<String>,
}

/// One recommended next-semester selection with its downstream effect
/// (the wire rendering of [`crate::SelectionImpact`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub struct Recommendation {
    /// The courses to elect, by code (sorted; empty = wait a semester).
    pub courses: Vec<String>,
    /// Courses eligible next semester after this selection.
    pub options_next_semester: usize,
    /// Learning paths in the subtree this selection opens.
    pub paths: u128,
    /// Goal-satisfying paths in that subtree.
    pub goal_paths: u128,
}

/// The advising answer. Deliberately carries no wall-clock field: two runs
/// over the same catalog — cold, memo-warm, batched, parallel — serialize
/// byte-identically, which is what the cohort determinism guarantee pins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub struct AdviseResponse {
    /// Wire API version ([`API_VERSION`]).
    #[serde(default)]
    pub api_version: u32,
    /// The student's derived enrollment status.
    pub status: StudentStatus,
    /// Name of the ranking that ordered the completions.
    pub ranking: String,
    /// Impact-ranked next-semester selections, best first. Delivered on
    /// the first page only; resumed pages carry an empty list.
    #[serde(default)]
    pub recommendations: Vec<Recommendation>,
    /// Top-k ranked completions, lowest cost first.
    #[serde(default)]
    pub completions: Vec<RankedPath>,
    /// Whether the budget expired (counts are then lower bounds, the
    /// completion list a best-first prefix) or a page boundary was hit.
    #[serde(default)]
    pub truncated: bool,
    /// Resume token for the next completions page. Filled by the serving
    /// layer.
    #[serde(default)]
    pub next_cursor: Option<String>,
}

/// The result of serving one advising page.
#[derive(Debug, Clone)]
pub struct AdviseOutcome {
    /// The page's response; `next_cursor` is left `None` (minting opaque
    /// tokens is the serving layer's job).
    pub response: AdviseResponse,
    /// Where to resume the completions, when more remain.
    pub cursor: Option<ExplorationCursor>,
}

/// Renders a course set as sorted codes.
fn codes_of(catalog: &Catalog, set: &CourseSet) -> Vec<String> {
    let mut codes: Vec<String> = set
        .iter()
        .map(|id| catalog.course(id).code().to_string())
        .collect();
    codes.sort();
    codes
}

impl NavigatorService<'_> {
    /// Services one advising request end to end (budget from the request's
    /// own `budget_ms`, no memo table, sequential). See
    /// [`NavigatorService::advise_until_memo`].
    pub fn advise(&self, req: &AdviseRequest) -> Result<AdviseResponse, ServiceError> {
        let deadline = req
            .budget_ms
            .map(|ms| Instant::now() + std::time::Duration::from_millis(ms));
        Ok(self
            .advise_until_memo(req, None, deadline, 1, None)?
            .response)
    }

    /// Services one advising page: derives the student's enrollment status
    /// from the (already-validated) transcript, ranks every next-semester
    /// selection by downstream impact, and returns the top-k ranked
    /// completions under the interest ranking — all through `table` when
    /// one is given, so cohorts amortize one warm table.
    ///
    /// Paging mirrors `/v1/explore`: `cursor` must come from a previous
    /// page of an equivalent request (the derived request's
    /// [`ExplorationRequest::cache_key`] is the fingerprint). The
    /// recommendations ship on the first page; resumed pages advance the
    /// completions only.
    ///
    /// The interest ranking must be suffix-decomposable; anything else is
    /// [`ServiceError::BadRanking`] — the contract that keeps personalized
    /// answers byte-identical however they were computed.
    pub fn advise_until_memo(
        &self,
        req: &AdviseRequest,
        cursor: Option<&ExplorationCursor>,
        deadline: Option<Instant>,
        parallelism: usize,
        table: Option<&TranspositionTable>,
    ) -> Result<AdviseOutcome, ServiceError> {
        let derived = req.to_exploration();
        let spec = derived
            .ranking
            .clone()
            .expect("derived advising requests always carry a ranking");
        if !spec.decomposable() {
            return Err(ServiceError::BadRanking(
                "advise requires a suffix-decomposable interest ranking \
                 (time, or a positive weighted combination of decomposable \
                 components)"
                    .into(),
            ));
        }
        let ranking = self.resolve_ranking(&spec)?;
        let explorer = self.build_explorer(&derived)?;
        let catalog = explorer.catalog();
        let start = *explorer.start();
        let status = StudentStatus {
            semester: start.semester(),
            completed: codes_of(catalog, start.completed()),
            options: codes_of(catalog, start.options()),
        };

        let mut truncated = false;
        let recommendations = if cursor.is_none() {
            let (impacts, impacts_truncated) = match table {
                Some(table) => explorer.selection_impacts_memo_until(table, deadline),
                None => {
                    let local = TranspositionTable::new(LOCAL_TABLE_ENTRIES);
                    explorer.selection_impacts_memo_until(&local, deadline)
                }
            };
            truncated |= impacts_truncated;
            impacts
                .into_iter()
                .map(|impact| Recommendation {
                    courses: codes_of(catalog, &impact.selection),
                    options_next_semester: impact.options_next_semester,
                    paths: impact.paths,
                    goal_paths: impact.goal_paths,
                })
                .collect()
        } else {
            Vec::new()
        };

        let page = PageSpec {
            cursor,
            size: derived.page_size,
            deadline,
            table,
            parallelism,
        };
        let outcome = self.dispatch(&derived, page, None)?;
        let ExplorationResponse::Ranked {
            paths: completions,
            truncated: completions_truncated,
            ..
        } = outcome.response
        else {
            unreachable!("top-k requests produce rankings")
        };
        truncated |= completions_truncated;

        Ok(AdviseOutcome {
            response: AdviseResponse {
                api_version: API_VERSION,
                status,
                ranking: ranking.name().to_string(),
                recommendations,
                completions,
                truncated,
                next_cursor: None,
            },
            cursor: outcome.cursor,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coursenav_catalog::{CatalogBuilder, CourseSpec, Term};
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
        b.add_course(CourseSpec::new("19A", "D").offered([spring(2012), fall(2012)]));
        b.build().unwrap()
    }

    fn base_request() -> AdviseRequest {
        let mut req = AdviseRequest::new(
            TranscriptSpec {
                start: fall(2011),
                selections: vec![vec!["11A".into()]],
            },
            spring(2013),
        );
        req.goal = Some(GoalSpec::CompleteAll(vec![
            "11A".into(),
            "29A".into(),
            "21A".into(),
        ]));
        req
    }

    #[test]
    fn request_roundtrips_through_json_with_defaults() {
        let req = base_request();
        let back = AdviseRequest::from_json(&req.to_json().unwrap()).unwrap();
        assert_eq!(req, back);
        let minimal = r#"{
            "transcript": {"start": "Fall 2011", "selections": [["11A"]]},
            "deadline": "Fall 2012"
        }"#;
        let req = AdviseRequest::from_json(minimal).unwrap();
        assert_eq!(req.max_per_semester(), DEFAULT_MAX_PER_SEMESTER);
        assert_eq!(req.k(), DEFAULT_K);
        assert_eq!(req.goal_spec(), GoalSpec::Degree);
        assert_eq!(req.interest_spec(), RankingSpec::Time);
    }

    #[test]
    fn derived_request_starts_after_the_transcript() {
        let derived = base_request().to_exploration();
        assert_eq!(derived.start_semester, spring(2012));
        assert_eq!(derived.completed, vec!["11A".to_string()]);
        assert_eq!(derived.output, OutputMode::TopK { k: DEFAULT_K });
        assert_eq!(derived.ranking, Some(RankingSpec::Time));
    }

    #[test]
    fn cohort_students_share_one_memo_key() {
        let a = base_request();
        let mut b = base_request();
        b.transcript.selections = vec![vec!["29A".into(), "11A".into()]];
        let mut c = base_request();
        c.k = Some(9);
        c.interests = Some(RankingSpec::Weighted(vec![(2.0, RankingSpec::Time)]));
        assert_eq!(a.memo_key(), b.memo_key(), "different transcripts share");
        assert_eq!(a.memo_key(), c.memo_key(), "output and interests masked");
        assert_ne!(a.cache_key(), b.cache_key(), "answers stay distinct");
        // The advise cache is namespaced apart from explore responses.
        assert_eq!(
            a.cache_key(),
            format!("advise\n{}", a.to_exploration().cache_key())
        );
    }

    #[test]
    fn batch_students_derive_individual_requests() {
        let batch = BatchAdviseRequest {
            students: vec![
                TranscriptSpec {
                    start: fall(2011),
                    selections: vec![vec!["11A".into()]],
                },
                TranscriptSpec {
                    start: fall(2011),
                    selections: vec![],
                },
            ],
            interests: None,
            deadline: spring(2013),
            max_per_semester: None,
            goal: None,
            k: Some(3),
            budget_ms: None,
            tenant: None,
        };
        let a = batch.student(0);
        assert_eq!(a.transcript, batch.students[0]);
        assert_eq!(a.k(), 3);
        assert!(a.page_size.is_none() && a.cursor.is_none());
        // The whole cohort lands on one transposition table.
        assert_eq!(batch.student(0).memo_key(), batch.student(1).memo_key());
        let back = BatchAdviseRequest::from_json(&batch.to_json().unwrap()).unwrap();
        assert_eq!(batch, back);
    }

    #[test]
    fn advise_reports_status_recommendations_and_completions() {
        let cat = fig3();
        let service = NavigatorService::new(&cat);
        let resp = service.advise(&base_request()).unwrap();
        assert_eq!(resp.api_version, API_VERSION);
        assert_eq!(resp.status.semester, spring(2012));
        assert_eq!(resp.status.completed, vec!["11A".to_string()]);
        assert_eq!(
            resp.status.options,
            vec!["19A".to_string(), "21A".to_string()]
        );
        assert_eq!(resp.ranking, "time");
        assert!(!resp.truncated);
        // Spring 2012 selections: {21A}, {19A}, {19A, 21A} — ranked by how
        // many goal paths each keeps open (21A is the door to the goal).
        assert_eq!(resp.recommendations.len(), 3);
        assert_eq!(resp.recommendations[0].courses, vec!["21A".to_string()]);
        assert!(resp.recommendations[0].goal_paths >= 1);
        for pair in resp.recommendations.windows(2) {
            assert!(pair[0].goal_paths >= pair[1].goal_paths);
        }
        assert!(!resp.completions.is_empty());
        // The completion finishes the goal: 21A then 29A (or in one pass).
        assert!(resp.completions[0].cost >= 1.0);
    }

    #[test]
    fn non_decomposable_interests_are_rejected() {
        let cat = fig3();
        let service = NavigatorService::new(&cat);
        let mut req = base_request();
        req.interests = Some(RankingSpec::Workload);
        assert!(matches!(
            service.advise(&req).unwrap_err(),
            ServiceError::BadRanking(_)
        ));
    }

    #[test]
    fn unknown_codes_surface_as_service_errors() {
        let cat = fig3();
        let service = NavigatorService::new(&cat);
        let mut req = base_request();
        req.transcript.selections = vec![vec!["GHOST 1".into()]];
        assert_eq!(
            service.advise(&req).unwrap_err(),
            ServiceError::UnknownCourse("GHOST 1".into())
        );
    }

    #[test]
    fn warm_advising_is_byte_identical_to_cold() {
        let cat = fig3();
        let service = NavigatorService::new(&cat);
        let req = base_request();
        let table = TranspositionTable::new(1 << 12);
        let cold = service
            .advise_until_memo(&req, None, None, 1, Some(&table))
            .unwrap()
            .response;
        let warm = service
            .advise_until_memo(&req, None, None, 1, Some(&table))
            .unwrap()
            .response;
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&warm).unwrap()
        );
        assert!(table.snapshot().hits > 0, "{:?}", table.snapshot());
        // And both match the table-free answer.
        let bare = service.advise(&req).unwrap();
        assert_eq!(
            serde_json::to_string(&bare).unwrap(),
            serde_json::to_string(&cold).unwrap()
        );
    }

    #[test]
    fn paged_completions_splice_to_the_unpaged_run() {
        let cat = fig3();
        let service = NavigatorService::new(&cat);
        let mut req = base_request();
        req.k = Some(5);
        let unpaged = service.advise(&req).unwrap();

        req.page_size = Some(1);
        let table = TranspositionTable::new(1 << 12);
        let first = service
            .advise_until_memo(&req, None, None, 1, Some(&table))
            .unwrap();
        assert_eq!(first.response.recommendations, unpaged.recommendations);
        let mut all = first.response.completions.clone();
        let mut cursor = first.cursor;
        while let Some(cur) = cursor {
            let page = service
                .advise_until_memo(&req, Some(&cur), None, 1, Some(&table))
                .unwrap();
            assert!(
                page.response.recommendations.is_empty(),
                "recommendations ship on the first page only"
            );
            all.extend(page.response.completions.clone());
            cursor = page.cursor;
        }
        assert_eq!(all, unpaged.completions);
    }

    #[test]
    fn foreign_cursors_are_rejected() {
        let cat = fig3();
        let service = NavigatorService::new(&cat);
        let mut req = base_request();
        req.page_size = Some(1);
        let first = service
            .advise_until_memo(&req, None, None, 1, None)
            .unwrap();
        let cur = first.cursor.expect("k=5 over one page must continue");
        let mut other = req.clone();
        other.k = Some(2);
        assert!(matches!(
            service.advise_until_memo(&other, Some(&cur), None, 1, None),
            Err(ServiceError::InvalidCursor(_))
        ));
    }
}
