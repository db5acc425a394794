//! The front-end exploration request (§3, Fig. 2).
//!
//! "Initially, the student provides the exploration parameters through the
//! front-end interface. These parameters include the student's enrollment
//! status and his desired exploration goal (e.g., graduation semester, a
//! set of desired courses), constraints (e.g., maximum number of courses to
//! take per semester, courses to avoid), and preferred ranking for the
//! output learning paths (e.g., shortest)."
//!
//! [`ExplorationRequest`] is that parameter bundle, fully serializable so a
//! web front end can POST it as JSON. Course references are *codes* (the
//! student-facing vocabulary); [`crate::service::NavigatorService`] resolves
//! them against its catalog and builds the corresponding [`crate::Explorer`].

use coursenav_catalog::{Catalog, Semester};
use serde::{Deserialize, Serialize};

use crate::expand::WaitPolicy;
use crate::pruning::PruneConfig;

/// The student's desired exploration goal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum GoalSpec {
    /// Complete every listed course (by code).
    CompleteAll(Vec<String>),
    /// Satisfy a boolean expression over course codes, in the registrar
    /// grammar: `"COSI 21A and (COSI 29A or COSI 12B)"`.
    Expression(String),
    /// Satisfy the degree requirement the service was configured with
    /// (e.g. "the CS major").
    Degree,
}

/// The student's preferred ranking for the output paths (§4.3.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum RankingSpec {
    /// Fewest semesters to the goal.
    Time,
    /// Lightest total workload.
    Workload,
    /// Highest probability that every elected course is actually offered.
    Reliability,
    /// A non-negative weighted combination of other rankings.
    Weighted(Vec<(f64, RankingSpec)>),
}

impl RankingSpec {
    /// The canonical form of this ranking: zero-weight components dropped,
    /// the remaining weights scaled so the largest is 1, components sorted,
    /// and nested weighted rankings canonicalized recursively. Semantically
    /// equivalent rankings (same ordering over paths) map to the same
    /// canonical form, which is what makes response caching effective.
    /// Scaling by the maximum rather than the sum keeps canonicalization
    /// exactly idempotent: the second pass divides by 1.0, a bit-exact
    /// no-op, where re-dividing by a float sum that landed near 1 would
    /// perturb low bits.
    pub fn canonicalized(&self) -> RankingSpec {
        match self {
            RankingSpec::Weighted(parts) => {
                let mut kept: Vec<(f64, RankingSpec)> = parts
                    .iter()
                    .filter(|(weight, _)| *weight != 0.0)
                    .map(|(weight, inner)| (*weight, inner.canonicalized()))
                    .collect();
                let max = kept.iter().map(|(weight, _)| *weight).fold(0.0, f64::max);
                if max.is_finite() && max > 0.0 {
                    for (weight, _) in &mut kept {
                        *weight /= max;
                    }
                }
                kept.sort_by(|a, b| a.1.structural_cmp(&b.1).then(a.0.total_cmp(&b.0)));
                RankingSpec::Weighted(kept)
            }
            other => other.clone(),
        }
    }

    /// Whether this spec resolves to a suffix-decomposable ranking: one
    /// positive cost on every edge of every catalog, so a path's cost is
    /// its length times that cost and sums to the same float in any order.
    /// `Time` is decomposable, `Workload`/`Reliability` are not, and a
    /// `Weighted` combination is decomposable when every component is and
    /// at least one weight is positive. Advising's interest rankings must
    /// be decomposable; the memoized top-k serves a wider set
    /// ([`RankingSpec::memoizable`]).
    pub fn decomposable(&self) -> bool {
        match self {
            RankingSpec::Time => true,
            RankingSpec::Workload | RankingSpec::Reliability => false,
            RankingSpec::Weighted(parts) => {
                !parts.is_empty()
                    && parts.iter().all(|(_, inner)| inner.decomposable())
                    && parts.iter().any(|(weight, _)| *weight > 0.0)
            }
        }
    }

    /// Whether the memoized top-k may answer this spec on `catalog`: its
    /// suffix costs, summed bottom-up, must equal the best-first search's
    /// sums from the root bit for bit, which holds when every path cost
    /// sums exactly in any order. That is every decomposable spec, and
    /// `Workload` on a catalog whose workloads sum exactly
    /// ([`Catalog::workload_sums_exact`]: whole hours do, tenths do not).
    /// Every other spec is answered by the un-memoized search.
    pub fn memoizable(&self, catalog: &Catalog) -> bool {
        match self {
            RankingSpec::Workload => catalog.workload_sums_exact(),
            _ => self.decomposable(),
        }
    }

    /// Position of each variant in the canonical sort order. The order
    /// matches what the previous Debug-string comparison produced
    /// (alphabetical: `Reliability < Time < Weighted < Workload`), so
    /// canonical forms — and therefore cache keys — are unchanged.
    fn variant_rank(&self) -> u8 {
        match self {
            RankingSpec::Reliability => 0,
            RankingSpec::Time => 1,
            RankingSpec::Weighted(_) => 2,
            RankingSpec::Workload => 3,
        }
    }

    /// A total, structural ordering over ranking specs, used to sort the
    /// components of a weighted ranking deterministically without
    /// allocating Debug strings per comparison. Weighted specs compare by
    /// their component lists lexicographically (inner spec first, then
    /// weight via [`f64::total_cmp`]), shorter lists first on a tie.
    fn structural_cmp(&self, other: &RankingSpec) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self, other) {
            (RankingSpec::Weighted(a), RankingSpec::Weighted(b)) => {
                for ((wa, sa), (wb, sb)) in a.iter().zip(b.iter()) {
                    let ord = sa.structural_cmp(sb).then(wa.total_cmp(wb));
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                a.len().cmp(&b.len())
            }
            _ => self.variant_rank().cmp(&other.variant_rank()),
        }
    }
}

/// What the exploration should produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum OutputMode {
    /// Path counts and statistics only (scales to any horizon).
    Count,
    /// Materialize up to `limit` paths (front ends cannot render millions).
    Collect {
        /// Maximum number of paths to return.
        limit: usize,
    },
    /// The top-`k` paths under [`ExplorationRequest::ranking`].
    TopK {
        /// How many top paths to return.
        k: usize,
    },
}

/// One complete exploration request from the front end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub struct ExplorationRequest {
    /// The student's current semester.
    pub start_semester: Semester,
    /// Courses already completed, by code.
    #[serde(default)]
    pub completed: Vec<String>,
    /// The end semester `d` of the exploration.
    pub deadline: Semester,
    /// Maximum number of courses per semester (`m`).
    pub max_per_semester: usize,
    /// Exploration goal; `None` runs deadline-driven exploration (§4.1).
    #[serde(default)]
    pub goal: Option<GoalSpec>,
    /// Courses the student refuses to take, by code (§3 "courses to avoid").
    #[serde(default)]
    pub avoid: Vec<String>,
    /// Cap on any single semester's summed weekly workload hours.
    #[serde(default)]
    pub max_semester_workload: Option<f64>,
    /// Wait-semester semantics; defaults to the paper's.
    #[serde(default)]
    pub wait_policy: WaitPolicy,
    /// Pruning configuration for goal-driven runs; defaults to both
    /// strategies on, as in §4.2.
    #[serde(default)]
    pub pruning: PruneConfig,
    /// Ranking for `TopK` output.
    #[serde(default)]
    pub ranking: Option<RankingSpec>,
    /// What to produce.
    pub output: OutputMode,
    /// Wall-clock budget in milliseconds. When the budget elapses the
    /// service stops exploring and returns whatever it has, with the
    /// response's `truncated` marker set; `None` runs to completion.
    #[serde(default)]
    pub budget_ms: Option<u64>,
    /// Maximum paths (collect/top-k) or leaves (count) delivered in one
    /// page. When the page fills before the exploration finishes, the
    /// response carries a `next_cursor` resume token. `None` serves the
    /// whole answer in one response.
    #[serde(default)]
    pub page_size: Option<usize>,
    /// Opaque resume token from a previous truncated page (the serving
    /// layer's signed handle for an [`crate::ExplorationCursor`]). `None`
    /// starts a fresh exploration.
    #[serde(default)]
    pub cursor: Option<String>,
    /// Which named catalog this request addresses in a multi-tenant
    /// deployment. `None` resolves server-side (the `x-tenant` header,
    /// then the default tenant). Masked from both [`cache_key`] and
    /// [`memo_key`]: tenants get *separate* cache and memo instances, so
    /// the keys themselves stay tenant-free — which also keeps cursor
    /// fingerprints and default-tenant behaviour identical to a
    /// single-tenant deployment.
    ///
    /// [`cache_key`]: ExplorationRequest::cache_key
    /// [`memo_key`]: ExplorationRequest::memo_key
    #[serde(default)]
    pub tenant: Option<String>,
}

impl ExplorationRequest {
    /// A minimal deadline-driven counting request.
    pub fn deadline_count(
        start_semester: Semester,
        deadline: Semester,
        max_per_semester: usize,
    ) -> ExplorationRequest {
        ExplorationRequest {
            start_semester,
            completed: Vec::new(),
            deadline,
            max_per_semester,
            goal: None,
            avoid: Vec::new(),
            max_semester_workload: None,
            wait_policy: WaitPolicy::default(),
            pruning: PruneConfig::all(),
            ranking: None,
            output: OutputMode::Count,
            budget_ms: None,
            page_size: None,
            cursor: None,
            tenant: None,
        }
    }

    /// A goal-driven request with the service's degree requirement.
    pub fn degree_paths(
        start_semester: Semester,
        deadline: Semester,
        max_per_semester: usize,
        output: OutputMode,
    ) -> ExplorationRequest {
        ExplorationRequest {
            goal: Some(GoalSpec::Degree),
            output,
            ..ExplorationRequest::deadline_count(start_semester, deadline, max_per_semester)
        }
    }

    /// The canonical form of this request: course-code lists sorted and
    /// deduplicated, the ranking canonicalized (see
    /// [`RankingSpec::canonicalized`]). Requests that describe the same
    /// exploration map to the same canonical form.
    pub fn canonicalize(&self) -> ExplorationRequest {
        let mut req = self.clone();
        req.completed.sort();
        req.completed.dedup();
        req.avoid.sort();
        req.avoid.dedup();
        if let Some(GoalSpec::CompleteAll(codes)) = &mut req.goal {
            codes.sort();
            codes.dedup();
        }
        req.ranking = req.ranking.as_ref().map(RankingSpec::canonicalized);
        req
    }

    /// A deterministic cache key: the compact JSON of the canonical form,
    /// with the wall-clock budget masked out (the budget decides how long
    /// the service may spend, not what the complete answer is; truncated
    /// responses must not be cached against it). Paging fields are masked
    /// too: a page is a *slice* of the same exploration, so every page of
    /// a request shares its parent's identity — this doubles as the cursor
    /// fingerprint that pins a resume token to its originating request.
    pub fn cache_key(&self) -> String {
        let mut canon = self.canonicalize();
        canon.budget_ms = None;
        canon.page_size = None;
        canon.cursor = None;
        canon.tenant = None;
        serde_json::to_string(&canon).expect("a request always serializes")
    }

    /// The transposition-table sharing key: the compact JSON of the
    /// canonical form with every field that does *not* change subtree
    /// results masked out. A subtree rooted at an enrollment status is
    /// fully determined by the catalog (the server scopes tables to a
    /// catalog epoch), the deadline, `max_per_semester`, the goal, the
    /// avoid/workload filters, the wait policy, and the pruning config —
    /// so the start semester, completed set, output mode, ranking, budget,
    /// and paging are all masked. Requests from different students (or the
    /// same student asking for counts vs. ranked paths) therefore share one
    /// memo. Collect output reads no table, whatever its key.
    pub fn memo_key(&self) -> String {
        let mut canon = self.canonicalize();
        canon.start_semester = canon.deadline;
        canon.completed.clear();
        canon.output = OutputMode::Count;
        canon.ranking = None;
        canon.budget_ms = None;
        canon.page_size = None;
        canon.cursor = None;
        canon.tenant = None;
        serde_json::to_string(&canon).expect("a request always serializes")
    }

    /// The path-DAG root-cache key: the compact JSON of the canonical form
    /// with every field that does not change the *exploration structure*
    /// masked out. Unlike [`memo_key`], the start semester and completed
    /// set stay — a frame's root is built from a concrete start state,
    /// which the interned nodes do not record — but the output mode and ranking are masked (the DAG captures the full
    /// path set; counts, collections, and impacts are views over it), as
    /// are the budget, paging, and tenant fields, exactly as in
    /// [`cache_key`]. Two what-if requests over the same transcript and
    /// constraints therefore share one cached root no matter what output
    /// they ask for.
    ///
    /// [`cache_key`]: ExplorationRequest::cache_key
    /// [`memo_key`]: ExplorationRequest::memo_key
    pub fn dag_key(&self) -> String {
        let mut canon = self.canonicalize();
        canon.output = OutputMode::Count;
        canon.ranking = None;
        canon.budget_ms = None;
        canon.page_size = None;
        canon.cursor = None;
        canon.tenant = None;
        serde_json::to_string(&canon).expect("a request always serializes")
    }

    /// Applies a serving-layer degradation clamp: the effective wall-clock
    /// budget becomes `min(budget_ms, budget_cap_ms)` (a request without
    /// its own budget gets the cap outright) and an explicit `page_size`
    /// is capped at `page_cap`. Degradation tightens deadlines; it never
    /// *introduces* paging, because an unpaged response has no cursor for
    /// the client to resume from. Safe for cached routes: a clamped run
    /// either completes (byte-identical to the unclamped answer) or
    /// truncates (and truncated answers are never cached).
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
    pub fn from_json(json: &str) -> serde_json::Result<ExplorationRequest> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coursenav_catalog::Term;

    fn fall(y: i32) -> Semester {
        Semester::new(y, Term::Fall)
    }

    #[test]
    fn request_roundtrips_through_json() {
        let req = ExplorationRequest {
            start_semester: fall(2012),
            completed: vec!["COSI 10A".into()],
            deadline: fall(2015),
            max_per_semester: 3,
            goal: Some(GoalSpec::Expression("COSI 21A and COSI 29A".into())),
            avoid: vec!["COSI 2A".into()],
            max_semester_workload: Some(30.0),
            wait_policy: WaitPolicy::WhenNoOptions,
            pruning: PruneConfig::time_only(),
            ranking: Some(RankingSpec::Weighted(vec![
                (3.0, RankingSpec::Time),
                (0.1, RankingSpec::Workload),
            ])),
            output: OutputMode::TopK { k: 10 },
            budget_ms: Some(250),
            page_size: Some(25),
            cursor: Some("cn1.deadbeef.feedface".into()),
            tenant: Some("brandeis".into()),
        };
        let json = req.to_json().unwrap();
        let back = ExplorationRequest::from_json(&json).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn degradation_clamps_budget_and_page_size() {
        let mut req = ExplorationRequest::deadline_count(fall(2012), fall(2015), 3);
        // No budget of its own: the cap becomes the budget.
        req.apply_degradation(500, 10);
        assert_eq!(req.budget_ms, Some(500));
        assert_eq!(req.page_size, None, "degradation never introduces paging");
        // A larger budget is clamped, a smaller one kept.
        req.budget_ms = Some(9_000);
        req.page_size = Some(50);
        req.apply_degradation(500, 10);
        assert_eq!(req.budget_ms, Some(500));
        assert_eq!(req.page_size, Some(10));
        req.budget_ms = Some(100);
        req.page_size = Some(5);
        req.apply_degradation(500, 10);
        assert_eq!(req.budget_ms, Some(100));
        assert_eq!(req.page_size, Some(5));
        // The clamp must not perturb request identity for caching.
        let mut a = ExplorationRequest::deadline_count(fall(2012), fall(2015), 3);
        let key = a.cache_key();
        a.apply_degradation(250, 1);
        assert_eq!(a.cache_key(), key);
    }

    #[test]
    fn canonicalize_sorts_dedups_and_normalizes() {
        let mut req = ExplorationRequest::deadline_count(fall(2012), fall(2015), 3);
        req.completed = vec!["B".into(), "A".into(), "B".into()];
        req.avoid = vec!["Z".into(), "Z".into()];
        req.goal = Some(GoalSpec::CompleteAll(vec![
            "D".into(),
            "C".into(),
            "D".into(),
        ]));
        req.ranking = Some(RankingSpec::Weighted(vec![
            (3.0, RankingSpec::Workload),
            (0.0, RankingSpec::Reliability),
            (1.0, RankingSpec::Time),
        ]));
        let canon = req.canonicalize();
        assert_eq!(canon.completed, vec!["A".to_string(), "B".to_string()]);
        assert_eq!(canon.avoid, vec!["Z".to_string()]);
        assert_eq!(
            canon.goal,
            Some(GoalSpec::CompleteAll(vec!["C".into(), "D".into()]))
        );
        assert_eq!(
            canon.ranking,
            Some(RankingSpec::Weighted(vec![
                (1.0 / 3.0, RankingSpec::Time),
                (1.0, RankingSpec::Workload),
            ]))
        );
    }

    #[test]
    fn equivalent_requests_share_a_cache_key() {
        let mut a = ExplorationRequest::deadline_count(fall(2012), fall(2015), 3);
        a.completed = vec!["X".into(), "Y".into()];
        a.ranking = Some(RankingSpec::Weighted(vec![
            (2.0, RankingSpec::Time),
            (6.0, RankingSpec::Workload),
        ]));

        let mut b = a.clone();
        b.completed = vec!["Y".into(), "X".into(), "X".into()];
        b.ranking = Some(RankingSpec::Weighted(vec![
            (0.75, RankingSpec::Workload),
            (0.25, RankingSpec::Time),
            (0.0, RankingSpec::Reliability),
        ]));
        b.budget_ms = Some(50); // budget never affects the key
        assert_eq!(a.cache_key(), b.cache_key());

        let mut c = a.clone();
        c.max_per_semester = 4;
        assert_ne!(a.cache_key(), c.cache_key());
    }

    #[test]
    fn structural_sort_reproduces_debug_string_order() {
        // The old implementation sorted weighted components by their Debug
        // strings; the structural comparison must keep producing the same
        // canonical forms so cache keys survive the change.
        let spec = RankingSpec::Weighted(vec![
            (1.0, RankingSpec::Workload),
            (2.0, RankingSpec::Weighted(vec![(1.0, RankingSpec::Time)])),
            (4.0, RankingSpec::Time),
            (3.0, RankingSpec::Reliability),
        ]);
        assert_eq!(
            spec.canonicalized(),
            RankingSpec::Weighted(vec![
                (0.75, RankingSpec::Reliability),
                (1.0, RankingSpec::Time),
                (0.5, RankingSpec::Weighted(vec![(1.0, RankingSpec::Time)])),
                (0.25, RankingSpec::Workload),
            ])
        );
        // Equal specs sort by weight; duplicates are preserved.
        let ties = RankingSpec::Weighted(vec![(4.0, RankingSpec::Time), (2.0, RankingSpec::Time)]);
        assert_eq!(
            ties.canonicalized(),
            RankingSpec::Weighted(vec![(0.5, RankingSpec::Time), (1.0, RankingSpec::Time),])
        );
        // Canonicalization stays idempotent under the new comparison.
        let canon = spec.canonicalized();
        assert_eq!(canon.canonicalized(), canon);
    }

    #[test]
    fn tenant_does_not_change_cache_or_memo_keys() {
        // Tenants get separate cache/memo instances server-side, so the
        // keys stay tenant-free — the default tenant's keys (and cursor
        // fingerprints) are identical to a pre-multi-tenant deployment's.
        let a = ExplorationRequest::deadline_count(fall(2012), fall(2015), 3);
        let mut b = a.clone();
        b.tenant = Some("brandeis".into());
        assert_eq!(a.cache_key(), b.cache_key());
        assert_eq!(a.memo_key(), b.memo_key());
        assert_ne!(a, b, "the field itself still round-trips");
    }

    #[test]
    fn paging_fields_do_not_change_the_cache_key() {
        let a = ExplorationRequest::deadline_count(fall(2012), fall(2015), 3);
        let mut b = a.clone();
        b.page_size = Some(10);
        b.cursor = Some("cn1.0123456789abcdef.fedcba9876543210".into());
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn memo_key_masks_start_state_and_output() {
        let mut a = ExplorationRequest::degree_paths(fall(2012), fall(2015), 3, OutputMode::Count);
        let mut b = a.clone();
        b.start_semester = fall(2013);
        b.completed = vec!["COSI 10A".into()];
        b.output = OutputMode::TopK { k: 5 };
        b.ranking = Some(RankingSpec::Time);
        b.budget_ms = Some(10);
        b.page_size = Some(2);
        assert_eq!(a.memo_key(), b.memo_key(), "start state and output masked");
        assert_ne!(a.cache_key(), b.cache_key());

        // Subtree-relevant knobs must split the key.
        let mut c = a.clone();
        c.pruning = PruneConfig::time_only();
        assert_ne!(a.memo_key(), c.memo_key());
        let mut d = a.clone();
        d.deadline = fall(2016);
        assert_ne!(a.memo_key(), d.memo_key());
        let mut e = a.clone();
        e.avoid = vec!["COSI 2A".into()];
        assert_ne!(a.memo_key(), e.memo_key());
        a.wait_policy = WaitPolicy::Never;
        assert_ne!(a.memo_key(), b.memo_key());
    }

    #[test]
    fn spec_decomposability_mirrors_resolved_rankings() {
        assert!(RankingSpec::Time.decomposable());
        assert!(!RankingSpec::Workload.decomposable());
        assert!(!RankingSpec::Reliability.decomposable());
        assert!(RankingSpec::Weighted(vec![(2.0, RankingSpec::Time)]).decomposable());
        assert!(!RankingSpec::Weighted(vec![
            (1.0, RankingSpec::Time),
            (0.5, RankingSpec::Workload)
        ])
        .decomposable());
        assert!(!RankingSpec::Weighted(vec![(0.0, RankingSpec::Time)]).decomposable());
        assert!(!RankingSpec::Weighted(vec![]).decomposable());
    }

    #[test]
    fn optional_fields_default_from_minimal_json() {
        let json = r#"{
            "start-semester": "Fall 2012",
            "deadline": "Spring 2014",
            "max-per-semester": 3,
            "output": "count"
        }"#;
        let req = ExplorationRequest::from_json(json).unwrap();
        assert!(req.completed.is_empty());
        assert!(req.goal.is_none());
        assert_eq!(req.wait_policy, WaitPolicy::WhenNoOptions);
        assert_eq!(req.pruning, PruneConfig::all());
        assert_eq!(req.output, OutputMode::Count);
    }

    #[test]
    fn constructors_fill_defaults() {
        let req = ExplorationRequest::deadline_count(fall(2012), fall(2013), 3);
        assert_eq!(req.output, OutputMode::Count);
        assert!(req.goal.is_none());
        let req =
            ExplorationRequest::degree_paths(fall(2012), fall(2013), 3, OutputMode::TopK { k: 5 });
        assert_eq!(req.goal, Some(GoalSpec::Degree));
    }
}
