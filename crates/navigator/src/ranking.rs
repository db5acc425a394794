//! Path ranking functions (§4.3.1).
//!
//! "Our approach assigns a cost value on each edge depending on the ranking
//! function and based on that calculates the cost on each path." All three
//! of the paper's rankings — and any user-defined one — implement
//! [`Ranking`]: a non-negative cost per edge, accumulated additively along
//! the path. Non-negativity makes path costs monotone, the property the
//! best-first top-k search (Lemma 2) relies on.
//!
//! - [`TimeRanking`]: every edge costs 1; path cost = number of semesters.
//! - [`WorkloadRanking`]: edge cost = Σ workload of the elected courses.
//! - [`ReliabilityRanking`]: the paper defines the path cost as the
//!   *product* of per-course offering probabilities, maximized. We carry
//!   `−ln p` per course so the product becomes an additive, non-negative
//!   cost minimized by the same best-first machinery;
//!   [`ReliabilityRanking::path_probability`] converts back.
//! - [`WeightedRanking`]: a linear combination of other rankings (the
//!   "more complex ranking functions" of the paper's future work, §6).

use std::sync::Arc;

use coursenav_catalog::{Catalog, CourseSet, OfferingModel};

use crate::path::Path;
use crate::status::EnrollmentStatus;

/// A ranking function: assigns each edge a non-negative, finite cost.
pub trait Ranking: Send + Sync {
    /// Cost of electing `selection` at `from` (to be completed in
    /// `from.semester() + 1`). Must be finite and ≥ 0.
    fn edge_cost(&self, catalog: &Catalog, from: &EnrollmentStatus, selection: &CourseSet) -> f64;

    /// Diagnostic name.
    fn name(&self) -> &str;

    /// Total cost of a path (Σ edge costs).
    fn path_cost(&self, catalog: &Catalog, path: &Path) -> f64 {
        path.statuses()
            .iter()
            .zip(path.selections())
            .map(|(from, sel)| self.edge_cost(catalog, from, sel))
            .sum()
    }
}

/// Time-based ranking: "each edge has a cost value of one, since each edge
/// represents the transition from one semester to the next" (§4.3.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct TimeRanking;

impl Ranking for TimeRanking {
    fn edge_cost(&self, _: &Catalog, _: &EnrollmentStatus, _: &CourseSet) -> f64 {
        1.0
    }

    fn name(&self) -> &str {
        "time"
    }
}

/// Workload-based ranking: "the cost of each edge \[is\] the sum of the
/// workload of each course in the courses selection" (§4.3.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkloadRanking;

impl Ranking for WorkloadRanking {
    fn edge_cost(&self, catalog: &Catalog, _: &EnrollmentStatus, selection: &CourseSet) -> f64 {
        selection
            .iter()
            .map(|id| catalog.course(id).workload())
            .sum()
    }

    fn name(&self) -> &str {
        "workload"
    }
}

/// Reliability-based ranking over an [`OfferingModel`] (§4.3.1).
///
/// The paper's path cost is `Π prob(c, s)` over the elected courses,
/// maximized. Stored here as `Σ −ln prob` (minimized); probabilities are
/// floored at [`ReliabilityRanking::DEFAULT_FLOOR`] so a zero-probability
/// course yields a large finite cost instead of an infinite one.
#[derive(Debug, Clone)]
pub struct ReliabilityRanking<'m> {
    model: &'m OfferingModel,
}

impl<'m> ReliabilityRanking<'m> {
    /// The probability floor.
    pub const DEFAULT_FLOOR: f64 = 1e-6;

    /// A reliability ranking over `model`.
    pub fn new(model: &'m OfferingModel) -> ReliabilityRanking<'m> {
        ReliabilityRanking { model }
    }

    /// Converts an accumulated cost back into the paper's probability form.
    pub fn cost_to_probability(cost: f64) -> f64 {
        (-cost).exp()
    }

    /// The materialization probability of a whole path
    /// (`Π prob(c, s)`, floored).
    pub fn path_probability(&self, catalog: &Catalog, path: &Path) -> f64 {
        Self::cost_to_probability(self.path_cost(catalog, path))
    }
}

impl Ranking for ReliabilityRanking<'_> {
    fn edge_cost(&self, catalog: &Catalog, from: &EnrollmentStatus, selection: &CourseSet) -> f64 {
        selection
            .iter()
            .map(|id| {
                let p = self
                    .model
                    .prob(catalog.course(id), from.semester())
                    .max(Self::DEFAULT_FLOOR);
                -p.ln()
            })
            .sum()
    }

    fn name(&self) -> &str {
        "reliability"
    }
}

/// A weighted linear combination of rankings. Weights must be ≥ 0 so the
/// combined cost stays monotone.
///
/// The lifetime parameter lets components borrow run-scoped data (e.g.
/// [`ReliabilityRanking`] borrows its offering model).
pub struct WeightedRanking<'r> {
    parts: Vec<(f64, Arc<dyn Ranking + 'r>)>,
}

impl<'r> WeightedRanking<'r> {
    /// An empty combination (constant zero cost).
    pub fn new() -> WeightedRanking<'r> {
        WeightedRanking { parts: Vec::new() }
    }

    /// Adds a component with the given weight.
    ///
    /// # Panics
    /// Panics on negative or non-finite weights.
    pub fn with(mut self, weight: f64, ranking: Arc<dyn Ranking + 'r>) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "weights must be finite and non-negative, got {weight}"
        );
        self.parts.push((weight, ranking));
        self
    }
}

impl Default for WeightedRanking<'_> {
    fn default() -> Self {
        WeightedRanking::new()
    }
}

impl Ranking for WeightedRanking<'_> {
    fn edge_cost(&self, catalog: &Catalog, from: &EnrollmentStatus, selection: &CourseSet) -> f64 {
        self.parts
            .iter()
            .map(|(w, r)| w * r.edge_cost(catalog, from, selection))
            .sum()
    }

    fn name(&self) -> &str {
        "weighted"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coursenav_catalog::{CatalogBuilder, CourseSpec, Semester, Term};

    fn fall(y: i32) -> Semester {
        Semester::new(y, Term::Fall)
    }

    fn catalog() -> Catalog {
        let mut b = CatalogBuilder::new();
        b.add_course(
            CourseSpec::new("A", "A")
                .offered([fall(2011)])
                .workload(8.0),
        );
        b.add_course(
            CourseSpec::new("B", "B")
                .offered([fall(2011)])
                .workload(5.0),
        );
        b.build().unwrap()
    }

    fn status(cat: &Catalog) -> EnrollmentStatus {
        EnrollmentStatus::fresh(cat, fall(2011))
    }

    fn both(cat: &Catalog) -> CourseSet {
        cat.all_courses()
    }

    #[test]
    fn time_ranking_is_constant_one() {
        let cat = catalog();
        let st = status(&cat);
        assert_eq!(TimeRanking.edge_cost(&cat, &st, &both(&cat)), 1.0);
        assert_eq!(TimeRanking.edge_cost(&cat, &st, &CourseSet::EMPTY), 1.0);
    }

    #[test]
    fn workload_ranking_sums_hours() {
        let cat = catalog();
        let st = status(&cat);
        assert_eq!(WorkloadRanking.edge_cost(&cat, &st, &both(&cat)), 13.0);
        assert_eq!(WorkloadRanking.edge_cost(&cat, &st, &CourseSet::EMPTY), 0.0);
    }

    #[test]
    fn reliability_ranking_uses_neg_log_probs() {
        let cat = catalog();
        let st = status(&cat);
        // Released horizon covers Fall 2011, both courses offered: prob 1.0.
        let model = OfferingModel::new(fall(2011), 0.5);
        let r = ReliabilityRanking::new(&model);
        assert_eq!(r.edge_cost(&cat, &st, &both(&cat)), 0.0);
        // Beyond the horizon with no history: default prob 0.5 per course.
        let st_future = EnrollmentStatus::new(&cat, fall(2012), CourseSet::EMPTY);
        let cost = r.edge_cost(&cat, &st_future, &both(&cat));
        let expected = -(0.5f64.ln()) * 2.0;
        assert!((cost - expected).abs() < 1e-12);
        assert!(
            (ReliabilityRanking::cost_to_probability(cost) - 0.25).abs() < 1e-12,
            "product of probabilities recovered"
        );
    }

    #[test]
    fn reliability_floor_keeps_costs_finite() {
        let cat = catalog();
        // Course B is never offered in Fall 2012 (inside horizon): prob 0.
        let model = OfferingModel::new(fall(2012), 0.5);
        let r = ReliabilityRanking::new(&model);
        let st = EnrollmentStatus::new(&cat, fall(2012), CourseSet::EMPTY);
        let cost = r.edge_cost(&cat, &st, &both(&cat));
        assert!(cost.is_finite());
        assert!(cost > 0.0);
    }

    #[test]
    fn weighted_ranking_combines_linearly() {
        let cat = catalog();
        let st = status(&cat);
        let w = WeightedRanking::new()
            .with(2.0, Arc::new(TimeRanking))
            .with(0.5, Arc::new(WorkloadRanking));
        // 2*1 + 0.5*13 = 8.5
        assert_eq!(w.edge_cost(&cat, &st, &both(&cat)), 8.5);
        assert_eq!(w.name(), "weighted");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        let _ = WeightedRanking::new().with(-1.0, Arc::new(TimeRanking));
    }

    #[test]
    fn path_cost_sums_edges() {
        let cat = catalog();
        let st = status(&cat);
        let sel = both(&cat);
        let next = st.advance(&cat, &sel);
        let path = Path::new(vec![st, next], vec![sel]);
        assert_eq!(TimeRanking.path_cost(&cat, &path), 1.0);
        assert_eq!(WorkloadRanking.path_cost(&cat, &path), 13.0);
    }
}
