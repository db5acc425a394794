//! Correctness checks, run outside the timed window.
//!
//! Each sampled answer is compared with what a fresh [`NavigatorService`]
//! computes for the same request with no table shared with the server
//! (`millis` masked). Pages are checked by concatenation against the
//! unpaged collection; forced-course what-ifs against the
//! collect-and-filter oracle of `whatif_proptests`, streamed so the
//! sparse catalog's millions of paths never have to be held at once.

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use coursenav_catalog::{CourseCode, CourseSet};
use coursenav_navigator::{
    AdviseRequest, ExplorationRequest, LeafKind, NavigatorService, TranspositionTable, UniqueTable,
    WhatIfRequest,
};
use coursenav_registrar::{json::catalog_to_json, RegistrarData};

use super::script::{Body, Route};
use super::wire::Sample;
use super::workloads::Plan;

/// Entry cap of every fresh oracle table: large enough never to evict.
const FRESH_TABLE: usize = 1 << 20;

/// Cross-checks of apply answers against a fresh re-exploration of the
/// merged request, per run (each costs a cold exploration).
const REEXPLORE_CHECKS: usize = 2;

/// Answers the checks must cover in every run.
const MIN_CHECKED: usize = 8;

/// The service a tenant's catalog configures.
pub(crate) fn service(data: &RegistrarData) -> NavigatorService<'_> {
    let mut service = NavigatorService::new(&data.catalog);
    if let Some(degree) = &data.degree {
        service = service.with_degree(degree);
    }
    if let Some(offering) = &data.offering {
        service = service.with_offering_model(offering);
    }
    service
}

/// `json` with every `millis` value zeroed.
fn mask_millis(json: &[u8]) -> Option<String> {
    fn zero(value: &mut serde_json::Value) {
        match value {
            serde_json::Value::Object(pairs) => {
                for (key, v) in pairs.iter_mut() {
                    if key == "millis" {
                        *v = serde_json::Value::Num(serde_json::Number::U(0));
                    } else {
                        zero(v);
                    }
                }
            }
            serde_json::Value::Array(items) => items.iter_mut().for_each(zero),
            _ => {}
        }
    }
    let mut value: serde_json::Value = serde_json::from_slice(json).ok()?;
    zero(&mut value);
    serde_json::to_string(&value).ok()
}

/// A forced what-if awaiting the streamed oracle.
struct Forced {
    force: CourseSet,
    total: u128,
    goal: u128,
}

/// Accumulates check results over one run.
pub struct Oracle<'p> {
    plan: &'p Plan,
    /// Oracle DAG tables, one per tenant, never shared with the server.
    dags: BTreeMap<Option<String>, UniqueTable>,
    /// Forced what-ifs grouped by tenant and merged request.
    forced: BTreeMap<(Option<String>, String), (ExplorationRequest, Vec<Forced>)>,
    reexplores_left: usize,
    /// Answers checked so far.
    pub checked: usize,
    /// Every mismatch, described.
    pub failures: Vec<String>,
}

impl<'p> Oracle<'p> {
    /// A fresh oracle over `plan`'s catalogs.
    pub fn new(plan: &'p Plan) -> Oracle<'p> {
        Oracle {
            plan,
            dags: BTreeMap::new(),
            forced: BTreeMap::new(),
            reexplores_left: REEXPLORE_CHECKS,
            checked: 0,
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, what: String) {
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    fn expect_equal(&mut self, what: &str, got: Option<String>, want: Option<String>) {
        self.checked += 1;
        if got.is_none() || got != want {
            let clip = |s: Option<String>| {
                s.map(|s| s.chars().take(300).collect::<String>())
                    .unwrap_or_else(|| "<unparseable>".into())
            };
            self.fail(format!(
                "{what}: served {} but expected {}",
                clip(got),
                clip(want)
            ));
        }
    }

    /// Checks every answer in `sample`.
    pub fn check(&mut self, sample: &Sample) {
        let data = std::sync::Arc::clone(self.plan.data_for(sample.tenant.as_deref()));
        let tenant = sample.tenant.clone();
        for (i, ex) in sample.exchanges.iter().enumerate() {
            let (Some(sent), Some(reply)) = (&ex.sent, &ex.reply) else {
                continue;
            };
            let served = reply.body.as_slice();
            match ex.call.route {
                Route::Healthz => self.expect_equal(
                    "healthz",
                    Some(String::from_utf8_lossy(served).into_owned()),
                    Some("{\"status\":\"ok\"}".into()),
                ),
                Route::Catalog => self.expect_equal(
                    "catalog",
                    Some(String::from_utf8_lossy(served).into_owned()),
                    catalog_to_json(&data.catalog).ok(),
                ),
                Route::Explore if ex.call.paged() => {
                    // A resume is checked together with the page it resumes.
                    if matches!(ex.call.body, Body::Resume { .. }) {
                        continue;
                    }
                    let resumed = sample.exchanges[i + 1..].iter().find(
                        |later| matches!(&later.call.body, Body::Resume { of, .. } if *of == i),
                    );
                    let resumed = resumed
                        .and_then(|r| r.reply.as_ref())
                        .map(|r| r.body.as_slice());
                    self.check_pages(&data, sent, served, resumed);
                }
                Route::Explore => self.check_explore(&data, sent, served),
                Route::Advise => self.check_advise(&data, sent, served),
                Route::WhatIf => self.check_whatif(&data, tenant.clone(), sent, served),
                Route::Invalidate => {}
            }
        }
    }

    fn check_explore(&mut self, data: &RegistrarData, sent: &str, served: &[u8]) {
        let want = ExplorationRequest::from_json(sent).ok().and_then(|req| {
            let table = TranspositionTable::new(FRESH_TABLE);
            let fresh = service(data)
                .run_until_memo(&req.canonicalize(), None, 1, Some(&table))
                .ok()?;
            mask_millis(serde_json::to_string(&fresh).ok()?.as_bytes())
        });
        self.expect_equal(&format!("explore {sent}"), mask_millis(served), want);
    }

    fn check_pages(
        &mut self,
        data: &RegistrarData,
        sent: &str,
        first: &[u8],
        second: Option<&[u8]>,
    ) {
        let paths = |body: &[u8]| -> Option<Vec<serde_json::Value>> {
            let value: serde_json::Value = serde_json::from_slice(body).ok()?;
            Some(value["paths"]["paths"].as_array()?.clone())
        };
        let mut got = paths(first);
        if let (Some(got), Some(second)) = (got.as_mut(), second) {
            got.extend(paths(second).unwrap_or_default());
        }
        let want = ExplorationRequest::from_json(sent)
            .ok()
            .and_then(|mut req| {
                req.page_size = None;
                let table = TranspositionTable::new(FRESH_TABLE);
                let fresh = service(data)
                    .run_until_memo(&req.canonicalize(), None, 1, Some(&table))
                    .ok()?;
                paths(serde_json::to_string(&fresh).ok()?.as_bytes())
            });
        let render = |v: Option<Vec<serde_json::Value>>| {
            v.and_then(|v| serde_json::to_string(&serde_json::Value::Array(v)).ok())
        };
        self.expect_equal(&format!("pages of {sent}"), render(got), render(want));
    }

    fn check_advise(&mut self, data: &RegistrarData, sent: &str, served: &[u8]) {
        let want = AdviseRequest::from_json(sent).ok().and_then(|req| {
            let fresh = service(data)
                .advise_until_memo(&req, None, None, 1, None)
                .ok()?;
            serde_json::to_string(&fresh.response).ok()
        });
        self.expect_equal(
            &format!("advise {sent}"),
            Some(String::from_utf8_lossy(served).into_owned()),
            want,
        );
    }

    fn check_whatif(
        &mut self,
        data: &RegistrarData,
        tenant: Option<String>,
        sent: &str,
        served: &[u8],
    ) {
        let Ok(req) = WhatIfRequest::from_json(sent) else {
            return self.expect_equal(&format!("whatif {sent}"), None, None);
        };
        let service = service(data);
        let dag = self
            .dags
            .entry(tenant.clone())
            .or_insert_with(|| UniqueTable::new(0));
        let want = service
            .whatif_until(&req, None, 1, None, Some(dag))
            .ok()
            .and_then(|fresh| mask_millis(serde_json::to_string(&fresh.response).ok()?.as_bytes()));
        self.expect_equal(&format!("whatif {sent}"), mask_millis(served), want);

        let counts = |body: &[u8]| -> Option<(u128, u128)> {
            let value: serde_json::Value = serde_json::from_slice(body).ok()?;
            let c = &value["counts"];
            Some((
                c["total_paths"].as_u64()?.into(),
                c["goal_paths"].as_u64()?.into(),
            ))
        };
        let Some((total, goal)) = counts(served) else {
            return;
        };
        let merged = req.merged_request();
        if !req.delta.force.is_empty() {
            let force: Option<CourseSet> = req
                .delta
                .force
                .iter()
                .map(|code| data.catalog.id_of(&CourseCode::new(code)))
                .collect();
            let Some(force) = force else {
                return self.fail(format!("whatif {sent}: unknown forced course"));
            };
            self.forced
                .entry((tenant, merged.cache_key()))
                .or_insert_with(|| (merged, Vec::new()))
                .1
                .push(Forced { force, total, goal });
        } else if self.reexplores_left > 0 {
            // Apply against the independent engine path: re-exploring the
            // merged request must give the same counts.
            self.reexplores_left -= 1;
            let table = TranspositionTable::new(FRESH_TABLE);
            let brute = service
                .run_until_memo(&merged, None, 1, Some(&table))
                .ok()
                .and_then(|r| counts(serde_json::to_string(&r).ok()?.as_bytes()));
            self.checked += 1;
            if brute != Some((total, goal)) {
                self.fail(format!(
                    "whatif {sent}: apply {:?} but re-exploration {brute:?}",
                    (total, goal)
                ));
            }
        }
    }

    /// Runs the streamed collect-and-filter oracle for every forced
    /// what-if seen: one walk over each merged request's path tree counts,
    /// for every forced set, the paths (and goal paths) whose completed
    /// courses cover it.
    pub fn finish(&mut self) {
        let groups = std::mem::take(&mut self.forced);
        for ((tenant, _), (merged, forced)) in groups {
            let data = std::sync::Arc::clone(self.plan.data_for(tenant.as_deref()));
            let service = service(&data);
            let Ok(explorer) = service.build_explorer(&merged) else {
                self.fail(format!("forced oracle: cannot explore {merged:?}"));
                continue;
            };
            let mut seen = vec![(0u128, 0u128); forced.len()];
            explorer.visit_paths(|visit| {
                let done = visit.leaf().completed();
                for (f, counts) in forced.iter().zip(seen.iter_mut()) {
                    if f.force.is_subset(done) {
                        counts.0 += 1;
                        counts.1 += u128::from(visit.kind == LeafKind::Goal);
                    }
                }
                ControlFlow::Continue(())
            });
            for (f, (total, goal)) in forced.iter().zip(seen) {
                self.checked += 1;
                if (f.total, f.goal) != (total, goal) {
                    self.fail(format!(
                        "forced what-if: apply {:?} but collect-and-filter {:?}",
                        (f.total, f.goal),
                        (total, goal)
                    ));
                }
            }
        }
        if self.checked < MIN_CHECKED {
            self.failures.push(format!(
                "only {} answers checked; every run must check at least {MIN_CHECKED}",
                self.checked
            ));
        }
    }
}
