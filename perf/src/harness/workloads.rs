//! The four workloads: their catalogs, tenants, and seeded scripts.
//!
//! Every workload's population (the 16 popular requests, the advising
//! sessions, the deep students, the what-if deltas) is fixed; the seed
//! decides the order each connection sends it in. Both commits under
//! comparison therefore do the same work per pass, and seeds differ only
//! in interleaving — which is what keeps run-to-run spread inside the
//! bounds while the inputs still come from the seed.
//!
//! `smoke` shrinks every population and moves the two sparse-catalog
//! workloads onto the bundled catalog, so all four run in seconds in a
//! debug build.

use std::sync::Arc;

use coursenav_catalog::{Catalog, CourseSet, Semester, SyntheticCatalog, SyntheticConfig};
use coursenav_navigator::{
    AdviseRequest, EnrollmentStatus, ExplorationRequest, GoalSpec, OutputMode, RankingSpec,
    TranscriptSpec, WhatIfRequest,
};
use coursenav_registrar::{brandeis_cs, RegistrarData};

use super::rng::Rng;
use super::script::{Body, Call, ConnScript, Looping, Route, Script, SetupUnit, Unit};

/// Courses per semester in every workload (the paper's `m`).
const M: usize = 3;

/// Client connections driving the server in every workload but hot-cache
/// (one per core of the 2-core reference machine; a closed loop of
/// advisors each awaiting a reply).
const CONNECTIONS: usize = 2;

/// Seed of the fixed populations (independent of the run seed).
const POPULATION_SEED: u64 = 0xC0DE_5EED;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Popular bundled-catalog requests, all served from the response cache.
    HotCache,
    /// Student advising sessions on the bundled catalog.
    AdviseSession,
    /// Distinct students deep into the sparse 8-semester catalog.
    DeepExplore,
    /// Distinct what-if deltas over one interned sparse-7sem DAG.
    WhatifSweep,
}

/// Every workload, in run order.
pub const ALL: [Workload; 4] = [
    Workload::HotCache,
    Workload::AdviseSession,
    Workload::DeepExplore,
    Workload::WhatifSweep,
];

impl Workload {
    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotCache => "hot-cache",
            Workload::AdviseSession => "advise-session",
            Workload::DeepExplore => "deep-explore",
            Workload::WhatifSweep => "whatif-sweep",
        }
    }

    /// Why the workload exists, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::HotCache => {
                "every request is a response-cache hit, so parse, route, cache lookup, encode and \
                 the event loop are the whole cost; engine changes must not move it"
            }
            Workload::AdviseSession => {
                "interactive advising sessions with paging and a what-if; the memo working set \
                 fits its table and the response cache takes puts beside gets"
            }
            Workload::DeepExplore => {
                "cold sparse-catalog exploration whose working set overflows the memo table, so \
                 expansion and insert/evict traffic dominate"
            }
            Workload::WhatifSweep => {
                "thousands of distinct deltas applied to one interned sparse-7sem DAG; apply \
                 dominates the window and setup carries the DAG build"
            }
        }
    }

    /// Whether the workload runs pinned to one CPU ([`super::cpu`]). Only
    /// hot-cache: its requests are microseconds of work, so thread
    /// placement would set its numbers. The other workloads compute for
    /// milliseconds per request and need both workers running at once.
    pub fn one_cpu(self) -> bool {
        self == Workload::HotCache
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one run of a workload needs: catalogs, tenants, the script,
/// and the sizes of the checks and the traced replay.
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// The default tenant's catalog (the bundled one).
    pub default_data: Arc<RegistrarData>,
    /// Tenants registered at setup, beyond the default.
    pub tenants: Vec<(String, Arc<RegistrarData>)>,
    /// What gets sent.
    pub script: Script,
    /// The workload's base exploration: the frame whose cold count and
    /// DAG build the traced run attributes.
    pub base: ExplorationRequest,
    /// The tenant `base` belongs to.
    pub base_tenant: Option<String>,
    /// Steps of its loop each connection sends as the last part of setup,
    /// so the window starts on warm code paths and allocator state. They
    /// go in population order ([`ConnScript::warm_up_at`]): which half of
    /// a population a seeded order puts first moved deep-explore's set-up
    /// between 1.0 s and 2.3 s from seed to seed.
    pub warm_steps: usize,
    /// Steps per connection the traced replay sends after setup.
    pub replay_steps: usize,
    /// Every `sample_stride`-th unit a connection sends is checked.
    pub sample_stride: usize,
    /// Checked units per connection, at most.
    pub samples_per_conn: usize,
}

impl Plan {
    /// The catalog a tenant serves.
    pub fn data_for(&self, tenant: Option<&str>) -> &Arc<RegistrarData> {
        match tenant {
            None => &self.default_data,
            Some(name) => self
                .tenants
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, data)| data)
                .unwrap_or(&self.default_data),
        }
    }
}

/// Builds the plan for `workload` under `seed`. This is the catalog-build
/// and script-generation part of setup.
pub fn plan(workload: Workload, seed: u64, smoke: bool) -> Plan {
    let bundled = Arc::new(brandeis_cs());
    let order = Rng::new(seed);
    match workload {
        Workload::HotCache => hot_cache(bundled, &order, smoke),
        Workload::AdviseSession => advise_session(bundled, &order, smoke),
        Workload::DeepExplore => deep_explore(bundled, &order, smoke),
        Workload::WhatifSweep => whatif_sweep(bundled, &order, smoke),
    }
}

/// The sparse, registrar-shaped 8-semester instance as a tenant catalog.
fn sparse_data() -> RegistrarData {
    let synth = SyntheticCatalog::generate(&SyntheticConfig {
        schedule_semesters: 8,
        ..SyntheticConfig::sparse()
    });
    RegistrarData {
        catalog: synth.catalog,
        degree: Some(synth.degree),
        offering: Some(synth.offering),
        horizon: (synth.start, synth.end),
    }
}

fn codes(catalog: &Catalog, set: &CourseSet) -> Vec<String> {
    set.iter()
        .map(|id| catalog.course(id).code().to_string())
        .collect()
}

/// A random on-track transcript: `semesters` selections of 1..=m eligible
/// courses each, starting at `start`, degree courses picked before
/// others. Students who wander off the degree have no paths left, and
/// answering them is instant; keeping the population on track keeps the
/// workload about exploration.
fn random_transcript(
    data: &RegistrarData,
    start: Semester,
    semesters: usize,
    rng: &mut Rng,
) -> TranscriptSpec {
    let catalog = &data.catalog;
    let relevant = data
        .degree
        .as_ref()
        .map_or_else(CourseSet::new, |d| d.relevant_courses());
    let mut status = EnrollmentStatus::fresh(catalog, start);
    let mut selections = Vec::with_capacity(semesters);
    for _ in 0..semesters {
        let mut pool: Vec<_> = status.options().iter().collect();
        rng.shuffle(&mut pool);
        pool.sort_by_key(|id| !relevant.contains(*id));
        let size = if pool.is_empty() {
            0
        } else {
            1 + rng.below(M.min(pool.len()))
        };
        let pick: CourseSet = pool.into_iter().take(size).collect();
        selections.push(codes(catalog, &pick));
        status = status.advance(catalog, &pick);
    }
    TranscriptSpec { start, selections }
}

/// `n` distinct random transcripts, lengths drawn from `lengths`.
fn population(
    data: &RegistrarData,
    start: Semester,
    lengths: &[usize],
    n: usize,
    rng: &mut Rng,
) -> Vec<TranscriptSpec> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let len = lengths[rng.below(lengths.len())];
        let t = random_transcript(data, start, len, rng);
        let mut key: Vec<String> = t.completed_codes();
        key.sort();
        key.push(len.to_string());
        if seen.insert(key) {
            out.push(t);
        }
    }
    out
}

/// The fresh-student exploration over `start..deadline`, degree goal.
fn degree_request(start: Semester, deadline: Semester, output: OutputMode) -> ExplorationRequest {
    ExplorationRequest::degree_paths(start, deadline, M, output)
}

/// The exploration a transcript's student runs from where they are.
fn student_request(
    t: &TranscriptSpec,
    deadline: Semester,
    output: OutputMode,
) -> ExplorationRequest {
    let mut req = degree_request(t.next_semester(), deadline, output);
    req.completed = t.completed_codes();
    req
}

fn advise_call(t: &TranscriptSpec, deadline: Semester) -> Call {
    let mut req = AdviseRequest::new(t.clone(), deadline);
    req.k = Some(3);
    req.max_per_semester = Some(M);
    req.goal = Some(GoalSpec::Degree);
    Call::json(Route::Advise, &req)
}

fn top_k(t: &TranscriptSpec, deadline: Semester, k: usize, ranking: RankingSpec) -> Call {
    let mut req = student_request(t, deadline, OutputMode::TopK { k });
    req.ranking = Some(ranking);
    Call::json(Route::Explore, &req)
}

/// One advising session: advise(k=3) → count → collect(50) paged by 25 →
/// cursor resume → top-k by time (10) → top-k by workload (5) → what-if
/// dropping the first recommendation.
fn session(t: &TranscriptSpec, deadline: Semester) -> Unit {
    let count = student_request(t, deadline, OutputMode::Count);
    let mut paged = student_request(t, deadline, OutputMode::Collect { limit: 50 });
    paged.page_size = Some(25);
    let paged_body = serde_json::to_string(&paged).expect("requests serialize");
    let mut whatif = WhatIfRequest::new(degree_request(t.start, deadline, OutputMode::Count));
    whatif.transcript = Some(t.clone());
    Unit {
        calls: vec![
            advise_call(t, deadline),
            Call::json(Route::Explore, &count),
            Call {
                route: Route::Explore,
                body: Body::Fixed(paged_body.clone()),
            },
            Call {
                route: Route::Explore,
                body: Body::Resume {
                    of: 2,
                    body: paged_body,
                },
            },
            top_k(t, deadline, 10, RankingSpec::Time),
            top_k(t, deadline, 5, RankingSpec::Workload),
            Call {
                route: Route::WhatIf,
                body: Body::DropFirstRecommendation {
                    of: 0,
                    template: Box::new(whatif),
                },
            },
        ],
    }
}

/// The setup's warm-up tour of `data`'s catalog: one call of every kind
/// on a short deadline-driven frame (plenty of paths, whatever the
/// degree), so every route and layer has run once before timing — the
/// traced replay relies on it to time each layer in every workload.
fn tour(data: &RegistrarData, tenant: Option<&str>) -> SetupUnit {
    let start = data.horizon.0;
    let first: CourseSet = EnrollmentStatus::fresh(&data.catalog, start)
        .options()
        .iter()
        .take(2)
        .collect();
    let t = TranscriptSpec {
        start,
        selections: vec![codes(&data.catalog, &first)],
    };
    let deadline = start + 4;
    let frame = |output| {
        let mut req = student_request(&t, deadline, output);
        req.goal = None;
        req
    };
    let mut paged = frame(OutputMode::Collect { limit: 50 });
    paged.page_size = Some(2);
    let paged = serde_json::to_string(&paged).expect("requests serialize");
    // Ranked search is goal-driven only.
    let mut topk = student_request(&t, deadline, OutputMode::TopK { k: 5 });
    topk.ranking = Some(RankingSpec::Time);
    let avoid = data.catalog.courses().last().map(|c| c.code().to_string());
    let mut build = WhatIfRequest::new(frame(OutputMode::Count));
    build.delta.avoid = avoid.into_iter().collect();
    let mut apply = WhatIfRequest::new(frame(OutputMode::Count));
    apply.delta.max_semester_workload = Some(40.0);
    SetupUnit {
        tenant: tenant.map(str::to_string),
        unit: Unit {
            calls: vec![
                advise_call(&t, deadline),
                Call::json(Route::Explore, &frame(OutputMode::Count)),
                Call::json(Route::Explore, &frame(OutputMode::Collect { limit: 50 })),
                Call {
                    route: Route::Explore,
                    body: Body::Fixed(paged.clone()),
                },
                Call {
                    route: Route::Explore,
                    body: Body::Resume { of: 3, body: paged },
                },
                Call::json(Route::Explore, &topk),
                Call::json(Route::WhatIf, &build),
                Call::json(Route::WhatIf, &apply),
            ],
        },
    }
}

/// Distinct seeded orders a connection cycles through, one per pass: a
/// window spans several, so no single order's luck sets the result.
const PASS_ORDERS: usize = 16;

/// Each connection's copy of `units`, every pass in its own seeded order.
fn dealt_copies(
    units: &[Unit],
    order: &Rng,
    tenants: &[Option<String>],
    looping: Looping,
) -> Vec<ConnScript> {
    tenants
        .iter()
        .enumerate()
        .map(|(c, tenant)| {
            let orders = (0..PASS_ORDERS)
                .map(|p| {
                    let mut indices: Vec<usize> = (0..units.len()).collect();
                    order
                        .fork((c * PASS_ORDERS + p) as u64 + 1)
                        .shuffle(&mut indices);
                    indices
                })
                .collect();
            ConnScript {
                tenant: tenant.clone(),
                units: units.to_vec(),
                orders,
                looping,
            }
        })
        .collect()
}

fn single(call: Call) -> Unit {
    Unit { calls: vec![call] }
}

fn hot_cache(bundled: Arc<RegistrarData>, order: &Rng, smoke: bool) -> Plan {
    let data = &bundled;
    let h0 = data.horizon.0;
    let near = h0 + 4;
    let mut popular = Vec::new();
    for m in [2, 3] {
        let mut count = degree_request(h0, near, OutputMode::Count);
        count.max_per_semester = m;
        // A limit above the path count: a collection cut at its limit is
        // marked truncated, and truncated answers are never cached.
        let mut collect = count.clone();
        collect.output = OutputMode::Collect { limit: 1_000 };
        let mut topk = count.clone();
        topk.output = OutputMode::TopK { k: 5 };
        topk.ranking = Some(RankingSpec::Time);
        for req in [count, collect, topk] {
            popular.push(Call::json(Route::Explore, &req));
        }
    }
    // Four canonical advising transcripts: first-semester selections drawn
    // from the fresh student's options, advised to the "Spring 2015"
    // horizon (Fall 2014 in smoke runs, which are debug builds).
    let options: Vec<_> = EnrollmentStatus::fresh(&data.catalog, h0)
        .options()
        .iter()
        .collect();
    let advise_deadline = if smoke { near } else { h0 + 5 };
    for picks in [[0usize, 1, 2].as_slice(), &[0, 1], &[1, 2], &[0, 2]] {
        let set: CourseSet = picks
            .iter()
            .filter_map(|&i| options.get(i).copied())
            .collect();
        let t = TranscriptSpec {
            start: h0,
            selections: vec![codes(&data.catalog, &set)],
        };
        popular.push(advise_call(&t, advise_deadline));
    }
    let all_codes: Vec<String> = data
        .catalog
        .courses()
        .map(|c| c.code().to_string())
        .collect();
    for i in 0..4 {
        let mut whatif = WhatIfRequest::new(degree_request(h0, near, OutputMode::Count));
        if i < 3 {
            whatif.delta.avoid = vec![all_codes[i * 5 % all_codes.len()].clone()];
        } else {
            whatif.delta.max_semester_workload = Some(40.0);
        }
        popular.push(Call::json(Route::WhatIf, &whatif));
    }
    popular.push(Call::bare(Route::Healthz));
    popular.push(Call::bare(Route::Catalog));
    let units: Vec<Unit> = popular.into_iter().map(single).collect();
    let setup = vec![
        SetupUnit {
            tenant: None,
            unit: Unit {
                calls: units.iter().flat_map(|u| u.calls.clone()).collect(),
            },
        },
        tour(data, None),
    ];
    // One connection, not `CONNECTIONS`: pinned to one CPU, a second adds
    // no parallelism (about 17.9k requests/s against 17.2k with one), only
    // queueing behind the other connection's request. That queueing is
    // what hot-cache's p90 measured: in two sets of ten runs its quartile
    // spread was 0.29 and 0.24 with two connections, 0.08 and 0.09 with one.
    let conns = dealt_copies(&units, order, &[None], Looping::Cycle);
    Plan {
        workload: Workload::HotCache,
        base: degree_request(h0, near, OutputMode::Count),
        base_tenant: None,
        tenants: Vec::new(),
        script: Script { setup, conns },
        warm_steps: units.len(),
        replay_steps: if smoke { 64 } else { 4_000 },
        sample_stride: 1,
        samples_per_conn: 0,
        default_data: bundled,
    }
}

fn advise_session(bundled: Arc<RegistrarData>, order: &Rng, smoke: bool) -> Plan {
    let h0 = bundled.horizon.0;
    let mut rng = Rng::new(POPULATION_SEED).fork(1);
    let size = if smoke { 4 } else { 64 };
    // Every student plans three semesters ahead: a one-semester transcript
    // to Fall 2014 (h0 + 4), a two-semester one to Spring 2015.
    let lengths: &[usize] = if smoke { &[1] } else { &[1, 2] };
    let units: Vec<Unit> = population(&bundled, h0, lengths, size, &mut rng)
        .iter()
        .map(|t| session(t, t.next_semester() + 3))
        .collect();
    let tenants: Vec<String> = (0..CONNECTIONS).map(|c| format!("advisor-{c}")).collect();
    passes_plan(
        Workload::AdviseSession,
        bundled.clone(),
        bundled,
        tenants,
        units,
        order,
        degree_request(h0, h0 + 4, OutputMode::Count),
        if smoke { (1, 2) } else { (5, 2) },
    )
}

fn deep_explore(bundled: Arc<RegistrarData>, order: &Rng, smoke: bool) -> Plan {
    let data = Arc::new(if smoke { brandeis_cs() } else { sparse_data() });
    let start = data.horizon.0;
    let (deadline, lengths, size) = if smoke {
        (start + 4, vec![1, 2], 4)
    } else {
        (start + 7, vec![2, 3], 32)
    };
    let mut rng = Rng::new(POPULATION_SEED).fork(2);
    let units: Vec<Unit> = population(&data, start, &lengths, size, &mut rng)
        .iter()
        .map(|t| Unit {
            calls: vec![
                Call::json(
                    Route::Explore,
                    &student_request(t, deadline, OutputMode::Count),
                ),
                top_k(t, deadline, 10, RankingSpec::Time),
                advise_call(t, deadline),
            ],
        })
        .collect();
    let tenants: Vec<String> = (0..CONNECTIONS).map(|c| format!("deep-{c}")).collect();
    passes_plan(
        Workload::DeepExplore,
        bundled,
        data,
        tenants,
        units,
        order,
        degree_request(start, deadline, OutputMode::Count),
        if smoke { (1, 2) } else { (7, 3) },
    )
}

/// A plan where each connection owns a tenant serving `data` and sends the
/// whole population per pass, invalidating its tenant before each pass.
#[allow(clippy::too_many_arguments)]
fn passes_plan(
    workload: Workload,
    bundled: Arc<RegistrarData>,
    data: Arc<RegistrarData>,
    tenants: Vec<String>,
    units: Vec<Unit>,
    order: &Rng,
    base: ExplorationRequest,
    (sample_stride, samples_per_conn): (usize, usize),
) -> Plan {
    let named: Vec<Option<String>> = tenants.iter().cloned().map(Some).collect();
    let setup = named.iter().map(|t| tour(&data, t.as_deref())).collect();
    Plan {
        workload,
        default_data: bundled,
        tenants: tenants
            .iter()
            .map(|t| (t.clone(), Arc::clone(&data)))
            .collect(),
        script: Script {
            setup,
            conns: dealt_copies(&units, order, &named, Looping::Passes),
        },
        base,
        base_tenant: named[0].clone(),
        // Half a pass warms up; the replay sends one whole pass.
        warm_steps: 1 + units.len() / 2,
        replay_steps: 1 + units.len(),
        sample_stride,
        samples_per_conn,
    }
}

/// Every `k`-element subset of `items`, in lexicographic order.
fn subsets(items: &[String], k: usize) -> Vec<Vec<String>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    (0..items.len())
        .flat_map(|i| {
            subsets(&items[i + 1..], k - 1)
                .into_iter()
                .map(move |mut rest| {
                    rest.insert(0, items[i].clone());
                    rest
                })
        })
        .collect()
}

fn whatif_sweep(bundled: Arc<RegistrarData>, order: &Rng, smoke: bool) -> Plan {
    let data = Arc::new(if smoke { brandeis_cs() } else { sparse_data() });
    let start = data.horizon.0;
    let deadline = start + if smoke { 4 } else { 7 };
    let base = degree_request(start, deadline, OutputMode::Count);
    let all: Vec<String> = data
        .catalog
        .courses()
        .map(|c| c.code().to_string())
        .collect();
    let (singles, pairs, triples) = (subsets(&all, 1), subsets(&all, 2), subsets(&all, 3));
    // Deltas as (avoid, force, cap); only those the stream uses are
    // serialized.
    type Delta<'a> = (&'a [String], &'a [String], Option<f64>);
    // Restrictions: every course-pair and -triple avoid, and every single
    // and pair avoid under each workload cap.
    let mut restrict: Vec<Delta<'_>> = pairs
        .iter()
        .chain(&triples)
        .map(|a| (a.as_slice(), &[][..], None))
        .collect();
    for cap in [44.0, 45.0, 46.0, 47.0, 48.0] {
        restrict.extend(
            singles
                .iter()
                .chain(&pairs)
                .map(|a| (a.as_slice(), &[][..], Some(cap))),
        );
    }
    // Forces ("what if I commit to Y", or to Y and Z, ...): one call in ten.
    let mut force: Vec<Delta<'_>> = singles
        .iter()
        .chain(&pairs)
        .chain(&triples)
        .map(|f| (&[][..], f.as_slice(), None))
        .collect();
    let mut rng = order.fork(0x5EE9);
    rng.shuffle(&mut restrict);
    rng.shuffle(&mut force);
    // Neither list wraps, so no delta is sent twice; each connection's
    // share ends its window early rather than repeat one. On the reference
    // machine a connection sends about 1,400 deltas in 20 s, a fifth of
    // its share.
    let total = (restrict.len() * 10 / 9).min(force.len() * 10);
    let mut conns: Vec<Vec<Unit>> = vec![Vec::new(); CONNECTIONS];
    for i in 0..total {
        let (avoid, forced, cap) = if i % 10 == 9 {
            force[i / 10]
        } else {
            restrict[i - i / 10]
        };
        let mut req = WhatIfRequest::new(base.clone());
        req.delta.avoid = avoid.to_vec();
        req.delta.force = forced.to_vec();
        req.delta.max_semester_workload = cap;
        conns[i % CONNECTIONS].push(single(Call::json(Route::WhatIf, &req)));
    }
    let tenant = Some("sparse".to_string());
    let conns = conns
        .into_iter()
        .map(|units| ConnScript::once(tenant.clone(), units))
        .collect();
    // The first what-if builds the base DAG the whole window applies to.
    let setup = vec![
        SetupUnit {
            tenant: tenant.clone(),
            unit: single(Call::json(Route::WhatIf, &WhatIfRequest::new(base.clone()))),
        },
        tour(&data, tenant.as_deref()),
    ];
    Plan {
        workload: Workload::WhatifSweep,
        default_data: bundled,
        tenants: vec![("sparse".to_string(), data)],
        script: Script { setup, conns },
        base,
        base_tenant: tenant,
        // Applying deltas would use up the no-repeat stream; the base DAG
        // build above is this workload's warm-up.
        warm_steps: 0,
        replay_steps: if smoke { 24 } else { 150 },
        sample_stride: if smoke { 2 } else { 11 },
        samples_per_conn: if smoke { 4 } else { 5 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::script::Step;

    #[test]
    fn same_seed_same_script_other_seed_other_script() {
        for workload in ALL {
            let a = plan(workload, 7, true).script.fingerprint();
            let b = plan(workload, 7, true).script.fingerprint();
            let c = plan(workload, 8, true).script.fingerprint();
            assert_eq!(
                a,
                b,
                "{}: same seed must give identical scripts",
                workload.name()
            );
            assert_ne!(
                a,
                c,
                "{}: another seed must change the script",
                workload.name()
            );
        }
    }

    #[test]
    fn resumes_stay_on_their_sessions_connection() {
        let p = plan(Workload::AdviseSession, 3, true);
        let mut resumes = 0;
        for conn in &p.script.conns {
            for i in 0..conn.units.len() * 2 + 2 {
                let Step::Unit(unit) = conn.unit_at(i) else {
                    continue;
                };
                for (k, call) in unit.calls.iter().enumerate() {
                    if let Body::Resume { of, .. } = &call.body {
                        resumes += 1;
                        // The page it resumes was sent earlier in the same
                        // unit, hence on the same connection.
                        assert!(*of < k && unit.calls[*of].paged());
                    }
                }
            }
        }
        assert!(resumes > 0);
    }

    #[test]
    fn whatif_sweep_mixes_one_force_in_ten_without_repeats() {
        let p = plan(Workload::WhatifSweep, 1, true);
        let stream: Vec<&Call> = p
            .script
            .conns
            .iter()
            .flat_map(|c| &c.units)
            .map(|u| &u.calls[0])
            .collect();
        let forced = stream
            .iter()
            .filter(|c| matches!(&c.body, Body::Fixed(b) if !b.contains("\"force\":[]")))
            .count();
        assert_eq!(forced, stream.len() / 10);
        let distinct: std::collections::HashSet<_> =
            stream.iter().map(|c| format!("{:?}", c.body)).collect();
        assert_eq!(distinct.len(), stream.len());
        // A connection that has sent its share stops instead of wrapping.
        for conn in &p.script.conns {
            assert!(matches!(conn.unit_at(conn.units.len()), Step::End));
        }
        let abcd: Vec<String> = ["a", "b", "c", "d"].map(String::from).to_vec();
        assert_eq!(subsets(&abcd, 2).len(), 6);
        assert_eq!(subsets(&abcd, 3)[1], ["a", "b", "d"]);
    }
}
