//! The one serving pipeline behind every POST family: buffered
//! `/v1/explore`, `/v1/advise` and `/v1/whatif`, and streamed
//! `/v1/explore/stream` and `/v1/advise/batch`.
//!
//! Every request climbs the same ladder:
//!
//! 1. **admit** — the overload controller answers a fast typed 503 while
//!    its breaker is open; otherwise the request runs at the admitted
//!    degradation level, its latency and outcome feed back into the
//!    controller, and answers below full fidelity carry `x-degraded`.
//! 2. **decode** — UTF-8, then `from_json`, else the typed 400.
//! 3. **tenant and transcript** — the addressed tenant's partition (404
//!    `unknown-tenant`), and for advising routes a transcript that replays
//!    on its catalog (422/400 with the field path at fault).
//! 4. **serve** — a paged request is one page of a resumable session
//!    ([`serve_page`]: resolve the cursor, run, mint the next token; never
//!    cached). Anything else goes through [`serve_cached`]: the response
//!    cache, then singleflight, then the engine. Complete answers are
//!    cached *before* they are published to followers.
//!
//! A [`Family`] supplies only what differs per route: its body type, its
//! cache key, its counters, and how its engine runs. Dispatch is static.

use std::io::Write;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coursenav_navigator::{
    AdviseOutcome, AdviseRequest, AdviseResponse, BatchAdviseRequest, ExplorationCursor,
    ExplorationRequest, ExplorationResponse, ExploreError, NavigatorService, PageOutcome, PageSink,
    ServiceError, StreamedItem, TranscriptSpec, WhatIfRequest, WhatIfServed,
};
use coursenav_registrar::RegistrarData;
use coursenav_transcript::{Transcript, TranscriptError};

use crate::http::{self, Request, Response};
use crate::metrics::Metrics;
use crate::overload::Admission;
use crate::registry::Tenant;
use crate::session::SessionError;
use crate::singleflight::{Published, Role};
use crate::{resolve_tenant, AppState};

/// The counters one family moves: a borrowed view of [`Metrics`].
pub(crate) struct Counters<'a> {
    requests: &'a AtomicU64,
    cache_hits: &'a AtomicU64,
    computed: &'a AtomicU64,
    /// Singleflight followers answered and the milliseconds they waited.
    /// Only explore has them: they predate advise and what-if, whose
    /// coalescing shows as `x-cache: coalesced` alone.
    coalesced: Option<(&'a AtomicU64, &'a AtomicU64)>,
}

/// One buffered POST family: what the pipeline cannot know on its own.
pub(crate) trait Family: Sized {
    /// The request noun in a decode refusal (`bad <WHAT>: …`).
    const WHAT: &'static str;
    /// Parses the body into the form the family serves.
    fn decode(body: &str) -> serde_json::Result<Self>;
    /// The tenant named in the body, if any.
    fn tenant(&self) -> Option<&str>;
    /// The transcript to validate against the tenant's catalog, if any.
    fn transcript(&self) -> Option<&TranscriptSpec> {
        None
    }
    /// Clamps the wall-clock budget and page size.
    fn degrade(&mut self, budget_cap_ms: u64, page_cap: usize);
    /// The request's own wall-clock budget.
    fn budget_ms(&self) -> Option<u64>;
    fn counters(metrics: &Metrics) -> Counters<'_>;
    /// A paged request's answer; `None` sends the request through the
    /// cache.
    fn serve_paged(&self, state: &AppState, tenant: &Tenant) -> Option<Response>;
    fn cache_key(&self) -> String;
    /// Runs the engine. Returns the response and whether it may be
    /// cached: only complete 200s are, since a truncated answer reflects
    /// this request's deadline and errors are cheap to re-derive.
    fn compute(&self, state: &AppState, tenant: &Tenant) -> (Response, bool);
}

impl Family for ExplorationRequest {
    const WHAT: &'static str = "exploration request";

    /// Serves the *canonical* form, not the submitted one: two spellings
    /// that share a cache key must produce byte-identical answers, and a
    /// weighted ranking's reported costs depend on the weight scale.
    fn decode(body: &str) -> serde_json::Result<Self> {
        ExplorationRequest::from_json(body).map(|req| req.canonicalize())
    }

    fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    fn degrade(&mut self, budget_cap_ms: u64, page_cap: usize) {
        self.apply_degradation(budget_cap_ms, page_cap);
    }

    fn budget_ms(&self) -> Option<u64> {
        self.budget_ms
    }

    fn counters(m: &Metrics) -> Counters<'_> {
        Counters {
            requests: &m.explore_requests,
            cache_hits: &m.explore_cache_hits,
            computed: &m.explore_computed,
            coalesced: Some((&m.explore_coalesced, &m.explore_wait_ms)),
        }
    }

    fn serve_paged(&self, state: &AppState, tenant: &Tenant) -> Option<Response> {
        (self.cursor.is_some() || self.page_size.is_some())
            .then(|| explore_page(state, tenant, self))
    }

    fn cache_key(&self) -> String {
        ExplorationRequest::cache_key(self)
    }

    fn compute(&self, state: &AppState, tenant: &Tenant) -> (Response, bool) {
        chaos!(state, crate::faults::FaultSite::PanicBeforeCompute, {
            panic!("chaos: worker panic before compute");
        });
        chaos!(state, crate::faults::FaultSite::ComputeDelay, {
            std::thread::sleep(state.faults.delay);
        });
        let deadline = deadline(state, self.budget_ms);
        let service = navigator(tenant.data());
        // Different requests over the same exploration tree share one
        // transposition table *within the tenant's partition*.
        let table = tenant.memo().table_for(&self.memo_key());
        match service.run_until_memo(self, deadline, state.parallelism, table.as_deref()) {
            Ok(response) => {
                chaos!(state, crate::faults::FaultSite::PanicAfterCompute, {
                    panic!("chaos: worker panic after compute");
                });
                count_truncated(state, &response);
                encode(&response, !response.truncated())
            }
            Err(e) => (engine_error(&e), false),
        }
    }
}

/// Advising rides its own cache key (`advise\n…`), so advise and explore
/// answers never collide, while its memo key is the derived
/// exploration's: advising warms exploration and vice versa.
impl Family for AdviseRequest {
    const WHAT: &'static str = "advise request";

    fn decode(body: &str) -> serde_json::Result<Self> {
        AdviseRequest::from_json(body)
    }

    fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    fn transcript(&self) -> Option<&TranscriptSpec> {
        Some(&self.transcript)
    }

    fn degrade(&mut self, budget_cap_ms: u64, page_cap: usize) {
        self.apply_degradation(budget_cap_ms, page_cap);
    }

    fn budget_ms(&self) -> Option<u64> {
        self.budget_ms
    }

    fn counters(m: &Metrics) -> Counters<'_> {
        Counters {
            requests: &m.advise_requests,
            cache_hits: &m.advise_cache_hits,
            computed: &m.advise_computed,
            coalesced: None,
        }
    }

    /// Advise pages ride the same scoped session store as exploration
    /// pages: they expire on catalog swaps and refuse foreign tenants.
    fn serve_paged(&self, state: &AppState, tenant: &Tenant) -> Option<Response> {
        if self.cursor.is_none() && self.page_size.is_none() {
            return None;
        }
        let computed = &state.metrics.advise_computed;
        Some(serve_page(
            state,
            tenant,
            self.cursor.as_deref(),
            computed,
            |cursor| {
                let outcome = run_advise(state, tenant, self, cursor)?;
                Ok((outcome.response, outcome.cursor))
            },
        ))
    }

    fn cache_key(&self) -> String {
        AdviseRequest::cache_key(self)
    }

    fn compute(&self, state: &AppState, tenant: &Tenant) -> (Response, bool) {
        match run_advise(state, tenant, self, None) {
            Ok(outcome) => encode(&outcome.response, !outcome.response.truncated),
            Err(e) => (engine_error(&e), false),
        }
    }
}

/// Runs one advising request from `cursor` under its own deadline.
fn run_advise(
    state: &AppState,
    tenant: &Tenant,
    req: &AdviseRequest,
    cursor: Option<&ExplorationCursor>,
) -> Result<AdviseOutcome, ServiceError> {
    let deadline = deadline(state, req.budget_ms);
    let table = tenant.memo().table_for(&req.memo_key());
    navigator(tenant.data()).advise_until_memo(
        req,
        cursor,
        deadline,
        state.parallelism,
        table.as_deref(),
    )
}

/// A what-if is answered by set-algebraic apply over the tenant's
/// hash-consed path DAG when possible. A no-force what-if shares the
/// explore cache entry of its merged request, because the answers are
/// byte-identical by construction; a paged one is a paged exploration of
/// the merged request (forces have no paged form).
impl Family for WhatIfRequest {
    const WHAT: &'static str = "what-if request";

    fn decode(body: &str) -> serde_json::Result<Self> {
        WhatIfRequest::from_json(body)
    }

    fn tenant(&self) -> Option<&str> {
        WhatIfRequest::tenant(self)
    }

    fn transcript(&self) -> Option<&TranscriptSpec> {
        self.transcript.as_ref()
    }

    fn degrade(&mut self, budget_cap_ms: u64, page_cap: usize) {
        self.apply_degradation(budget_cap_ms, page_cap);
    }

    fn budget_ms(&self) -> Option<u64> {
        self.base.budget_ms
    }

    fn counters(m: &Metrics) -> Counters<'_> {
        Counters {
            requests: &m.whatif_requests,
            cache_hits: &m.whatif_cache_hits,
            computed: &m.whatif_computed,
            coalesced: None,
        }
    }

    fn serve_paged(&self, state: &AppState, tenant: &Tenant) -> Option<Response> {
        // Merging never touches the paging fields, so the base's decide.
        if self.base.cursor.is_none() && self.base.page_size.is_none() {
            return None;
        }
        Some(if self.delta.force.is_empty() {
            explore_page(state, tenant, &self.merged_request())
        } else {
            engine_error(&ServiceError::Explore(ExploreError::InvalidRequest(
                "forced courses require count output without paging".into(),
            )))
        })
    }

    fn cache_key(&self) -> String {
        WhatIfRequest::cache_key(self)
    }

    fn compute(&self, state: &AppState, tenant: &Tenant) -> (Response, bool) {
        let deadline = deadline(state, self.base.budget_ms);
        let service = navigator(tenant.data());
        let table = tenant.memo().table_for(&self.memo_key());
        let dag = tenant.dag().table();
        match service.whatif_until(
            self,
            deadline,
            state.parallelism,
            table.as_deref(),
            Some(&dag),
        ) {
            Ok(outcome) => {
                bump(match outcome.served {
                    WhatIfServed::Applied => &state.metrics.whatif_applied,
                    WhatIfServed::Explored => &state.metrics.whatif_explored,
                });
                encode(&outcome.response, !outcome.response.truncated())
            }
            Err(e) => {
                if e.code() == "state-budget" {
                    // Retire the saturated table so the retry the typed 413
                    // invites starts against a fresh one; in-flight requests
                    // holding the old table finish unharmed.
                    tenant.dag().retire();
                }
                (engine_error(&e), false)
            }
        }
    }
}

/// One buffered request of family `F` — `POST /v1/explore`,
/// `/v1/advise` or `/v1/whatif` — end to end.
pub(crate) fn serve<F: Family>(state: &AppState, request: &Request) -> Response {
    let counters = F::counters(&state.metrics);
    bump(counters.requests);
    let admitted = match admit(state) {
        Ok(admitted) => admitted,
        Err(resp) => return resp,
    };
    // Refusals of the request itself go out unobserved and unmarked: they
    // say nothing about how loaded the engine is.
    let (req, tenant) = match prepare::<F>(state, request, admitted.level) {
        Ok(prepared) => prepared,
        Err(resp) => return resp,
    };
    let t0 = Instant::now();
    let mut resp = match req.serve_paged(state, &tenant) {
        Some(resp) => resp,
        None => serve_cached(state, &tenant, &req, &counters),
    };
    admitted.observe(state, t0, resp.status);
    resp.extra_headers.extend(degraded_header(admitted.level));
    resp
}

/// Decode, resolve the tenant, validate the transcript, and degrade to the
/// admitted level.
fn prepare<F: Family>(
    state: &AppState,
    request: &Request,
    level: u8,
) -> Result<(F, Arc<Tenant>), Response> {
    let mut req = decode(request, F::WHAT, F::decode)?;
    let tenant = resolve_tenant(state, request, req.tenant())?;
    if let Some(spec) = req.transcript() {
        validate_transcript(&tenant, spec)?;
    }
    if let Some((budget_ms, page_size)) = clamp(state, level) {
        req.degrade(budget_ms, page_size);
    }
    Ok((req, tenant))
}

/// An admitted request: its degradation level, and whether it is the
/// breaker's half-open probe.
struct Admitted {
    level: u8,
    probe: bool,
}

impl Admitted {
    /// Feeds the request's latency since `t0` and its outcome back to the
    /// overload controller.
    fn observe(&self, state: &AppState, t0: Instant, status: u16) {
        state
            .overload
            .observe(t0.elapsed(), status < 500, self.probe);
    }
}

/// Overload admission: `Err` is the breaker's fast typed 503 with
/// `Retry-After`.
fn admit(state: &AppState) -> Result<Admitted, Response> {
    match state.overload.admit() {
        Admission::Reject { retry_after } => Err(Response::overloaded(retry_after)),
        Admission::Go { level, probe } => Ok(Admitted { level, probe }),
    }
}

/// The degradation clamp for an admitted level, as `(budget cap, page
/// cap)`: level 1 gets the soft budget, level 2 the floor, level 0 none.
/// The clamp shrinks budgets and page sizes; it never loosens what the
/// client asked for.
fn clamp(state: &AppState, level: u8) -> Option<(u64, usize)> {
    let c = state.overload.config();
    match level {
        0 => None,
        1 => Some((c.soft_budget_ms, c.degraded_page_size)),
        _ => Some((c.floor_budget_ms, c.degraded_page_size)),
    }
}

/// `x-degraded: <level>`, stamped on answers served below full fidelity.
fn degraded_header(level: u8) -> Option<(String, String)> {
    (level > 0).then(|| ("x-degraded".to_string(), level.to_string()))
}

/// The UTF-8 body parsed by `from_json`, else the typed 400 naming `what`.
fn decode<T>(
    request: &Request,
    what: &str,
    from_json: impl FnOnce(&str) -> serde_json::Result<T>,
) -> Result<T, Response> {
    let refuse =
        |message: &str| Response::error_field(400, "invalid-request", "body", message, false);
    let body = std::str::from_utf8(&request.body).map_err(|_| refuse("body is not UTF-8"))?;
    from_json(body).map_err(|e| refuse(&format!("bad {what}: {e}")))
}

/// The wall-clock deadline for a request: its own budget, else the
/// server default, else none.
fn deadline(state: &AppState, budget_ms: Option<u64>) -> Option<Instant> {
    budget_ms
        .or(state.default_budget_ms)
        .map(|ms| Instant::now() + Duration::from_millis(ms))
}

/// The navigator service over one tenant's registrar data.
fn navigator(data: &RegistrarData) -> NavigatorService<'_> {
    let mut service = NavigatorService::new(&data.catalog);
    if let Some(degree) = &data.degree {
        service = service.with_degree(degree);
    }
    if let Some(offering) = &data.offering {
        service = service.with_offering_model(offering);
    }
    service
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

fn count_truncated(state: &AppState, response: &ExplorationResponse) {
    if response.truncated() {
        bump(&state.metrics.explore_truncated);
    }
}

/// A 200 carrying `value` as JSON plus its cacheability, or a 500 (never
/// cacheable) when it does not serialize.
fn encode<T: serde::Serialize>(value: &T, cacheable: bool) -> (Response, bool) {
    match serde_json::to_string(value) {
        Ok(json) => (Response::json(200, json), cacheable),
        Err(e) => (Response::error(500, &e.to_string()), false),
    }
}

/// Stamps the `x-cache` header that tells a client how its answer was
/// produced: `hit` (response cache), `miss` (this worker ran the engine),
/// `coalesced` (another worker's in-flight computation answered it), or
/// `bypass` (a page of a resumable session).
fn with_x_cache(mut resp: Response, how: &str) -> Response {
    resp.extra_headers.push(("x-cache".into(), how.into()));
    resp
}

/// The response cache, then singleflight, then the engine. Flights
/// coalesce within one `(tenant, epoch)` only: the same request against a
/// freshly swapped catalog is different work.
fn serve_cached<F: Family>(
    state: &AppState,
    tenant: &Tenant,
    req: &F,
    counters: &Counters<'_>,
) -> Response {
    let key = req.cache_key();
    if let Some(cached) = tenant.cache().get(&key) {
        bump(counters.cache_hits);
        return with_x_cache(Response::json(200, cached.to_vec()), "hit");
    }
    let leader = match state.flights.begin(&format!("{}\n{key}", tenant.scope())) {
        Role::Leader(leader) => {
            // Double-check the cache: a previous leader may have published
            // between our miss above and winning this flight.
            if let Some(cached) = tenant.cache().get(&key) {
                bump(counters.cache_hits);
                let resp = Response::json(200, cached.to_vec());
                leader.publish(resp.clone());
                return with_x_cache(resp, "hit");
            }
            Some(leader)
        }
        Role::Follower(follower) => {
            let t0 = Instant::now();
            match follower.wait(deadline(state, req.budget_ms())) {
                Some(Published::Done(resp)) => {
                    if let Some((coalesced, wait_ms)) = counters.coalesced {
                        bump(coalesced);
                        wait_ms.fetch_add(t0.elapsed().as_millis() as u64, Ordering::Relaxed);
                    }
                    return with_x_cache(resp, "coalesced");
                }
                // The leader abandoned (panicked), or our own budget ran
                // out first: compute for ourselves. An already-expired
                // deadline makes that a fast truncated partial — the
                // follower never waits past its budget for someone else.
                Some(Published::Abandoned) | None => None,
            }
        }
    };
    bump(counters.computed);
    let (resp, cacheable) = req.compute(state, tenant);
    // Cache *before* publish: once the flight retires, a racing request
    // must either hit the cache or lead a fresh flight — never recompute
    // what the leader just finished.
    if cacheable {
        cache_put(state, tenant, &key, &resp.body);
    }
    if let Some(leader) = leader {
        leader.publish(resp.clone());
    }
    with_x_cache(resp, "miss")
}

/// Stores a completed answer in the tenant's partition unless the armed
/// fault plan drops the put — the cache-layer failure the chaos suite
/// proves harmless (a dropped put costs a recompute, never a wrong
/// answer).
fn cache_put(state: &AppState, tenant: &Tenant, key: &str, body: &[u8]) {
    chaos!(state, crate::faults::FaultSite::DropCachePut, {
        return;
    });
    let _ = state; // chaos-only parameter in non-chaos builds
    tenant.cache().put(key, body);
}

/// A page response that carries a resume token.
trait Resumable: serde::Serialize {
    fn set_next_cursor(&mut self, token: Option<String>);
}

impl Resumable for ExplorationResponse {
    fn set_next_cursor(&mut self, token: Option<String>) {
        ExplorationResponse::set_next_cursor(self, token);
    }
}

impl Resumable for AdviseResponse {
    fn set_next_cursor(&mut self, token: Option<String>) {
        self.next_cursor = token;
    }
}

/// An engine page: the response, and where to resume when more remain.
type Page<R> = (R, Option<ExplorationCursor>);

/// One page of a resumable session: resolve `token` (consuming its
/// session), run the engine from that cursor, and mint the next token
/// when the run pauses with more to deliver. Pages bypass the response
/// cache and singleflight: each is single-use by construction.
/// `computed` moves only once the engine is entered.
fn serve_page<R: Resumable>(
    state: &AppState,
    tenant: &Tenant,
    token: Option<&str>,
    computed: &AtomicU64,
    run: impl FnOnce(Option<&ExplorationCursor>) -> Result<Page<R>, ServiceError>,
) -> Response {
    let scope = tenant.scope();
    let cursor = match resolve_cursor(state, &scope, token) {
        Ok(cursor) => cursor,
        Err(resp) => return resp,
    };
    bump(computed);
    match run(cursor.as_ref()) {
        Ok((mut response, next)) => {
            response.set_next_cursor(mint_token(state, &scope, next));
            match serde_json::to_string(&response) {
                Ok(json) => with_x_cache(Response::json(200, json), "bypass"),
                Err(e) => Response::error(500, &e.to_string()),
            }
        }
        Err(e) => engine_error(&e),
    }
}

/// One page of an exploration — `/v1/explore`, or a paged what-if's
/// merged request.
fn explore_page(state: &AppState, tenant: &Tenant, req: &ExplorationRequest) -> Response {
    bump(&state.metrics.explore_paged);
    let computed = &state.metrics.explore_computed;
    serve_page(state, tenant, req.cursor.as_deref(), computed, |cursor| {
        let outcome = run_explore_page(state, tenant, req, cursor, None)?;
        count_truncated(state, &outcome.response);
        Ok((outcome.response, outcome.cursor))
    })
}

/// Runs one exploration page from `cursor`, feeding `sink` as results
/// arrive when one is given.
fn run_explore_page(
    state: &AppState,
    tenant: &Tenant,
    req: &ExplorationRequest,
    cursor: Option<&ExplorationCursor>,
    sink: Option<&mut PageSink<'_>>,
) -> Result<PageOutcome, ServiceError> {
    let deadline = deadline(state, req.budget_ms);
    let table = tenant.memo().table_for(&req.memo_key());
    navigator(tenant.data()).run_page_memo(req, cursor, deadline, sink, table.as_deref())
}

/// Resolves an opaque cursor token to the engine cursor it names,
/// consuming the session. `scope` is the resolving tenant's
/// `tenant@epoch`: a token minted under any other scope — another tenant,
/// or this tenant before a catalog swap — answers 410 `cursor-expired`,
/// exactly as if it had aged out. `Err` carries the ready-to-send
/// refusal: 400 `invalid-cursor` for bad tokens, 410 `cursor-expired`
/// for consumed/aged/evicted/out-of-scope sessions.
fn resolve_cursor(
    state: &AppState,
    scope: &str,
    token: Option<&str>,
) -> Result<Option<ExplorationCursor>, Response> {
    let Some(token) = token else {
        return Ok(None);
    };
    let json = state.sessions.take_scoped(token, scope).map_err(|e| {
        let (status, code) = match e {
            SessionError::Invalid => (400, "invalid-cursor"),
            SessionError::Expired => (410, "cursor-expired"),
        };
        Response::error_coded(status, code, &e.to_string(), false)
    })?;
    // The store only holds JSON the engine minted, so a parse failure is a
    // server-side defect, not client input — but refusing the token beats
    // serving a wrong page.
    ExplorationCursor::from_json(&json).map(Some).map_err(|e| {
        Response::error_coded(
            500,
            "internal",
            &format!("stored cursor failed to parse: {e}"),
            false,
        )
    })
}

/// The resume token for `cursor`, minted under `scope`. The chaos site
/// blows the session store away under the minting request's feet: every
/// outstanding cursor must then answer 410, never a wrong page.
fn mint_token(state: &AppState, scope: &str, cursor: Option<ExplorationCursor>) -> Option<String> {
    chaos!(state, crate::faults::FaultSite::EvictSessions, {
        state.sessions.evict_all();
    });
    cursor.map(|c| state.sessions.mint_scoped(c.to_json(), scope))
}

/// Maps an engine failure to its typed wire error: the stable kebab-case
/// code from [`ServiceError::code`], under 400 for cursor problems (the
/// client sent reusable garbage), 413 for a state budget the server ran
/// out of (the answer is too large to materialize — retryable once the
/// saturated table rotates), and 422 otherwise (the request was
/// well-formed but unservable).
fn engine_error(e: &ServiceError) -> Response {
    let status = match e.code() {
        "invalid-cursor" => 400,
        "state-budget" => 413,
        _ => 422,
    };
    Response::error_coded(status, e.code(), &e.to_string(), e.retryable())
}

/// Replays a wire transcript against the tenant's catalog: resolves every
/// code and validates each semester's eligibility. The advising routes
/// refuse a transcript the catalog cannot replay *before* touching the
/// engine, so the typed error names the exact transcript field at fault.
fn transcript_status(tenant: &Tenant, spec: &TranscriptSpec) -> Result<(), TranscriptError> {
    let catalog = &tenant.data().catalog;
    let transcript = Transcript::from_codes(catalog, spec.start, &spec.selections)?;
    transcript.status_after(catalog)?;
    Ok(())
}

/// [`transcript_status`] rendered as the wire refusal: 422 for codes the
/// catalog lacks (the transcript belongs to another catalog revision),
/// 400 for a history the catalog cannot replay (ineligible selections).
fn validate_transcript(tenant: &Tenant, spec: &TranscriptSpec) -> Result<(), Response> {
    transcript_status(tenant, spec).map_err(|e| {
        let status = match e {
            TranscriptError::UnknownCourse { .. } => 422,
            TranscriptError::IneligibleSelection { .. } => 400,
        };
        Response::error_field(status, e.code(), &e.field(), &e.to_string(), false)
    })
}

/// Admission for a streamed route. Refusals before the chunked head — the
/// breaker's 503 included — go out as ordinary buffered responses; the
/// stream's final status feeds the overload controller. Returns the
/// status to account under `/metrics`.
fn serve_stream<W: Write>(
    state: &AppState,
    conn: &mut W,
    stream: impl FnOnce(&mut W, u8) -> Result<u16, Response>,
) -> u16 {
    fn refuse<W: Write>(conn: &mut W, resp: Response) -> u16 {
        let _ = http::write_response(conn, &resp, false);
        resp.status
    }
    let admitted = match admit(state) {
        Ok(admitted) => admitted,
        Err(resp) => return refuse(conn, resp),
    };
    let t0 = Instant::now();
    let status = match stream(conn, admitted.level) {
        Ok(status) => status,
        Err(resp) => refuse(conn, resp),
    };
    admitted.observe(state, t0, status);
    status
}

/// The chunked NDJSON head's extra headers.
fn stream_headers(level: u8) -> Vec<(String, String)> {
    let mut headers = vec![("x-cache".to_string(), "bypass".to_string())];
    headers.extend(degraded_header(level));
    headers
}

/// One NDJSON line.
fn ndjson(value: &serde_json::Value) -> Vec<u8> {
    let mut line = serde_json::to_string(value)
        .unwrap_or_default()
        .into_bytes();
    line.push(b'\n');
    line
}

/// `POST /v1/explore/stream`: the same exploration (and the same
/// resumable-session semantics) as `/v1/explore`, delivered as chunked
/// NDJSON — one `{"path":…}` or `{"ranked":…}` line the moment the engine
/// yields it, then one final `{"done":<response>}` line whose `paths` are
/// cleared (they were already streamed) and whose `next_cursor` carries
/// the resume token.
pub(crate) fn explore_stream<W: Write>(state: &AppState, conn: &mut W, request: &Request) -> u16 {
    bump(&state.metrics.explore_requests);
    bump(&state.metrics.explore_streamed);
    serve_stream(state, conn, |conn, level| {
        stream_page(state, conn, request, level)
    })
}

fn stream_page<W: Write>(
    state: &AppState,
    conn: &mut W,
    request: &Request,
    level: u8,
) -> Result<u16, Response> {
    let (req, tenant) = prepare::<ExplorationRequest>(state, request, level)?;
    let scope = tenant.scope();
    let cursor = resolve_cursor(state, &scope, req.cursor.as_deref())?;
    bump(&state.metrics.explore_computed);

    // The chunked head goes out lazily, on the first streamed line: every
    // error the engine can detect up front still gets a proper status.
    let head_headers = stream_headers(level);
    let mut head_written = false;
    let mut io_failed = false;
    let result = {
        let mut sink = |item: StreamedItem<'_>| -> ControlFlow<()> {
            if !head_written {
                if http::write_chunked_head(conn, 200, "application/x-ndjson", &head_headers)
                    .is_err()
                {
                    io_failed = true;
                    return ControlFlow::Break(());
                }
                head_written = true;
            }
            let (key, value) = match item {
                StreamedItem::Path(p) => ("path", serde_json::to_value(p)),
                StreamedItem::Ranked(r) => ("ranked", serde_json::to_value(r)),
            };
            let line = ndjson(&serde_json::Value::Object(vec![(key.to_string(), value)]));
            if http::write_chunk(conn, &line).is_err() {
                io_failed = true;
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        };
        run_explore_page(state, &tenant, &req, cursor.as_ref(), Some(&mut sink))
    };
    match result {
        // The connection died mid-stream (the event loop reaped or reset
        // it and closed our buffer). The loop owns the reset accounting;
        // this is not a server error, and nobody is left to resume.
        Ok(_) if io_failed => Ok(200),
        Ok(mut outcome) => {
            count_truncated(state, &outcome.response);
            let token = mint_token(state, &scope, outcome.cursor);
            outcome.response.set_next_cursor(token);
            // The summary line: the response minus the already-streamed
            // paths. The response serializes as {"<variant>": {fields}},
            // so the `paths` field to clear sits one level down.
            let mut done = serde_json::to_value(&outcome.response);
            if let serde_json::Value::Object(variants) = &mut done {
                for (_, body) in variants.iter_mut() {
                    if let serde_json::Value::Object(fields) = body {
                        for (key, value) in fields.iter_mut() {
                            if key == "paths" {
                                *value = serde_json::Value::Array(Vec::new());
                            }
                        }
                    }
                }
            }
            let line = ndjson(&serde_json::Value::Object(vec![("done".to_string(), done)]));
            if !head_written
                && http::write_chunked_head(conn, 200, "application/x-ndjson", &head_headers)
                    .is_err()
            {
                return Ok(200);
            }
            let _ = http::write_chunk(conn, &line);
            let _ = http::finish_chunks(conn);
            Ok(200)
        }
        Err(e) if head_written => {
            // Mid-stream failure: the 200 head is already on the wire, so
            // the typed error rides the last line instead.
            let resp = engine_error(&e);
            let mut line = resp.body;
            line.push(b'\n');
            let _ = http::write_chunk(conn, &line);
            let _ = http::finish_chunks(conn);
            Ok(resp.status)
        }
        Err(e) => Err(engine_error(&e)),
    }
}

/// `POST /v1/advise/batch`: cohort advising. One shared `(tenant, epoch)`
/// transposition table warms across every student (their derived
/// explorations share a memo key by construction), and per-student
/// answers stream back as chunked NDJSON: `{"student":i,"advise":…}` or
/// `{"student":i,"error":…}` (one student's bad transcript never sinks
/// the cohort), closed by one
/// `{"done":{"students":N,"errors":E,"truncated":bool}}` summary. The
/// batch bypasses the response cache — the shared memo table is where the
/// cohort's overlap pays off.
pub(crate) fn advise_batch<W: Write>(state: &AppState, conn: &mut W, request: &Request) -> u16 {
    bump(&state.metrics.advise_batch_requests);
    serve_stream(state, conn, |conn, level| {
        stream_batch(state, conn, request, level)
    })
}

fn stream_batch<W: Write>(
    state: &AppState,
    conn: &mut W,
    request: &Request,
    level: u8,
) -> Result<u16, Response> {
    let batch = decode(
        request,
        "advise batch request",
        BatchAdviseRequest::from_json,
    )?;
    if batch.students.is_empty() {
        return Err(Response::error_field(
            400,
            "invalid-request",
            "students",
            "at least one student is required",
            false,
        ));
    }
    let tenant = resolve_tenant(state, request, batch.tenant.as_deref())?;
    if http::write_chunked_head(conn, 200, "application/x-ndjson", &stream_headers(level)).is_err()
    {
        // Connection gone before the head went out; the event loop owns
        // the reset accounting.
        return Ok(200);
    }

    let service = navigator(tenant.data());
    // Every student in the cohort derives the same memo key (the key masks
    // transcript-specific state), so one table fetch serves them all —
    // student 1's subtrees answer student 2's overlapping suffixes.
    let table = tenant.memo().table_for(&batch.student(0).memo_key());
    let number = |n: u64| serde_json::Value::Num(serde_json::Number::U(u128::from(n)));
    let mut errors: u64 = 0;
    let mut truncated_any = false;
    for i in 0..batch.students.len() {
        bump(&state.metrics.advise_batch_students);
        let mut req = batch.student(i);
        if let Some((budget_ms, page_size)) = clamp(state, level) {
            req.apply_degradation(budget_ms, page_size);
        }
        // The budget is per student, restarted each iteration: a cohort of
        // N gets N budgets, not one split N ways.
        let deadline = deadline(state, req.budget_ms);
        let (key, value) = match transcript_status(&tenant, &req.transcript) {
            Err(e) => {
                errors += 1;
                // Re-root the field path at this student's slot in the
                // batch: `transcript.selections[2]` → `students[4].selections[2]`.
                let field = format!(
                    "students[{i}].{}",
                    e.field().trim_start_matches("transcript.")
                );
                (
                    "error",
                    http::error_value(e.code(), Some(&field), &e.to_string(), false),
                )
            }
            Ok(()) => match service.advise_until_memo(
                &req,
                None,
                deadline,
                state.parallelism,
                table.as_deref(),
            ) {
                Ok(outcome) => {
                    truncated_any |= outcome.response.truncated;
                    ("advise", serde_json::to_value(&outcome.response))
                }
                Err(e) => {
                    errors += 1;
                    (
                        "error",
                        http::error_value(e.code(), None, &e.to_string(), e.retryable()),
                    )
                }
            },
        };
        let line = serde_json::Value::Object(vec![
            ("student".to_string(), number(i as u64)),
            (key.to_string(), value),
        ]);
        if http::write_chunk(conn, &ndjson(&line)).is_err() {
            // Connection gone mid-cohort; the event loop owns the reset
            // accounting.
            return Ok(200);
        }
    }
    let done = serde_json::Value::Object(vec![(
        "done".to_string(),
        serde_json::Value::Object(vec![
            ("students".to_string(), number(batch.students.len() as u64)),
            ("errors".to_string(), number(errors)),
            (
                "truncated".to_string(),
                serde_json::Value::Bool(truncated_any),
            ),
        ]),
    )]);
    let _ = http::write_chunk(conn, &ndjson(&done));
    let _ = http::finish_chunks(conn);
    Ok(200)
}
