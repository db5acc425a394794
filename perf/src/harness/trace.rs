//! The traced run: the workload's script replayed in-process, one request
//! at a time, through each layer's public functions in the order the
//! server calls them — parse → decode → response cache → memo registry /
//! DAG store → engine → encode → cache insert — with a span around every
//! call. Tenant state lives in the server's own `CatalogRegistry`, and each
//! connection keeps one `ConnMachine`, as on the wire. Spans live in bench
//! code only (the server is not instrumented), stay in memory, and are
//! written out once the replay ends.
//!
//! The replay is sequential and deterministic, so its work counters
//! (cache hits, memo traffic, interned nodes, applies) repeat exactly for
//! a given seed. Timings are reported per call; a layer's self time is its
//! span minus the union of its children's.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use coursenav_navigator::{
    AdviseRequest, ExplorationCursor, ExplorationRequest, ExplorationResponse, NavigatorService,
    OutputMode, TranspositionTable, UniqueTable, UniqueTableStats, WhatIfRequest,
};
use coursenav_registrar::{json::catalog_to_json, RegistrarData};
use coursenav_server::cache::CacheStats;
use coursenav_server::conn::{ConnMachine, Stage, Step as ConnStep};
use coursenav_server::http::Response;
use coursenav_server::registry::{CatalogRegistry, Tenant, DEFAULT_TENANT};
use coursenav_server::session::SessionStore;
use coursenav_server::{DagStoreSnapshot, MemoRegistrySnapshot};
use coursenav_transcript::Transcript;

use super::client::Reply;
use super::oracle::service;
use super::script::{raw_request, Call, Route, Step, Unit};
use super::wire::{server_config, Exchange, Sample};
use super::workloads::Plan;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer call it covers.
    pub name: &'static str,
    /// Start, in nanoseconds since the replay began.
    pub start_ns: u64,
    /// End, in nanoseconds since the replay began.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request it belongs to.
    pub request_id: u64,
}

/// Records spans when on; a pass-through when off.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request_id: u64,
}

impl Recorder {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request_id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request_id: self.request_id,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by the union of its children (children may nest or overlap).
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans of this name.
    pub calls: u64,
    /// Summed duration, in nanoseconds.
    pub total_ns: u64,
    /// Summed self time, in nanoseconds.
    pub self_ns: u64,
}

/// Totals by span name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(span.name).or_default();
        t.calls += 1;
        t.total_ns += span.end_ns - span.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// What a replay produced besides its spans.
#[derive(Debug, Default)]
pub struct ReplayCounters {
    /// Requests replayed.
    pub requests: u64,
    /// Requests answered with an error status.
    pub failed: u64,
    /// Response-body bytes, summed.
    pub body_bytes: u64,
    /// Nodes cut by time-based pruning, summed over computed count answers.
    pub pruned_time: u64,
    /// Nodes cut by availability pruning, likewise.
    pub pruned_availability: u64,
}

/// The in-process replay of one plan.
pub struct Replay<'p> {
    plan: &'p Plan,
    /// The server's own tenant registry, sized as the server sizes it.
    registry: CatalogRegistry,
    sessions: SessionStore,
    /// One protocol machine per connection — setup's first, then each
    /// scripted connection's — reused request after request, as the event
    /// loop reuses a keep-alive connection's.
    machines: Vec<ConnMachine>,
    max_body: usize,
    /// The span recorder.
    pub rec: Recorder,
    /// Work counters.
    pub counters: ReplayCounters,
    /// Per-request latency after setup, in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Sampled units, for the oracle.
    pub samples: Vec<Sample>,
    in_setup: bool,
}

/// A replayed answer: status and JSON body.
type Answer = (u16, Vec<u8>);

impl<'p> Replay<'p> {
    /// A replay of `plan` with fresh partitions; `spans` turns tracing on.
    pub fn new(plan: &'p Plan, spans: bool) -> Replay<'p> {
        let config = server_config();
        let registry = CatalogRegistry::new(
            (*plan.default_data).clone(),
            config.cache_mb.max(1) << 20,
            config.memo_entries,
            config.dag_nodes,
            config.max_tenants,
            None,
        );
        for (name, data) in &plan.tenants {
            registry
                .register(name, (**data).clone())
                .expect("plan tenants have valid names");
        }
        let machines = (0..=plan.script.conns.len())
            .map(|_| ConnMachine::new(config.max_body_bytes))
            .collect();
        Replay {
            plan,
            registry,
            sessions: SessionStore::new(config.session_capacity, config.session_ttl),
            machines,
            max_body: config.max_body_bytes,
            rec: Recorder::new(spans),
            counters: ReplayCounters::default(),
            latencies_ns: Vec::new(),
            samples: Vec::new(),
            in_setup: true,
        }
    }

    /// Replays setup, then `plan.replay_steps` steps of every connection,
    /// interleaved connection by connection. Returns the wall time.
    pub fn run(&mut self) -> std::time::Duration {
        let t0 = Instant::now();
        let plan = self.plan;
        for step in &plan.script.setup {
            let sample = self.unit(0, step.tenant.as_deref(), &step.unit);
            if plan.samples_per_conn == 0 && self.samples.is_empty() {
                self.samples.push(sample);
            }
        }
        self.in_setup = false;
        let mut sent = vec![0usize; plan.script.conns.len()];
        for i in 0..plan.replay_steps {
            for (c, conn) in plan.script.conns.iter().enumerate() {
                let tenant = conn.tenant.as_deref();
                match conn.unit_at(i) {
                    Step::Invalidate => {
                        self.call(c + 1, tenant, &Call::bare(Route::Invalidate), "");
                    }
                    Step::End => {}
                    Step::Unit(unit) => {
                        let sample = self.unit(c + 1, tenant, unit);
                        let k = sent[c];
                        sent[c] += 1;
                        if plan.samples_per_conn > 0
                            && k % plan.sample_stride == c % plan.sample_stride
                            && k / plan.sample_stride < plan.samples_per_conn
                        {
                            self.samples.push(sample);
                        }
                    }
                }
            }
        }
        t0.elapsed()
    }

    fn unit(&mut self, conn: usize, tenant: Option<&str>, unit: &Unit) -> Sample {
        let mut answers: Vec<Option<Vec<u8>>> = Vec::with_capacity(unit.calls.len());
        let mut exchanges = Vec::with_capacity(unit.calls.len());
        for call in &unit.calls {
            let Some(body) = call.render(&answers) else {
                answers.push(None);
                exchanges.push(Exchange {
                    call: call.clone(),
                    sent: None,
                    reply: None,
                    latency_ns: 0,
                });
                continue;
            };
            let (status, answer) = self.call(conn, tenant, call, &body);
            answers.push((status == 200).then(|| answer.clone()));
            exchanges.push(Exchange {
                call: call.clone(),
                sent: Some(body),
                reply: Some(Reply {
                    status,
                    x_cache: None,
                    degraded: false,
                    body: answer,
                }),
                latency_ns: 0,
            });
        }
        Sample {
            tenant: tenant.map(str::to_string),
            exchanges,
        }
    }

    /// One request through every layer, as the server orders them, on
    /// connection `conn`.
    fn call(&mut self, conn: usize, tenant: Option<&str>, call: &Call, body: &str) -> Answer {
        let raw = raw_request(call.route, tenant, body);
        self.rec.request_id += 1;
        let t0 = Instant::now();
        let name = tenant.unwrap_or(DEFAULT_TENANT);
        let registry = &self.registry;
        let mut cx = Cx {
            tenant: registry
                .get(name)
                .expect("scripts address registered tenants"),
            sessions: &self.sessions,
            machine: &mut self.machines[conn],
            counters: &mut self.counters,
        };
        let (status, answer) = self.rec.span("request", |rec| {
            let parsed = rec.span("conn.parse", |_| match cx.machine.on_bytes(&raw) {
                ConnStep::Dispatch(request) => Some(request),
                _ => None,
            });
            let Some(request) = parsed else {
                return (400, Vec::new());
            };
            let body = String::from_utf8_lossy(&request.body).into_owned();
            match call.route {
                Route::Explore => explore(rec, &mut cx, &body),
                Route::Advise => advise(rec, &mut cx, &body),
                Route::WhatIf => whatif(rec, &mut cx, &body),
                Route::Healthz => (200, encode_bytes(rec, cx.machine, b"{\"status\":\"ok\"}")),
                Route::Catalog => {
                    let json = rec.span("catalog.render", |_| {
                        catalog_to_json(&cx.tenant.data().catalog)
                    });
                    match json {
                        Ok(json) => (200, encode_bytes(rec, cx.machine, json.as_bytes())),
                        Err(_) => (500, Vec::new()),
                    }
                }
                Route::Invalidate => {
                    let dropped = rec
                        .span("tenant.invalidate", |_| registry.invalidate_tenant(name))
                        .expect("the tenant is registered");
                    let json = format!("{{\"tenant\":\"{name}\",\"invalidated\":{dropped}}}");
                    (200, encode_bytes(rec, cx.machine, json.as_bytes()))
                }
            }
        });
        // The socket write: answers the layers did not encode are errors,
        // and a request the machine could not parse closes its connection.
        let machine = cx.machine;
        match machine.stage() {
            Stage::Writing => {}
            Stage::Dispatched => machine.queue_reply(&Response::json(status, answer.clone()), true),
            _ => *machine = ConnMachine::new(self.max_body),
        }
        let written = machine.out_pending().len();
        machine.consume_out(written);
        if machine.stage() == Stage::Writing {
            machine.on_out_drained();
        }
        self.counters.requests += 1;
        self.counters.body_bytes += answer.len() as u64;
        if status != 200 {
            self.counters.failed += 1;
        }
        if !self.in_setup {
            self.latencies_ns.push(t0.elapsed().as_nanos() as u64);
        }
        (status, answer)
    }

    /// Whole-registry response-cache and memo counters, as `/v1/metrics`
    /// reports them.
    pub fn totals(&self) -> (CacheStats, MemoRegistrySnapshot) {
        self.registry.aggregate()
    }

    /// Whole-registry DAG counters, retired tables included.
    pub fn dag_totals(&self) -> DagStoreSnapshot {
        self.registry.aggregate_dag()
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.rec.spans() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"request_id\":{}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.request_id
            )?;
        }
        out.flush()
    }
}

/// What one request's layers reach: its tenant's partition, the session
/// store, the connection it arrived on, and the replay's counters.
struct Cx<'a> {
    tenant: Arc<Tenant>,
    sessions: &'a SessionStore,
    machine: &'a mut ConnMachine,
    counters: &'a mut ReplayCounters,
}

/// Frames `body` as a 200 on the connection's machine, as the event loop
/// does with a worker's answer; returns the body.
fn queue_ok(machine: &mut ConnMachine, body: Vec<u8>) -> Vec<u8> {
    let response = Response::json(200, body);
    machine.queue_reply(&response, true);
    response.body
}

fn encode_bytes(rec: &mut Recorder, machine: &mut ConnMachine, body: &[u8]) -> Vec<u8> {
    rec.span("response.encode", |_| queue_ok(machine, body.to_vec()))
}

fn encode_json(
    rec: &mut Recorder,
    machine: &mut ConnMachine,
    value: &impl serde::Serialize,
) -> Vec<u8> {
    rec.span("response.encode", |_| {
        queue_ok(
            machine,
            serde_json::to_vec(value).expect("responses serialize"),
        )
    })
}

fn error(e: &coursenav_navigator::ServiceError) -> Answer {
    (422, e.to_string().into_bytes())
}

fn count_pruning(counters: &mut ReplayCounters, response: &ExplorationResponse) {
    if let ExplorationResponse::Counts { stats, .. } = response {
        counters.pruned_time += stats.pruned_time;
        counters.pruned_availability += stats.pruned_availability;
    }
}

fn take_cursor(
    rec: &mut Recorder,
    cx: &Cx<'_>,
    token: Option<&str>,
) -> Result<Option<ExplorationCursor>, Answer> {
    let Some(token) = token else {
        return Ok(None);
    };
    let scope = cx.tenant.scope();
    let json = rec
        .span("session.take", |_| cx.sessions.take_scoped(token, &scope))
        .map_err(|e| (410, e.to_string().into_bytes()))?;
    ExplorationCursor::from_json(&json)
        .map(Some)
        .map_err(|e| (500, e.to_string().into_bytes()))
}

fn mint_cursor(rec: &mut Recorder, cx: &Cx<'_>, cursor: ExplorationCursor) -> String {
    let scope = cx.tenant.scope();
    rec.span("session.mint", |_| {
        cx.sessions.mint_scoped(cursor.to_json(), &scope)
    })
}

fn explore(rec: &mut Recorder, cx: &mut Cx<'_>, body: &str) -> Answer {
    let Ok(req) = rec.span("request.decode", |_| {
        ExplorationRequest::from_json(body).map(|r| r.canonicalize())
    }) else {
        return (400, Vec::new());
    };
    let tenant = Arc::clone(&cx.tenant);
    let service = service(tenant.data());
    if req.cursor.is_some() || req.page_size.is_some() {
        let cursor = match take_cursor(rec, cx, req.cursor.as_deref()) {
            Ok(cursor) => cursor,
            Err(answer) => return answer,
        };
        let table = rec.span("memo_registry.table_for", |_| {
            tenant.memo().table_for(&req.memo_key())
        });
        let outcome = rec.span("engine.page", |_| {
            service.run_page_memo(&req, cursor.as_ref(), None, None, table.as_deref())
        });
        return match outcome {
            Ok(mut outcome) => {
                let token = outcome.cursor.take().map(|c| mint_cursor(rec, cx, c));
                outcome.response.set_next_cursor(token);
                (200, encode_json(rec, cx.machine, &outcome.response))
            }
            Err(e) => error(&e),
        };
    }
    let key = req.cache_key();
    if let Some(hit) = rec.span("cache.lookup", |_| tenant.cache().get(&key)) {
        return (200, encode_bytes(rec, cx.machine, &hit));
    }
    let table = rec.span("memo_registry.table_for", |_| {
        tenant.memo().table_for(&req.memo_key())
    });
    let mode = match req.output {
        OutputMode::Count => "engine.count",
        OutputMode::Collect { .. } => "engine.collect",
        OutputMode::TopK { .. } => "engine.topk",
    };
    match rec.span(mode, |_| {
        service.run_until_memo(&req, None, 1, table.as_deref())
    }) {
        Ok(response) => {
            count_pruning(cx.counters, &response);
            let json = encode_json(rec, cx.machine, &response);
            rec.span("cache.insert", |_| tenant.cache().put(&key, &json));
            (200, json)
        }
        Err(e) => error(&e),
    }
}

fn valid_transcript(data: &RegistrarData, spec: &coursenav_navigator::TranscriptSpec) -> bool {
    Transcript::from_codes(&data.catalog, spec.start, &spec.selections)
        .and_then(|t| t.status_after(&data.catalog))
        .is_ok()
}

fn advise(rec: &mut Recorder, cx: &mut Cx<'_>, body: &str) -> Answer {
    let tenant = Arc::clone(&cx.tenant);
    let decoded = rec.span("request.decode", |_| {
        AdviseRequest::from_json(body)
            .ok()
            .filter(|req| valid_transcript(tenant.data(), &req.transcript))
    });
    let Some(req) = decoded else {
        return (400, Vec::new());
    };
    let service = service(tenant.data());
    if req.cursor.is_some() || req.page_size.is_some() {
        let cursor = match take_cursor(rec, cx, req.cursor.as_deref()) {
            Ok(cursor) => cursor,
            Err(answer) => return answer,
        };
        let table = rec.span("memo_registry.table_for", |_| {
            tenant.memo().table_for(&req.memo_key())
        });
        let outcome = rec.span("engine.page", |_| {
            service.advise_until_memo(&req, cursor.as_ref(), None, 1, table.as_deref())
        });
        return match outcome {
            Ok(mut outcome) => {
                outcome.response.next_cursor =
                    outcome.cursor.take().map(|c| mint_cursor(rec, cx, c));
                (200, encode_json(rec, cx.machine, &outcome.response))
            }
            Err(e) => error(&e),
        };
    }
    let key = req.cache_key();
    if let Some(hit) = rec.span("cache.lookup", |_| tenant.cache().get(&key)) {
        return (200, encode_bytes(rec, cx.machine, &hit));
    }
    let table = rec.span("memo_registry.table_for", |_| {
        tenant.memo().table_for(&req.memo_key())
    });
    match rec.span("engine.advise", |_| {
        service.advise_until_memo(&req, None, None, 1, table.as_deref())
    }) {
        Ok(outcome) => {
            let json = encode_json(rec, cx.machine, &outcome.response);
            rec.span("cache.insert", |_| tenant.cache().put(&key, &json));
            (200, json)
        }
        Err(e) => error(&e),
    }
}

fn whatif(rec: &mut Recorder, cx: &mut Cx<'_>, body: &str) -> Answer {
    let tenant = Arc::clone(&cx.tenant);
    let decoded = rec.span("request.decode", |_| {
        WhatIfRequest::from_json(body).ok().filter(|req| {
            req.transcript
                .as_ref()
                .is_none_or(|t| valid_transcript(tenant.data(), t))
        })
    });
    let Some(req) = decoded else {
        return (400, Vec::new());
    };
    let service = service(tenant.data());
    let key = req.cache_key();
    if let Some(hit) = rec.span("cache.lookup", |_| tenant.cache().get(&key)) {
        return (200, encode_bytes(rec, cx.machine, &hit));
    }
    let table = rec.span("memo_registry.table_for", |_| {
        tenant.memo().table_for(&req.memo_key())
    });
    let dag = tenant.dag().table();
    // A what-if whose base DAG is not interned yet builds it first; the
    // span name says which cost this call paid.
    let built = dag.root_for(&req.base_exploration().dag_key()).is_some();
    let layer = if built { "apply" } else { "unique.build" };
    match rec.span(layer, |_| {
        service.whatif_until(&req, None, 1, table.as_deref(), Some(&dag))
    }) {
        Ok(outcome) => {
            count_pruning(cx.counters, &outcome.response);
            let json = encode_json(rec, cx.machine, &outcome.response);
            rec.span("cache.insert", |_| tenant.cache().put(&key, &json));
            (200, json)
        }
        Err(e) => error(&e),
    }
}

/// The attribution pair for the workload's base frame, each on a fresh
/// table: a cold memoized count and a cold DAG build of the same
/// exploration, plus the build's node ledger.
pub struct Attribution {
    /// `run_until_memo` count on a fresh `TranspositionTable::new(1 << 20)`.
    pub cold_count_ms: f64,
    /// The first `whatif_until` on an empty `UniqueTable`.
    pub build_ms: f64,
    /// The built table's counters.
    pub dag: UniqueTableStats,
}

/// Measures the attribution pair for `plan.base`.
pub fn attribute(plan: &Plan) -> Attribution {
    let data = plan.data_for(plan.base_tenant.as_deref());
    let service: NavigatorService<'_> = service(data);
    let memo = TranspositionTable::new(1 << 20);
    let t0 = Instant::now();
    service
        .run_until_memo(&plan.base, None, 1, Some(&memo))
        .expect("the base exploration is valid");
    let cold_count_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(memo);
    let dag = UniqueTable::new(0);
    let t0 = Instant::now();
    service
        .whatif_until(
            &WhatIfRequest::new(plan.base.clone()),
            None,
            1,
            None,
            Some(&dag),
        )
        .expect("the base DAG builds");
    Attribution {
        cold_count_ms,
        build_ms: t0.elapsed().as_secs_f64() * 1e3,
        dag: dag.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two overlapping children cover 10..50 once, not twice.
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            // A nested grandchild counts against its parent only.
            span("c", 60, 90, Some(0)),
            span("d", 70, 80, Some(3)),
            // A child poking past its parent is clipped.
            span("e", 95, 120, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 40 - 30 - 5);
        assert_eq!(selfs[1], 30);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[3], 20);
        assert_eq!(selfs[4], 10);
        let totals = layer_totals(&spans);
        assert_eq!(totals["root"].calls, 1);
        assert_eq!(totals["root"].self_ns, 25);
    }

    #[test]
    fn recorder_nests_spans_and_stays_silent_when_off() {
        let mut rec = Recorder::new(true);
        rec.span("outer", |rec| rec.span("inner", |_| ()));
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut off = Recorder::new(false);
        assert_eq!(off.span("outer", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
