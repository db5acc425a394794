//! The CourseNavigator serving layer: a dependency-light concurrent
//! HTTP/1.1 server over
//! [`NavigatorService`](coursenav_navigator::NavigatorService).
//!
//! The paper's system model (§3) puts a web front end in front of the
//! exploration engine; this crate is the boundary between them. Design
//! goals, in order:
//!
//! 1. **Interactivity.** Every `POST /explore` runs under a wall-clock
//!    deadline threaded into the engine's `ControlFlow` machinery
//!    ([`run_until_memo`](coursenav_navigator::NavigatorService::run_until_memo));
//!    a slow exploration returns a partial answer marked `truncated`
//!    instead of holding the connection.
//! 2. **Effective caching.** Responses are cached under the request's
//!    *canonical* form ([`ExplorationRequest::cache_key`]) — reordered
//!    course lists and rescaled ranking weights hit the same entry. Only
//!    complete (non-truncated) answers are cached. One level deeper, the
//!    [`memo`] registry keeps the engine's transposition tables alive
//!    *across* requests: explorations that differ only in output mode,
//!    ranking, budget, or paging share memoized subtrees
//!    ([`ExplorationRequest::memo_key`]).
//! 3. **Bounded everything.** Fixed worker pool, bounded hand-off queue
//!    with 503 load-shedding, capped request bodies, byte-budgeted cache.
//! 4. **One engine run per answer.** Concurrent duplicates of a cold
//!    request coalesce onto a single computation ([`singleflight`]); the
//!    engine itself can fan first-level subtrees across cores
//!    (`parallelism`) without changing a byte of the answer.
//!
//! The complete wire-API reference — every `/v1` route, request/response
//! shapes, typed error codes, and the deprecation policy for the
//! unprefixed aliases — lives in `docs/WIRE_API.md` at the repository
//! root; the golden wire-contract suite
//! (`crates/server/tests/wire_contract.rs`) pins that document route by
//! route. Headlines: `POST /v1/explore` (+ `/stream` NDJSON) serves
//! catalog-global explorations, `POST /v1/advise` (+ `/batch` NDJSON)
//! serves transcript-conditioned advising, and the `GET` surface covers
//! catalog, health, metrics, and tenant administration. Unprefixed
//! spellings answer `308` redirects carrying `Deprecation`/`Sunset`
//! headers until removal.
//!
//! **Durability.** With a snapshot directory configured
//! ([`ServerConfig::snapshot_dir`]), a background thread periodically
//! writes every tenant's warm state — transposition tables and resumable
//! sessions — to an atomic, checksummed snapshot file ([`snapshot`]);
//! [`Server::warm_from`] loads one at startup so a restarted replica
//! answers its first queries from memo instead of re-exploring. Restored
//! state is behaviorally invisible: answers are byte-identical to a cold
//! recompute, and a snapshot that fails validation (or mismatches the
//! serving catalog) is rejected whole — the server starts cold, never
//! half-loaded.
//!
//! **Multi-tenancy.** The server holds named catalogs in a
//! [`registry::CatalogRegistry`]; each tenant serves at a monotonic epoch
//! and owns its own response cache and memo tables, so swapping one
//! tenant's catalog never cools another's. Requests pick their tenant via
//! the request's `tenant` field or the `x-tenant` header; both absent
//! resolves [`registry::DEFAULT_TENANT`], which preserves single-catalog
//! behaviour byte for byte. Session tokens and singleflight keys carry
//! the `tenant@epoch` scope, so a cursor minted before a swap answers the
//! usual 410 `cursor-expired` after it.
//!
//! Paged explorations are *resumable sessions*: a truncated page carries
//! `next_cursor`, an opaque signed token the [`session`] store resolves
//! back to the engine's serialized DFS frontier. Resuming continues the
//! exploration exactly where it paused — concatenated pages are
//! byte-identical to one unpaged run. Paged requests bypass the response
//! cache and singleflight (each page is single-use by construction).
//!
//! No async runtime, no HTTP framework: `std::net` sockets, raw `epoll`
//! (see [`sys`]), a crossbeam channel, and parking_lot locks.
//!
//! **Threading model (PR 9).** One event-loop thread owns every
//! connection: nonblocking accept, epoll readiness, incremental parsing
//! through a per-connection staged state machine ([`conn`]), and
//! response/stream writes as each socket drains. The worker pool
//! ([`pool`]) does *compute only* — one job per dispatched request —
//! so an idle keep-alive connection costs a slab slot and its buffers,
//! not a parked thread, and the concurrency ceiling is the fd limit
//! rather than the thread count. All idle/408/write-stall deadlines
//! live in one timer wheel ([`timer`]) inside the loop. See [`http`]
//! for the wire protocol, [`cache`] for the LRU.
//!
//! **One serving pipeline.** Every POST route — explore, advise and
//! what-if, plus the streamed explore and cohort-batch routes — runs the
//! same ladder in the private `pipeline` module: overload admission,
//! decoding, tenant and transcript checks, degradation, then either one
//! page of a resumable session or the response cache → singleflight →
//! engine path. This file keeps the server's lifecycle, the route table
//! and the admin routes.

#![warn(missing_docs)]

/// Runs `$action` when the armed fault plan fires at `$site` — compiled
/// out entirely (no branch, no plan lookup) without the `chaos` feature.
#[cfg(feature = "chaos")]
macro_rules! chaos {
    ($state:expr, $site:expr, $action:block) => {
        if $state.faults.fires($site) $action
    };
}
#[cfg(not(feature = "chaos"))]
macro_rules! chaos {
    ($state:expr, $site:expr, $action:block) => {};
}

pub mod cache;
pub mod conn;
mod event;
pub mod faults;
pub mod http;
pub mod memo;
pub mod metrics;
pub mod overload;
mod pipeline;
pub mod pool;
pub mod registry;
pub mod session;
pub mod singleflight;
pub mod snapshot;
pub mod sys;
pub mod timer;

use std::net::{SocketAddr, TcpListener};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coursenav_navigator::{AdviseRequest, ExplorationRequest, WhatIfRequest};
use coursenav_registrar::{json::catalog_to_json, parse_registrar_file, RegistrarData};

use http::{Request, Response};
pub use memo::MemoRegistrySnapshot;
use metrics::Metrics;
pub use metrics::MetricsSnapshot;
use overload::Overload;
pub use overload::{OverloadConfig, OverloadSnapshot};
use registry::{CatalogRegistry, RegistryError, Tenant, DEFAULT_TENANT};
pub use registry::{DagStoreSnapshot, Registered, TenantInfo, TenantSnapshot};
use session::SessionStore;
use singleflight::Singleflight;
pub use snapshot::{RestoreError, RestoreReport, SnapshotStats};

/// Server tuning knobs. `Default` is sized for an interactive deployment.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:8080` (port 0 picks a free port).
    pub addr: String,
    /// Compute worker threads (the event loop owns every connection;
    /// workers only run routed requests).
    pub threads: usize,
    /// Response-cache budget in mebibytes, *per tenant partition* (the
    /// budget is a cap, not an allocation — an idle tenant's cache costs
    /// nothing).
    pub cache_mb: usize,
    /// Dispatched-but-unclaimed compute queue; a request arriving
    /// beyond it is shed with 503 (and under [`ServerConfig::max_connections`]'s
    /// default, connections beyond `threads + queue_depth` shed at
    /// accept — the same admission the bounded hand-off queue enforced
    /// under thread-per-connection).
    pub queue_depth: usize,
    /// Hard cap on concurrently held connections; beyond it, accepts
    /// answer the saturation 503 and close. `None` derives
    /// `threads + queue_depth`, matching the old thread-pool ceiling;
    /// raise it to hold large idle keep-alive populations.
    pub max_connections: Option<usize>,
    /// Byte cap on each streaming response's hand-off buffer between
    /// the compute worker and the event loop. A stalled client blocks
    /// its worker only until the write-stall reaper frees it.
    pub stream_buffer_bytes: usize,
    /// Per-request body cap in bytes.
    pub max_body_bytes: usize,
    /// How long a keep-alive connection may sit idle between requests.
    pub keep_alive: Duration,
    /// Wall-clock budget applied to explorations that do not carry their
    /// own `budget_ms`; `None` lets them run to completion.
    pub default_budget_ms: Option<u64>,
    /// Engine worker threads per exploration: first-level subtrees are
    /// dealt across this many scoped workers. `1` runs sequentially;
    /// parallel answers are byte-identical to sequential ones.
    pub parallelism: usize,
    /// Per-table cap on the cross-request transposition tables that let
    /// different requests over the same exploration tree share subtree
    /// work ([`memo::MemoRegistry`]). `0` disables memoization.
    pub memo_entries: usize,
    /// Per-tenant node cap on the hash-consed path-DAG table that
    /// `/v1/whatif` builds base explorations into. A base DAG that would
    /// outgrow it answers a typed, retryable `413 state-budget` and the
    /// saturated table is retired for a fresh one. `0` removes the cap.
    pub dag_nodes: usize,
    /// Live resumable sessions kept at once; beyond it, the least
    /// recently minted cursor is evicted (its token answers 410).
    pub session_capacity: usize,
    /// How long an unclaimed cursor stays resumable.
    pub session_ttl: Duration,
    /// Most tenants the registry accepts (the default tenant included);
    /// registering beyond it answers 409. Swaps of existing tenants are
    /// always admitted.
    pub max_tenants: usize,
    /// Where the background snapshotter writes its atomic snapshot file
    /// (and where `POST /v1/snapshot` lands). `None` disables durable
    /// snapshots entirely.
    pub snapshot_dir: Option<PathBuf>,
    /// Cadence of the background snapshotter (ignored when
    /// [`ServerConfig::snapshot_dir`] is `None`).
    pub snapshot_every: Duration,
    /// Degradation-ladder and circuit-breaker tuning.
    pub overload: OverloadConfig,
    /// The armed fault-injection plan (chaos builds only; the disarmed
    /// default never fires).
    #[cfg(feature = "chaos")]
    pub faults: Arc<faults::FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 4,
            cache_mb: 64,
            queue_depth: 64,
            max_connections: None,
            stream_buffer_bytes: 4 << 20,
            max_body_bytes: 1 << 20,
            keep_alive: Duration::from_secs(5),
            default_budget_ms: Some(10_000),
            parallelism: 1,
            memo_entries: 1 << 16,
            dag_nodes: 1 << 20,
            session_capacity: 1024,
            session_ttl: Duration::from_secs(300),
            max_tenants: 256,
            snapshot_dir: None,
            snapshot_every: Duration::from_secs(60),
            overload: OverloadConfig::default(),
            #[cfg(feature = "chaos")]
            faults: Arc::new(faults::FaultPlan::disabled()),
        }
    }
}

/// Shared server state: the tenant registry (every catalog and its
/// partitioned caches) plus the cross-tenant serving machinery.
struct AppState {
    registry: CatalogRegistry,
    metrics: Metrics,
    flights: Singleflight,
    sessions: SessionStore,
    overload: Overload,
    snapshots: SnapshotState,
    default_budget_ms: Option<u64>,
    parallelism: usize,
    #[cfg(feature = "chaos")]
    faults: Arc<faults::FaultPlan>,
}

/// Durable-snapshot configuration and counters (the `snapshot` block on
/// `/v1/metrics`). Counters are independent relaxed atomics, like
/// [`Metrics`].
struct SnapshotState {
    /// Where snapshots land; `None` disables the feature.
    dir: Option<PathBuf>,
    writes: AtomicU64,
    write_errors: AtomicU64,
    last_write_bytes: AtomicU64,
    last_write_ms: AtomicU64,
    restored_tenants: AtomicU64,
    rejected_tenants: AtomicU64,
    restored_entries: AtomicU64,
    restored_sessions: AtomicU64,
}

impl SnapshotState {
    fn new(dir: Option<PathBuf>) -> SnapshotState {
        SnapshotState {
            dir,
            writes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            last_write_bytes: AtomicU64::new(0),
            last_write_ms: AtomicU64::new(0),
            restored_tenants: AtomicU64::new(0),
            rejected_tenants: AtomicU64::new(0),
            restored_entries: AtomicU64::new(0),
            restored_sessions: AtomicU64::new(0),
        }
    }

    fn stats(&self) -> SnapshotStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        SnapshotStats {
            enabled: self.dir.is_some(),
            writes: load(&self.writes),
            write_errors: load(&self.write_errors),
            last_write_bytes: load(&self.last_write_bytes),
            last_write_ms: load(&self.last_write_ms),
            restored_tenants: load(&self.restored_tenants),
            rejected_tenants: load(&self.rejected_tenants),
            restored_entries: load(&self.restored_entries),
            restored_sessions: load(&self.restored_sessions),
        }
    }
}

/// The background snapshotter thread plus its stop signal.
struct Snapshotter {
    stop: Arc<(parking_lot::Mutex<bool>, parking_lot::Condvar)>,
    handle: std::thread::JoinHandle<()>,
}

/// A running server. Dropping it shuts it down gracefully.
///
/// Field order is teardown order: the event loop stops first (closing
/// every connection and stream buffer, which frees any blocked worker
/// and drops its pool handle), then the pool disconnects and joins.
pub struct Server {
    events: event::EventLoop,
    pool: pool::Pool,
    addr: SocketAddr,
    state: Arc<AppState>,
    snapshotter: Option<Snapshotter>,
}

impl Server {
    /// Binds `config.addr`, spawns the acceptor and workers, and starts
    /// serving `data`.
    pub fn start(config: ServerConfig, data: RegistrarData) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // Route every partition's memo inserts through the armed fault
        // plan: when `MemoInsertDropped` fires, the store is skipped and
        // the subtree simply gets recomputed next time.
        #[cfg(feature = "chaos")]
        let gate: Option<coursenav_navigator::InsertGate> = {
            let faults = Arc::clone(&config.faults);
            Some(Arc::new(move || {
                !faults.fires(faults::FaultSite::MemoInsertDropped)
            }))
        };
        #[cfg(not(feature = "chaos"))]
        let gate: Option<coursenav_navigator::InsertGate> = None;
        let state = Arc::new(AppState {
            registry: CatalogRegistry::new(
                data,
                config.cache_mb.max(1) * (1 << 20),
                config.memo_entries,
                config.dag_nodes,
                config.max_tenants,
                gate,
            ),
            metrics: Metrics::new(),
            flights: Singleflight::new(),
            sessions: SessionStore::new(config.session_capacity, config.session_ttl),
            overload: Overload::new(config.overload.clone()),
            snapshots: SnapshotState::new(config.snapshot_dir.clone()),
            default_budget_ms: config.default_budget_ms,
            parallelism: config.parallelism.max(1),
            #[cfg(feature = "chaos")]
            faults: Arc::clone(&config.faults),
        });

        let depth_gauge = state.overload.queue_gauge();
        let pool = pool::spawn(config.threads, Arc::clone(&depth_gauge));
        let hooks = {
            let metrics_accept = Arc::clone(&state);
            let metrics_request = Arc::clone(&state);
            let can_dispatch_state = Arc::clone(&state);
            let shed_state = Arc::clone(&state);
            let status_state = Arc::clone(&state);
            let reset_state = Arc::clone(&state);
            #[cfg(feature = "chaos")]
            let tear_state = Arc::clone(&state);
            #[cfg(feature = "chaos")]
            let stall_state = Arc::clone(&state);
            let handle_state = Arc::clone(&state);
            let submitter = pool.handle();
            let queue_depth = config.queue_depth.max(1) as u64;
            event::Hooks {
                on_accept: Box::new(move || {
                    metrics_accept
                        .metrics
                        .connections_accepted
                        .fetch_add(1, Ordering::Relaxed);
                }),
                on_request: Box::new(move || {
                    metrics_request
                        .metrics
                        .requests_total
                        .fetch_add(1, Ordering::Relaxed);
                }),
                can_dispatch: Box::new(move || {
                    can_dispatch_state
                        .overload
                        .queue_gauge()
                        .load(Ordering::Relaxed)
                        < queue_depth
                }),
                on_shed: Box::new(move || {
                    // Sheds get their own counter, deliberately *not*
                    // folded into `server_errors`: a shed is load-control
                    // working as designed, and overload dashboards need it
                    // distinguishable from handler failures.
                    shed_state
                        .metrics
                        .connections_shed
                        .fetch_add(1, Ordering::Relaxed);
                    // The advertised retry-after: the breaker's remaining
                    // cooldown when it is open (rounded up), else the
                    // minimum.
                    shed_state
                        .overload
                        .remaining_open()
                        .map(|d| d.as_secs() + u64::from(d.subsec_nanos() > 0))
                        .unwrap_or(1)
                        .max(1)
                }),
                on_status: Box::new(move |status| {
                    status_state.metrics.count_status(status);
                }),
                on_reset: Box::new(move || {
                    reset_state
                        .metrics
                        .connections_reset
                        .fetch_add(1, Ordering::Relaxed);
                }),
                #[cfg(feature = "chaos")]
                chaos_tear: Box::new(move || {
                    if tear_state.faults.fires(faults::FaultSite::ResetMidWrite) {
                        // Count before the tear goes on the wire: the
                        // moment the peer sees the torn bytes the counter
                        // must already reflect it.
                        tear_state
                            .metrics
                            .connections_reset
                            .fetch_add(1, Ordering::Relaxed);
                        true
                    } else {
                        false
                    }
                }),
                #[cfg(not(feature = "chaos"))]
                chaos_tear: Box::new(|| false),
                #[cfg(feature = "chaos")]
                chaos_stall: Box::new(move || {
                    stall_state.faults.fires(faults::FaultSite::ConnectionStall)
                }),
                #[cfg(not(feature = "chaos"))]
                chaos_stall: Box::new(|| false),
                handle: Box::new(move |request, responder| {
                    let state = Arc::clone(&handle_state);
                    submitter.submit(Box::new(move || {
                        run_request(&state, request, responder);
                    }));
                }),
            }
        };
        let max_connections = config
            .max_connections
            .unwrap_or(config.threads.max(1) + config.queue_depth.max(1));
        let events = event::EventLoop::spawn(
            listener,
            event::EventConfig {
                max_body: config.max_body_bytes,
                keep_alive: config.keep_alive,
                max_connections,
                stream_buffer: config.stream_buffer_bytes,
            },
            hooks,
            Arc::clone(&state.metrics.event),
        )?;
        // The periodic snapshotter: one thread, woken early by shutdown.
        // It writes on each tick; the first snapshot lands one period in
        // (startup state is exactly what `--warm-from` just restored).
        let snapshotter = config.snapshot_dir.is_some().then(|| {
            let stop = Arc::new((parking_lot::Mutex::new(false), parking_lot::Condvar::new()));
            let thread_stop = Arc::clone(&stop);
            let thread_state = Arc::clone(&state);
            let every = config.snapshot_every.max(Duration::from_millis(10));
            let handle = std::thread::Builder::new()
                .name("snapshotter".into())
                .spawn(move || {
                    let (lock, cv) = &*thread_stop;
                    let mut stopped = lock.lock();
                    loop {
                        cv.wait_for(&mut stopped, every);
                        if *stopped {
                            return;
                        }
                        let _ = write_snapshot_now(&thread_state);
                    }
                })
                .expect("spawn snapshotter thread");
            Snapshotter { stop, handle }
        });
        Ok(Server {
            events,
            pool,
            addr,
            state,
            snapshotter,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time metrics snapshot (what `GET /metrics` serves).
    pub fn metrics(&self) -> MetricsSnapshot {
        full_snapshot(&self.state)
    }

    /// Replaces the **default tenant's** catalog — the single-catalog
    /// reload path. The swap bumps the tenant's epoch and retires its
    /// caches and memo tables; in-flight requests finish against the
    /// partition they resolved. Returns the cached responses retired.
    pub fn swap_catalog(&self, data: RegistrarData) -> u64 {
        self.state
            .registry
            .register(DEFAULT_TENANT, data)
            .expect("the default tenant always exists")
            .dropped_entries
    }

    /// Registers (or hot-swaps) a tenant catalog programmatically — the
    /// in-process spelling of `PUT /v1/catalogs/{tenant}`.
    pub fn register_tenant(
        &self,
        name: &str,
        data: RegistrarData,
    ) -> Result<Registered, registry::RegistryError> {
        self.state.registry.register(name, data)
    }

    /// Registered tenants and their epochs (the in-process spelling of
    /// `GET /v1/catalogs`).
    pub fn tenants(&self) -> Vec<TenantInfo> {
        self.state.registry.list()
    }

    /// Writes a snapshot of every tenant's warm state right now — the
    /// in-process spelling of `POST /v1/snapshot`. Returns the final file
    /// path and its size in bytes; `ErrorKind::Unsupported` when no
    /// snapshot directory is configured.
    pub fn write_snapshot(&self) -> std::io::Result<(PathBuf, u64)> {
        write_snapshot_now(&self.state)
    }

    /// Loads the snapshot in `dir` (if any) and warms this server's
    /// serving state from it: memo tables for every tenant whose
    /// catalog fingerprint and epoch still match, plus the resumable
    /// sessions scoped to those partitions. A missing file is a normal
    /// cold start (`loaded: false`), not an error; a corrupt file rejects
    /// whole. Call before taking traffic — restored state is behaviorally
    /// invisible, but restoring mid-flight would race the snapshotter.
    pub fn warm_from(&self, dir: &Path) -> Result<RestoreReport, RestoreError> {
        let bytes = match std::fs::read(dir.join(snapshot::SNAPSHOT_FILE)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(RestoreReport::default());
            }
            Err(e) => return Err(RestoreError::Io(e.to_string())),
        };
        let snap = snapshot::decode(&bytes).map_err(|e| RestoreError::Corrupt(e.to_string()))?;
        let mut report = RestoreReport {
            loaded: true,
            ..RestoreReport::default()
        };
        // Per-tenant acceptance: a partition restores whole or not at all.
        // Accepted scopes gate the session import below — a session's
        // cursor references memoized state that must have come along.
        let mut restored_scopes = Vec::new();
        for tenant in snap.tenants {
            match self.state.registry.restore_partition(
                &tenant.name,
                tenant.epoch,
                tenant.fingerprint,
            ) {
                Ok(partition) => {
                    report.tenants_restored += 1;
                    restored_scopes.push(partition.scope());
                    for table in tenant.tables {
                        report.entries_restored += partition
                            .memo()
                            .import_table(&table.memo_key, table.entries);
                    }
                }
                Err(_) => report.tenants_rejected += 1,
            }
        }
        let mut sessions = snap.sessions;
        sessions
            .entries
            .retain(|rec| restored_scopes.contains(&rec.scope));
        if !sessions.entries.is_empty() {
            report.sessions_restored = self.state.sessions.import(sessions);
        }
        let s = &self.state.snapshots;
        s.restored_tenants
            .fetch_add(report.tenants_restored, Ordering::Relaxed);
        s.rejected_tenants
            .fetch_add(report.tenants_rejected, Ordering::Relaxed);
        s.restored_entries
            .fetch_add(report.entries_restored, Ordering::Relaxed);
        s.restored_sessions
            .fetch_add(report.sessions_restored, Ordering::Relaxed);
        Ok(report)
    }

    /// Graceful shutdown: the snapshotter first (so no write races the
    /// teardown), then the event loop (closing every connection and
    /// stream buffer, which unblocks any streaming worker and drops the
    /// loop's pool handle), then the compute pool disconnects and joins.
    pub fn shutdown(mut self) {
        if let Some(snapshotter) = self.snapshotter.take() {
            {
                let (lock, cv) = &*snapshotter.stop;
                *lock.lock() = true;
                cv.notify_all();
            }
            let _ = snapshotter.handle.join();
        }
        self.events.shutdown();
        self.pool.shutdown();
    }

    /// Blocks this thread forever (the CLI's `serve` loop); the server
    /// keeps running on its own threads.
    pub fn block_forever(self) -> ! {
        loop {
            std::thread::park();
        }
    }
}

/// One dispatched request, on a compute worker: route it and hand the
/// result back to the event loop through `responder`. Parsing, status
/// accounting for buffered responses, the `ResetMidWrite` chaos site,
/// and all connection lifecycle live in the event loop; this function
/// only computes.
///
/// Streaming routes bypass the buffered request→response shape: the
/// handler writes chunked frames into the responder's stream buffer and
/// the loop relays them as the socket drains. Always closes when done —
/// chunked framing is self-delimiting, but a mid-stream abort has no
/// other way to signal failure. Stream statuses are accounted here (the
/// handler is the only place that knows them), buffered statuses at
/// delivery in the loop — both exactly where the thread-per-connection
/// core counted them.
fn run_request(state: &Arc<AppState>, request: Request, responder: event::Responder) {
    let streaming = request.method == "POST"
        && (request.path == "/v1/explore/stream" || request.path == "/v1/advise/batch");
    if streaming {
        let t0 = Instant::now();
        let mut writer = responder.stream();
        // The same panic firewall as buffered routes. A panic after the
        // chunked head is on the wire cannot become an error response;
        // dropping the connection mid-body is the signal.
        let status = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if request.path == "/v1/explore/stream" {
                pipeline::explore_stream(state, &mut writer, &request)
            } else {
                pipeline::advise_batch(state, &mut writer, &request)
            }
        }))
        .unwrap_or(500);
        state.metrics.observe_latency(&request.path, t0.elapsed());
        state.metrics.count_status(status);
        writer.finish();
        return;
    }
    let keep = request.keep_alive;
    let t0 = Instant::now();
    let response = dispatch_catching_panics(state, &request);
    state.metrics.observe_latency(&request.path, t0.elapsed());
    responder.respond(response, keep);
}

/// Routes one request; a panicking handler becomes a 500, not a dead
/// worker.
fn dispatch_catching_panics(state: &AppState, request: &Request) -> Response {
    match std::panic::catch_unwind(AssertUnwindSafe(|| route(state, request))) {
        Ok(response) => response,
        Err(_) => Response::error(500, "internal error"),
    }
}

/// Every endpoint's unversioned spelling, redirected to `/v1` for one
/// deprecation cycle (the pre-`/v1` wire API).
const UNPREFIXED_ALIASES: [&str; 8] = [
    "/explore",
    "/explore/stream",
    "/advise",
    "/advise/batch",
    "/catalog",
    "/healthz",
    "/metrics",
    "/cache/invalidate",
];

/// The HTTP-date after which the deprecated spellings (the unprefixed
/// aliases and `POST /v1/cache/invalidate`) stop answering. Stated in
/// `docs/WIRE_API.md`; every deprecated response carries it in a
/// `Sunset` header alongside `Deprecation: true`.
pub const DEPRECATION_SUNSET: &str = "Wed, 01 Sep 2027 00:00:00 GMT";

/// Stamps the deprecation headers on a response to a deprecated spelling
/// and counts the hit under `deprecated-route-hits` in `/v1/metrics`.
fn with_deprecation(state: &AppState, path: &str, mut resp: Response) -> Response {
    resp.extra_headers
        .push(("deprecation".into(), "true".into()));
    resp.extra_headers
        .push(("sunset".into(), DEPRECATION_SUNSET.into()));
    state.metrics.count_deprecated(path);
    resp
}

fn route(state: &AppState, request: &Request) -> Response {
    let Some(path) = request.path.strip_prefix("/v1") else {
        // Unprefixed spellings of known endpoints answer a permanent
        // redirect so pre-v1 clients learn the new home; everything else
        // is a plain 404.
        if UNPREFIXED_ALIASES.contains(&request.path.as_str()) {
            let mut resp = Response::error(308, "moved to the /v1 API");
            resp.extra_headers
                .push(("location".into(), format!("/v1{}", request.path)));
            return with_deprecation(state, &request.path, resp);
        }
        return Response::error(404, "no such route");
    };
    // Tenant-admin routes carry the tenant name in the path.
    if let Some(rest) = path.strip_prefix("/catalogs/") {
        return catalogs_admin(state, request, rest);
    }
    match (request.method.as_str(), path) {
        ("POST", "/explore") => pipeline::serve::<ExplorationRequest>(state, request),
        ("POST", "/advise") => pipeline::serve::<AdviseRequest>(state, request),
        ("POST", "/whatif") => pipeline::serve::<WhatIfRequest>(state, request),
        ("GET", "/catalog") => {
            let tenant = match resolve_tenant(state, request, None) {
                Ok(tenant) => tenant,
                Err(resp) => return resp,
            };
            match catalog_to_json(&tenant.data().catalog) {
                Ok(json) => Response::json(200, json),
                Err(e) => Response::error(500, &e.to_string()),
            }
        }
        ("GET", "/healthz") => Response::json(200, "{\"status\":\"ok\"}"),
        ("GET", "/metrics") => {
            let snapshot = full_snapshot(state);
            match serde_json::to_string(&snapshot) {
                Ok(json) => Response::json(200, json),
                Err(e) => Response::error(500, &e.to_string()),
            }
        }
        ("GET", "/catalogs") => match serde_json::to_string(&state.registry.list()) {
            Ok(json) => Response::json(200, format!("{{\"tenants\":{json}}}")),
            Err(e) => Response::error(500, &e.to_string()),
        },
        ("POST", "/snapshot") => {
            // The admin trigger: flush warm state to disk right now (a
            // deploy about to restart does this instead of waiting out the
            // cadence). 409 when the server runs without a snapshot dir.
            match write_snapshot_now(state) {
                Ok((path, bytes)) => Response::json(
                    200,
                    format!(
                        "{{\"path\":{},\"bytes\":{bytes}}}",
                        serde_json::to_string(&path.display().to_string())
                            .unwrap_or_else(|_| "\"\"".into())
                    ),
                ),
                Err(e) if e.kind() == std::io::ErrorKind::Unsupported => Response::error_coded(
                    409,
                    "snapshot-disabled",
                    "no snapshot directory configured",
                    false,
                ),
                Err(e) => Response::error_coded(500, "snapshot-failed", &e.to_string(), true),
            }
        }
        ("POST", "/cache/invalidate") => {
            // Deprecated global alias: one sweep over *every* tenant's
            // response cache and memo tables. Per-tenant invalidation
            // lives at `POST /v1/catalogs/{tenant}/invalidate`.
            let dropped = state.registry.invalidate_all_tenants();
            with_deprecation(
                state,
                &request.path,
                Response::json(
                    200,
                    format!("{{\"invalidated\":{dropped},\"deprecated\":true}}"),
                ),
            )
        }
        // Right path, wrong verb → 405 with the allowed method. The
        // stream route lands here too: its POST is intercepted before
        // dispatch, so any method that reaches route() is wrong.
        (_, "/explore")
        | (_, "/cache/invalidate")
        | (_, "/explore/stream")
        | (_, "/snapshot")
        | (_, "/advise")
        | (_, "/advise/batch")
        | (_, "/whatif") => method_not_allowed("POST"),
        (_, "/catalog") | (_, "/healthz") | (_, "/metrics") | (_, "/catalogs") => {
            method_not_allowed("GET")
        }
        _ => Response::error(404, "no such route"),
    }
}

/// 405 for a known path with the wrong verb, naming the one it takes.
fn method_not_allowed(allow: &str) -> Response {
    let mut resp = Response::error(405, "method not allowed");
    resp.extra_headers.push(("allow".into(), allow.into()));
    resp
}

/// `/v1/catalogs/{tenant}` and `/v1/catalogs/{tenant}/invalidate`: the
/// tenant-admin surface. `rest` is everything after `/v1/catalogs/`.
fn catalogs_admin(state: &AppState, request: &Request, rest: &str) -> Response {
    if let Some(name) = rest.strip_suffix("/invalidate") {
        if request.method != "POST" {
            return method_not_allowed("POST");
        }
        return match state.registry.invalidate_tenant(name) {
            Ok(dropped) => Response::json(
                200,
                format!("{{\"tenant\":\"{name}\",\"invalidated\":{dropped}}}"),
            ),
            Err(e) => registry_error(&e),
        };
    }
    let name = rest;
    if name.is_empty() || name.contains('/') {
        return Response::error(404, "no such route");
    }
    if request.method != "PUT" {
        return method_not_allowed("PUT");
    }
    // Refuse unusable names before doing any body work.
    if let Err(e) = CatalogRegistry::validate_name(name) {
        return registry_error(&e);
    }
    // The body is a registrar catalog file — the same text format the CLI
    // loads from disk — so an operator can `curl -T dept.cnav`.
    let body = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Response::error(400, "body is not UTF-8"),
    };
    let data = match parse_registrar_file(body) {
        Ok(data) => data,
        Err(e) => return Response::error(400, &format!("bad catalog file: {e}")),
    };
    match state.registry.register(name, data) {
        Ok(outcome) => Response::json(
            200,
            format!(
                "{{\"tenant\":\"{name}\",\"epoch\":{},\"swapped\":{},\"invalidated\":{}}}",
                outcome.epoch, outcome.swapped, outcome.dropped_entries
            ),
        ),
        Err(e) => registry_error(&e),
    }
}

/// Maps a registry refusal to its typed wire error: 404 `unknown-tenant`
/// (nothing registered under that name), 400 `invalid-tenant` (the name
/// itself is unusable), 409 `tenant-limit` (the registry is full).
fn registry_error(e: &RegistryError) -> Response {
    let (status, code) = match e {
        RegistryError::UnknownTenant { .. } => (404, "unknown-tenant"),
        RegistryError::InvalidName { .. } => (400, "invalid-tenant"),
        RegistryError::Full { .. } => (409, "tenant-limit"),
    };
    Response::error_coded(status, code, &e.to_string(), false)
}

/// Resolves the tenant a request addresses: the request body's `tenant`
/// field wins, then the `x-tenant` header, then [`DEFAULT_TENANT`] — so
/// clients that never mention tenants keep their pre-registry behaviour
/// byte for byte. `Err` carries the ready-to-send 404 `unknown-tenant`.
fn resolve_tenant(
    state: &AppState,
    request: &Request,
    from_body: Option<&str>,
) -> Result<Arc<Tenant>, Response> {
    let name = from_body
        .or_else(|| request.header("x-tenant"))
        .unwrap_or(DEFAULT_TENANT);
    state.registry.get(name).ok_or_else(|| {
        Response::error_coded(
            404,
            "unknown-tenant",
            &format!("no catalog registered for tenant `{name}`"),
            false,
        )
    })
}

/// The full `/v1/metrics` payload: process counters plus the registry's
/// aggregated (and per-tenant) cache/memo state.
fn full_snapshot(state: &AppState) -> MetricsSnapshot {
    let (cache, memo) = state.registry.aggregate();
    state.metrics.snapshot(
        cache,
        memo,
        state.sessions.stats(),
        state.overload.snapshot(),
        state.registry.tenants_snapshot(),
        state.snapshots.stats(),
        state.registry.aggregate_dag(),
        state.registry.tenant_invalidations(),
        state.registry.global_invalidations(),
    )
}

/// Collects every tenant partition's warm state plus the session store
/// into one serializable [`snapshot::SnapshotFile`].
fn collect_snapshot(state: &AppState) -> snapshot::SnapshotFile {
    let tenants = state
        .registry
        .partitions()
        .into_iter()
        .map(|partition| snapshot::TenantRecord {
            name: partition.name().to_string(),
            epoch: partition.epoch(),
            fingerprint: snapshot::catalog_fingerprint(partition.data()),
            tables: partition
                .memo()
                .export_tables()
                .into_iter()
                .map(|(memo_key, entries)| snapshot::TableRecord { memo_key, entries })
                .collect(),
        })
        .collect();
    snapshot::SnapshotFile {
        tenants,
        sessions: state.sessions.export(),
    }
}

/// Encodes and atomically writes one snapshot, keeping the counters on
/// [`SnapshotState`] truthful either way. `ErrorKind::Unsupported` when no
/// snapshot directory is configured.
fn write_snapshot_now(state: &AppState) -> std::io::Result<(PathBuf, u64)> {
    let Some(dir) = state.snapshots.dir.clone() else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "no snapshot directory configured",
        ));
    };
    let t0 = Instant::now();
    let bytes = snapshot::encode(&collect_snapshot(state));
    // The chaos tear: persist half the temp file, then fail — exactly the
    // on-disk state a mid-write crash leaves. The rename never happens, so
    // a restart sees the previous complete snapshot or none.
    #[cfg(feature = "chaos")]
    let tear = state
        .faults
        .fires(faults::FaultSite::SnapshotWriteTorn)
        .then_some(bytes.len() / 2);
    #[cfg(not(feature = "chaos"))]
    let tear = None;
    match snapshot::write_atomic(&dir, &bytes, tear) {
        Ok(path) => {
            let s = &state.snapshots;
            s.writes.fetch_add(1, Ordering::Relaxed);
            s.last_write_bytes
                .store(bytes.len() as u64, Ordering::Relaxed);
            s.last_write_ms
                .store(t0.elapsed().as_millis() as u64, Ordering::Relaxed);
            Ok((path, bytes.len() as u64))
        }
        Err(e) => {
            state.snapshots.write_errors.fetch_add(1, Ordering::Relaxed);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coursenav_registrar::brandeis_cs;

    fn tiny_server(config: ServerConfig) -> Server {
        Server::start(config, brandeis_cs()).expect("bind loopback")
    }

    #[test]
    fn starts_on_an_ephemeral_port_and_shuts_down() {
        let server = tiny_server(ServerConfig::default());
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0, "port 0 resolves to a real port");
        server.shutdown();
    }

    #[test]
    fn swap_catalog_invalidates_the_default_tenant() {
        let server = tiny_server(ServerConfig::default());
        let tenant = server.state.registry.get(DEFAULT_TENANT).expect("default");
        tenant.cache().put("k", b"v");
        assert_eq!(server.swap_catalog(brandeis_cs()), 1);
        assert_eq!(server.metrics().cache.entries, 0);
        // The swap bumped the default tenant's epoch past the seed's 1.
        let infos = server.tenants();
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].epoch, 2);
        server.shutdown();
    }
}
