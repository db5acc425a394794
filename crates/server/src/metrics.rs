//! Live serving metrics: lock-free counters and fixed-bucket latency
//! histograms, snapshotted to JSON by `GET /metrics`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cache::CacheStats;
use crate::memo::MemoRegistrySnapshot;
use crate::overload::OverloadSnapshot;
use crate::registry::{DagStoreSnapshot, TenantSnapshot};
use crate::session::SessionStats;
use crate::snapshot::SnapshotStats;

/// Routes with a dedicated latency histogram; requests that match none of
/// the known paths land in `other`.
pub const ROUTES: [&str; 12] = [
    "explore",
    "explore-stream",
    "advise",
    "advise-batch",
    "whatif",
    "catalog",
    "catalogs",
    "healthz",
    "metrics",
    "cache-invalidate",
    "snapshot",
    "other",
];

/// The deprecated wire surfaces, each with its own hit counter (the
/// `deprecated-route-hits` breakdown on `/v1/metrics`): every unprefixed
/// pre-`/v1` alias, plus the global cache invalidation that per-tenant
/// invalidation superseded. All answer with `Deprecation` and `Sunset`
/// headers; see `docs/WIRE_API.md` for the removal policy.
pub const DEPRECATED_ROUTES: [&str; 9] = [
    "/explore",
    "/explore/stream",
    "/advise",
    "/advise/batch",
    "/catalog",
    "/healthz",
    "/metrics",
    "/cache/invalidate",
    "/v1/cache/invalidate",
];

/// Number of latency buckets: one sub-millisecond bucket, fifteen
/// `[2^(i-1), 2^i)`-millisecond buckets, and one overflow bucket for
/// everything at 2^15 ms (~33 s) and beyond.
pub const HISTOGRAM_BUCKETS: usize = 17;

/// Gauges the event loop updates in place — connection population,
/// per-stage occupancy, wakeup and reap counters. Shared by `Arc`
/// between the loop thread and `/metrics` snapshots.
#[derive(Default)]
pub struct EventLoopGauges {
    /// Connections currently held open (every stage).
    pub connections_held: AtomicU64,
    /// Times the loop returned from `epoll_wait` (readiness or timer).
    pub epoll_wakeups: AtomicU64,
    /// Connections idle between requests.
    pub stage_idle: AtomicU64,
    /// Connections mid-request (bytes read, head or body incomplete).
    pub stage_reading: AtomicU64,
    /// Connections with a request in flight on the compute pool.
    pub stage_dispatched: AtomicU64,
    /// Connections draining a buffered response.
    pub stage_writing: AtomicU64,
    /// Connections relaying a chunked stream.
    pub stage_streaming: AtomicU64,
    /// Idle keep-alive connections reaped silently at the deadline.
    pub reaped_idle: AtomicU64,
    /// Mid-request stalls answered with 408 at the deadline.
    pub reaped_408: AtomicU64,
    /// Write-side stalls reaped (the peer stopped reading a response).
    pub reaped_stalled: AtomicU64,
    /// Queued connection timers: at most one per connection, counting
    /// connections closed within the last keep-alive window (a closed
    /// connection's entry retires when it fires).
    pub timer_entries: AtomicU64,
}

impl EventLoopGauges {
    fn snapshot(&self) -> EventLoopSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        EventLoopSnapshot {
            connections_held: load(&self.connections_held),
            epoll_wakeups: load(&self.epoll_wakeups),
            stage_idle: load(&self.stage_idle),
            stage_reading: load(&self.stage_reading),
            stage_dispatched: load(&self.stage_dispatched),
            stage_writing: load(&self.stage_writing),
            stage_streaming: load(&self.stage_streaming),
            reaped_idle: load(&self.reaped_idle),
            reaped_408: load(&self.reaped_408),
            reaped_stalled: load(&self.reaped_stalled),
            timer_entries: load(&self.timer_entries),
        }
    }
}

/// The event loop's gauges as `GET /metrics` serializes them (the
/// `event-loop` block).
#[derive(Debug, Clone, Default, serde::Serialize)]
#[serde(rename_all = "kebab-case")]
pub struct EventLoopSnapshot {
    /// Connections currently held open.
    pub connections_held: u64,
    /// `epoll_wait` returns since startup.
    pub epoll_wakeups: u64,
    /// Connections idle between requests.
    pub stage_idle: u64,
    /// Connections mid-request.
    pub stage_reading: u64,
    /// Connections with a request on the compute pool.
    pub stage_dispatched: u64,
    /// Connections draining a buffered response.
    pub stage_writing: u64,
    /// Connections relaying a chunked stream.
    pub stage_streaming: u64,
    /// Idle keep-alives reaped silently.
    pub reaped_idle: u64,
    /// Mid-request stalls answered with 408.
    pub reaped_408: u64,
    /// Write-side stalls reaped.
    pub reaped_stalled: u64,
    /// Queued connection timers (held connections plus those closed
    /// within the last keep-alive window, at most one each).
    pub timer_entries: u64,
}

/// Maps a latency in whole milliseconds to its log2 bucket.
fn bucket_index(ms: u64) -> usize {
    if ms == 0 {
        0
    } else {
        (64 - ms.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// The route label a request path is accounted under.
pub fn route_label(path: &str) -> &'static str {
    // Unprefixed aliases only ever answer a 308 redirect, but they are
    // accounted under the route they alias — the redirect latency belongs
    // with the endpoint clients meant to hit.
    match path {
        "/v1/explore" | "/explore" => "explore",
        "/v1/explore/stream" | "/explore/stream" => "explore-stream",
        "/v1/advise" | "/advise" => "advise",
        "/v1/advise/batch" | "/advise/batch" => "advise-batch",
        // `/v1/whatif` is post-`/v1`: it has no unprefixed alias.
        "/v1/whatif" => "whatif",
        "/v1/catalog" | "/catalog" => "catalog",
        "/v1/healthz" | "/healthz" => "healthz",
        "/v1/metrics" | "/metrics" => "metrics",
        "/v1/cache/invalidate" | "/cache/invalidate" => "cache-invalidate",
        "/v1/snapshot" => "snapshot",
        // The tenant admin family: GET /v1/catalogs, PUT
        // /v1/catalogs/{tenant}, POST /v1/catalogs/{tenant}/invalidate.
        p if p == "/v1/catalogs" || p.starts_with("/v1/catalogs/") => "catalogs",
        _ => "other",
    }
}

/// A fixed-bucket log2-millisecond latency histogram. Lock-free: every
/// field is an independent relaxed atomic, like the flat counters.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ms: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ms: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn observe(&self, elapsed: Duration) {
        let ms = elapsed.as_millis() as u64;
        self.buckets[bucket_index(ms)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ms.fetch_add(ms, Ordering::Relaxed);
    }

    fn snapshot(&self, route: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            route: route.to_string(),
            count: self.count.load(Ordering::Relaxed),
            sum_ms: self.sum_ms.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// Counter block shared by every worker. All increments are `Relaxed` —
/// each counter is independent, and `/metrics` only needs a consistent
/// *enough* view, not a cross-counter snapshot.
pub struct Metrics {
    started: Instant,
    /// Connections accepted and handed to a worker.
    pub connections_accepted: AtomicU64,
    /// Connections refused with 503 because the queue was full
    /// (shed-at-accept). Deliberately *not* folded into `server_errors`:
    /// a shed is load-control doing its job, not a handler failure, and
    /// overload dashboards need the two distinguishable.
    pub connections_shed: AtomicU64,
    /// Connections that dropped mid-response (the peer vanished or a
    /// chaos-injected reset fired while bytes were in flight). Distinct
    /// from sheds: the request was admitted and partially answered.
    pub connections_reset: AtomicU64,
    /// Requests fully parsed and routed.
    pub requests_total: AtomicU64,
    /// `POST /explore` requests served (cache hits included).
    pub explore_requests: AtomicU64,
    /// Explorations answered from the response cache.
    pub explore_cache_hits: AtomicU64,
    /// Explorations that ran the engine.
    pub explore_computed: AtomicU64,
    /// Explorations cut short by their wall-clock deadline.
    pub explore_truncated: AtomicU64,
    /// Explorations answered by another worker's in-flight computation
    /// (singleflight followers).
    pub explore_coalesced: AtomicU64,
    /// Cumulative milliseconds followers spent waiting on a leader.
    pub explore_wait_ms: AtomicU64,
    /// Pages served to cursor-carrying or page-sized requests (the
    /// resumable-session path, which bypasses the cache).
    pub explore_paged: AtomicU64,
    /// Explorations streamed as NDJSON over `POST /v1/explore/stream`.
    pub explore_streamed: AtomicU64,
    /// `POST /v1/advise` requests served (cache hits included).
    pub advise_requests: AtomicU64,
    /// Advising answers served from the response cache.
    pub advise_cache_hits: AtomicU64,
    /// Advising answers that ran the engine.
    pub advise_computed: AtomicU64,
    /// `POST /v1/advise/batch` cohort requests served.
    pub advise_batch_requests: AtomicU64,
    /// Individual students advised across every batch request.
    pub advise_batch_students: AtomicU64,
    /// `POST /v1/whatif` requests served (cache hits included).
    pub whatif_requests: AtomicU64,
    /// What-ifs answered from the response cache.
    pub whatif_cache_hits: AtomicU64,
    /// What-ifs that ran the engine.
    pub whatif_computed: AtomicU64,
    /// What-ifs answered by set-algebraic apply over the shared path DAG.
    pub whatif_applied: AtomicU64,
    /// What-ifs answered by ordinary exploration of the merged request
    /// (non-count output, paging, or a deadline-expired DAG build).
    pub whatif_explored: AtomicU64,
    /// Responses with a 4xx status.
    pub client_errors: AtomicU64,
    /// Responses with a 5xx status (handler panics and shed connections
    /// included).
    pub server_errors: AtomicU64,
    /// Per-route latency histograms, indexed like [`ROUTES`].
    latency: [Histogram; ROUTES.len()],
    /// Hits on deprecated surfaces, indexed like [`DEPRECATED_ROUTES`].
    deprecated_hits: [AtomicU64; DEPRECATED_ROUTES.len()],
    /// Event-loop gauges, shared by `Arc` with the loop thread.
    pub event: Arc<EventLoopGauges>,
}

impl Metrics {
    /// Fresh counters; the uptime clock starts now.
    pub fn new() -> Metrics {
        Metrics {
            started: Instant::now(),
            connections_accepted: AtomicU64::new(0),
            connections_shed: AtomicU64::new(0),
            connections_reset: AtomicU64::new(0),
            requests_total: AtomicU64::new(0),
            explore_requests: AtomicU64::new(0),
            explore_cache_hits: AtomicU64::new(0),
            explore_computed: AtomicU64::new(0),
            explore_truncated: AtomicU64::new(0),
            explore_coalesced: AtomicU64::new(0),
            explore_wait_ms: AtomicU64::new(0),
            explore_paged: AtomicU64::new(0),
            explore_streamed: AtomicU64::new(0),
            advise_requests: AtomicU64::new(0),
            advise_cache_hits: AtomicU64::new(0),
            advise_computed: AtomicU64::new(0),
            advise_batch_requests: AtomicU64::new(0),
            advise_batch_students: AtomicU64::new(0),
            whatif_requests: AtomicU64::new(0),
            whatif_cache_hits: AtomicU64::new(0),
            whatif_computed: AtomicU64::new(0),
            whatif_applied: AtomicU64::new(0),
            whatif_explored: AtomicU64::new(0),
            client_errors: AtomicU64::new(0),
            server_errors: AtomicU64::new(0),
            latency: std::array::from_fn(|_| Histogram::new()),
            deprecated_hits: std::array::from_fn(|_| AtomicU64::new(0)),
            event: Arc::new(EventLoopGauges::default()),
        }
    }

    /// Counts one request to a deprecated surface (a [`DEPRECATED_ROUTES`]
    /// path). Unknown paths are ignored — callers pass the request path
    /// verbatim.
    pub fn count_deprecated(&self, path: &str) {
        if let Some(idx) = DEPRECATED_ROUTES.iter().position(|r| *r == path) {
            self.deprecated_hits[idx].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts a finished response by status class.
    pub fn count_status(&self, status: u16) {
        match status {
            400..=499 => self.client_errors.fetch_add(1, Ordering::Relaxed),
            500..=599 => self.server_errors.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
    }

    /// Records how long one request took to route and answer, under the
    /// histogram of [`route_label`]`(path)`.
    pub fn observe_latency(&self, path: &str, elapsed: Duration) {
        let label = route_label(path);
        let idx = ROUTES
            .iter()
            .position(|r| *r == label)
            .expect("route_label returns a ROUTES member");
        self.latency[idx].observe(elapsed);
    }

    /// A serializable point-in-time view, merged with the registry's
    /// aggregated cache/memo stats, the per-tenant breakdowns, and the
    /// session store's and overload controller's stats.
    #[allow(clippy::too_many_arguments)] // one call site, in Server::metrics
    pub fn snapshot(
        &self,
        cache: CacheStats,
        memo: MemoRegistrySnapshot,
        sessions: SessionStats,
        overload: OverloadSnapshot,
        tenants: Vec<TenantSnapshot>,
        snapshot: SnapshotStats,
        unique_table: DagStoreSnapshot,
        invalidate_tenant_requests: u64,
        invalidate_global_requests: u64,
    ) -> MetricsSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        MetricsSnapshot {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            connections_accepted: load(&self.connections_accepted),
            connections_shed: load(&self.connections_shed),
            connections_reset: load(&self.connections_reset),
            requests_total: load(&self.requests_total),
            explore_requests: load(&self.explore_requests),
            explore_cache_hits: load(&self.explore_cache_hits),
            explore_computed: load(&self.explore_computed),
            explore_truncated: load(&self.explore_truncated),
            explore_coalesced: load(&self.explore_coalesced),
            explore_wait_ms: load(&self.explore_wait_ms),
            explore_paged: load(&self.explore_paged),
            explore_streamed: load(&self.explore_streamed),
            advise_requests: load(&self.advise_requests),
            advise_cache_hits: load(&self.advise_cache_hits),
            advise_computed: load(&self.advise_computed),
            advise_batch_requests: load(&self.advise_batch_requests),
            advise_batch_students: load(&self.advise_batch_students),
            whatif_requests: load(&self.whatif_requests),
            whatif_cache_hits: load(&self.whatif_cache_hits),
            whatif_computed: load(&self.whatif_computed),
            whatif_applied: load(&self.whatif_applied),
            whatif_explored: load(&self.whatif_explored),
            client_errors: load(&self.client_errors),
            server_errors: load(&self.server_errors),
            latency: ROUTES
                .iter()
                .enumerate()
                .map(|(i, route)| self.latency[i].snapshot(route))
                .collect(),
            deprecated_route_hits: DEPRECATED_ROUTES
                .iter()
                .enumerate()
                .map(|(i, route)| DeprecatedRouteHits {
                    route: route.to_string(),
                    hits: load(&self.deprecated_hits[i]),
                })
                .collect(),
            event_loop: self.event.snapshot(),
            cache,
            memo,
            sessions,
            overload,
            tenants,
            snapshot,
            unique_table,
            invalidate_tenant_requests,
            invalidate_global_requests,
        }
    }
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

/// One route's latency distribution as `GET /metrics` serializes it.
#[derive(Debug, Clone, serde::Serialize)]
#[serde(rename_all = "kebab-case")]
pub struct HistogramSnapshot {
    /// The route this histogram covers (a [`ROUTES`] member).
    pub route: String,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples in milliseconds (for mean latency).
    pub sum_ms: u64,
    /// Per-bucket sample counts. Bucket 0 holds sub-millisecond samples,
    /// bucket `i ≥ 1` holds samples in `[2^(i-1), 2^i)` ms, and the last
    /// bucket absorbs everything slower.
    pub buckets: Vec<u64>,
}

/// One deprecated surface's traffic, as `GET /metrics` serializes it.
#[derive(Debug, Clone, serde::Serialize)]
#[serde(rename_all = "kebab-case")]
pub struct DeprecatedRouteHits {
    /// The deprecated path, verbatim (a [`DEPRECATED_ROUTES`] member).
    pub route: String,
    /// Requests that path has answered since startup.
    pub hits: u64,
}

/// What `GET /metrics` serializes.
#[derive(Debug, Clone, serde::Serialize)]
#[serde(rename_all = "kebab-case")]
pub struct MetricsSnapshot {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Connections accepted and handed to a worker.
    pub connections_accepted: u64,
    /// Connections refused with 503 because the queue was full
    /// (shed-at-accept; not counted into `server_errors`).
    pub connections_shed: u64,
    /// Connections dropped mid-response (peer reset or injected fault).
    pub connections_reset: u64,
    /// Requests fully parsed and routed.
    pub requests_total: u64,
    /// `POST /explore` requests served (cache hits included).
    pub explore_requests: u64,
    /// Explorations answered from the response cache.
    pub explore_cache_hits: u64,
    /// Explorations that ran the engine.
    pub explore_computed: u64,
    /// Explorations cut short by their wall-clock deadline.
    pub explore_truncated: u64,
    /// Explorations answered by another worker's in-flight computation.
    pub explore_coalesced: u64,
    /// Cumulative milliseconds followers spent waiting on a leader.
    pub explore_wait_ms: u64,
    /// Pages served on the resumable-session path.
    pub explore_paged: u64,
    /// Explorations streamed as NDJSON.
    pub explore_streamed: u64,
    /// `POST /v1/advise` requests served (cache hits included).
    pub advise_requests: u64,
    /// Advising answers served from the response cache.
    pub advise_cache_hits: u64,
    /// Advising answers that ran the engine.
    pub advise_computed: u64,
    /// `POST /v1/advise/batch` cohort requests served.
    pub advise_batch_requests: u64,
    /// Individual students advised across every batch request.
    pub advise_batch_students: u64,
    /// `POST /v1/whatif` requests served (cache hits included).
    pub whatif_requests: u64,
    /// What-ifs answered from the response cache.
    pub whatif_cache_hits: u64,
    /// What-ifs that ran the engine.
    pub whatif_computed: u64,
    /// What-ifs answered by set-algebraic apply over the shared path DAG.
    pub whatif_applied: u64,
    /// What-ifs answered by ordinary exploration of the merged request.
    pub whatif_explored: u64,
    /// Responses with a 4xx status.
    pub client_errors: u64,
    /// Responses with a 5xx status a handler produced (sheds and resets
    /// are tracked separately).
    pub server_errors: u64,
    /// Per-route latency histograms.
    pub latency: Vec<HistogramSnapshot>,
    /// Requests to deprecated surfaces, one entry per
    /// [`DEPRECATED_ROUTES`] member (zero-hit entries included, so
    /// dashboards see the full deprecated surface).
    pub deprecated_route_hits: Vec<DeprecatedRouteHits>,
    /// Event-loop gauges: connection population, per-stage occupancy,
    /// wakeups, and timer reaps.
    pub event_loop: EventLoopSnapshot,
    /// Response-cache statistics, aggregated across every tenant (retired
    /// epochs included, so the totals never go backwards on a swap).
    pub cache: CacheStats,
    /// Cross-request transposition-table statistics, aggregated the same
    /// way.
    pub memo: MemoRegistrySnapshot,
    /// Resumable-session store statistics.
    pub sessions: SessionStats,
    /// Degradation-ladder and circuit-breaker state.
    pub overload: OverloadSnapshot,
    /// Per-tenant cache/memo breakdowns, sorted by tenant name.
    pub tenants: Vec<TenantSnapshot>,
    /// Durable snapshot/restore counters.
    pub snapshot: SnapshotStats,
    /// Hash-consed path-DAG counters, aggregated across every tenant
    /// (retired tables and epochs included).
    pub unique_table: DagStoreSnapshot,
    /// Per-tenant `POST /v1/catalogs/{tenant}/invalidate` calls served.
    pub invalidate_tenant_requests: u64,
    /// Deprecated global `POST /v1/cache/invalidate` calls served.
    pub invalidate_global_requests: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let m = Metrics::new();
        m.requests_total.fetch_add(3, Ordering::Relaxed);
        m.count_status(200);
        m.count_status(404);
        m.count_status(500);
        let snap = m.snapshot(
            CacheStats::default(),
            MemoRegistrySnapshot::default(),
            SessionStats::default(),
            OverloadSnapshot::default(),
            Vec::new(),
            SnapshotStats::default(),
            DagStoreSnapshot::default(),
            0,
            0,
        );
        assert_eq!(snap.requests_total, 3);
        assert_eq!(snap.client_errors, 1);
        assert_eq!(snap.server_errors, 1);
    }

    #[test]
    fn snapshot_serializes_with_kebab_keys() {
        let m = Metrics::new();
        let json = serde_json::to_string(&m.snapshot(
            CacheStats::default(),
            MemoRegistrySnapshot::default(),
            SessionStats::default(),
            OverloadSnapshot::default(),
            Vec::new(),
            SnapshotStats::default(),
            DagStoreSnapshot::default(),
            0,
            0,
        ))
        .unwrap();
        assert!(json.contains("\"explore-cache-hits\":0"), "{json}");
        assert!(json.contains("\"explore-coalesced\":0"), "{json}");
        assert!(json.contains("\"explore-wait-ms\":0"), "{json}");
        assert!(json.contains("\"explore-paged\":0"), "{json}");
        assert!(json.contains("\"explore-streamed\":0"), "{json}");
        assert!(json.contains("\"cache\":{"), "{json}");
        assert!(json.contains("\"memo\":{"), "{json}");
        assert!(json.contains("\"tables-dropped\":0"), "{json}");
        assert!(json.contains("\"sessions\":{"), "{json}");
        assert!(json.contains("\"overload\":{"), "{json}");
        assert!(json.contains("\"breaker\":\"closed\""), "{json}");
        assert!(json.contains("\"connections-reset\":0"), "{json}");
        assert!(json.contains("\"event-loop\":{"), "{json}");
        assert!(json.contains("\"connections-held\":0"), "{json}");
        assert!(json.contains("\"epoll-wakeups\":0"), "{json}");
        assert!(json.contains("\"stage-dispatched\":0"), "{json}");
        assert!(json.contains("\"reaped-408\":0"), "{json}");
        assert!(json.contains("\"latency\":["), "{json}");
        assert!(json.contains("\"route\":\"explore\""), "{json}");
        assert!(json.contains("\"advise-requests\":0"), "{json}");
        assert!(json.contains("\"advise-batch-students\":0"), "{json}");
        assert!(json.contains("\"whatif-requests\":0"), "{json}");
        assert!(json.contains("\"whatif-applied\":0"), "{json}");
        assert!(json.contains("\"unique-table\":{"), "{json}");
        assert!(json.contains("\"hash-cons-hits\":0"), "{json}");
        assert!(json.contains("\"tables-retired\":0"), "{json}");
        assert!(json.contains("\"deprecated-route-hits\":["), "{json}");
        assert!(json.contains("\"route\":\"/cache/invalidate\""), "{json}");
    }

    #[test]
    fn deprecated_hits_are_counted_per_route() {
        let m = Metrics::new();
        m.count_deprecated("/explore");
        m.count_deprecated("/explore");
        m.count_deprecated("/v1/cache/invalidate");
        m.count_deprecated("/v1/explore"); // not deprecated: ignored
        let snap = m.snapshot(
            CacheStats::default(),
            MemoRegistrySnapshot::default(),
            SessionStats::default(),
            OverloadSnapshot::default(),
            Vec::new(),
            SnapshotStats::default(),
            DagStoreSnapshot::default(),
            0,
            0,
        );
        let hits = |route: &str| {
            snap.deprecated_route_hits
                .iter()
                .find(|h| h.route == route)
                .map(|h| h.hits)
        };
        assert_eq!(hits("/explore"), Some(2));
        assert_eq!(hits("/v1/cache/invalidate"), Some(1));
        assert_eq!(hits("/advise"), Some(0), "zero-hit entries are present");
        assert_eq!(
            snap.deprecated_route_hits.len(),
            DEPRECATED_ROUTES.len(),
            "the breakdown covers the whole deprecated surface"
        );
    }

    #[test]
    fn histogram_buckets_are_log2_ms() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        // Everything from 2^15 ms up lands in the overflow bucket.
        assert_eq!(bucket_index(1 << 15), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn latency_is_recorded_under_the_right_route() {
        let m = Metrics::new();
        // Prefixed and unprefixed spellings account to the same route.
        m.observe_latency("/v1/explore", Duration::from_millis(5));
        m.observe_latency("/explore", Duration::from_millis(900));
        m.observe_latency("/nope", Duration::from_millis(1));
        m.observe_latency("/v1/explore/stream", Duration::from_millis(2));
        let snap = m.snapshot(
            CacheStats::default(),
            MemoRegistrySnapshot::default(),
            SessionStats::default(),
            OverloadSnapshot::default(),
            Vec::new(),
            SnapshotStats::default(),
            DagStoreSnapshot::default(),
            0,
            0,
        );
        let explore = snap.latency.iter().find(|h| h.route == "explore").unwrap();
        assert_eq!(explore.count, 2);
        assert_eq!(explore.sum_ms, 905);
        assert_eq!(explore.buckets[bucket_index(5)], 1);
        assert_eq!(explore.buckets[bucket_index(900)], 1);
        let other = snap.latency.iter().find(|h| h.route == "other").unwrap();
        assert_eq!(other.count, 1);
        let stream = snap
            .latency
            .iter()
            .find(|h| h.route == "explore-stream")
            .unwrap();
        assert_eq!(stream.count, 1);
        let idle = snap.latency.iter().find(|h| h.route == "healthz").unwrap();
        assert_eq!(idle.count, 0);
    }
}
