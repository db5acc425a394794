//! One run of one workload: the end-to-end wire run, or the traced replay.

use std::collections::HashSet;
use std::path::Path;

use coursenav_navigator::AdviseRequest;

use super::client::Conn;
use super::oracle::Oracle;
use super::report::RunReport;
use super::script::{Body, Route};
use super::stats::{median, min_samples, percentile};
use super::trace::{attribute, layer_totals, Replay};
use super::wire::{self, invalidation, peak_rss_mb, send_unit, step_unit, Expected, Started};
use super::workloads::{plan, Plan, Workload};

/// A wire run sets up at least `MIN_SETUPS` times, and more until its
/// set-ups add up to `SETUP_SECONDS`, up to `MAX_SETUPS`; `setup_s` is
/// their median. Hot-cache sets up in 50 to 80 ms, of which a page-fault
/// burst or a slow thread wake-up is a large share.
pub const MIN_SETUPS: usize = 3;
/// See [`MIN_SETUPS`].
pub const SETUP_SECONDS: f64 = 3.0;
/// See [`MIN_SETUPS`].
pub const MAX_SETUPS: usize = 25;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Script seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Tiny bundled-catalog scripts (debug-build friendly).
    pub smoke: bool,
}

/// Distinct advising transcripts the script's connections send.
fn distinct_transcripts(plan: &Plan) -> usize {
    let mut seen = HashSet::new();
    for conn in &plan.script.conns {
        for call in conn.units.iter().flat_map(|u| &u.calls) {
            if let (Route::Advise, Body::Fixed(body)) = (call.route, &call.body) {
                if let Ok(req) = AdviseRequest::from_json(body) {
                    seen.insert(format!("{:?}", req.transcript));
                }
            }
        }
    }
    seen.len()
}

fn finish_checks(report: &mut RunReport, mut oracle: Oracle<'_>) {
    oracle.finish();
    report.checked = oracle.checked;
    report.failures.extend(oracle.failures);
    report.correct = report.failures.is_empty();
}

/// The end-to-end run: a timed set-up, the closed-loop window, peak RSS,
/// the correctness checks, then more timed set-ups (after the window, so
/// the memory they leave behind is not the window's).
pub fn wire_run(o: &Options) -> Result<RunReport, String> {
    let started = wire::start(o.workload, o.seed, o.smoke)?;
    let mut setup_times = vec![started.setup_time.as_secs_f64()];
    let plan = &started.plan;

    // Hot-cache answers must stay byte-identical to what warm-up served.
    let expected: Option<Expected> = (o.workload == Workload::HotCache).then(|| {
        started.setup[0]
            .exchanges
            .iter()
            .filter_map(|ex| {
                Some((
                    (ex.call.route, ex.sent.clone()?),
                    ex.reply.as_ref()?.body.clone(),
                ))
            })
            .collect()
    });
    let before = started.server.metrics();
    let outcomes = wire::run_window(&started, o.seconds, o.seed, expected.as_ref());
    let after = started.server.metrics();
    let rss = peak_rss_mb();

    let mut report = RunReport::default();
    let mut latencies: Vec<f64> = outcomes
        .iter()
        .flat_map(|c| c.latencies_ns.samples().iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    latencies.sort_by(f64::total_cmp);
    let served: u64 = outcomes.iter().map(|c| c.latencies_ns.seen()).sum();
    report.attempted = outcomes.iter().map(|c| c.attempted).sum();
    report.failed = outcomes.iter().map(|c| c.failed).sum();
    // Each connection's completed requests over its own measured time:
    // with whole passes the two connections stop at different moments.
    let throughput: f64 = outcomes
        .iter()
        .map(|c| c.latencies_ns.seen() as f64 / c.busy.as_secs_f64().max(f64::MIN_POSITIVE))
        .sum();
    report.push("throughput_rps", throughput, served);
    for (name, p) in [("latency_p50_ms", 50.0), ("latency_p90_ms", 90.0)] {
        match percentile(&latencies, p) {
            Some(v) => report.push(name, v, served),
            None => report.withheld.push((
                name,
                format!("{served} samples; p{p} needs {}", min_samples(p)),
            )),
        }
    }
    if let Some(rss) = rss {
        report.push("peak_rss_mb", rss, 1);
    }

    let hits: u64 = outcomes.iter().map(|c| c.cache_hits).sum();
    report.properties = vec![
        ("exact_repeat_share", hits as f64 / served.max(1) as f64),
        ("distinct_transcripts", distinct_transcripts(plan) as f64),
        (
            "memo_evictions",
            (after.memo.evictions - before.memo.evictions) as f64,
        ),
        ("dag_nodes", after.unique_table.nodes as f64),
        (
            "passes",
            outcomes.iter().map(|c| c.passes).sum::<u64>() as f64,
        ),
        (
            "window_s",
            outcomes
                .iter()
                .map(|c| c.busy.as_secs_f64())
                .fold(0.0, f64::max),
        ),
        (
            "connections_out_of_script",
            outcomes.iter().filter(|c| c.ran_out).count() as f64,
        ),
    ];

    let mut oracle = Oracle::new(plan);
    if o.workload == Workload::HotCache {
        oracle.check(&started.setup[0]);
    }
    for outcome in &outcomes {
        outcome.samples.iter().for_each(|s| oracle.check(s));
        report.errors.extend(outcome.errors.iter().cloned());
    }
    let mismatches: u64 = outcomes.iter().map(|c| c.mismatches).sum();
    if mismatches > 0 {
        report.failures.push(format!(
            "{mismatches} hot-cache answers differ from their warm-up bytes"
        ));
    }
    // Every what-if delta is distinct, so none may come from the cache.
    if o.workload == Workload::WhatifSweep && hits > 0 {
        report.failures.push(format!(
            "{hits} what-if answers were response-cache hits; the sweep must not repeat a delta"
        ));
    }
    finish_checks(&mut report, oracle);
    let Started { server, .. } = started;
    server.shutdown();
    while !o.smoke
        && setup_times.len() < MAX_SETUPS
        && (setup_times.len() < MIN_SETUPS || setup_times.iter().sum::<f64>() < SETUP_SECONDS)
    {
        let again = wire::start(o.workload, o.seed, o.smoke)?;
        setup_times.push(again.setup_time.as_secs_f64());
        again.server.shutdown();
    }
    report.push("setup_s", median(&setup_times), setup_times.len() as u64);
    Ok(report)
}

/// The traced run: the attribution pair, the replay with spans on and
/// off, and a sequential wire pass of the same requests for the residual.
pub fn trace_run(o: &Options, trace_dir: &Path) -> Result<RunReport, String> {
    let plan = plan(o.workload, o.seed, o.smoke);
    let pair = attribute(&plan);
    let mut traced = Replay::new(&plan, true);
    let wall_on = traced.run();
    let mut plain = Replay::new(&plan, false);
    let wall_off = plain.run();
    let (wire_p50_us, wakeups_per_request, wire_failed) = wire_pass(o)?;

    let mut report = RunReport {
        attempted: traced.counters.requests,
        failed: traced.counters.failed + wire_failed,
        ..RunReport::default()
    };
    let totals = layer_totals(traced.rec.spans());
    let mut per_call = |metric: &'static str, span: &str, scale: f64, self_time: bool| match totals
        .get(span)
        .filter(|t| t.calls > 0)
    {
        Some(t) => {
            let ns = if self_time { t.self_ns } else { t.total_ns };
            report.push(metric, ns as f64 / t.calls as f64 / scale, t.calls);
        }
        None => report
            .withheld
            .push((metric, format!("no {span} call in this replay"))),
    };
    const US: f64 = 1e3;
    const MS: f64 = 1e6;
    per_call("conn.parse_us", "conn.parse", US, false);
    per_call("request.decode_us", "request.decode", US, false);
    per_call("cache.lookup_us", "cache.lookup", US, false);
    per_call("cache.insert_us", "cache.insert", US, false);
    per_call(
        "memo_registry.table_for_us",
        "memo_registry.table_for",
        US,
        false,
    );
    per_call("session.mint_us", "session.mint", US, false);
    per_call("session.take_us", "session.take", US, false);
    per_call("response.encode_us", "response.encode", US, false);
    per_call("engine.count_ms", "engine.count", MS, true);
    per_call("engine.collect_ms", "engine.collect", MS, true);
    per_call("engine.topk_ms", "engine.topk", MS, true);
    per_call("engine.page_ms", "engine.page", MS, true);
    per_call("engine.advise_ms", "engine.advise", MS, true);
    per_call("apply.us", "apply", US, true);

    let requests = traced.counters.requests;
    let (cache, memo) = traced.totals();
    let lookups = cache.hits + cache.misses;
    report.push(
        "cache.hit_ratio",
        cache.hits as f64 / lookups.max(1) as f64,
        lookups,
    );
    report.push(
        "response.bytes",
        traced.counters.body_bytes as f64 / requests.max(1) as f64,
        requests,
    );
    let mut in_process: Vec<f64> = plain.latencies_ns.iter().map(|&ns| ns as f64).collect();
    in_process.sort_by(f64::total_cmp);
    let in_process_p50_us = percentile(&in_process, 50.0).unwrap_or(0.0) / 1e3;
    report.push(
        "wire.residual_us",
        wire_p50_us - in_process_p50_us,
        in_process.len() as u64,
    );
    report.push(
        "event_loop.wakeups_per_request",
        wakeups_per_request,
        requests,
    );

    let probes = memo.hits + memo.misses;
    report.push("memo.hits", memo.hits as f64, probes);
    report.push("memo.misses", memo.misses as f64, probes);
    report.push(
        "memo.hit_ratio",
        memo.hits as f64 / probes.max(1) as f64,
        probes,
    );
    report.push("memo.inserts", memo.inserts as f64, memo.inserts);
    report.push("memo.evictions", memo.evictions as f64, memo.evictions);
    report.push("memo.entries", memo.entries as f64, memo.entries);
    report.push("prune.time", traced.counters.pruned_time as f64, requests);
    report.push(
        "prune.availability",
        traced.counters.pruned_availability as f64,
        requests,
    );
    report.push("unique.build_ms", pair.build_ms, 1);
    report.push("unique.interned", pair.dag.interned as f64, 1);
    report.push("unique.hash_cons_hits", pair.dag.hash_cons_hits as f64, 1);
    report.push(
        "unique.hash_cons_hit_rate",
        pair.dag.hash_cons_hit_rate(),
        1,
    );
    report.push("unique.nodes", pair.dag.nodes as f64, 1);
    report.push("memo.cold_count_ms", pair.cold_count_ms, 1);
    let dag = traced.dag_totals();
    report.push(
        "apply.hits",
        dag.apply_hits as f64,
        dag.apply_hits + dag.apply_misses,
    );
    report.push(
        "apply.misses",
        dag.apply_misses as f64,
        dag.apply_hits + dag.apply_misses,
    );
    report.push(
        "apply.root_hits",
        dag.root_hits as f64,
        dag.root_hits + dag.root_misses,
    );
    report.push(
        "trace.overhead_ms",
        (wall_on.as_secs_f64() - wall_off.as_secs_f64()) * 1e3,
        requests,
    );

    let mut oracle = Oracle::new(&plan);
    traced.samples.iter().for_each(|s| oracle.check(s));
    finish_checks(&mut report, oracle);
    let path = trace_dir.join(format!("trace-{}.jsonl", o.workload.name()));
    traced
        .write_spans(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(report)
}

/// The replay's post-setup requests sent sequentially over one loopback
/// connection: `(p50 µs, event-loop wakeups per request, failures)`.
fn wire_pass(o: &Options) -> Result<(f64, f64, u64), String> {
    let started = wire::start(o.workload, o.seed, o.smoke)?;
    let plan = &started.plan;
    let mut conn =
        Conn::connect(started.server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let before = started.server.metrics();
    let mut latencies = Vec::new();
    let mut failed = 0;
    let invalidate = invalidation();
    for i in 0..plan.replay_steps {
        for conn_script in &plan.script.conns {
            let Some(unit) = step_unit(conn_script, i, &invalidate) else {
                continue;
            };
            match send_unit(&mut conn, conn_script.tenant.as_deref(), unit) {
                Ok(exchanges) => latencies.extend(
                    exchanges
                        .iter()
                        .filter(|ex| ex.reply.is_some())
                        .map(|ex| ex.latency_ns as f64),
                ),
                Err(_) => failed += 1,
            }
        }
    }
    let after = started.server.metrics();
    let requests = (after.requests_total - before.requests_total).max(1);
    let wakeups = after.event_loop.epoll_wakeups - before.event_loop.epoll_wakeups;
    latencies.sort_by(f64::total_cmp);
    let Started { server, .. } = started;
    server.shutdown();
    Ok((
        percentile(&latencies, 50.0).unwrap_or(0.0) / 1e3,
        wakeups as f64 / requests as f64,
        failed,
    ))
}
