//! The `coursenav` command-line interface.
//!
//! A thin front end over [`NavigatorService`]: load a registrar catalog
//! file (or the bundled sample), phrase the student's question as an
//! [`ExplorationRequest`], and render the answer. The logic lives here,
//! pure and testable; `src/bin/coursenav.rs` only wires it to
//! `std::env::args` and stdout.
//!
//! ```text
//! coursenav <catalog | builtin:brandeis> <command> [flags]
//!
//! commands:
//!   info                         catalog summary
//!   count                        count learning paths (Algorithm 1/2)
//!   paths                        print learning paths (up to --limit)
//!   topk                         top-k ranked paths (Algorithm 3)
//!   impact                       rank this semester's selection options
//!   advise                       next-semester recommendations + top-k
//!                                completions from a --transcript
//!   whatif                       base count vs a constraint delta
//!                                (--drop/--force/--max-workload), answered
//!                                by apply over the hash-consed path DAG
//!   pareto                       time/workload trade-off curve of goal paths
//!   progress                     degree progress for --completed courses
//!   explain <CODE>               one course: prerequisites, schedule, odds
//!   lint                         catalog quality checks
//!   export                       normalized registrar text (or --json)
//!   dot                          Graphviz export (--dag for the state DAG)
//!   serve                        HTTP server: the full /v1 wire API
//!                                (explore, explore/stream, advise,
//!                                advise/batch, catalog, healthz, metrics,
//!                                snapshot, and the /v1/catalogs tenant
//!                                admin routes — see docs/WIRE_API.md)
//!
//! common flags:
//!   --start <sem>   --deadline <sem>   --m <n>
//!   --goal degree | --goal all:CODE,CODE | --goal expr:<boolean expr>
//!   --completed CODE,CODE        --avoid CODE,CODE
//!   --no-prune                   --limit <n>   --k <n>
//!   --ranking time|workload|reliability
//!   --transcript "A,B;C"         per-semester course codes for `advise`
//!                                (';' separates semesters, ',' courses;
//!                                the transcript starts at --start)
//!
//! whatif flags (the delta on top of the base request):
//!   --drop CODE,CODE             additionally avoid these courses
//!   --force CODE,CODE            count only paths taking all of these
//!   --max-workload <h>           cap per-semester workload hours
//!
//! serve flags:
//!   --addr <host:port>           --threads <n>   --cache-mb <n>
//!   --max-conns <n>              concurrent connection cap (default 10000;
//!                                past it, new connections get a 503 and
//!                                are closed)
//!   --parallelism <n>            worker threads for an unpaged count
//!   --memo-entries <n>           per-table transposition cap (0 disables)
//!   --dag-nodes <n>              per-tenant node budget for the what-if
//!                                path-DAG table, in structurally distinct
//!                                nodes (oversized base DAGs answer a
//!                                retryable 413 state-budget)
//!   --catalog-dir <dir>          register every <dir>/*.cnav file as a
//!                                tenant (tenant name = file stem); the
//!                                positional catalog stays the default
//!                                tenant
//!   --snapshot-dir <dir>         write periodic atomic snapshots of warm
//!                                serving state into <dir>
//!   --snapshot-every <secs>      snapshotter cadence (default 60)
//!   --warm-from <dir>            restore warm state from <dir>'s snapshot
//!                                at startup (rejected snapshots start cold)
//! ```

use std::fmt;

use coursenav_catalog::{CourseCode, Semester};
use coursenav_navigator::{
    AdviseRequest, ExplorationRequest, ExplorationResponse, GoalSpec, NavigatorService, OutputMode,
    PruneConfig, RankingSpec, ServiceError, TranscriptSpec, UniqueTable, WhatIfDelta,
    WhatIfRequest, WhatIfServed,
};
use coursenav_navigator::{TimeRanking, WorkloadRanking};
use coursenav_registrar::{
    brandeis_cs, json::catalog_to_json, lint_catalog, parse_registrar_file, write_registrar_file,
    RegistrarData,
};
use coursenav_server::{Server, ServerConfig};
use coursenav_transcript::Transcript;
use coursenav_viz::{graph_to_dot, render_path, render_path_list, state_dag_to_dot, DotOptions};

/// CLI failure, rendered to stderr by the binary.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments; the message includes usage help.
    Usage(String),
    /// The catalog file could not be read.
    Io(String),
    /// The catalog file could not be parsed.
    Parse(String),
    /// The underlying service rejected the request.
    Service(ServiceError),
    /// The exploration itself failed (e.g. budget exceeded).
    Explore(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}\n\n{USAGE}"),
            CliError::Io(msg) => write!(f, "io error: {msg}"),
            CliError::Parse(msg) => write!(f, "catalog error: {msg}"),
            CliError::Service(err) => write!(f, "{err}"),
            CliError::Explore(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ServiceError> for CliError {
    fn from(err: ServiceError) -> CliError {
        CliError::Service(err)
    }
}

const USAGE: &str = "usage: coursenav <catalog.cnav | builtin:brandeis> \
<info|count|paths|topk|impact|advise|whatif|pareto|progress|explain|lint|export|dot|serve> \
[flags]\nsee `coursenav help` for flags";

/// Parsed command-line flags.
#[derive(Debug)]
struct Flags {
    start: Option<Semester>,
    deadline: Option<Semester>,
    m: Option<usize>,
    goal: Option<GoalSpec>,
    completed: Vec<String>,
    avoid: Vec<String>,
    no_prune: bool,
    limit: usize,
    k: usize,
    ranking: RankingSpec,
    transcript: Option<String>,
    drop: Vec<String>,
    force: Vec<String>,
    max_workload: Option<f64>,
    dag: bool,
    json: bool,
    addr: Option<String>,
    threads: Option<usize>,
    max_conns: Option<usize>,
    cache_mb: Option<usize>,
    parallelism: Option<usize>,
    memo_entries: Option<usize>,
    dag_nodes: Option<usize>,
    catalog_dir: Option<String>,
    snapshot_dir: Option<String>,
    snapshot_every: Option<u64>,
    warm_from: Option<String>,
}

fn split_codes(value: &str) -> Vec<String> {
    value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn parse_flags(args: &[String]) -> Result<Flags, CliError> {
    let mut flags = Flags {
        start: None,
        deadline: None,
        m: None,
        goal: None,
        completed: Vec::new(),
        avoid: Vec::new(),
        no_prune: false,
        limit: 20,
        k: 5,
        ranking: RankingSpec::Time,
        transcript: None,
        drop: Vec::new(),
        force: Vec::new(),
        max_workload: None,
        dag: false,
        json: false,
        addr: None,
        threads: None,
        max_conns: None,
        cache_mb: None,
        parallelism: None,
        memo_entries: None,
        dag_nodes: None,
        catalog_dir: None,
        snapshot_dir: None,
        snapshot_every: None,
        warm_from: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--start" => {
                flags.start = Some(value("--start")?.parse().map_err(
                    |e: coursenav_catalog::semester::ParseSemesterError| {
                        CliError::Usage(e.to_string())
                    },
                )?)
            }
            "--deadline" => {
                flags.deadline = Some(value("--deadline")?.parse().map_err(
                    |e: coursenav_catalog::semester::ParseSemesterError| {
                        CliError::Usage(e.to_string())
                    },
                )?)
            }
            "--m" => {
                flags.m = Some(
                    value("--m")?
                        .parse()
                        .map_err(|_| CliError::Usage("--m needs an integer".into()))?,
                )
            }
            "--goal" => {
                let spec = value("--goal")?;
                flags.goal = Some(if spec == "degree" {
                    GoalSpec::Degree
                } else if let Some(codes) = spec.strip_prefix("all:") {
                    GoalSpec::CompleteAll(split_codes(codes))
                } else if let Some(expr) = spec.strip_prefix("expr:") {
                    GoalSpec::Expression(expr.to_string())
                } else {
                    return Err(CliError::Usage(format!(
                        "--goal must be 'degree', 'all:...', or 'expr:...', got {spec:?}"
                    )));
                });
            }
            "--completed" => flags.completed = split_codes(value("--completed")?),
            "--avoid" => flags.avoid = split_codes(value("--avoid")?),
            "--no-prune" => flags.no_prune = true,
            "--limit" => {
                flags.limit = value("--limit")?
                    .parse()
                    .map_err(|_| CliError::Usage("--limit needs an integer".into()))?
            }
            "--k" => {
                flags.k = value("--k")?
                    .parse()
                    .map_err(|_| CliError::Usage("--k needs an integer".into()))?
            }
            "--ranking" => {
                flags.ranking = match value("--ranking")?.as_str() {
                    "time" => RankingSpec::Time,
                    "workload" => RankingSpec::Workload,
                    "reliability" => RankingSpec::Reliability,
                    other => return Err(CliError::Usage(format!("unknown ranking {other:?}"))),
                }
            }
            "--transcript" => flags.transcript = Some(value("--transcript")?.clone()),
            "--drop" => flags.drop = split_codes(value("--drop")?),
            "--force" => flags.force = split_codes(value("--force")?),
            "--max-workload" => {
                let hours: f64 = value("--max-workload")?
                    .parse()
                    .map_err(|_| CliError::Usage("--max-workload needs a number".into()))?;
                if !hours.is_finite() || hours < 0.0 {
                    return Err(CliError::Usage(
                        "--max-workload must be a non-negative number".into(),
                    ));
                }
                flags.max_workload = Some(hours);
            }
            "--dag" => flags.dag = true,
            "--json" => flags.json = true,
            "--addr" => flags.addr = Some(value("--addr")?.clone()),
            "--threads" => {
                flags.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|_| CliError::Usage("--threads needs an integer".into()))?,
                )
            }
            "--max-conns" => {
                let n: usize = value("--max-conns")?
                    .parse()
                    .map_err(|_| CliError::Usage("--max-conns needs an integer".into()))?;
                if n == 0 {
                    return Err(CliError::Usage("--max-conns must be at least 1".into()));
                }
                flags.max_conns = Some(n);
            }
            "--cache-mb" => {
                flags.cache_mb = Some(
                    value("--cache-mb")?
                        .parse()
                        .map_err(|_| CliError::Usage("--cache-mb needs an integer".into()))?,
                )
            }
            "--parallelism" => {
                flags.parallelism = Some(
                    value("--parallelism")?
                        .parse()
                        .map_err(|_| CliError::Usage("--parallelism needs an integer".into()))?,
                )
            }
            "--memo-entries" => {
                flags.memo_entries = Some(
                    value("--memo-entries")?
                        .parse()
                        .map_err(|_| CliError::Usage("--memo-entries needs an integer".into()))?,
                )
            }
            "--dag-nodes" => {
                flags.dag_nodes = Some(
                    value("--dag-nodes")?
                        .parse()
                        .map_err(|_| CliError::Usage("--dag-nodes needs an integer".into()))?,
                )
            }
            "--catalog-dir" => flags.catalog_dir = Some(value("--catalog-dir")?.clone()),
            "--snapshot-dir" => flags.snapshot_dir = Some(value("--snapshot-dir")?.clone()),
            "--snapshot-every" => {
                let secs: u64 = value("--snapshot-every")?
                    .parse()
                    .map_err(|_| CliError::Usage("--snapshot-every needs an integer".into()))?;
                if secs == 0 {
                    return Err(CliError::Usage(
                        "--snapshot-every must be at least 1 second".into(),
                    ));
                }
                flags.snapshot_every = Some(secs);
            }
            "--warm-from" => flags.warm_from = Some(value("--warm-from")?.clone()),
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    Ok(flags)
}

fn load_catalog(spec: &str) -> Result<RegistrarData, CliError> {
    if spec == "builtin:brandeis" {
        return Ok(brandeis_cs());
    }
    let text = std::fs::read_to_string(spec)
        .map_err(|e| CliError::Io(format!("cannot read {spec}: {e}")))?;
    parse_registrar_file(&text).map_err(|e| CliError::Parse(e.to_string()))
}

fn build_request(data: &RegistrarData, flags: &Flags) -> Result<ExplorationRequest, CliError> {
    let start = flags.start.unwrap_or(data.horizon.0);
    let deadline = flags.deadline.unwrap_or(data.horizon.1);
    let mut req = ExplorationRequest::deadline_count(start, deadline, flags.m.unwrap_or(3));
    req.completed = flags.completed.clone();
    req.avoid = flags.avoid.clone();
    req.goal = flags.goal.clone();
    if flags.no_prune {
        req.pruning = PruneConfig::none();
    }
    Ok(req)
}

/// Loads every `*.cnav` file in `dir` as a named tenant catalog, sorted by
/// file name so registration order is deterministic. The tenant name is the
/// file stem, validated against the registry's naming rules up front —
/// a bad directory fails the command before the listener ever binds.
fn load_catalog_dir(dir: &str) -> Result<Vec<(String, RegistrarData)>, CliError> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| CliError::Io(format!("cannot read {dir}: {e}")))?;
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().map(|x| x == "cnav").unwrap_or(false))
        .collect();
    paths.sort();
    let mut tenants = Vec::with_capacity(paths.len());
    for path in paths {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| CliError::Usage(format!("{} has no usable file stem", path.display())))?
            .to_string();
        coursenav_server::registry::CatalogRegistry::validate_name(&name)
            .map_err(|e| CliError::Usage(format!("{}: {e}", path.display())))?;
        let text = std::fs::read_to_string(&path)
            .map_err(|e| CliError::Io(format!("cannot read {}: {e}", path.display())))?;
        let data = parse_registrar_file(&text)
            .map_err(|e| CliError::Parse(format!("{}: {e}", path.display())))?;
        tenants.push((name, data));
    }
    Ok(tenants)
}

/// `coursenav <catalog> serve [--addr .. --threads .. --cache-mb ..
/// --parallelism .. --memo-entries .. --catalog-dir ..]`:
/// starts the HTTP serving layer over the loaded catalog and blocks until
/// the process is killed. Prints the bound address first, so `--addr
/// 127.0.0.1:0` (an ephemeral port) is usable in scripts. With
/// `--catalog-dir`, every `*.cnav` file in the directory becomes a resident
/// tenant next to the default one.
fn serve_command(data: RegistrarData, flags: &Flags) -> Result<String, CliError> {
    // Parse tenant catalogs before binding, so bad input fails the command
    // instead of a half-started server.
    let tenants = match &flags.catalog_dir {
        Some(dir) => load_catalog_dir(dir)?,
        None => Vec::new(),
    };
    let config = ServerConfig {
        addr: flags
            .addr
            .clone()
            .unwrap_or_else(|| "127.0.0.1:8080".into()),
        threads: flags.threads.unwrap_or(4),
        // The event-driven core holds idle keep-alive connections for
        // bytes, not threads, so the CLI default is sized for advising
        // season rather than the worker count.
        max_connections: Some(flags.max_conns.unwrap_or(10_000)),
        cache_mb: flags.cache_mb.unwrap_or(64),
        parallelism: flags.parallelism.unwrap_or(1),
        memo_entries: flags
            .memo_entries
            .unwrap_or(ServerConfig::default().memo_entries),
        dag_nodes: flags.dag_nodes.unwrap_or(ServerConfig::default().dag_nodes),
        snapshot_dir: flags.snapshot_dir.as_ref().map(std::path::PathBuf::from),
        snapshot_every: flags
            .snapshot_every
            .map(std::time::Duration::from_secs)
            .unwrap_or(ServerConfig::default().snapshot_every),
        ..ServerConfig::default()
    };
    let server =
        Server::start(config, data).map_err(|e| CliError::Io(format!("cannot serve: {e}")))?;
    for (name, data) in tenants {
        server
            .register_tenant(&name, data)
            .map_err(|e| CliError::Usage(format!("--catalog-dir tenant {name:?}: {e}")))?;
        println!("registered tenant {name:?}");
    }
    // Warm the serving state *after* every tenant is registered (restore
    // is matched against the registered catalogs) and *before* the bound
    // address is printed (scripts treat that line as "ready"). Restore is
    // availability-first: a rejected snapshot prints a warning and the
    // server starts cold, it never refuses to serve.
    if let Some(dir) = &flags.warm_from {
        match server.warm_from(std::path::Path::new(dir)) {
            Ok(report) if report.loaded => println!(
                "warm restore from {dir}: {} tenant(s) warmed ({} memo entries, \
                 {} sessions), {} rejected",
                report.tenants_restored,
                report.entries_restored,
                report.sessions_restored,
                report.tenants_rejected
            ),
            Ok(_) => println!("no snapshot found in {dir}, starting cold"),
            Err(e) => println!("warning: {e}; starting cold"),
        }
    }
    println!(
        "coursenav-server listening on http://{}",
        server.local_addr()
    );
    println!(
        "routes: POST /v1/explore, POST /v1/explore/stream, POST /v1/advise, \
         POST /v1/advise/batch, POST /v1/whatif, GET /v1/catalog, GET /v1/healthz, \
         GET /v1/metrics, GET /v1/catalogs, PUT /v1/catalogs/{{tenant}}, \
         POST /v1/catalogs/{{tenant}}/invalidate, POST /v1/snapshot \
         (see docs/WIRE_API.md)"
    );
    server.block_forever()
}

/// Runs the CLI: `args` are everything after the program name. Returns the
/// text to print on stdout.
pub fn run_cli(args: &[String]) -> Result<String, CliError> {
    let [catalog_spec, command, rest @ ..] = args else {
        if args.first().map(String::as_str) == Some("help") {
            return Ok(USAGE.to_string());
        }
        return Err(CliError::Usage("expected <catalog> <command>".into()));
    };
    if catalog_spec == "help" {
        return Ok(USAGE.to_string());
    }
    let data = load_catalog(catalog_spec)?;
    // `explain` takes one positional argument (the course code); every other
    // token is a flag.
    let flag_args: Vec<String> = if command == "explain" {
        let mut seen_positional = false;
        rest.iter()
            .filter(|a| {
                if !a.starts_with("--") && !seen_positional {
                    seen_positional = true;
                    false
                } else {
                    true
                }
            })
            .cloned()
            .collect()
    } else {
        rest.to_vec()
    };
    let flags = parse_flags(&flag_args)?;
    // `serve` consumes the catalog (the server owns it for its lifetime)
    // and never returns, so it dispatches before the borrowing service is
    // built.
    if command == "serve" {
        return serve_command(data, &flags);
    }
    let service = {
        let mut s = NavigatorService::new(&data.catalog);
        if let Some(degree) = &data.degree {
            s = s.with_degree(degree);
        }
        if let Some(offering) = &data.offering {
            s = s.with_offering_model(offering);
        }
        s
    };
    let mut req = build_request(&data, &flags)?;

    let mut out = String::new();
    match command.as_str() {
        "info" => {
            out.push_str(&format!(
                "catalog: {} courses, schedules {} .. {}\n",
                data.catalog.len(),
                data.horizon.0,
                data.horizon.1
            ));
            if let Some(degree) = &data.degree {
                out.push_str(&format!(
                    "degree: {} core courses + {} further slots\n",
                    degree.core().len(),
                    degree.total_slots() - degree.core().len()
                ));
            }
            if let Some(model) = &data.offering {
                out.push_str(&format!(
                    "schedules released through {}\n",
                    model.released_through()
                ));
            }
        }
        "count" => {
            req.output = OutputMode::Count;
            match service.run(&req)? {
                ExplorationResponse::Counts {
                    total_paths,
                    goal_paths,
                    stats,
                    millis,
                    ..
                } => {
                    out.push_str(&format!("paths: {total_paths}\n"));
                    if req.goal.is_some() {
                        out.push_str(&format!("goal paths: {goal_paths}\n"));
                        out.push_str(&format!(
                            "pruned: {} ({} time-based, {} availability-based)\n",
                            stats.pruned_total(),
                            stats.pruned_time,
                            stats.pruned_availability
                        ));
                    }
                    out.push_str(&format!("elapsed: {millis} ms\n"));
                }
                _ => unreachable!("count requests produce counts"),
            }
        }
        "paths" => {
            req.output = OutputMode::Collect { limit: flags.limit };
            match service.run(&req)? {
                ExplorationResponse::Paths {
                    paths, truncated, ..
                } => {
                    out.push_str(&render_path_list(&paths, &data.catalog));
                    if truncated {
                        out.push_str(&format!("... (more than {} paths)\n", flags.limit));
                    }
                }
                _ => unreachable!("collect requests produce paths"),
            }
        }
        "topk" => {
            if req.goal.is_none() {
                return Err(CliError::Usage("topk requires --goal".into()));
            }
            req.ranking = Some(flags.ranking.clone());
            req.output = OutputMode::TopK { k: flags.k };
            match service.run(&req)? {
                ExplorationResponse::Ranked { ranking, paths, .. } => {
                    out.push_str(&format!("top {} by {}:\n", paths.len(), ranking));
                    for (i, rp) in paths.iter().enumerate() {
                        out.push_str(&format!("--- #{} (cost {:.2}) ---\n", i + 1, rp.cost));
                        out.push_str(&render_path(&rp.path, &data.catalog));
                    }
                }
                _ => unreachable!("topk requests produce rankings"),
            }
        }
        "impact" => {
            let explorer = service.build_explorer(&req)?;
            let impacts = explorer.selection_impacts();
            out.push_str("this semester's options, by doors kept open:\n");
            for impact in impacts.iter().take(flags.limit) {
                let codes: Vec<String> = impact
                    .selection
                    .iter()
                    .map(|id| data.catalog.course(id).code().to_string())
                    .collect();
                let label = if codes.is_empty() {
                    "(wait)".to_string()
                } else {
                    codes.join(" + ")
                };
                out.push_str(&format!(
                    "  {label:<40} -> {} options next, {} paths",
                    impact.options_next_semester, impact.paths
                ));
                if req.goal.is_some() {
                    out.push_str(&format!(", {} goal paths", impact.goal_paths));
                }
                out.push('\n');
            }
        }
        "advise" => {
            let start = flags.start.unwrap_or(data.horizon.0);
            let deadline = flags.deadline.unwrap_or(data.horizon.1);
            // "A,B;C" → [[A,B],[C]]: semicolons separate semesters, commas
            // courses. A trailing ';' is an explicit empty (wait) semester.
            let selections: Vec<Vec<String>> = flags
                .transcript
                .as_deref()
                .map(|t| t.split(';').map(split_codes).collect())
                .unwrap_or_default();
            let spec = TranscriptSpec { start, selections };
            // The same replay validation the server performs, so the CLI
            // refuses an unreplayable transcript with the field at fault.
            Transcript::from_codes(&data.catalog, spec.start, &spec.selections)
                .and_then(|t| t.status_after(&data.catalog).map(|_| ()))
                .map_err(|e| CliError::Usage(format!("{e} ({})", e.field())))?;
            let mut areq = AdviseRequest::new(spec, deadline);
            areq.interests = Some(flags.ranking.clone());
            areq.max_per_semester = flags.m;
            areq.goal = flags.goal.clone();
            areq.k = Some(flags.k);
            let resp = service.advise(&areq)?;
            out.push_str(&format!(
                "advising for {}: {} completed, options {}\n",
                resp.status.semester,
                resp.status.completed.len(),
                if resp.status.options.is_empty() {
                    "(none)".to_string()
                } else {
                    resp.status.options.join(", ")
                }
            ));
            out.push_str("next semester, by doors kept open:\n");
            for rec in &resp.recommendations {
                let label = if rec.courses.is_empty() {
                    "(wait)".to_string()
                } else {
                    rec.courses.join(" + ")
                };
                out.push_str(&format!(
                    "  {label:<40} -> {} options next, {} paths, {} goal paths\n",
                    rec.options_next_semester, rec.paths, rec.goal_paths
                ));
            }
            out.push_str(&format!(
                "top {} completions by {}:\n",
                resp.completions.len(),
                resp.ranking
            ));
            for (i, rp) in resp.completions.iter().enumerate() {
                out.push_str(&format!("--- #{} (cost {:.2}) ---\n", i + 1, rp.cost));
                out.push_str(&render_path(&rp.path, &data.catalog));
            }
        }
        "whatif" => {
            req.output = OutputMode::Count;
            let start = flags.start.unwrap_or(data.horizon.0);
            let transcript = flags.transcript.as_deref().map(|t| TranscriptSpec {
                start,
                selections: t.split(';').map(split_codes).collect(),
            });
            if let Some(spec) = &transcript {
                // The same replay validation the server performs on
                // /v1/whatif, so a bad transcript names the field at fault.
                Transcript::from_codes(&data.catalog, spec.start, &spec.selections)
                    .and_then(|t| t.status_after(&data.catalog).map(|_| ()))
                    .map_err(|e| CliError::Usage(format!("{e} ({})", e.field())))?;
            }
            // Unknown delta courses fail before the base DAG is built, like
            // the transcript check above.
            for raw in flags.drop.iter().chain(&flags.force) {
                if data.catalog.id_of(&CourseCode::new(raw)).is_none() {
                    return Err(CliError::Usage(format!("unknown course {raw:?}")));
                }
            }
            // Both questions run against one unique table: the baseline
            // builds the shared path DAG, the delta is answered from it by
            // the apply engine rather than a second exploration. The node
            // cap turns an infeasibly wide horizon into the same typed
            // state-budget error the server returns, instead of eating
            // memory; narrow --deadline to bring the DAG under it.
            let table = UniqueTable::new(1 << 21);
            let base = WhatIfRequest {
                base: req.clone(),
                transcript,
                delta: WhatIfDelta::default(),
            };
            let mut what = base.clone();
            what.delta = WhatIfDelta {
                avoid: flags.drop.clone(),
                force: flags.force.clone(),
                max_semester_workload: flags.max_workload,
            };
            let counts = |resp: &ExplorationResponse| match resp {
                ExplorationResponse::Counts {
                    total_paths,
                    goal_paths,
                    millis,
                    ..
                } => (*total_paths, *goal_paths, *millis),
                _ => unreachable!("count what-ifs produce counts"),
            };
            let base_out = service.whatif_until(&base, None, 1, None, Some(&table))?;
            let what_out = service.whatif_until(&what, None, 1, None, Some(&table))?;
            let (bt, bg, bms) = counts(&base_out.response);
            let (wt, wg, wms) = counts(&what_out.response);
            out.push_str(&format!("base:    paths: {bt}\n"));
            out.push_str(&format!("what-if: paths: {wt}\n"));
            if req.goal.is_some() {
                out.push_str(&format!("base:    goal paths: {bg}\n"));
                out.push_str(&format!("what-if: goal paths: {wg}\n"));
            }
            let stats = table.snapshot();
            out.push_str(&format!(
                "served: {} ({} interned nodes, {} hash-cons hits)\n",
                match what_out.served {
                    WhatIfServed::Applied => "apply over the shared path DAG",
                    WhatIfServed::Explored => "fallback re-exploration",
                },
                stats.nodes,
                stats.hash_cons_hits
            ));
            out.push_str(&format!("elapsed: {bms} ms base, {wms} ms what-if\n"));
        }
        "dot" => {
            let explorer = service.build_explorer(&req)?;
            if flags.dag {
                let dag = explorer
                    .build_state_dag(200_000)
                    .map_err(|e| CliError::Explore(e.to_string()))?;
                out.push_str(&state_dag_to_dot(
                    &dag,
                    &data.catalog,
                    &DotOptions::default(),
                ));
            } else {
                let graph = explorer
                    .build_graph(200_000)
                    .map_err(|e| CliError::Explore(e.to_string()))?;
                out.push_str(&graph_to_dot(&graph, &data.catalog, &DotOptions::default()));
            }
        }
        "pareto" => {
            if req.goal.is_none() {
                return Err(CliError::Usage("pareto requires --goal".into()));
            }
            let explorer = service.build_explorer(&req)?;
            let front = explorer
                .pareto_front(&[&TimeRanking, &WorkloadRanking], 1_000)
                .map_err(|e| CliError::Explore(e.to_string()))?;
            out.push_str("time/workload trade-off curve (non-dominated goal paths):\n");
            for p in &front {
                out.push_str(&format!(
                    "  {:>2} semesters, {:>5.0}h total\n",
                    p.costs[0], p.costs[1]
                ));
            }
        }
        "progress" => {
            let degree = data
                .degree
                .as_ref()
                .ok_or_else(|| CliError::Usage("catalog declares no degree".into()))?;
            let completed = flags
                .completed
                .iter()
                .map(|raw| {
                    data.catalog
                        .id_of(&CourseCode::new(raw))
                        .ok_or_else(|| CliError::Usage(format!("unknown course {raw:?}")))
                })
                .collect::<Result<coursenav_catalog::CourseSet, _>>()?;
            let p = degree.progress(&completed);
            out.push_str(&format!(
                "degree progress: {}/{} slots filled{}\n",
                p.slots_filled,
                p.slots_total,
                if p.is_complete() {
                    " — complete!"
                } else {
                    ""
                }
            ));
            let codes = |set: &coursenav_catalog::CourseSet| -> String {
                set.iter()
                    .map(|id| data.catalog.course(id).code().to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            out.push_str(&format!("core done:      {}\n", codes(&p.core_completed)));
            out.push_str(&format!("core remaining: {}\n", codes(&p.core_remaining)));
            for (i, rule) in p.elective_rules.iter().enumerate() {
                out.push_str(&format!(
                    "electives[{i}]:   {}/{} taken\n",
                    rule.taken_from_pool, rule.k
                ));
            }
        }
        "explain" => {
            let code = rest
                .iter()
                .find(|a| !a.starts_with("--"))
                .ok_or_else(|| CliError::Usage("explain needs a course code".into()))?;
            let course = data
                .catalog
                .get(&CourseCode::new(code))
                .ok_or_else(|| CliError::Usage(format!("unknown course {code:?}")))?;
            out.push_str(&format!("{} — {}\n", course.code(), course.title()));
            out.push_str(&format!("workload: {} h/week\n", course.workload()));
            let prereq = course
                .prereq()
                .map_atoms(&mut |id| data.catalog.course(*id).code().clone());
            out.push_str(&format!("prerequisites: {prereq}\n"));
            let offered: Vec<String> = course.offered().iter().map(|s| s.to_string()).collect();
            out.push_str(&format!(
                "offered: {}\n",
                if offered.is_empty() {
                    "never".into()
                } else {
                    offered.join(", ")
                }
            ));
            if let Some(model) = &data.offering {
                let next_fall = coursenav_catalog::Semester::new(
                    data.horizon.1.year() + 1,
                    coursenav_catalog::Term::Fall,
                );
                let next_spring = coursenav_catalog::Semester::new(
                    data.horizon.1.year() + 1,
                    coursenav_catalog::Term::Spring,
                );
                out.push_str(&format!(
                    "historical odds beyond the released schedule: fall {:.0}%, spring {:.0}%\n",
                    model.prob(course, next_fall) * 100.0,
                    model.prob(course, next_spring) * 100.0
                ));
            }
        }
        "lint" => {
            let warnings = lint_catalog(&data);
            if warnings.is_empty() {
                out.push_str("no problems found\n");
            } else {
                for w in &warnings {
                    out.push_str(&format!("warning: {w}\n"));
                }
                out.push_str(&format!("{} warning(s)\n", warnings.len()));
            }
        }
        "export" => {
            if flags.json {
                out.push_str(
                    &catalog_to_json(&data.catalog)
                        .map_err(|e| CliError::Explore(e.to_string()))?,
                );
                out.push('\n');
            } else {
                out.push_str(&write_registrar_file(
                    &data.catalog,
                    data.degree.as_ref(),
                    data.horizon,
                ));
            }
        }
        "help" => out.push_str(USAGE),
        other => return Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run_cli(&args)
    }

    // `serve` with valid flags blocks forever by design, so only the flag
    // validation (which runs before the listener binds) is testable here;
    // the end-to-end path is covered by coursenav-server's loopback tests.
    #[test]
    fn serve_rejects_bad_flag_values() {
        assert!(matches!(
            run(&["builtin:brandeis", "serve", "--threads", "many"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["builtin:brandeis", "serve", "--cache-mb"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["builtin:brandeis", "serve", "--max-conns", "many"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["builtin:brandeis", "serve", "--max-conns", "0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["builtin:brandeis", "serve", "--parallelism", "lots"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["builtin:brandeis", "serve", "--memo-entries", "unbounded"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["builtin:brandeis", "serve", "--port", "8080"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["builtin:brandeis", "serve", "--catalog-dir"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["builtin:brandeis", "serve", "--snapshot-every", "0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["builtin:brandeis", "serve", "--snapshot-every", "soon"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["builtin:brandeis", "serve", "--warm-from"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["builtin:brandeis", "serve", "--snapshot-dir"]),
            Err(CliError::Usage(_))
        ));
    }

    // `--catalog-dir` parses every tenant file before the listener binds,
    // so all the failure paths return without blocking.
    #[test]
    fn serve_validates_the_catalog_dir_before_binding() {
        assert!(matches!(
            run(&[
                "builtin:brandeis",
                "serve",
                "--catalog-dir",
                "/nonexistent/tenants"
            ]),
            Err(CliError::Io(_))
        ));

        let dir = std::env::temp_dir().join(format!("coursenav-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("broken.cnav"), "not a registrar file").unwrap();
        let result = run(&[
            "builtin:brandeis",
            "serve",
            "--catalog-dir",
            dir.to_str().unwrap(),
        ]);
        assert!(matches!(result, Err(CliError::Parse(_))), "{result:?}");

        std::fs::remove_file(dir.join("broken.cnav")).unwrap();
        std::fs::write(dir.join("bad name.cnav"), "irrelevant").unwrap();
        let result = run(&[
            "builtin:brandeis",
            "serve",
            "--catalog-dir",
            dir.to_str().unwrap(),
        ]);
        assert!(matches!(result, Err(CliError::Usage(_))), "{result:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn catalog_dir_loads_cnav_files_sorted_by_stem() {
        let dir = std::env::temp_dir().join(format!("coursenav-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text = write_registrar_file(
            &brandeis_cs().catalog,
            brandeis_cs().degree.as_ref(),
            brandeis_cs().horizon,
        );
        std::fs::write(dir.join("b-dept.cnav"), &text).unwrap();
        std::fs::write(dir.join("a-dept.cnav"), &text).unwrap();
        std::fs::write(dir.join("ignored.txt"), "not a catalog").unwrap();
        let tenants = load_catalog_dir(dir.to_str().unwrap()).unwrap();
        let names: Vec<&str> = tenants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a-dept", "b-dept"]);
        assert_eq!(tenants[0].1.catalog.len(), 38);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn usage_mentions_serve() {
        let out = run(&["help"]).unwrap();
        assert!(out.contains("serve"), "{out}");
    }

    #[test]
    fn info_summarizes_the_builtin_catalog() {
        let out = run(&["builtin:brandeis", "info"]).unwrap();
        assert!(out.contains("38 courses"));
        assert!(out.contains("7 core"));
    }

    #[test]
    fn count_with_goal_reports_pruning() {
        let out = run(&[
            "builtin:brandeis",
            "count",
            "--goal",
            "degree",
            "--deadline",
            "Fall 2014",
        ])
        .unwrap();
        assert!(out.contains("goal paths: 98"), "{out}");
        assert!(out.contains("pruned:"));
    }

    #[test]
    fn paths_respects_limit() {
        let out = run(&[
            "builtin:brandeis",
            "paths",
            "--deadline",
            "Fall 2013",
            "--limit",
            "3",
        ])
        .unwrap();
        assert_eq!(out.lines().filter(|l| l.contains('[')).count(), 3);
        assert!(out.contains("more than 3 paths"));
    }

    #[test]
    fn topk_requires_goal() {
        let err = run(&["builtin:brandeis", "topk"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        let out = run(&[
            "builtin:brandeis",
            "topk",
            "--goal",
            "degree",
            "--k",
            "2",
            "--deadline",
            "Fall 2014",
        ])
        .unwrap();
        assert!(out.contains("top 2 by time"), "{out}");
    }

    #[test]
    fn impact_lists_selections() {
        let out = run(&[
            "builtin:brandeis",
            "impact",
            "--deadline",
            "Fall 2014", // four selection semesters: the shortest completion
            "--goal",
            "degree",
        ])
        .unwrap();
        assert!(out.contains("goal paths"), "{out}");
        assert!(out.contains("COSI"));
        // An infeasible deadline yields an empty impact list, not an error.
        let out = run(&[
            "builtin:brandeis",
            "impact",
            "--deadline",
            "Spring 2013",
            "--goal",
            "degree",
        ])
        .unwrap();
        assert_eq!(out.lines().count(), 1, "{out}");
    }

    #[test]
    fn advise_recommends_from_a_transcript() {
        let out = run(&[
            "builtin:brandeis",
            "advise",
            "--transcript",
            "COSI 10A,COSI 11A,COSI 29A",
            "--deadline",
            "Spring 2015",
            "--goal",
            "degree",
            "--k",
            "2",
        ])
        .unwrap();
        // The transcript covers Fall 2012, so advising targets Spring 2013.
        assert!(out.contains("advising for Spring 2013"), "{out}");
        assert!(out.contains("3 completed"), "{out}");
        assert!(out.contains("next semester, by doors kept open"), "{out}");
        assert!(out.contains("goal paths"), "{out}");
        assert!(out.contains("completions by time"), "{out}");
    }

    #[test]
    fn advise_without_transcript_is_the_fresh_student() {
        let out = run(&[
            "builtin:brandeis",
            "advise",
            "--deadline",
            "Fall 2014",
            "--goal",
            "degree",
            "--k",
            "1",
        ])
        .unwrap();
        assert!(out.contains("advising for Fall 2012"), "{out}");
        assert!(out.contains("0 completed"), "{out}");
    }

    #[test]
    fn advise_refuses_unreplayable_transcripts() {
        // Unknown course: the error names the transcript field at fault.
        let err = run(&[
            "builtin:brandeis",
            "advise",
            "--transcript",
            "GHOST 1",
            "--deadline",
            "Fall 2014",
        ])
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("transcript.selections[0][0]"), "{msg}");
        // Ineligible selection: COSI 21A needs COSI 12B first.
        let err = run(&[
            "builtin:brandeis",
            "advise",
            "--transcript",
            "COSI 21A",
            "--deadline",
            "Fall 2014",
        ])
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("transcript.selections[0]"), "{msg}");
    }

    fn paths_line(out: &str, prefix: &str) -> u64 {
        out.lines()
            .find(|l| l.starts_with(prefix))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no {prefix:?} line in {out:?}"))
    }

    #[test]
    fn whatif_answers_deltas_from_the_shared_dag() {
        let out = run(&[
            "builtin:brandeis",
            "whatif",
            "--deadline",
            "Fall 2013",
            "--drop",
            "COSI 12B",
        ])
        .unwrap();
        let base = paths_line(&out, "base:    paths:");
        let what = paths_line(&out, "what-if: paths:");
        assert!(what < base, "{out}");
        assert!(out.contains("apply over the shared path DAG"), "{out}");

        // --force keeps only paths taking the course; with --goal the goal
        // counts are reported too.
        let out = run(&[
            "builtin:brandeis",
            "whatif",
            "--deadline",
            "Fall 2013",
            "--force",
            "COSI 12B",
            "--goal",
            "expr:COSI 12B",
        ])
        .unwrap();
        let what = paths_line(&out, "what-if: paths:");
        let goal = paths_line(&out, "what-if: goal paths:");
        assert_eq!(what, goal, "forced paths all satisfy the goal: {out}");

        // The catalog-wide sweep over the four-semester degree exploration:
        // drop each course in turn, then cap the workload at 40. Every
        // delta answered from the one shared DAG counts what re-exploring
        // its merged request counts.
        let data = brandeis_cs();
        let service = NavigatorService::new(&data.catalog)
            .with_degree(data.degree.as_ref().unwrap())
            .with_offering_model(data.offering.as_ref().unwrap());
        let mut base = ExplorationRequest::deadline_count(data.horizon.0, data.horizon.0 + 4, 3);
        base.goal = Some(GoalSpec::Degree);
        let counts = |resp: &ExplorationResponse| match resp {
            ExplorationResponse::Counts {
                total_paths,
                goal_paths,
                ..
            } => (*total_paths, *goal_paths),
            _ => unreachable!("count what-ifs produce counts"),
        };
        let drops = data.catalog.courses().map(|c| WhatIfDelta {
            avoid: vec![c.code().to_string()],
            ..WhatIfDelta::default()
        });
        let cap = WhatIfDelta {
            max_semester_workload: Some(40.0),
            ..WhatIfDelta::default()
        };
        let table = UniqueTable::new(0);
        for delta in drops.chain([cap]) {
            let req = WhatIfRequest {
                base: base.clone(),
                transcript: None,
                delta,
            };
            let applied = service
                .whatif_until(&req, None, 1, None, Some(&table))
                .unwrap();
            assert_eq!(applied.served, WhatIfServed::Applied);
            let explored = service.run(&req.merged_request()).unwrap();
            assert_eq!(
                counts(&applied.response),
                counts(&explored),
                "{:?}",
                req.delta
            );
        }
    }

    #[test]
    fn whatif_validates_inputs_like_the_server() {
        // Transcript replay failures name the field at fault, as on
        // /v1/whatif.
        let err = run(&["builtin:brandeis", "whatif", "--transcript", "GHOST 1"]).unwrap_err();
        assert!(
            err.to_string().contains("transcript.selections[0][0]"),
            "{err}"
        );
        // Unknown delta courses fail before any exploration runs.
        let err = run(&["builtin:brandeis", "whatif", "--drop", "GHOST 1"]).unwrap_err();
        assert!(
            err.to_string().contains("unknown course \"GHOST 1\""),
            "{err}"
        );
        assert!(matches!(
            run(&["builtin:brandeis", "whatif", "--max-workload", "heavy"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["builtin:brandeis", "whatif", "--max-workload", "-3"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn dot_outputs_graphviz() {
        let out = run(&["builtin:brandeis", "dot", "--deadline", "Spring 2013"]).unwrap();
        assert!(out.starts_with("digraph"));
        let out = run(&[
            "builtin:brandeis",
            "dot",
            "--dag",
            "--deadline",
            "Spring 2013",
        ])
        .unwrap();
        assert!(out.contains("learning_state_dag"));
    }

    #[test]
    fn bad_inputs_give_usage_errors() {
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&["builtin:brandeis", "frobnicate"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["builtin:brandeis", "count", "--start", "Winter 1"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["/nonexistent/file.cnav", "info"]),
            Err(CliError::Io(_))
        ));
        assert!(matches!(
            run(&["builtin:brandeis", "count", "--goal", "sideways"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn pareto_prints_tradeoff_curve() {
        let out = run(&[
            "builtin:brandeis",
            "pareto",
            "--goal",
            "degree",
            "--deadline",
            "Fall 2014",
        ])
        .unwrap();
        assert!(out.contains("trade-off"));
        assert!(out.contains("semesters"));
    }

    #[test]
    fn progress_reports_slots() {
        let out = run(&[
            "builtin:brandeis",
            "progress",
            "--completed",
            "COSI 10A,COSI 11A,COSI 29A",
        ])
        .unwrap();
        assert!(out.contains("3/12 slots"), "{out}");
        assert!(out.contains("core remaining"));
    }

    #[test]
    fn explain_describes_a_course() {
        let out = run(&["builtin:brandeis", "explain", "COSI 21A"]).unwrap();
        assert!(out.contains("Data Structures"));
        assert!(out.contains("prerequisites: COSI 12B"));
        assert!(out.contains("historical odds"));
        assert!(matches!(
            run(&["builtin:brandeis", "explain"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["builtin:brandeis", "explain", "GHOST 1"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn lint_runs_on_the_builtin_catalog() {
        let out = run(&["builtin:brandeis", "lint"]).unwrap();
        // The bundled catalog is clean of hard errors; output is either the
        // all-clear or advisory orphan notes.
        assert!(
            out.contains("no problems") || out.contains("warning"),
            "{out}"
        );
        assert!(!out.contains("never offered"), "{out}");
    }

    #[test]
    fn export_roundtrips_through_the_parser() {
        let text = run(&["builtin:brandeis", "export"]).unwrap();
        let reparsed = coursenav_registrar::parse_registrar_file(&text).unwrap();
        assert_eq!(reparsed.catalog.len(), 38);
        let json = run(&["builtin:brandeis", "export", "--json"]).unwrap();
        assert!(json.trim_start().starts_with('{'));
    }

    #[test]
    fn help_prints_usage() {
        assert!(run(&["help"]).unwrap().contains("usage:"));
    }

    #[test]
    fn expression_goal_via_flag() {
        let out = run(&[
            "builtin:brandeis",
            "count",
            "--goal",
            "expr:COSI 10A and COSI 29A",
            "--deadline",
            "Fall 2013",
        ])
        .unwrap();
        assert!(out.contains("goal paths:"));
    }
}
