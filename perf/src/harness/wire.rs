//! The wire run: start the server in-process, send the setup, then drive
//! every connection's script in a closed loop for the measured window.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use coursenav_server::{OverloadConfig, Server, ServerConfig};

use super::client::{Conn, Reply};
use super::script::{raw_request, Call, ConnScript, Route, Step, Unit};
use super::stats::Reservoir;
use super::workloads::{plan, Plan, Workload};

/// The fixed server configuration every workload runs against: two
/// workers and sequential engine runs (one per core of the 2-core
/// reference machine), no default budget so no answer is ever truncated,
/// and overload thresholds far above the load so the ladder never
/// degrades one.
///
/// The keep-alive is 7 s, not the default 5 s, for `peak_rss_mb`: the
/// event loop's timer wheel adds an entry at each of a request's two
/// deadline re-arms and drops it only when its 10 ms tick comes due, in
/// one of 256 slots whose `Vec`s keep their capacity. A slot thus holds
/// the entries of `ceil(keep-alive / 2.56 s)` ticks and grows in powers of
/// two. With 7 s that is three ticks, and every slot sits at 2,048
/// entries from about 17k to 34k requests/s; with 5 s, two ticks, the
/// slots double across 25.6k requests/s, inside the 16k to 28k that
/// hot-cache reads between busy and quiet hours, and its peak RSS
/// followed its throughput between 21.5 and 27.9 MiB.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        threads: 2,
        parallelism: 1,
        default_budget_ms: None,
        keep_alive: Duration::from_secs(7),
        overload: OverloadConfig {
            degrade_queue: 100_000,
            break_queue: 100_000,
            latency_target: Duration::from_secs(600),
            ..OverloadConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// A call as sent, with its answer.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// The scripted call.
    pub call: Call,
    /// The body actually sent (`None` when the call was skipped).
    pub sent: Option<String>,
    /// The answer (`None` when skipped or failed).
    pub reply: Option<Reply>,
    /// Time from send to complete answer, in nanoseconds.
    pub latency_ns: u64,
}

/// One unit as sent, kept for the correctness checks.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The tenant addressed.
    pub tenant: Option<String>,
    /// The unit's exchanges, in order.
    pub exchanges: Vec<Exchange>,
}

/// Whether an answer counts as served: a complete 200 at full fidelity.
fn served(reply: &Result<Reply, String>) -> bool {
    matches!(reply, Ok(r) if r.status == 200 && !r.degraded)
}

fn describe(call: &Call, reply: &Result<Reply, String>) -> String {
    match reply {
        Ok(r) => format!(
            "{:?} answered {}{}: {}",
            call.route,
            r.status,
            if r.degraded { " (degraded)" } else { "" },
            String::from_utf8_lossy(&r.body[..r.body.len().min(200)])
        ),
        Err(e) => format!("{:?} failed: {e}", call.route),
    }
}

/// Sends `unit` in order on `conn`, resolving dependencies on earlier
/// answers. Returns the exchanges; `Err` names the first failure.
pub fn send_unit(
    conn: &mut Conn,
    tenant: Option<&str>,
    unit: &Unit,
) -> Result<Vec<Exchange>, String> {
    let mut answers: Vec<Option<Vec<u8>>> = Vec::with_capacity(unit.calls.len());
    let mut out = Vec::with_capacity(unit.calls.len());
    for call in &unit.calls {
        let Some(body) = call.render(&answers) else {
            answers.push(None);
            out.push(Exchange {
                call: call.clone(),
                sent: None,
                reply: None,
                latency_ns: 0,
            });
            continue;
        };
        let sent_at = Instant::now();
        let reply = conn.send(&raw_request(call.route, tenant, &body));
        let latency_ns = sent_at.elapsed().as_nanos() as u64;
        if !served(&reply) {
            return Err(describe(call, &reply));
        }
        let reply = reply.expect("served replies are Ok");
        answers.push(Some(reply.body.clone()));
        out.push(Exchange {
            call: call.clone(),
            sent: Some(body),
            reply: Some(reply),
            latency_ns,
        });
    }
    Ok(out)
}

/// The unit that marks a pass boundary: one tenant invalidation.
pub fn invalidation() -> Unit {
    Unit {
        calls: vec![Call::bare(Route::Invalidate)],
    }
}

/// The unit loop step `step` of `script` sends (`invalidate` at pass
/// boundaries); `None` once the script is used up.
pub fn step_unit<'a>(
    script: &'a ConnScript,
    step: usize,
    invalidate: &'a Unit,
) -> Option<&'a Unit> {
    match script.unit_at(step) {
        Step::Invalidate => Some(invalidate),
        Step::Unit(unit) => Some(unit),
        Step::End => None,
    }
}

/// Sends the first `steps` warm-up steps of `script` on a fresh connection.
fn warm(addr: SocketAddr, script: &ConnScript, steps: usize) -> Result<(), String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let invalidate = invalidation();
    for step in 0..steps {
        let unit = match script.warm_up_at(step) {
            Step::Invalidate => &invalidate,
            Step::Unit(unit) => unit,
            Step::End => break,
        };
        send_unit(&mut conn, script.tenant.as_deref(), unit)
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(())
}

/// A started workload: its plan, the live server, and what setup saw.
pub struct Started {
    /// The plan the run follows.
    pub plan: Plan,
    /// The server under test.
    pub server: Server,
    /// Every setup unit as sent, in order.
    pub setup: Vec<Sample>,
    /// How long the set-up took: catalog build, script generation,
    /// `Server::start`, tenant registration, setup calls and warm-up.
    pub setup_time: Duration,
}

/// Builds the plan, starts the server, registers tenants, and sends the
/// setup units — the whole of one set-up, timed.
pub fn start(workload: Workload, seed: u64, smoke: bool) -> Result<Started, String> {
    let t0 = Instant::now();
    let plan = plan(workload, seed, smoke);
    let server = Server::start(server_config(), (*plan.default_data).clone())
        .map_err(|e| format!("server start: {e}"))?;
    for (name, data) in &plan.tenants {
        server
            .register_tenant(name, (**data).clone())
            .map_err(|e| format!("register {name}: {e}"))?;
    }
    let addr = server.local_addr();
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut setup = Vec::with_capacity(plan.script.setup.len());
    for step in &plan.script.setup {
        let exchanges = send_unit(&mut conn, step.tenant.as_deref(), &step.unit)
            .map_err(|e| format!("setup: {e}"))?;
        setup.push(Sample {
            tenant: step.tenant.clone(),
            exchanges,
        });
    }
    // Warm-up: every connection sends the first `warm_steps` steps of its
    // loop, in population order, concurrently, as the window will.
    std::thread::scope(|scope| {
        let warmers: Vec<_> = plan
            .script
            .conns
            .iter()
            .map(|script| scope.spawn(move || warm(addr, script, plan.warm_steps)))
            .collect();
        warmers
            .into_iter()
            .try_for_each(|w| w.join().expect("warm-up thread completes"))
    })?;
    Ok(Started {
        plan,
        server,
        setup,
        setup_time: t0.elapsed(),
    })
}

/// What one connection did during the window.
#[derive(Debug)]
pub struct ConnOutcome {
    /// Latency of served requests, in nanoseconds.
    pub latencies_ns: Reservoir,
    /// Requests sent.
    pub attempted: u64,
    /// Requests not served (non-200, degraded, cut short, or dropped).
    pub failed: u64,
    /// Answers the server took from its response cache (`x-cache: hit`).
    pub cache_hits: u64,
    /// Hot-cache answers that differed from their warm-up bytes.
    pub mismatches: u64,
    /// The first few failures, described.
    pub errors: Vec<String>,
    /// Units kept for the oracle.
    pub samples: Vec<Sample>,
    /// Passes started (tenant invalidations sent).
    pub passes: u64,
    /// Whether the script was used up before the deadline.
    pub ran_out: bool,
    /// When this connection's last request completed, from window start.
    pub busy: Duration,
}

/// Expected answers by `(route, body)`: the hot-cache byte check.
pub type Expected = HashMap<(Route, String), Vec<u8>>;

/// The sampling rule: which units of a connection the oracle checks.
#[derive(Debug, Clone, Copy)]
pub struct Sampling {
    /// Every `stride`-th unit...
    pub stride: usize,
    /// ...starting at this one...
    pub offset: usize,
    /// ...up to this many.
    pub max: usize,
}

fn drive(
    addr: SocketAddr,
    script: &ConnScript,
    seconds: f64,
    start: &Barrier,
    sampling: Sampling,
    expected: Option<&Expected>,
    seed: u64,
) -> ConnOutcome {
    let mut out = ConnOutcome {
        latencies_ns: Reservoir::new(seed),
        attempted: 0,
        failed: 0,
        cache_hits: 0,
        mismatches: 0,
        errors: Vec::new(),
        samples: Vec::new(),
        passes: 0,
        ran_out: false,
        busy: Duration::ZERO,
    };
    let tenant = script.tenant.as_deref();
    let mut conn = Conn::connect(addr).expect("client connects to the loopback server");
    start.wait();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let invalidate = invalidation();
    let mut units_sent = 0usize;
    let mut step = 0usize;
    'window: loop {
        // A script in passes runs whole passes: it stops at the first
        // pass boundary after the deadline, so every run measures whole
        // passes over the same population.
        let boundary = matches!(script.unit_at(step), Step::Invalidate);
        if Instant::now() >= deadline && (!script.in_passes() || boundary) {
            break;
        }
        // A script sent once ends the window early rather than repeat a
        // request the server has already cached.
        let Some(unit) = step_unit(script, step, &invalidate) else {
            out.ran_out = true;
            break;
        };
        step += 1;
        let sampled = !boundary
            && out.samples.len() < sampling.max
            && units_sent % sampling.stride == sampling.offset;
        if boundary {
            out.passes += 1;
        } else {
            units_sent += 1;
        }
        let mut answers: Vec<Option<Vec<u8>>> = Vec::with_capacity(unit.calls.len());
        let mut exchanges = Vec::new();
        for call in &unit.calls {
            if !script.in_passes() && Instant::now() >= deadline {
                break 'window;
            }
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
            let raw = raw_request(call.route, tenant, &body);
            out.attempted += 1;
            let sent_at = Instant::now();
            let reply = conn.send(&raw);
            let latency = sent_at.elapsed();
            out.busy = t0.elapsed();
            if !served(&reply) {
                out.failed += 1;
                if out.errors.len() < 5 {
                    out.errors.push(describe(call, &reply));
                }
                if reply.is_err() {
                    match Conn::connect(addr) {
                        Ok(fresh) => conn = fresh,
                        Err(_) => break 'window,
                    }
                }
                // The rest of the unit depends on this answer.
                continue 'window;
            }
            let reply = reply.expect("served replies are Ok");
            out.latencies_ns.record(latency.as_nanos() as u64);
            if reply.x_cache.as_deref() == Some("hit") {
                out.cache_hits += 1;
            }
            if let Some(expected) = expected {
                if expected.get(&(call.route, body.clone())) != Some(&reply.body) {
                    out.mismatches += 1;
                }
            }
            answers.push(Some(reply.body.clone()));
            if sampled {
                exchanges.push(Exchange {
                    call: call.clone(),
                    sent: Some(body),
                    reply: Some(reply),
                    latency_ns: latency.as_nanos() as u64,
                });
            }
        }
        if sampled {
            out.samples.push(Sample {
                tenant: script.tenant.clone(),
                exchanges,
            });
        }
    }
    out
}

/// Drives every connection of `started`'s script for `seconds` (whole
/// passes, for scripts in passes); returns one outcome per connection.
pub fn run_window(
    started: &Started,
    seconds: f64,
    seed: u64,
    expected: Option<&Expected>,
) -> Vec<ConnOutcome> {
    let addr = started.server.local_addr();
    let plan = &started.plan;
    let start = Barrier::new(plan.script.conns.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .script
            .conns
            .iter()
            .enumerate()
            .map(|(c, script)| {
                let start = &start;
                let sampling = Sampling {
                    stride: plan.sample_stride,
                    offset: (seed as usize).wrapping_add(c) % plan.sample_stride,
                    max: plan.samples_per_conn,
                };
                let reservoir_seed = seed.wrapping_mul(31).wrapping_add(c as u64);
                scope.spawn(move || {
                    drive(
                        addr,
                        script,
                        seconds,
                        start,
                        sampling,
                        expected,
                        reservoir_seed,
                    )
                })
            })
            .collect();
        start.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread completes"))
            .collect()
    })
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let kb: f64 = line
            .strip_prefix("VmHWM:")?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    })
}
