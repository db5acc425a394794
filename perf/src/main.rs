//! `coursenav-bench`: the CourseNavigator serving benchmark.
//!
//! ```text
//! coursenav-bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                 [--repeat N] [--smoke] [--describe]
//! ```
//!
//! With `--workload`, runs that workload once in this process and prints
//! every metric by name with its unit and sample count, then one JSON
//! result object as the last line. Without it, runs every workload, each
//! in a fresh child process (so peak RSS and allocator state are per
//! workload). `--trace 1` runs the traced replay instead of the wire run
//! and reports the per-layer metrics. `--repeat N` runs the workload `N`
//! times (seeds `seed..seed+N`) in child processes and prints each
//! metric's median, quartiles and spreads. `--smoke` shrinks every script
//! to a few bundled-catalog requests. `--describe` prints `BENCHMARK.json`.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use coursenav_perf::harness::cpu::pin_to_one_cpu;
use coursenav_perf::harness::report::{benchmark_json, def, RUN_SECONDS};
use coursenav_perf::harness::run::{trace_run, wire_run, Options};
use coursenav_perf::harness::stats::{median, quartiles};
use coursenav_perf::harness::workloads::{Workload, ALL};

const USAGE: &str = "usage: coursenav-bench [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--repeat N] [--smoke] [--describe]";

/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = "target/coursenav-bench";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    smoke: bool,
    describe: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::NAN,
        trace: false,
        repeat: 1,
        smoke: false,
        describe: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|_| "--repeat takes an integer")?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--smoke" => args.smoke = true,
            "--describe" => args.describe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() {
        args.seconds = if args.smoke { 1.0 } else { RUN_SECONDS as f64 };
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    match args.workload {
        None => run_all(&args),
        Some(w) if args.repeat > 1 => repeat(&args, w),
        Some(w) => run_here(&args, w),
    }
}

/// Runs `workload` once in this process.
fn run_here(args: &Args, workload: Workload) -> ExitCode {
    let options = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    // Before any thread starts, so the server's threads inherit the pin.
    if workload.one_cpu() {
        match pin_to_one_cpu() {
            Ok(cpu) => println!("pinned to cpu {cpu}"),
            Err(e) => eprintln!("{}: runs unpinned: {e}", workload.name()),
        }
    }
    let result = if args.trace {
        trace_run(&options, Path::new(TRACE_DIR))
    } else {
        wire_run(&options)
    };
    match result {
        Ok(report) => {
            report.print(workload.name());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// One child run's parsed result line.
struct ChildResult {
    ok: bool,
    line: Option<serde_json::Value>,
}

fn child(args: &Args, workload: Workload, seed: u64) -> ChildResult {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = match command.output() {
        Ok(output) => output,
        Err(e) => {
            eprintln!("{}: cannot start child: {e}", workload.name());
            return ChildResult {
                ok: false,
                line: None,
            };
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let line = stdout
        .lines()
        .last()
        .and_then(|l| serde_json::from_str::<serde_json::Value>(l).ok());
    ChildResult {
        ok: output.status.success(),
        line,
    }
}

fn totals(results: &[ChildResult]) -> (bool, u64, u64) {
    let correct = results
        .iter()
        .all(|r| r.ok && r.line.as_ref().and_then(|l| l["correct"].as_bool()) == Some(true));
    let sum = |key: &str| -> u64 {
        results
            .iter()
            .filter_map(|r| r.line.as_ref()?[key].as_u64())
            .sum()
    };
    (correct, sum("attempted"), sum("failed"))
}

/// Runs every workload in a child process and prints one combined
/// result line.
fn run_all(args: &Args) -> ExitCode {
    let results: Vec<ChildResult> = ALL.iter().map(|&w| child(args, w, args.seed)).collect();
    let (correct, attempted, failed) = totals(&results);
    let per: Vec<String> = ALL
        .iter()
        .zip(&results)
        .map(|(w, r)| {
            let metrics = r
                .line
                .as_ref()
                .map(|l| serde_json::to_string(&l["metrics"]).expect("values serialize"))
                .unwrap_or_else(|| "null".into());
            format!("\"{}\": {metrics}", w.name())
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"workloads\": {{{}}}}}",
        per.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--repeat N`: N runs of one workload, seeds `seed..seed+N`, each in a
/// child; prints each metric's median, quartiles, and spreads.
fn repeat(args: &Args, workload: Workload) -> ExitCode {
    let results: Vec<ChildResult> = (0..args.repeat)
        .map(|i| child(args, workload, args.seed + i as u64))
        .collect();
    let mut names: Vec<String> = Vec::new();
    let mut values: Vec<Vec<f64>> = Vec::new();
    for r in &results {
        let Some(serde_json::Value::Object(metrics)) = r.line.as_ref().map(|l| &l["metrics"])
        else {
            continue;
        };
        for (name, metric) in metrics {
            let Some(v) = metric["value"].as_f64() else {
                continue;
            };
            match names.iter().position(|n| n == name) {
                Some(i) => values[i].push(v),
                None => {
                    names.push(name.clone());
                    values.push(vec![v]);
                }
            }
        }
    }
    let mut medians = Vec::new();
    for (name, vals) in names.iter().zip(&values) {
        let m = median(vals);
        let (q1, _, q3) = quartiles(vals).unwrap_or((m, m, m));
        let (lo, hi) = vals
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let unit = def(name).map_or("", |d| d.unit);
        println!(
            "repeat {} {name}: median {m} {unit} q1 {q1} q3 {q3} iqr/median {:.4} range/median {:.4} (runs={})",
            workload.name(),
            (q3 - q1) / m.abs().max(f64::MIN_POSITIVE),
            (hi - lo) / m.abs().max(f64::MIN_POSITIVE),
            vals.len()
        );
        medians.push(format!(
            "\"{name}\": {{\"value\": {m}, \"unit\": \"{unit}\"}}"
        ));
    }
    let (correct, attempted, failed) = totals(&results);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        medians.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
