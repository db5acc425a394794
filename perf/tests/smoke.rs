//! The benchmark's own gate, fast enough for a debug build: every workload
//! and metric `BENCHMARK.json` names is run and printed, the runner prints
//! no metric the file does not name, the correctness checks run, and no
//! request fails. Work counters are reported, not gated, so a change that
//! legitimately moves them needs no edit here.

use std::collections::BTreeSet;
use std::process::Command;

fn benchmark() -> serde_json::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn names(value: &serde_json::Value, key: &str) -> Vec<String> {
    value[key]
        .as_array()
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
        .iter()
        .map(|item| item["name"].as_str().expect("named entry").to_string())
        .collect()
}

fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_coursenav-bench"))
        .args(args)
        .output()
        .expect("the runner starts");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "coursenav-bench {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// `metric <workload> <name> = ...` lines as `(workload, name)`.
fn printed(stdout: &str, kind: &str) -> BTreeSet<(String, String)> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.strip_prefix(kind)?.split_whitespace();
            let workload = words.next()?.to_string();
            let name = words.next()?.trim_end_matches(':').to_string();
            Some((workload, name))
        })
        .collect()
}

fn assert_clean_result(stdout: &str, workloads: &[String]) {
    for w in workloads {
        let check = stdout
            .lines()
            .find_map(|l| l.strip_prefix(&format!("check {w}: ")))
            .unwrap_or_else(|| panic!("{w}: no correctness check ran"));
        let checked: usize = check.split_whitespace().next().unwrap().parse().unwrap();
        assert!(checked >= 8, "{w}: only {checked} answers checked");
        assert!(check.ends_with(" 0 mismatches"), "{w}: {check}");
    }
    let last: serde_json::Value =
        serde_json::from_str(stdout.lines().last().expect("output")).expect("JSON result line");
    assert_eq!(last["correct"].as_bool(), Some(true));
    assert!(last["attempted"].as_u64().unwrap() > 0);
    assert_eq!(last["failed"].as_u64(), Some(0), "failed share must be 0");
}

#[test]
fn describe_matches_the_committed_benchmark_json() {
    let described: serde_json::Value =
        serde_json::from_str(&run(&["--describe"])).expect("--describe prints JSON");
    assert_eq!(
        described,
        benchmark(),
        "regenerate BENCHMARK.json with --describe"
    );
}

#[test]
fn smoke_prints_every_named_metric_and_nothing_else() {
    let spec = benchmark();
    let workloads = names(&spec, "workloads");
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");

    let wire = run(&["--smoke", "--seed", "1"]);
    let shown: BTreeSet<_> = printed(&wire, "metric ")
        .union(&printed(&wire, "withheld "))
        .cloned()
        .collect();
    for w in &workloads {
        for m in &end_to_end {
            assert!(
                shown.contains(&(w.clone(), m.clone())),
                "{w}: {m} not printed"
            );
        }
    }
    for (w, m) in &shown {
        assert!(
            workloads.contains(w) && end_to_end.contains(m),
            "unnamed {w} {m}"
        );
    }
    assert_clean_result(&wire, &workloads);

    let traced = run(&["--smoke", "--seed", "1", "--trace", "1"]);
    let layers = printed(&traced, "metric ");
    for w in &workloads {
        for m in &per_layer {
            assert!(
                layers.contains(&(w.clone(), m.clone())),
                "{w}: {m} not printed"
            );
        }
    }
    for (w, m) in &layers {
        assert!(
            workloads.contains(w) && per_layer.contains(m),
            "unnamed {w} {m}"
        );
    }
    assert!(
        printed(&traced, "withheld ").is_empty(),
        "every layer runs in every replay"
    );
    assert_clean_result(&traced, &workloads);
}
