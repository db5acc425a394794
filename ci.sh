#!/usr/bin/env bash
# Offline CI: build, test, lint. No network access is assumed — every
# dependency is a path dependency (see vendor/).
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> non-test lines (printed, not gated)"
# Each file counts up to its first top-level #[cfg(test)]: the measure the
# ROADMAP's net-negative criterion compares from one change to the next.
# First the engine and server (navigator + server src), then every
# first-party source file (crates/*/src and src, recursively).
count_non_test() {
  awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n }' "$@"
}
echo "navigator + server: $(count_non_test crates/navigator/src/*.rs crates/server/src/*.rs)"
echo "first-party: $(count_non_test $(find crates/*/src src -name '*.rs' | sort))"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> sparse-7sem DAG gates: edge-store layout, classifier golden, rebuild hits, what-if goldens (release)"
# All four build the what-if benchmark's sparse-7sem base DAG. The layout
# gate pins its node and edge counts and its packed edge store at 12 bytes
# an edge plus the alphabets — byte accounting, not RSS, so it cannot
# flake. The classifier golden pins the root's path counts and the build's
# logical stats (expansions, edges, time and availability prunes), so a
# goal-oracle or pruning change that moves any decision fails here. The
# rebuild gate builds the frame twice into one table: the first build makes
# 74,559 intern calls (one per expanded table key and per terminal kind, many
# of them hits, since nodes are interned by structure alone), and the second
# must return the same root, intern nothing, and raise the hits by exactly
# the first build's intern calls, pinning the canonicality of the builder's
# enumeration-time edge encoding. The what-if
# gate pins the fold's counts and logical stats for six fixed deltas
# (avoided courses, a workload cap, both, and forced courses) and requires
# each restriction-only answer to equal a memoized count of the frame with
# the restriction installed as filters.
# Ignored in the debug run above, where the builds are slow.
cargo test -q --release -p coursenav-navigator --lib -- --ignored sparse_7sem

echo "==> §5.2 containment artifact and Table 2's 6-semester goal cell (release, ~1 s)"
# Regenerates the containment experiment and asserts its two pinned facts:
# all 83 simulated graduating transcripts are contained in the generated
# goal paths, and the memoized count over the six-semester period matches
# Table 2's 6-semester goal golden in coursenav_bench::TABLE2_GOAL_GOLDENS
# (1,298,609,910 paths surviving pruning, 331,657,034 goal paths to the
# CS major; the count itself takes about 0.5 s). `cargo test` pins the 4-
# and 5-semester cells.
cargo run -q -p coursenav-bench --release --bin containment >/dev/null

echo "==> Table 2's 7-semester goal cell, the paper's † row (release, ~4 s)"
# Counts 39,413,023,922 paths surviving pruning, 11,812,248,055 of them
# goal paths, through a cold 2^22-entry table keyed by Explorer::table_key
# (226,404 expansions, no eviction), and asserts the golden.
cargo test -q --release -p coursenav-bench --lib -- --ignored table2_seven

echo "==> Table 1, Ablation A and Figure 4 count goldens (release, ~20 s)"
# Both binaries assert every count they print before printing it; runtimes
# are printed, never asserted. `table1 --ablate` (~9 s on a shared 2-vCPU
# host) checks Table 1's rows against coursenav_bench::TABLE1_GOLDENS and
# each Ablation A count; `fig4` (~11 s) checks all twelve cells' path
# counts, last costs and expansion counts against FIG4_GOLDENS. `cargo
# test` pins the four-semester Table 1 row and the fastest Fig. 4 cell.
cargo run -q -p coursenav-bench --release --bin table1 -- --ablate >/dev/null
cargo run -q -p coursenav-bench --release --bin fig4 >/dev/null

echo "==> cargo doc (rustdoc warnings are errors)"
# Catches stale and private intra-doc links left behind when an item is
# renamed, deleted, or narrowed to pub(crate).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> wire API walkthrough against a live loopback server"
# Boots the real binary and drives every documented workload family —
# deprecation redirects, typed errors, paged + streamed exploration,
# advising, cohort batch — through examples/wire_api.sh (curl+python3).
cargo run -q --release --bin coursenav -- builtin:brandeis serve \
  --addr 127.0.0.1:18080 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  curl -sf http://127.0.0.1:18080/v1/healthz >/dev/null 2>&1 && break
  sleep 0.2
done
bash examples/wire_api.sh http://127.0.0.1:18080 >/dev/null
kill "$SERVER_PID" 2>/dev/null || true
trap - EXIT

echo "==> cargo test (chaos suite)"
# Fault-injection sites only exist behind the server's `chaos` feature;
# plans are seeded, so the fault schedules are identical on every run.
cargo test -q -p coursenav-server --features chaos --test chaos

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy -p coursenav-server --features chaos --all-targets -- -D warnings

echo "==> perf/ benchmark runner: format + tests + clippy"
# perf/ is its own Cargo workspace, so the workspace steps above never
# compile it (and `cargo fmt --all` never formats it); it links against
# the server and navigator crates' public APIs, so a change there can
# break the benchmark. The smoke test runs every workload briefly in a
# debug build (~25 s with its unit tests).
cargo fmt --check --manifest-path perf/Cargo.toml
cargo test -q --offline --manifest-path perf/Cargo.toml
cargo clippy --offline --manifest-path perf/Cargo.toml --all-targets -- -D warnings

echo "CI OK"
