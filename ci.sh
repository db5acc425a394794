#!/usr/bin/env bash
# Offline CI: build, test, lint. No network access is assumed — every
# dependency is a path dependency (see vendor/).
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --all --check

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
# rebuild gate builds the frame twice into one table and requires the
# second build to intern nothing and hash-cons once per node, pinning the
# canonicality of the builder's enumeration-time edge encoding. The what-if
# gate pins the fold's counts and logical stats for six fixed deltas
# (avoided courses, a workload cap, both, and forced courses) and requires
# each restriction-only answer to equal a memoized count of the frame with
# the restriction installed as filters.
# Ignored in the debug run above, where the builds are slow.
cargo test -q --release -p coursenav-navigator --lib -- --ignored sparse_7sem

echo "==> §5.2 containment artifact and Table 2's 6-semester goal cell (release, ~10 s)"
# Regenerates the containment experiment and asserts its two pinned facts:
# all 83 simulated graduating transcripts are contained in the generated
# goal paths, and the memoized count over the six-semester period matches
# Table 2's 6-semester goal golden in coursenav_bench::TABLE2_GOAL_GOLDENS
# (1,298,609,910 paths surviving pruning, 331,657,034 goal paths to the
# CS major). `cargo test` pins the 4- and 5-semester cells; the 7-semester
# row is a manual run, `table2 -- --full`.
cargo run -q -p coursenav-bench --release --bin containment >/dev/null

echo "==> cargo doc (rustdoc warnings are errors)"
# Catches stale and private intra-doc links left behind when an item is
# renamed, deleted, or narrowed to pub(crate).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> bench5 smoke (memoized vs un-memoized equivalence)"
# The shallow configuration only; asserts memoized answers are
# byte-identical to plain ones. Prints rows, writes no file — the
# committed BENCH_5.json comes from a full (non-smoke) run.
cargo run -q -p coursenav-bench --release --bin bench5 -- --smoke

echo "==> bench6 smoke (tenant isolation at 8 resident tenants)"
# Registers eight tenants, sweeps cold/warm, hot-swaps one, and asserts
# exactly that tenant went cold; also checks that the committed
# BENCH_6.json artifact is well-formed JSON with the expected row shape.
cargo run -q -p coursenav-bench --release --bin bench6 -- --smoke

echo "==> bench7 smoke (snapshot/restore of warm serving state)"
# Cold-builds a warm primary, snapshots it, restores a replica, and
# asserts the warm root query answers from the restored table (memo
# hits, zero misses); also checks that the committed BENCH_7.json
# artifact is well-formed JSON with the expected row shape.
cargo run -q -p coursenav-bench --release --bin bench7 -- --smoke

echo "==> bench8 smoke (cohort advising through one warm memo table)"
# Serves a simulated cohort cold-isolated and as one /v1/advise/batch,
# asserts per-student answers are byte-identical and the batch's memo
# table really warmed; also checks that the committed BENCH_8.json
# artifact is well-formed JSON with the expected row shape.
cargo run -q -p coursenav-bench --release --bin bench8 -- --smoke

echo "==> bench9 smoke (connection scale on the event-driven core)"
# Runs the three-phase baseline / held-idle / active-under-held ladder
# at 64 idle + 32 active connections, asserting zero request errors and
# that the parked fleet shows up on the event-loop gauges; also checks
# that the committed BENCH_9.json artifact is well-formed and still
# shows the headline numbers (>= 10k held, p99 within 2x of baseline).
cargo run -q -p coursenav-bench --release --bin bench9 -- --smoke

echo "==> bench10 smoke (what-if apply over the hash-consed path DAG)"
# Runs the shallow catalog-wide what-if sweep end to end (reexplore /
# dag-build / apply, answers asserted identical delta by delta) and
# checks that the committed BENCH_10.json artifact is well-formed and
# still shows the headline: sparse-7sem apply >= 20x re-exploration
# with hash-consing shrinking the node count.
cargo run -q -p coursenav-bench --release --bin bench10 -- --smoke

echo "==> cargo test (event core: connection lifecycle + state machine)"
# The PR 9 battery: held connections cost gauges not threads, slots
# recycle, the single timer wheel pins 408-vs-silent-close, the accept
# cap sheds typed 503s, and the byte-split proptests hold the machine
# identical to whole-buffer delivery down to 1-byte drips.
cargo test -q -p coursenav-server --test event_core --test conn_machine --test overload

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

echo "==> cargo test (snapshot restore suite)"
# Warm-replica loopback proof: byte-identical answers off the restored
# state, sessions resuming across the restart, decoder totality.
cargo test -q -p coursenav-server --test snapshot_restore --test snapshot_proptests

echo "==> cargo test (tenant isolation suite)"
# Loopback proof that swapping tenant A invalidates A's cache, memo
# tables, and cursors while B keeps answering from its warm partition.
cargo test -q -p coursenav-server --test tenants

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
