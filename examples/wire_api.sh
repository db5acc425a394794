#!/usr/bin/env bash
# Walk through the v1 wire API: versioned routes, typed errors,
# cursor-paginated resumable sessions, NDJSON streaming, advising,
# what-if deltas and paged ranked top-k.
#
# Start a server first (any catalog works; the builtin one is enough):
#
#   cargo run --release -- builtin:brandeis serve --addr 127.0.0.1:8080
#
# then run this script. Requires curl and python3 (for JSON field
# extraction; swap in jq if you have it).
set -euo pipefail

BASE="${1:-http://127.0.0.1:8080}"

req() { # req <path> <body>
  curl -sS -X POST "$BASE$1" -d "$2"
}

field() { # field <key>  -- pull a string/number field out of stdin JSON
  python3 -c '
import json, sys
def walk(v, key):
    if isinstance(v, dict):
        if key in v:
            return v[key]
        for inner in v.values():
            got = walk(inner, key)
            if got is not None:
                return got
    return None
print(walk(json.load(sys.stdin), sys.argv[1]) or "")' "$1"
}

echo "== 1. Version policy: unprefixed routes answer 308 with a Location header"
curl -sS -o /dev/null -D - -X POST "$BASE/explore" -d '{}' | sed -n '1p;/^location/Ip'
echo

echo "== 2. Typed errors: stable kebab-case codes"
req /v1/explore '{"start-semester": "Fall 2012", "deadline": "Fall 2014",
                  "max-per-semester": 3, "goal": "degree",
                  "completed": ["GHOST 999"], "output": "count"}'
echo; echo

BODY='{"start-semester": "Fall 2012", "deadline": "Fall 2014",
       "max-per-semester": 3, "goal": "degree",
       "output": {"collect": {"limit": 40}}, "page-size": 15}'

echo "== 3. Paged exploration: follow next_cursor until it disappears"
# A page is resumable iff it carries next_cursor. (truncated alone is not a
# loop condition: the final page of a limit-capped collect is still
# truncated=true relative to the full path set, exactly like the unpaged
# route, but has no cursor.)
page=1
cursor=""
while :; do
  if [ -n "$cursor" ]; then
    body=$(python3 -c '
import json, sys
req = json.loads(sys.argv[1]); req["cursor"] = sys.argv[2]
print(json.dumps(req))' "$BODY" "$cursor")
  else
    body="$BODY"
  fi
  resp=$(req /v1/explore "$body")
  cursor=$(printf '%s' "$resp" | field next_cursor)
  truncated=$(printf '%s' "$resp" | field truncated)
  echo "page $page: truncated=$truncated cursor=${cursor:-<none>}"
  [ -n "$cursor" ] || break
  page=$((page + 1))
done
echo

echo "== 4. Streaming: the same page as NDJSON, one path per line"
# sed drains the stream to EOF (unlike head, which would close the pipe
# mid-stream and kill curl with SIGPIPE under pipefail)
curl -sSN -X POST "$BASE/v1/explore/stream" -d "$BODY" | sed -n '1,5p'
echo "..."
echo
echo "The final {\"done\": ...} line carries the next_cursor; it resumes"
echo "on either /v1/explore or /v1/explore/stream."
echo

echo "== 5. Advising: a transcript in, next-semester picks + completions out"
ADVISE='{"transcript": {"start": "Fall 2012",
                        "selections": [["COSI 10A", "COSI 11A", "COSI 29A"]]},
         "deadline": "Spring 2015", "goal": "degree", "k": 2}'
req /v1/advise "$ADVISE" | python3 -c '
import json, sys
resp = json.load(sys.stdin)
status = resp["status"]
print("advising for %s: %d done" % (status["semester"], len(status["completed"])))
for rec in resp["recommendations"][:3]:
    print("  take %s: %d goal paths stay open" % (rec["courses"], rec["goal-paths"]))
print("top completions by %s: %d" % (resp["ranking"], len(resp["completions"])))'
echo

echo "== 6. Advising errors: the field path names the bad selection"
req /v1/advise '{"transcript": {"start": "Fall 2012",
                                "selections": [["GHOST 1"]]},
                 "deadline": "Spring 2015"}'
echo; echo

echo "== 7. Cohort advising: one warm memo table, NDJSON out"
BATCH='{"students": [
          {"start": "Fall 2012", "selections": [["COSI 10A", "COSI 11A", "COSI 29A"]]},
          {"start": "Fall 2012", "selections": [["COSI 10A", "COSI 11A"], ["COSI 12B", "COSI 29A"]]}
        ],
        "deadline": "Spring 2015", "goal": "degree", "k": 1}'
curl -sSN -X POST "$BASE/v1/advise/batch" -d "$BATCH" | python3 -c '
import json, sys
for line in sys.stdin:
    row = json.loads(line)
    if "advise" in row:
        n = len(row["advise"]["recommendations"])
        print("student %d: %d recommendations" % (row["student"], n))
    elif "error" in row:
        print("student %d: %s" % (row["student"], row["error"]["code"]))
    else:
        print("done: %s" % json.dumps(row["done"]))'
echo

echo "== 8. What-if advising: deltas over the shared path DAG"
# The first what-if against a base exploration interns its path DAG into
# the per-(tenant, epoch) unique table; every further delta is answered
# by set algebra over the shared structure (watch x-cache and the
# unique-table metrics block warm up).
WBASE='{"start-semester": "Fall 2012", "deadline": "Fall 2014",
        "max-per-semester": 3, "goal": "degree", "output": "count"}'
for delta in '{"avoid": ["COSI 12B"]}' \
             '{"force": ["COSI 21A"]}' \
             '{"max-semester-workload": 38}' \
             '{"avoid": ["COSI 12B"]}'; do
  body=$(python3 -c '
import json, sys
print(json.dumps({"base": json.loads(sys.argv[1]), "delta": json.loads(sys.argv[2])}))' \
    "$WBASE" "$delta")
  curl -sS -D /tmp/whatif.h -X POST "$BASE/v1/whatif" -d "$body" | python3 -c '
import json, sys
counts = json.load(sys.stdin)["counts"]
cache = [l.split(":", 1)[1].strip() for l in open("/tmp/whatif.h")
         if l.lower().startswith("x-cache")][0]
print("delta %-40s -> %7s total / %7s goal paths (x-cache: %s)"
      % (sys.argv[1], counts["total_paths"], counts["goal_paths"], cache))' "$delta"
done
echo
echo "== 8b. The shared structure shows up on /v1/metrics"
# (Oversized base DAGs answer a typed retryable 413 instead — the
# wire-contract suite pins {"code": "state-budget", "retryable": true}.)
curl -sS "$BASE/v1/metrics" | python3 -c '
import json, sys
t = json.load(sys.stdin)["unique-table"]
print("unique table: %d nodes, %d roots, %d hash-cons hits, %d apply hits"
      % (t["nodes"], t["roots"], t["hash-cons-hits"], t["apply-hits"]))'
echo

echo "== 9. Ranked by workload: the top 5 at once, then in pages of 2"
# The bundled catalog's workloads are whole hours, so the memoized k-best
# answers this ranking too; either way the pages must concatenate to the
# unpaged answer, lightest first.
TOPK='{"start-semester": "Fall 2012", "deadline": "Fall 2014",
       "max-per-semester": 3, "goal": "degree", "ranking": "workload",
       "output": {"top-k": {"k": 5}}}'
whole=$(req /v1/explore "$TOPK")
pages=""
cursor=""
while :; do
  body=$(python3 -c '
import json, sys
req = json.loads(sys.argv[1]); req["page-size"] = 2
if sys.argv[2]:
    req["cursor"] = sys.argv[2]
print(json.dumps(req))' "$TOPK" "$cursor")
  resp=$(req /v1/explore "$body")
  pages="$pages$resp"$'\n'
  cursor=$(printf '%s' "$resp" | field next_cursor)
  [ -n "$cursor" ] || break
done
python3 -c '
import json, sys
def paths(body):
    return json.loads(body)["ranked"]["paths"]
whole = paths(sys.argv[1])
pages = [paths(line) for line in sys.argv[2].splitlines() if line.strip()]
costs = [p["cost"] for p in whole]
assert len(whole) == 5, "expected 5 workload-ranked paths, got %d" % len(whole)
assert [p for page in pages for p in page] == whole, "pages differ from the unpaged answer"
assert costs == sorted(costs), "costs decrease: %s" % costs
print("workload top-5 costs %s, served again in %d pages" % (costs, len(pages)))' "$whole" "$pages"
