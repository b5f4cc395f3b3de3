#!/usr/bin/env bash
# End-to-end smoke of the graphr_serve daemon (run from ctest and CI):
# pipe four JSONL requests — two identical run requests (the second
# must be answered from the process-resident plan cache) around a run
# naming a degenerate dataset spec, and a status barrier — through
# --stdin, then assert:
#   1. exactly one response line per request, ids echoed in order;
#   2. the degenerate spec is answered with a structured error and
#      the daemon keeps serving;
#   3. the duplicate-plan request's report is byte-identical to the
#      first (only the echoed id differs);
#   4. status shows the plan-cache hit the duplicate produced, the
#      dataset the requests left resident, and the golden PageRank
#      iteration count computed once and then answered by the memo.
set -eu

serve_bin="$1"
out="$(mktemp)"
trap 'rm -f "$out"' EXIT

printf '%s\n' \
  '{"id":"r1","type":"run","workload":"pagerank","backend":"outofcore","dataset":"rmat:vertices=128,edges=512,seed=3"}' \
  '{"id":"bad","type":"run","dataset":"chain:n=0"}' \
  '{"id":"r2","type":"run","workload":"pagerank","backend":"outofcore","dataset":"rmat:vertices=128,edges=512,seed=3"}' \
  '{"id":"q1","type":"status"}' \
  | "$serve_bin" --stdin > "$out"

test "$(wc -l < "$out")" -eq 4

bad="$(sed -n 2p "$out")"
echo "$bad" | grep -q '"id":"bad","ok":false' \
  || { echo "degenerate spec not refused: $bad" >&2; exit 1; }
echo "$bad" | grep -q "dataset spec 'chain': n must be >= 1" \
  || { echo "refusal does not name the parameter: $bad" >&2; exit 1; }

r1="$(sed -n 1p "$out" | sed 's/"id":"r1"/"id":"X"/')"
r2="$(sed -n 3p "$out" | sed 's/"id":"r2"/"id":"X"/')"
if [ "$r1" != "$r2" ]; then
  echo "duplicate-plan request reports differ:" >&2
  echo "  $r1" >&2
  echo "  $r2" >&2
  exit 1
fi

status_line="$(sed -n 4p "$out")"
echo "$status_line" | grep -q '"id":"q1"'
echo "$status_line" | grep -o '"plan_cache":{[^}]*}' \
  | grep -q '"hits":1' \
  || { echo "no plan-cache hit in: $status_line" >&2; exit 1; }
echo "$status_line" | grep -o '"datasets":{[^}]*}' \
  | grep -q '"resident":1' \
  || { echo "no resident dataset in: $status_line" >&2; exit 1; }
echo "$status_line" | grep -o '"golden_cache":{[^}]*}' \
  | grep -q '"hits":1,"misses":1' \
  || { echo "golden count not memoised in: $status_line" >&2; exit 1; }
echo "$status_line" | grep -o '"served":{[^}]*}' \
  | grep -q '"completed":2'

echo "serve smoke ok"
