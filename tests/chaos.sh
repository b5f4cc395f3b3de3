#!/usr/bin/env bash
# Chaos sweep of the graphr_serve daemon (run from ctest and CI).
#
# The worklist is the binary's own failpoint registry
# (graphr_serve --list-failpoints), so a newly added site cannot be
# forgotten here: every site this script does not know how to
# classify fails the sweep with an instruction to extend it.
#
# For every site the same request stream is served with
# GRAPHR_FAILPOINTS=<site>:1@1 armed, and:
#   1. the daemon must exit 0 — no injected fault may crash it;
#   2. sites classified `transient` (absorbed by retry/fallback/
#      degradation) must produce work responses byte-identical to the
#      fault-free baseline, and the status line must prove the fault
#      actually fired (failpoint.fires >= 1);
#   3. sites classified `erroring` must answer the affected request
#      with a structured `"ok":false` error while later requests in
#      the same session still match the baseline.
# The status line is sent only once both work responses are out: the
# status barrier holds the event loop before it writes anything, so a
# status sent with the work requests would report before a
# write-path fault could fire.
#
# Two extra scenarios close the loop on the server hardening: a
# deadline miss (pool.task.slow vs --request-timeout-ms) must yield a
# structured timeout, and an oversized request line must yield a
# structured error with the session continuing.
set -eu

serve_bin="$1"
run_bin="$2"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

dataset='rmat:vertices=128,edges=512,seed=3'

work_requests() {
  printf '%s\n' \
    '{"id":"r1","type":"run","workload":"pagerank","backend":"outofcore","dataset":"'"$dataset"'"}' \
    '{"id":"r2","type":"run","workload":"wcc","backend":"outofcore","dataset":"'"$dataset"'"}'
}

status_request() {
  printf '%s\n' '{"id":"q1","type":"status"}'
}

requests() {
  work_requests
  status_request
}

wait_for_lines() { # $1=file, $2=count; waits 60 s at most
  for _ in $(seq 1 600); do
    if [ "$(wc -l < "$1")" -ge "$2" ]; then return 0; fi
    sleep 0.1
  done
  return 1
}

work_lines() { # responses to the run requests, id order
  grep -e '"id":"r1"' -e '"id":"r2"' "$1" || true
}

fail() {
  echo "chaos: $*" >&2
  exit 1
}

# Plans prepared fault-free: the read-path sites need an artifact on
# disk to load (a fresh daemon run would build instead of load).
prepared="$workdir/prepared_plans"
"$run_bin" prepare --dataset "$dataset" --plan-dir "$prepared" \
  > /dev/null

# Fault-free baseline. Whether a plan is store-loaded or rebuilt, the
# run reports are byte-identical (the store round-trip tests pin
# that), so one baseline serves every per-site directory layout.
baseline="$workdir/baseline"
requests | "$serve_bin" --stdin --plan-dir "$prepared" > "$baseline"
test "$(wc -l < "$baseline")" -eq 3 || fail "baseline incomplete"
work_lines "$baseline" > "$workdir/baseline_work"

sites="$("$serve_bin" --list-failpoints)"
test -n "$sites" || fail "--list-failpoints returned nothing"

for site in $sites; do
  # Classification drives both the directory layout (read-path sites
  # load a prepared artifact; write-path sites save into an empty
  # directory) and the assertion tier.
  plan_dir="$workdir/plans_$site"
  case "$site" in
    store.open.fail|store.read.eintr|store.read.short)
      kind=transient; cp -r "$prepared" "$plan_dir" ;;
    store.decode.fail)
      # Compressed-stream decode faults mid-load: the store degrades
      # to a fresh prepare and the response stays byte-identical.
      kind=transient; cp -r "$prepared" "$plan_dir" ;;
    store.write.fail|store.write.short|store.fsync.fail|store.rename.fail)
      kind=transient; mkdir -p "$plan_dir" ;;
    net.conn.write.short|pool.task.slow)
      kind=transient; mkdir -p "$plan_dir" ;;
    cache.build.fail)
      kind=erroring; mkdir -p "$plan_dir" ;;
    net.accept.fail|net.conn.read.fail|net.conn.write.fail)
      # The listener and the connection-fatal sites each get a
      # dedicated TCP scenario below, where a sibling connection can
      # prove the fault stayed contained.
      continue ;;
    *)
      fail "unclassified failpoint site '$site' — extend tests/chaos.sh" ;;
  esac

  out="$workdir/out_$site"
  : > "$out"
  if ! { work_requests; wait_for_lines "$out" 2 || true; status_request; } \
      | GRAPHR_FAILPOINTS="$site:1@1" \
        "$serve_bin" --stdin --plan-dir "$plan_dir" > "$out"; then
    fail "$site: daemon exited nonzero"
  fi

  case "$kind" in
    transient)
      work_lines "$out" > "$workdir/work_$site"
      if ! cmp -s "$workdir/baseline_work" "$workdir/work_$site"; then
        {
          echo "--- baseline"; cat "$workdir/baseline_work"
          echo "--- with fault"; cat "$workdir/work_$site"
        } >&2
        fail "$site: transient fault changed a work response"
      fi
      robustness="$(grep -o '"robustness":{[^}]*}' "$out")" \
        || fail "$site: no robustness block in status"
      if echo "$robustness" | grep -q '"failpoint.fires":0'; then
        fail "$site: armed failpoint never fired (site unreached)"
      fi
      ;;
    erroring)
      grep -q '"id":"r1","ok":false' "$out" \
        || fail "$site: expected a structured error for r1"
      grep -e '"id":"r2"' "$out" > "$workdir/work_$site" || true
      if ! grep -e '"id":"r2"' "$workdir/baseline_work" \
          | cmp -s - "$workdir/work_$site"; then
        fail "$site: the request after the fault diverged"
      fi
      ;;
  esac
  echo "chaos: $site ($kind) ok"
done

# Deadline scenario: a stalled worker must miss --request-timeout-ms
# and be answered with a structured timeout, counted as timed_out.
out="$workdir/out_timeout"
requests | GRAPHR_FAILPOINTS='pool.task.slow:1@1=400' \
  "$serve_bin" --stdin --request-timeout-ms 50 > "$out" \
  || fail "timeout scenario: daemon exited nonzero"
grep -q '"id":"r1","ok":false,"error":"timeout' "$out" \
  || fail "timeout scenario: no structured timeout for r1"
# r2 was queued behind the stalled r1, so its admission-to-response
# clock may expire too — assert the count is nonzero, not exact.
grep -o '"served":{[^}]*}' "$out" | grep -q '"timed_out":[1-9]' \
  || fail "timeout scenario: status did not count the timeout"

# Oversized-line scenario: the over-limit line gets a structured
# error (null id) and the session continues with the next request.
out="$workdir/out_oversized"
big_line='{"id":"big","type":"run","junk":"'
big_line="$big_line$(printf 'x%.0s' $(seq 1 200))\"}"
# The cap must sit between the real request lines (~115 bytes) and
# the junk line (~235 bytes): only the junk line may be refused.
{ printf '%s\n' "$big_line"; requests; } \
  | "$serve_bin" --stdin --max-line-bytes 128 > "$out" \
  || fail "oversized scenario: daemon exited nonzero"
grep -q '"id":null,"ok":false,"error":"request line exceeds' "$out" \
  || fail "oversized scenario: no structured error for the long line"
if ! cmp -s "$workdir/baseline_work" <(work_lines "$out"); then
  fail "oversized scenario: later requests diverged"
fi

# ---------------------------------------------------------- TCP layer
# The net.* sites live on the accept/read/write path of the TCP event
# loop. Each scenario runs its own daemon on an ephemeral port with
# the fault armed, drives it over /dev/tcp, and must end with a clean
# SIGTERM exit — an injected connection fault may never take the
# daemon (or a sibling connection) down with it.

tcp_daemon_pid=""
cleanup_tcp() {
  if [ -n "$tcp_daemon_pid" ] && kill -0 "$tcp_daemon_pid" 2>/dev/null
  then
    kill -TERM "$tcp_daemon_pid" 2>/dev/null || true
    wait "$tcp_daemon_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup_tcp EXIT

start_tcp_daemon() { # $1=site armed, $2=log file; sets tcp_daemon_pid
  GRAPHR_FAILPOINTS="$1:1@1" "$serve_bin" --port 0 2> "$2" &
  tcp_daemon_pid=$!
}

tcp_port() { # $1=log file; waits for and prints the logged port
  local port=""
  for _ in $(seq 1 100); do
    port="$(sed -n \
      's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' \
      "$1" | head -n 1)"
    if [ -n "$port" ]; then echo "$port"; return 0; fi
    kill -0 "$tcp_daemon_pid" 2>/dev/null || return 1
    sleep 0.1
  done
  return 1
}

stop_tcp_daemon() { # $1=site (for the failure message)
  kill -TERM "$tcp_daemon_pid"
  wait "$tcp_daemon_pid" || fail "$1: daemon exited nonzero"
  tcp_daemon_pid=""
}

read_responses() { # $1=fd, $2=count, $3=out file, $4=site
  : > "$3"
  local i line
  for i in $(seq 1 "$2"); do
    IFS= read -r -t 60 line <&"$1" \
      || fail "$4: response $i timed out or the connection closed"
    printf '%s\n' "$line" >> "$3"
  done
}

# net.accept.fail is transient: it fails the accept(2) attempt before
# the syscall, so the connection stays in the kernel backlog and the
# next poll pass picks it up — the client only sees added latency.
site=net.accept.fail
log="$workdir/tcp_log_$site"
start_tcp_daemon "$site" "$log"
port="$(tcp_port "$log")" || fail "$site: daemon never listened"
exec 3<>"/dev/tcp/127.0.0.1/$port" || fail "$site: connect refused"
requests >&3
read_responses 3 3 "$workdir/out_tcp_$site" "$site"
exec 3<&- 3>&-
if ! cmp -s "$workdir/baseline_work" \
    <(work_lines "$workdir/out_tcp_$site"); then
  fail "$site: responses diverged after the absorbed accept fault"
fi
grep -o '"robustness":{[^}]*}' "$workdir/out_tcp_$site" \
    | grep -q '"failpoint.fires":0' \
  && fail "$site: armed failpoint never fired"
grep -q 'accept failed (injected fault)' "$log" \
  || fail "$site: no retry diagnostic in the daemon log"
stop_tcp_daemon "$site"
echo "chaos: $site (tcp transient) ok"

# net.conn.read.fail and net.conn.write.fail are fatal for the one
# connection they hit: the victim gets a clean close (EOF, no partial
# line), the daemon stays up, and a sibling connection served
# afterwards must produce byte-identical work responses.
for site in net.conn.read.fail net.conn.write.fail; do
  log="$workdir/tcp_log_$site"
  start_tcp_daemon "$site" "$log"
  port="$(tcp_port "$log")" || fail "$site: daemon never listened"

  # Victim first: its first read (or first response write) trips the
  # armed fault and the daemon must close just this connection. The
  # read below blocks until that close, so it doubles as the
  # synchronisation point before the sibling connects.
  exec 3<>"/dev/tcp/127.0.0.1/$port" || fail "$site: connect refused"
  printf '%s\n' '{"id":"v1","type":"status"}' >&3
  # A read-fault teardown closes with the request bytes unread, so
  # the victim may see RST instead of FIN — either way, no response.
  if IFS= read -r -t 60 line <&3 2>/dev/null; then
    fail "$site: victim connection got a response despite the fault"
  fi
  exec 3<&- 3>&-
  grep -q "closed" "$log" \
    || fail "$site: no teardown diagnostic in the daemon log"

  # Sibling afterwards: the fault is spent, the stream is untouched.
  exec 4<>"/dev/tcp/127.0.0.1/$port" \
    || fail "$site: sibling connect refused"
  requests >&4
  read_responses 4 3 "$workdir/out_tcp_$site" "$site"
  exec 4<&- 4>&-
  if ! cmp -s "$workdir/baseline_work" \
      <(work_lines "$workdir/out_tcp_$site"); then
    fail "$site: sibling responses diverged"
  fi
  stop_tcp_daemon "$site"
  echo "chaos: $site (tcp connection-fatal) ok"
done

echo "serve chaos ok"
