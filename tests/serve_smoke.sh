#!/bin/sh
# The experiment service end to end: a coordinator with two external
# workers serves examples/specs/fig01.spec while one worker is killed
# mid-campaign, the streamed CSV must equal `sst run` of the same spec,
# the live counters must show the campaign, and a restart on the same
# journal and cache must serve all 12 rows as `cached`.
#
# Everything (socket, journal, cache, logs, CSVs) lives in serve-smoke/
# under the working directory, so the check can run beside others.
# $pids holds only processes still running, so the exit trap never
# signals a reaped pid that another process may have taken.
#
# usage: serve_smoke.sh PATH/TO/sst SOURCE_DIR
sst=$1 src=$2
dir=serve-smoke
sock=$dir/sock
pids=
rm -rf "$dir"
mkdir -p "$dir"
trap 'kill -9 $pids 2> /dev/null' EXIT

fail() {
    echo "serve smoke: $*" >&2
    for log in "$dir"/*.log; do
        echo "--- $log" >&2
        cat "$log" >&2
    done
    exit 1
}

# Wait until the server on $sock answers a ping (10 s at most).
await_server() {
    for _ in $(seq 50); do
        "$sst" submit --connect "$sock" --ping > /dev/null 2>&1 && return 0
        sleep 0.2
    done
    fail "the server did not answer a ping"
}

"$sst" serve --socket "$sock" --journal "$dir/journal" \
    --cache-dir "$dir/cache" --trace-dir "$dir/traces" \
    --jobs 0 --lease-ms 2000 > "$dir/server.log" 2>&1 &
server=$!
pids="$pids $server"
await_server
"$sst" worker --connect "$sock" --name w1 --verbose > "$dir/w1.log" 2>&1 &
w1=$!
"$sst" worker --connect "$sock" --name w2 > "$dir/w2.log" 2>&1 &
w2=$!
pids="$pids $w1 $w2"

"$sst" submit --connect "$sock" --spec "$src/examples/specs/fig01.spec" \
    --name fig01 > "$dir/submit1.txt" || fail "submit failed"
grep -q 'ok submitted fig01 jobs=12 new=12' "$dir/submit1.txt" ||
    fail "first submit: $(cat "$dir/submit1.txt")"

# In serve, trace-dir is a setting of the server and workers: a
# campaign naming another directory is refused.
other=$PWD/$dir/other-traces
printf 'profiles = cholesky\nthreads = 4\ntrace-dir = %s\n' "$other" \
    > "$dir/trace-dir.spec"
if "$sst" submit --connect "$sock" --spec "$dir/trace-dir.spec" \
        > "$dir/trace-dir.txt"; then
    fail "a campaign with another trace-dir was accepted"
fi
grep -q "^err spec trace-dir '$other' differs" "$dir/trace-dir.txt" ||
    fail "trace-dir refusal: $(cat "$dir/trace-dir.txt")"

# Kill one worker mid-campaign, once it holds a lease: the lease expires
# (2 s) and the job is requeued onto the surviving worker.
for _ in $(seq 100); do
    grep -q 'leased job' "$dir/w1.log" && break
    sleep 0.1
done
kill -9 "$w1"
wait "$w1" 2> /dev/null
pids="$server $w2"

# The streamed results (blocking until the campaign completes) are
# bit-identical to the batch driver on the same spec.
"$sst" submit --connect "$sock" --results fig01 \
    --csv "$dir/fig01-served.csv" || fail "results failed"
"$sst" run --spec "$src/examples/specs/fig01.spec" --no-cache \
    --csv "$dir/fig01-direct.csv" --quiet || fail "sst run failed"
diff "$dir/fig01-direct.csv" "$dir/fig01-served.csv" ||
    fail "served CSV differs from sst run"

# Live introspection: the metrics verb streams completed-job and
# per-worker counters.
"$sst" metrics "$sock" > "$dir/metrics.txt" || fail "metrics failed"
grep -q '^sst_serve_jobs_done_total [1-9]' "$dir/metrics.txt" ||
    fail "no completed jobs in metrics"
grep -q 'sst_serve_worker_done_total{worker="w2"}' "$dir/metrics.txt" ||
    fail "no w2 completions in metrics"
grep -q 'sst_serve_journal_fsync_seconds_count' "$dir/metrics.txt" ||
    fail "no journal fsync histogram in metrics"
# Each of fig01's three 1-thread baselines is one queue job, settled
# exactly once across the workers.
grep -qx 'sst_serve_queue_baselines{state="done"} 3' "$dir/metrics.txt" ||
    fail "fig01 did not settle exactly 3 baseline jobs"
# Status carries per-worker lifetime counters.
"$sst" submit --connect "$sock" --status > "$dir/status.txt" ||
    fail "status failed"
grep -q '^worker w2 leases=' "$dir/status.txt" || fail "no w2 status line"

# A duplicate submission is pure fingerprint dedup: nothing re-runs.
"$sst" submit --connect "$sock" --spec "$src/examples/specs/fig01.spec" \
    --name fig01 > "$dir/submit2.txt" || fail "second submit failed"
grep -q 'new=0' "$dir/submit2.txt" ||
    fail "second submit: $(cat "$dir/submit2.txt")"

# Drain: the surviving worker and the server exit cleanly.
"$sst" submit --connect "$sock" --drain > /dev/null || fail "drain failed"
wait "$w2" || fail "worker w2 exited $?"
wait "$server" || fail "server exited $?"
pids=

# Restart on the same journal and cache: the campaign resumes at once,
# every job fulfilled from the result cache.
"$sst" serve --socket "$sock" --journal "$dir/journal" \
    --cache-dir "$dir/cache" --jobs 0 > "$dir/server2.log" 2>&1 &
server2=$!
pids=$server2
await_server
"$sst" submit --connect "$sock" --results fig01 --no-wait \
    --csv "$dir/fig01-resumed.csv" || fail "resumed results failed"
cached=$(grep -c ',cached,' "$dir/fig01-resumed.csv")
test "$cached" -eq 12 || fail "restart served $cached cached rows, not 12"
kill "$server2"
wait "$server2"
pids=
echo "serve smoke: ok"
