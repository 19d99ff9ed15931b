#!/bin/sh
# One experiment down every path from spec to row: the CSV rows must be
# byte-identical however they were produced. For the spec that FLAGS
# (any `sst run` flags) describe:
#  - cold at --jobs 1, recording its traces (--record-dir) into a fresh
#    result cache (jobs that differ only in machine keys share one);
#  - cold at --jobs 4, recording into another fresh cache, with the
#    telemetry trace on (--trace-out): its JSON must hold matched B/E
#    pairs and the job, simulate and baseline spans;
#  - warm at --jobs 4 on the first cache: it must say `0 executed`, and
#    its rows say `cached` where the cold rows say `ok`;
#  - replayed from a spec file whose `trace-dir` names the --jobs 1
#    recordings: every job must replay (`N trace replays`);
#  - served as a campaign by `sst serve --jobs 2 --no-journal`, whose
#    two local workers are its only workers, into a cache of its own.
# Both recordings hold the same files with the same bytes, and all
# three caches the same entries with the same bytes.
#
# NAME selects one of three refusals instead, and FLAGS are not used:
#  - sched_mismatch: a trace recorded under round-robin (--jobs 2),
#    found under the default policy's file name, fails its job (exit 2,
#    `scheduler-policy mismatch`) instead of replaying;
#  - corrupt_trace: after one byte mid-stream is corrupted, `sst trace
#    info` (which accepted the file before) fails with `malformed`, and
#    a sweep replaying it exits 2 with `1 failed` and `malformed`;
#  - wdl_parse_error: a WDL parse error names file:line and the token.
#
# Everything lives in equivalence-NAME/ under the working directory,
# so entries run beside each other. $pids holds only a server still
# running, so the exit trap never signals a reaped pid.
#
# usage: equivalence.sh PATH/TO/sst NAME [FLAGS...]
sst=$1 name=$2
shift 2
dir=$PWD/equivalence-$name
pids=
rm -rf "$dir"
mkdir -p "$dir"
trap 'kill -9 $pids 2> /dev/null' EXIT

fail() {
    echo "equivalence $name: $*" >&2
    for log in "$dir"/*.txt "$dir"/*.log; do
        [ -f "$log" ] || continue
        echo "--- $log" >&2
        cat "$log" >&2
    done
    exit 1
}

# run OUT ARGS...: `sst run ARGS`, stdout and stderr into OUT.txt; the
# exit code is $code.
run() {
    out=$1
    shift
    code=0
    "$sst" run "$@" > "$dir/$out.txt" 2>&1 || code=$?
}

# Record cholesky at 4 threads (extra flags: $@) into DIR $1.
record_cholesky() {
    rec=$1
    shift
    run record-cholesky --profiles cholesky --threads 4 --no-cache \
        --record-dir "$rec" --quiet "$@"
    test "$code" = 0 || fail "recording cholesky exited $code"
}

case $name in
sched_mismatch)
    record_cholesky "$dir/rr" --sched round-robin --jobs 2
    mkdir -p "$dir/renamed"
    cp "$dir/rr/cholesky_t4_round-robin.sstt" "$dir/renamed/cholesky_t4.sstt" ||
        fail "no round-robin recording"
    run mismatch --profiles cholesky --threads 4 --no-cache \
        --trace-dir "$dir/renamed"
    test "$code" = 2 || fail "replay under another policy exited $code"
    grep -q 'scheduler-policy mismatch' "$dir/mismatch.txt" ||
        fail "no scheduler-policy mismatch reported"
    echo "equivalence $name: ok"
    exit 0
    ;;
corrupt_trace)
    record_cholesky "$dir/good"
    "$sst" trace info --in "$dir/good/cholesky_t4.sstt" \
        > "$dir/info-good.txt" 2>&1 || fail "trace info refused a good trace"
    mkdir -p "$dir/bad"
    cp "$dir/good/cholesky_t4.sstt" "$dir/bad/"
    python3 -c "import sys; p = sys.argv[1]; b = bytearray(open(p, 'rb').read()); b[len(b) // 2] = 0xff; open(p, 'wb').write(b)" \
        "$dir/bad/cholesky_t4.sstt" || fail "could not corrupt the trace"
    if "$sst" trace info --in "$dir/bad/cholesky_t4.sstt" \
            > "$dir/info-bad.txt" 2>&1; then
        fail "trace info accepted a corrupted trace"
    fi
    grep -q 'malformed' "$dir/info-bad.txt" || fail "trace info: no 'malformed'"
    run replay-bad --profiles cholesky --threads 4 --no-cache \
        --trace-dir "$dir/bad" --csv "$dir/bad.csv"
    test "$code" = 2 || fail "replaying a corrupted trace exited $code"
    grep -q '1 failed' "$dir/replay-bad.txt" || fail "no '1 failed'"
    grep -q 'malformed' "$dir/replay-bad.txt" "$dir/bad.csv" ||
        fail "the failed job does not say 'malformed'"
    echo "equivalence $name: ok"
    exit 0
    ;;
wdl_parse_error)
    printf 'wdl 1\ngroup g threads=2 {\n  frobnicate 3\n}\n' > "$dir/bad.wdl"
    run parse --workload-file "$dir/bad.wdl" --quiet
    test "$code" = 0 && fail "a WDL parse error was accepted"
    grep -q 'bad.wdl:3' "$dir/parse.txt" || fail "no file:line"
    grep -q 'frobnicate' "$dir/parse.txt" || fail "no offending token"
    echo "equivalence $name: ok"
    exit 0
    ;;
esac

# The batch legs.
run cold-j1 "$@" --jobs 1 --cache-dir "$dir/cache-j1" \
    --record-dir "$dir/rec-j1" --csv "$dir/cold-j1.csv" --quiet
test "$code" = 0 || fail "cold --jobs 1 exited $code"
jobs=$(sed -n 's/^batch: \([0-9]*\) jobs, \1 executed, .*/\1/p' \
    "$dir/cold-j1.txt")
test -n "$jobs" || fail "cold --jobs 1 did not execute every job"
# Jobs that differ only in machine keys share one recording; the replay
# leg checks that every job found one.
grep -q ", $(ls "$dir/rec-j1" | wc -l | tr -d ' ') traces recorded," \
    "$dir/cold-j1.txt" || fail "cold --jobs 1 did not count its recordings"

run cold-j4 "$@" --jobs 4 --cache-dir "$dir/cache-j4" \
    --record-dir "$dir/rec-j4" --trace-out "$dir/trace.json" \
    --csv "$dir/cold-j4.csv" --quiet
test "$code" = 0 || fail "cold --jobs 4 exited $code"
cmp "$dir/cold-j1.csv" "$dir/cold-j4.csv" ||
    fail "--jobs 4 with --trace-out differs from --jobs 1"
python3 - "$dir/trace.json" <<'EOF' || fail "bad --trace-out JSON"
import json, sys
ev = json.load(open(sys.argv[1]))['traceEvents']
b = sum(e['ph'] == 'B' for e in ev)
en = sum(e['ph'] == 'E' for e in ev)
assert b == en and b > 0, (b, en)
names = {e['name'] for e in ev}
assert {'job', 'simulate', 'baseline'} <= names, names
EOF

(cd "$dir/rec-j1" && ls) > "$dir/rec-j1.list"
(cd "$dir/rec-j4" && ls) > "$dir/rec-j4.list"
cmp "$dir/rec-j1.list" "$dir/rec-j4.list" ||
    fail "--jobs 1 and --jobs 4 recorded different trace files"
for f in $(cat "$dir/rec-j1.list"); do
    cmp "$dir/rec-j1/$f" "$dir/rec-j4/$f" || fail "$f differs across --jobs"
done
diff -r "$dir/cache-j1" "$dir/cache-j4" > /dev/null ||
    fail "--jobs 1 and --jobs 4 wrote different cache entries"

run warm "$@" --jobs 4 --cache-dir "$dir/cache-j1" --csv "$dir/warm.csv" \
    --quiet
test "$code" = 0 || fail "warm run exited $code"
grep -q "^batch: $jobs jobs, 0 executed, $jobs cached," "$dir/warm.txt" ||
    fail "the warm run simulated jobs"
sed -E 's/^(([^,]*,){6})cached,/\1ok,/' "$dir/warm.csv" |
    cmp "$dir/cold-j1.csv" - || fail "the warm run's rows differ"

"$sst" run "$@" --trace-dir "$dir/rec-j1" --print-spec > "$dir/replay.spec" ||
    fail "--print-spec failed"
run replay --spec "$dir/replay.spec" --no-cache --csv "$dir/replay.csv" \
    --quiet
test "$code" = 0 || fail "replay exited $code"
grep -q ", $jobs trace replays," "$dir/replay.txt" ||
    fail "not every job replayed its trace"
cmp "$dir/cold-j1.csv" "$dir/replay.csv" || fail "the replayed rows differ"

# The served leg: local workers only.
"$sst" run "$@" --print-spec > "$dir/campaign.spec" || fail "--print-spec failed"
sock=$dir/sock
"$sst" serve --socket "$sock" --jobs 2 --no-journal \
    --cache-dir "$dir/cache-serve" > "$dir/server.log" 2>&1 &
server=$!
pids=$server
for _ in $(seq 50); do
    "$sst" submit --connect "$sock" --ping > /dev/null 2>&1 && break
    sleep 0.2
done
"$sst" submit --connect "$sock" --spec "$dir/campaign.spec" --name eq \
    --wait --csv "$dir/served.csv" > "$dir/submit.txt" 2>&1 ||
    fail "the campaign failed"
grep -q "^ok submitted eq jobs=$jobs new=$jobs " "$dir/submit.txt" ||
    fail "the campaign did not submit $jobs new jobs"
"$sst" submit --connect "$sock" --status > "$dir/status.txt" 2>&1 ||
    fail "status failed"
"$sst" submit --connect "$sock" --drain > /dev/null || fail "drain failed"
wait "$server" || fail "the server exited $?"
pids=
grep -q '^worker local-' "$dir/status.txt" || fail "no local worker leased"
if grep '^worker ' "$dir/status.txt" | grep -qv '^worker local-'; then
    fail "a worker other than the local ones leased"
fi
cmp "$dir/cold-j1.csv" "$dir/served.csv" || fail "the served rows differ"
diff -r "$dir/cache-j1" "$dir/cache-serve" > /dev/null ||
    fail "the server wrote different cache entries"
echo "equivalence $name: ok ($jobs jobs)"
