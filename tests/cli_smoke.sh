#!/bin/sh
# `sst run` end to end on the example specs and workloads, one check
# set per NAME:
#  - fig01: the flags-driven fig01 sweep, cold into a fresh result
#    cache, prints tests/data/golden_fig01.csv byte for byte; the
#    spec-driven run (examples/specs/fig01.spec) prints the same CSV;
#    the spec run on the cache the flags filled says `12 cached`; and
#    the spec's canonical form (--print-spec) is a fixed point;
#  - fig07: the oversubscription spec runs;
#  - fig08: the two-program mixes run, with a `fig08_cholesky,mix,16,`
#    row in the CSV;
#  - unknown_mix: `--mix nope` fails and lists the registered mixes;
#  - wdl_cache: the WDL contention spec runs cold, then says `1 cached`
#    warm, and a copy of its .wdl file at another path hits the same
#    entry (`1 cached`: the fingerprint hashes the compiled IR);
#  - wdl_txn_pair: the high/low-contention transactional pair runs,
#    one CSV row each.
#
# Everything lives in cli-smoke-NAME/ under the working directory, so
# entries run beside each other.
#
# usage: cli_smoke.sh PATH/TO/sst SRC NAME
sst=$1 src=$2 name=$3
dir=$PWD/cli-smoke-$name
rm -rf "$dir"
mkdir -p "$dir"

fail() {
    echo "cli smoke $name: $*" >&2
    for log in "$dir"/*.txt; do
        [ -f "$log" ] || continue
        echo "--- $log" >&2
        cat "$log" >&2
    done
    exit 1
}

# run OUT ARGS...: `sst ARGS`, stdout and stderr into OUT.txt; fails
# the check unless it exits 0.
run() {
    out=$1
    shift
    "$sst" "$@" > "$dir/$out.txt" 2>&1 || fail "sst $* exited $?"
}

fig01="--profiles blackscholes_medium,facesim_medium,cholesky --threads 2,4,8,16"
case $name in
fig01)
    run flags sweep $fig01 --cache-dir "$dir/cache" --csv "$dir/flags.csv" \
        --quiet
    cmp "$src/tests/data/golden_fig01.csv" "$dir/flags.csv" ||
        fail "the fig01 sweep differs from tests/data/golden_fig01.csv"
    run spec run --spec "$src/examples/specs/fig01.spec" --no-cache \
        --csv "$dir/spec.csv" --quiet
    cmp "$dir/flags.csv" "$dir/spec.csv" ||
        fail "fig01.spec and its flags print different CSVs"
    run warm run --spec "$src/examples/specs/fig01.spec" \
        --cache-dir "$dir/cache" --quiet
    grep -q ' 0 executed, 12 cached,' "$dir/warm.txt" ||
        fail "fig01.spec missed the cache its flags filled"
    "$sst" run --spec "$src/examples/specs/fig01.spec" --print-spec \
        > "$dir/canon1.spec" || fail "--print-spec of fig01.spec failed"
    "$sst" run --spec "$dir/canon1.spec" --print-spec > "$dir/canon2.spec" ||
        fail "--print-spec of the canonical spec failed"
    cmp "$dir/canon1.spec" "$dir/canon2.spec" ||
        fail "the canonical spec is not a fixed point"
    ;;
fig07)
    run fig07 run --spec "$src/examples/specs/fig07.spec" --no-cache --quiet
    ;;
fig08)
    run fig08 run --spec "$src/examples/specs/fig08.spec" --no-cache \
        --csv "$dir/fig08.csv" --quiet
    grep -q '^fig08_cholesky,mix,16,' "$dir/fig08.csv" ||
        fail "no fig08_cholesky,mix,16 row"
    ;;
unknown_mix)
    if "$sst" sweep --mix nope --quiet > "$dir/mix.txt" 2>&1; then
        fail "an unknown mix was accepted"
    fi
    grep -q 'fig08_cholesky' "$dir/mix.txt" ||
        fail "the unknown-mix error does not list the mixes"
    ;;
wdl_cache)
    spec=$src/examples/specs/wdl_contention.spec
    run cold run --spec "$spec" --cache-dir "$dir/cache" --quiet
    run warm run --spec "$spec" --cache-dir "$dir/cache" --quiet
    grep -q ' 0 executed, 1 cached,' "$dir/warm.txt" ||
        fail "the warm run missed the cache"
    cp "$src/examples/workloads/contention.wdl" "$dir/contention-copy.wdl"
    run copy sweep --workload-file "$dir/contention-copy.wdl" \
        --cache-dir "$dir/cache" --quiet
    grep -q ' 0 executed, 1 cached,' "$dir/copy.txt" ||
        fail "a copied .wdl file at another path missed the cache"
    ;;
wdl_txn_pair)
    run txn sweep --workload-file "$src/examples/workloads/txn_high.wdl" \
        --workload-file "$src/examples/workloads/txn_low.wdl" --no-cache \
        --csv "$dir/txn.csv" --quiet
    grep -q '^txn_high,wdl,16,.*,ok,' "$dir/txn.csv" || fail "no txn_high row"
    grep -q '^txn_low,wdl,16,.*,ok,' "$dir/txn.csv" || fail "no txn_low row"
    ;;
*)
    fail "unknown check"
    ;;
esac
echo "cli smoke $name: ok"
