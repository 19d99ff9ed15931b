#!/bin/sh
# A spec prints its checked-in expected report, cold and from a warm
# cache: run it twice on a fresh result cache, drop the trailing
# `batch:` line of each run, diff both against the expected file, and
# require the warm run to replay every job (`0 executed`). Any FLAGS
# are passed to both runs.
#
# usage: expected_output.sh PATH/TO/sst SPEC EXPECTED [FLAGS...]
sst=$1 spec=$2 expected=$3
shift 3
name=$(basename "$spec" .spec)$(printf '%s' "$*" | tr -c 'A-Za-z0-9.=-' '_')
cache=expected-$name.cache
rm -rf "$cache"
for run in cold warm; do
    out=expected-$name.$run.txt
    if ! "$sst" run --spec "$spec" --jobs 2 --cache-dir "$cache" "$@" \
            > "$out"; then
        echo "$run run of $spec failed" >&2
        exit 1
    fi
    if ! sed '$ { /^batch: /d; }' "$out" | diff "$expected" -; then
        echo "$run run of $spec differs from $expected" >&2
        exit 1
    fi
done
if ! tail -n 1 "$out" | grep -q '^batch: .*, 0 executed,'; then
    echo "warm run of $spec simulated jobs:" >&2
    tail -n 1 "$out" >&2
    exit 1
fi
