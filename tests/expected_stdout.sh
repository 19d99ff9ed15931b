#!/bin/sh
# A command prints its checked-in expected output: run `BINARY ARGS...`
# (the `sst` CLI or a bench binary) in the source checkout (where `sst
# list workloads` finds the example workloads), write the checkout's
# path as `<src>` so the file holds no absolute path, and diff the
# result against the expected file.
#
# usage: expected_stdout.sh PATH/TO/BINARY SOURCE_DIR EXPECTED ARGS...
bin=$1 src=$2 expected=$3
shift 3
name=$(basename "$bin")
out=stdout-$(basename "$expected")
if ! (cd "$src" && "$bin" "$@") > "$out"; then
    echo "$name $* failed" >&2
    exit 1
fi
if ! sed "s|$src|<src>|g" "$out" | diff "$expected" -; then
    echo "$name $* differs from $expected" >&2
    exit 1
fi
