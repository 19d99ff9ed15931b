#!/bin/sh
# A command prints its checked-in expected output: run `sst ARGS...`
# in the source checkout (where `sst list workloads` finds the example
# workloads), write the checkout's path as `<src>` so the file holds no
# absolute path, and diff the result against the expected file.
#
# usage: expected_stdout.sh PATH/TO/sst SOURCE_DIR EXPECTED ARGS...
sst=$1 src=$2 expected=$3
shift 3
out=stdout-$(basename "$expected")
if ! (cd "$src" && "$sst" "$@") > "$out"; then
    echo "sst $* failed" >&2
    exit 1
fi
if ! sed "s|$src|<src>|g" "$out" | diff "$expected" -; then
    echo "sst $* differs from $expected" >&2
    exit 1
fi
