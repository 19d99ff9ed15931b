#!/bin/sh
# The flag parser of every `sst` command, for each command the dispatcher
# table lists (`sst --help`): `--help` exits 0 and prints the command's
# usage line, an unknown flag exits 1 naming it, and a value flag at the
# end of the line exits 1 with "missing value for --X". A command added
# to the table without a row below fails here. Each `sst list` registry
# takes no flags.
#
# usage: cli_flags.sh PATH/TO/sst
sst=$1
out=cli-flags.txt

# expect CODE TEXT ARGS...: `sst ARGS` exits CODE and prints TEXT.
expect() {
    code=$1 text=$2
    shift 2
    "$sst" "$@" > "$out" 2>&1
    rc=$?
    if [ "$rc" -ne "$code" ] || ! grep -qF -- "$text" "$out"; then
        echo "sst $*: exit $rc (want $code), output:" >&2
        cat "$out" >&2
        echo "(want text: $text)" >&2
        exit 1
    fi
}

commands=$("$sst" --help | sed -n 's/^  \([a-z][a-z]*\) .*/\1/p')
[ -n "$commands" ] || { echo "no commands in sst --help" >&2; exit 1; }
for cmd in $commands; do
    expect 0 "usage: sst $cmd" "$cmd" --help
    case $cmd in
    run | sweep)
        expect 1 "unknown spec key 'bogus'" "$cmd" --bogus
        expect 1 "missing value for --jobs" "$cmd" --jobs
        expect 1 "missing value for --threads" "$cmd" --threads ;;
    inspect)
        expect 1 "unknown spec key 'bogus'" inspect --bogus
        expect 1 "missing value for --spec" inspect --spec
        expect 1 "missing value for --threads" inspect --threads ;;
    trace)
        expect 1 "'--bogus'" trace --bogus
        expect 1 "'--bogus'" trace info --bogus
        expect 1 "missing value for --in" trace info --in ;;
    list)
        expect 1 "'--bogus'" list --bogus
        expect 1 "'--bogus'" list scheds --bogus extra
        registries=$("$sst" list --help | sed -n 's/^  \([a-z][a-z]*\) .*/\1/p')
        [ -n "$registries" ] || { echo "no registries in sst list --help" >&2; exit 1; }
        for reg in $registries; do
            expect 0 "usage: sst list $reg" list "$reg" --help
            expect 1 "'--bogus'" list "$reg" --bogus
        done ;;
    serve)
        expect 1 "'--bogus'" serve --bogus
        expect 1 "missing value for --lease-ms" serve --lease-ms ;;
    worker)
        expect 1 "'--bogus'" worker --bogus
        expect 1 "missing value for --connect" worker --connect ;;
    submit)
        expect 1 "'--bogus'" submit --bogus
        expect 1 "missing value for --results" submit --results ;;
    metrics)
        expect 1 "'--bogus'" metrics --bogus
        expect 1 "missing value for --connect" metrics --connect ;;
    *)
        echo "no parser checks for 'sst $cmd'; add them here" >&2
        exit 1 ;;
    esac
done
