#!/usr/bin/env python3
"""Compare two sstbench results files (run.py --out) metric by metric.

  python3 benchmark/compare.py BASE.json CHANGE.json

Prints one row per (workload, end-to-end metric): each side's median and
quartiles of its samples, the change in the median, and a verdict judged
against the metric's bound in BENCHMARK.json:

  worse       the median moved the wrong way by more than the bound
  better      the median moved the right way by more than the bound
  unchanged   the median moved by less than the bound
  unresolved  a side's quartile spread is wider than the bound (reported
              as better instead when every change sample beats every
              base sample)

The samples are the timed reps of one run, which understate the drift
between runs on a noisy host; a claimed gain needs ten runs of each side
(see README.md). Metrics with a single value (err_mean_pct) and the
per-layer counts are deterministic for a given seed and compared exactly.
Exits 1 when any metric is worse or any count differs.
"""

import json
import statistics
import sys
from pathlib import Path

DECLARATION = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0]
    q = statistics.quantiles(samples, n=4)
    return q[0], q[2]


def verdict(base, change, lower_is_better, bound):
    """(relative change of the median, verdict) for two sample lists."""
    mb, mc = statistics.median(base), statistics.median(change)
    delta = (mc - mb) / mb
    worse = delta if lower_is_better else -delta
    if bound is None:  # deterministic: any difference counts
        return delta, ("unchanged" if mc == mb
                       else "worse" if worse > 0 else "better")
    spread = max((q3 - q1) / abs(m) for (q1, q3), m in
                 ((quartiles(base), mb), (quartiles(change), mc)))
    if spread > bound:
        beats = (max(change) < min(base) if lower_is_better
                 else min(change) > max(base))
        return delta, "better" if beats else "unresolved"
    if worse > bound:
        return delta, "worse"
    return delta, "better" if worse < -bound else "unchanged"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    docs = [json.loads(Path(p).read_text()) for p in sys.argv[1:]]
    if docs[0]["seed"] != docs[1]["seed"]:
        print("note: the seeds differ, so deterministic values need not "
              "match")
    base, change = (d["workloads"] for d in docs)
    declared = json.loads(DECLARATION.read_text())
    bad = False
    print(f"{'workload':<11} {'metric':<18} {'base median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'delta':>8}  verdict")
    for workload in [w for w in base if w in change]:
        b, c = base[workload]["end_to_end"], change[workload]["end_to_end"]
        for m in declared["end_to_end"]:
            name = m["name"]
            if name not in b or name not in c:
                continue
            bs = b[name]["samples"] or [b[name]["value"]]
            cs = c[name]["samples"] or [c[name]["value"]]
            exact = b[name]["samples"] is None
            delta, v = verdict(bs, cs, m["better"] == "lower",
                               None if exact else m["bound"])
            bad |= v == "worse"
            cells = [f"{statistics.median(s):.6g} [{quartiles(s)[0]:.4g}, "
                     f"{quartiles(s)[1]:.4g}]" for s in (bs, cs)]
            print(f"{workload:<11} {name:<18} {cells[0]:<34} {cells[1]:<34} "
                  f"{delta:>+8.1%}  {v}")

        bl, cl = base[workload]["per_layer"], change[workload]["per_layer"]
        counts = [k for k in bl if bl[k]["exact"] and k in cl]
        differ = [k for k in counts if bl[k]["value"] != cl[k]["value"]]
        for k in differ:
            print(f"{workload:<11} {k:<18} count {bl[k]['value']!r} -> "
                  f"{cl[k]['value']!r}  differs")
        if counts:
            print(f"{workload:<11} {len(counts) - len(differ)} of "
                  f"{len(counts)} per-layer counts identical")
        bad |= bool(differ)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
