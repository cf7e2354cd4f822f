#!/usr/bin/env python3
"""Compare two prebuilt hpbench binaries in alternating pairs.

Usage, from the root of an hpbrcu checkout:

    python3 tools/hpbench_pairs.py --parent A/main.exe --change B/main.exe \\
        --workload list|hash|tree [--seed N] [--seconds S] [--pairs K] [--trace 0|1]

Each binary is a `_build/default/hpbench/main.exe` built beforehand (in
its own checkout); nothing is built here, so no build runs beside a
measurement.  Pair i runs both binaries once on the same inputs: the
parent first in odd pairs, the change first in even ones, so a drift of
the machine during the series falls on both sides alike.

Prints, per metric of BENCHMARK.json (`end_to_end`, or `per_layer` under
`--trace 1`), a markdown table with a row per pair, the first quartile,
median and third quartile of each side, how many pairs the change won
in the metric's `better` direction, how far the change's median lies
from the parent's, in percent, and whether the claim rule holds (the
change won at least nine tenths of the pairs, and its median lies beyond
the parent's first or third quartile in the `better` direction), and,
for a metric with a `bound`, how far the change's median lies from the
parent's in the metric's worse direction beside that bound (the
no-regression evidence); then each run's `correct` flag and
failed-operation count.  Exits 1 if any run was not correct or printed
no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True,
                         timeout=args.seconds * 10 + 120)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def rel_change(parent, change):
    """The change's median relative to the parent's, in percent."""
    if parent == 0 or parent != parent or change != change:
        return "change n/a"
    return "%+.1f%%" % (100.0 * (change - parent) / parent)


def claim_verdict(wins, pairs, parent_q, change_median, lower):
    """The claim rule: the change won at least nine tenths of the pairs
    (ties count for neither side) and its median lies beyond the parent's
    first quartile (lower is better) or third quartile (higher is
    better)."""
    need = -(-9 * pairs // 10)
    bound, side = (parent_q[0], "below the parent's Q1") if lower \
        else (parent_q[2], "above the parent's Q3")
    beyond = change_median < bound if lower else change_median > bound
    holds = wins >= need and beyond
    return ("Claim rule %s: won %d of %d pairs (needs %d); median %s %s %s."
            % ("holds" if holds else "does not hold", wins, pairs, need,
               fmt(change_median), "lies" if beyond else "does not lie",
               side + " (" + fmt(bound) + ")"))


def bound_verdict(parent_median, change_median, lower, bound):
    """The change's median against the parent's, as a fraction in the
    metric's worse direction, beside the metric's regression bound."""
    if parent_median == 0 or parent_median != parent_median \
            or change_median != change_median:
        return "Bound: change n/a, bound %g." % bound
    worse = (change_median - parent_median) / parent_median
    if not lower:
        worse = -worse
    side = "worse" if worse > 0 else "better" if worse < 0 else "unchanged"
    return ("Bound: %.1f%% %s, %s the %g bound."
            % (100.0 * abs(worse), side,
               "inside" if worse <= bound else "outside", bound))


def fmt(v):
    return "%.0f" % v if v == 0 or abs(v) >= 100 else "%#.4g" % v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="the parent's main.exe")
    ap.add_argument("--change", required=True, help="the change's main.exe")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["per_layer" if args.trace else "end_to_end"]

    sides = ("parent", "change")
    results = {s: [] for s in sides}
    for i in range(1, args.pairs + 1):
        order = sides if i % 2 == 1 else tuple(reversed(sides))
        for side in order:
            binary = args.parent if side == "parent" else args.change
            results[side].append(run_once(os.path.abspath(binary), args))
        print("pair %d done" % i, file=sys.stderr, flush=True)

    ok = all(r is not None and r["correct"] for s in sides for r in results[s])
    print("`%s`, seed %d, %d pairs, --seconds %g, --trace %d:\n"
          % (args.workload, args.seed, args.pairs, args.seconds, args.trace))
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        if not any(r and name in r["metrics"] for s in sides for r in results[s]):
            continue
        vals = {s: [r["metrics"][name]["value"] if r and name in r["metrics"]
                    else float("nan") for r in results[s]] for s in sides}
        print("| pair | %s parent | change |" % name)
        print("|---|---|---|")
        wins = 0
        for i, (p, c) in enumerate(zip(vals["parent"], vals["change"]), 1):
            wins += (c < p) if lower else (c > p)
            print("| %d | %s | %s |" % (i, fmt(p), fmt(c)))
        qv = {s: quartiles(vals[s]) for s in sides}
        qs = {s: " / ".join(fmt(q) for q in qv[s]) for s in sides}
        print("| Q1 / median / Q3 | %s | %s |" % (qs["parent"], qs["change"]))
        print("\n%s (%s is better): the change won %d of %d pairs; median %s."
              % (name, m["better"], wins, args.pairs,
                 rel_change(qv["parent"][1], qv["change"][1])))
        print(claim_verdict(wins, args.pairs, qv["parent"], qv["change"][1],
                            lower))
        if "bound" in m:
            print(bound_verdict(qv["parent"][1], qv["change"][1], lower,
                                m["bound"]))
        print()
    print("| run | parent correct | failed | change correct | failed |")
    print("|---|---|---|---|---|")
    def cell(r):
        if r is None:
            return ("no result", "-")
        return (str(r["correct"]).lower(), str(r["failed"]))

    for i, (p, c) in enumerate(zip(results["parent"], results["change"]), 1):
        print("| %d | %s | %s | %s | %s |" % ((i,) + cell(p) + cell(c)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
