"""Summarise or compare benchmark result files.

    python3 perfbench/compare.py RUNS            # spread of one set of runs
    python3 perfbench/compare.py BASE NEW        # NEW against BASE

RUNS, BASE and NEW are each a *.result.json file written by run.py or a
directory of them.  Runs are grouped by workload and trace mode.  For one
set it prints each metric's median, quartiles and spread (quartile distance
over median).  For two sets it prints both medians, the change, and, for
the end-to-end metrics, whether NEW is worse than BASE by more than the
bound in BENCHMARK.json; a metric whose spread in either set exceeds its
bound is reported as unresolved rather than unchanged.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path: str) -> dict:
    files = sorted(glob.glob(os.path.join(path, "*.result.json"))) \
        if os.path.isdir(path) else [path]
    groups: dict = {}
    for name in files:
        with open(name, encoding="utf-8") as fh:
            rec = json.load(fh)
        key = (rec["workload"], rec["trace"])
        for metric, m in {**rec["metrics"], **rec.get("extra", {})}.items():
            groups.setdefault(key, {}).setdefault(metric, []).append(m["value"])
        fail = groups.setdefault(key, {}).setdefault("failed_share", [])
        fail.append(rec["failed"] / rec["attempted"])
    return groups


def stats(values: list) -> tuple:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def bounds() -> dict:
    path = os.path.join(HERE, os.pardir, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"]}


def spread(groups: dict) -> None:
    for (workload, trace), metrics in sorted(groups.items()):
        print(f"{workload} (trace {trace})")
        for name, vals in metrics.items():
            med, q1, q3, sp = stats(vals)
            print(f"  {name:52s} n={len(vals):2d} median {med:.6g}  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  spread {100 * sp:.2f}%")


def compare(base: dict, new: dict) -> int:
    spec = bounds()
    worse = 0
    for key in sorted(set(base) & set(new)):
        print(f"{key[0]} (trace {key[1]})")
        for name in base[key]:
            if name not in new[key]:
                continue
            b, _, _, sb = stats(base[key][name])
            n, _, _, sn = stats(new[key][name])
            change = (n - b) / b if b else 0.0
            verdict = ""
            if name in spec:
                m = spec[name]
                loss = change if m["better"] == "lower" else -change
                if max(sb, sn) > m["bound"]:
                    verdict = "unresolved (spread above bound)"
                elif loss > m["bound"]:
                    verdict = f"WORSE by more than {100 * m['bound']:.0f}%"
                    worse += 1
                else:
                    verdict = "within bound"
            print(f"  {name:52s} {b:.6g} -> {n:.6g}  ({100 * change:+.2f}%)  {verdict}")
    return 1 if worse else 0


def main(argv) -> int:
    if len(argv) == 1:
        spread(load(argv[0]))
        return 0
    if len(argv) == 2:
        return compare(load(argv[0]), load(argv[1]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
