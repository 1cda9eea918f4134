"""Compare two sets of benchmark results, metric by metric.

    python3 solverbench/compare.py BASE_DIR NEW_DIR

Each argument is a result file written by run.py or a directory searched
recursively for them (run.py writes to .solverbench/results/; copy that
directory aside to keep a set). For every workload and end-to-end metric in
BENCHMARK.json it prints both sets' medians and quartiles and whether the new
median stays within the metric's bound of the base median; it also prints
each set's attempted and failed solver runs. Exits 1 when some metric is
worse than its bound allows, 0 otherwise.
"""
from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(arg: str) -> dict:
    """{workload: {"metrics": {name: [values]}, "attempted": n, "failed": n, "runs": n}}"""
    files = (
        sorted(glob.glob(os.path.join(arg, "**", "*.json"), recursive=True))
        if os.path.isdir(arg)
        else [arg]
    )
    sets: dict = {}
    for path in files:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("trace") != 0 or "result" not in doc:
            continue
        entry = sets.setdefault(
            doc["workload"], {"metrics": {}, "attempted": 0, "failed": 0, "runs": 0}
        )
        res = doc["result"]
        entry["attempted"] += res["attempted"]
        entry["failed"] += res["failed"]
        entry["runs"] += 1
        for name, m in res["metrics"].items():
            entry["metrics"].setdefault(name, []).append(m["value"])
    return sets


def quartiles(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(base: dict, new: dict, spec: dict) -> tuple[list[str], bool]:
    lines, regressed = [], False
    for wl in sorted(set(base) | set(new)):
        b, n = base.get(wl), new.get(wl)
        if b is None or n is None:
            lines.append(f"{wl}: only in {'new' if b is None else 'base'} set")
            continue
        lines.append(
            f"{wl}: base {b['runs']} runs, {b['attempted']} attempted, {b['failed']} failed; "
            f"new {n['runs']} runs, {n['attempted']} attempted, {n['failed']} failed"
        )
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            if name not in b["metrics"] or name not in n["metrics"]:
                lines.append(f"  {name}: missing")
                continue
            bq, nq = quartiles(b["metrics"][name]), quartiles(n["metrics"][name])
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else float("inf")
            worse = change if m["better"] == "lower" else -change
            if abs(change) <= bound:
                verdict = "agree"
            elif worse > 0:
                verdict, regressed = "WORSE", True
            else:
                verdict = "better"
            lines.append(
                f"  {name:20s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                f"new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}] {m['unit']}  "
                f"{change:+.1%} (bound {bound:.0%}) {verdict}"
            )
    return lines, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    lines, regressed = compare(load(argv[0]), load(argv[1]), spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
