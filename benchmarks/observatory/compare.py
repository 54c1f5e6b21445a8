"""Compare two sets of observatory runs: one row per metric x workload.

    python benchmarks/observatory/compare.py --base a.json --new b.json
    python benchmarks/observatory/compare.py --base a1.json a2.json \
                                             --new b1.json b2.json

Each file is what ``run.py --out`` wrote (a ``{"runs": [...]}`` list);
the runs of all files on one side form that side's set.  For every
bounded metric the table gives the base median, the new median, their
ratio *with its base*, the bound, and a verdict:

- ``ok``          the new median is not worse than the base median by
                  more than the bound;
- ``regressed``   it is;
- ``unresolved``  the run-to-run spread of either side (quartile
                  distance over median, judged from five runs a side up)
                  is wider than the bound, so the sets cannot tell.

Bounded metrics are the ``end_to_end`` entries of ``BENCHMARK.json`` and
the workload-specific ``e2e.*`` details (bounds in ``spec.py``).
Per-layer metrics follow as plain deltas.  Runs marked invalid (the load
generator ran late) and ``--smoke`` runs are left out.  Exit code 1 when
any row is ``regressed`` or ``unresolved``, or any run failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import spec  # noqa: E402  (after the path tweak)


def load_runs(paths: List[str]) -> List[Dict[str, Any]]:
    runs = []
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        runs.extend(doc["runs"] if "runs" in doc else [doc])
    return runs


def collect(runs: List[Dict[str, Any]], trace: int
            ) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> one value per usable run``."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in runs:
        if run.get("smoke") or not run.get("valid", True):
            continue
        if run["trace"] != trace:
            continue
        for name, row in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(row["median"])
    return out


#: below this many runs a side, quartiles are the range in disguise
MIN_RUNS_FOR_SPREAD = 5


def spread(values: List[float]) -> Optional[float]:
    """Quartile distance over the median; None below five runs."""
    if len(values) < MIN_RUNS_FOR_SPREAD:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base: List[float], new: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    b, n = statistics.median(base), statistics.median(new)
    ratio = n / b if b else float("inf") if n else 1.0
    worse = (n - b) / abs(b) if b else (1.0 if n > b else 0.0)
    if better == "higher":
        worse = -worse
    wide = [s for s in (spread(base), spread(new)) if s is not None]
    if wide and max(wide) > bound and bound > 0:
        return "unresolved", ratio
    return ("regressed" if worse > bound else "ok"), ratio


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)

    benchmark = spec.load_benchmark()
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    bounded = {m["name"]: (m["better"], m["bound"], m["unit"])
               for m in benchmark["end_to_end"]}
    layer = {m["name"]: (m["better"], m["unit"])
             for m in benchmark["per_layer"]}
    for name, bound in spec.DETAIL_BOUNDS.items():
        bounded[name] = (layer[name][0], bound, layer[name][1])
    workloads = [w["name"] for w in benchmark["workloads"]]

    status = 0
    for side, runs in (("base", base_runs), ("new", new_runs)):
        bad = [r for r in runs if r["failed"]]
        for run in bad:
            print(f"{side}: {run['workload']} seed {run['seed']} failed "
                  f"{run['failed']} of {run['attempted']} operations: "
                  f"{run['failures'][:2]}")
            status = 1
        skipped = sum(1 for r in runs if not r.get("valid", True))
        if skipped:
            print(f"{side}: {skipped} invalid run(s) left out")

    print(f"{'workload':<19} {'metric':<24} {'unit':<7} {'base':>12} "
          f"{'new':>12} {'new/base':>9} {'bound':>6} {'n':>5}  verdict")
    # end-to-end metrics come from untraced runs; the e2e.* details are
    # taken from untraced runs too when present, else from layer runs
    untraced = collect(base_runs, 0)
    for trace in (0, 1):
        base = untraced if trace == 0 else collect(base_runs, 1)
        new = collect(new_runs, trace)
        for workload in workloads:
            for name, (better, bound, unit) in bounded.items():
                key = (workload, name)
                if key not in base or key not in new:
                    continue
                if trace == 1 and key in untraced:
                    continue
                if name == "e2e.failed_share":
                    continue  # reported above, per run
                word, ratio = verdict(base[key], new[key], better, bound)
                if word != "ok":
                    status = 1
                print(f"{workload:<19} {name:<24} {unit:<7} "
                      f"{statistics.median(base[key]):>12.6g} "
                      f"{statistics.median(new[key]):>12.6g} "
                      f"{ratio:>9.3f} {bound:>6.2f} "
                      f"{len(base[key]):>2}/{len(new[key]):<2}  {word}")

    base, new = collect(base_runs, 1), collect(new_runs, 1)
    rows = [(w, n) for w in workloads for n in layer
            if n not in bounded and (w, n) in base and (w, n) in new]
    if rows:
        print(f"\nper-layer deltas (layer runs; no bound)\n"
              f"{'workload':<19} {'metric':<46} {'unit':<7} {'base':>12} "
              f"{'new':>12} {'new/base':>9}")
    for workload, name in rows:
        b = statistics.median(base[(workload, name)])
        n = statistics.median(new[(workload, name)])
        if b == 0 and n == 0:
            continue
        ratio = n / b if b else float("inf")
        print(f"{workload:<19} {name:<46} {layer[name][1]:<7} "
              f"{b:>12.6g} {n:>12.6g} {ratio:>9.3f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
