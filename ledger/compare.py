"""``run.py --compare A.json B.json``: did B move against A?

One row per (workload, end-to-end metric), judged by the rules of the
choosing-metrics guide, sections 6 to 8:

* *regressed*: B's median is worse than A's by more than the metric's
  bound (BENCHMARK.json);
* *improved*: B wins at least nine tenths of the decided pairs (run i
  of A against run i of B, ties deciding nothing; with fewer than ten
  pairs every run of B must beat every run of A) and the medians
  differ by more than the distance between A's quartiles;
* *unresolved*: the run-to-run spread of either side is wider than the
  bound, so "no regression" cannot be shown; unless every run of one
  side beats every run of the other, which settles it;
* *unchanged*: none of the above.

Exact metrics (simulated-domain counts) must repeat bit for bit on one
seed, so for them any difference between two runs of the same seed is
a verdict by itself.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Sequence, Tuple

#: End-to-end metrics that depend only on the simulated event sequence.
EXACT_METRICS = ("events_fired", "latency_hops_mean", "latency_hops_p90",
                 "msg_hops_per_op", "completed_fraction")


#: Pairs of runs the guide asks for before a gain may be claimed.
MIN_PAIRS = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            better: str) -> str:
    """Judge B's runs against A's (``better`` is "lower" or "higher")."""
    if list(a) == list(b):
        return "unchanged"      # nothing differs, whatever the spread
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    base = abs(med_a) or 1.0
    worse_by = sign * (med_b - med_a) / base      # > 0: B is worse
    (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
    spread = max(a3 - a1, b3 - b1) / base
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    all_worse = min(sign * v for v in b) > max(sign * v for v in a)
    pairs = [(sign * x, sign * y) for x, y in zip(a, b) if x != y]
    wins = sum(1 for x, y in pairs if y < x)
    if spread > bound:
        if all_better:
            return "improved"
        if all_worse and worse_by > bound:
            return "regressed"
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    # Section 8 wants ten pairs behind a claimed gain; with fewer, only
    # a clean separation of the two sides counts.
    won = (wins >= 0.9 * len(pairs) if len(pairs) >= MIN_PAIRS
           else all_better)
    if pairs and won and worse_by < 0 and abs(med_b - med_a) > (a3 - a1):
        return "improved"
    return "unchanged"


def rows(a: Dict[str, Any], b: Dict[str, Any],
         declaration: Dict[str, Any]) -> List[Dict[str, Any]]:
    out: List[Dict[str, Any]] = []
    same_seed = a.get("seed") == b.get("seed")
    for workload in (w["name"] for w in declaration["workloads"]):
        cell_a = a["workloads"].get(workload, {}).get("end_to_end", {})
        cell_b = b["workloads"].get(workload, {}).get("end_to_end", {})
        for metric in declaration["end_to_end"]:
            name = metric["name"]
            if name not in cell_a or name not in cell_b:
                continue  # a metric one side did not produce is absent
            va, vb = cell_a[name]["values"], cell_b[name]["values"]
            result = verdict(va, vb, metric["bound"], metric["better"])
            out.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "bound": metric["bound"],
                "a_median": statistics.median(va), "a_quartiles": quartiles(va),
                "b_median": statistics.median(vb), "b_quartiles": quartiles(vb),
                "verdict": result,
                "exact_identical": (set(va) == set(vb) and len(set(va)) == 1
                                    if name in EXACT_METRICS and same_seed
                                    else None),
            })
    return out


def main(path_a: str, path_b: str, declaration: Dict[str, Any]) -> int:
    with open(path_a, encoding="utf-8") as fa, \
            open(path_b, encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)
    table = rows(a, b, declaration)
    print(f"{'workload':<18} {'metric':<20} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'bound':>6}  verdict")
    for row in table:
        def side(prefix: str) -> str:
            q1, q3 = row[prefix + "_quartiles"]
            return f"{row[prefix + '_median']:.5g} [{q1:.5g}, {q3:.5g}]"
        note = ""
        if row["exact_identical"] is False:
            note = "  (exact metric differs on the same seed)"
        print(f"{row['workload']:<18} {row['metric']:<20} {side('a'):>34} "
              f"{side('b'):>34} {row['bound']:>6.0%}  {row['verdict']}{note}")
    counts: Dict[str, int] = {}
    for row in table:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print(", ".join(f"{count} {name}" for name, count in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0
