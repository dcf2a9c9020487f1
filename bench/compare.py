"""``run.py --compare A.json B.json``: one row per (end-to-end metric, workload).

A host metric is ``regressed`` or ``improved`` only when the medians differ
by more than the metric's bound *and* by more than the baseline's own
inter-quartile distance; anything less is ``unresolved`` — never
"unchanged".  Simulated metrics repeat exactly for a seed, so they compare
exactly: ``identical``, or a verdict against the bound.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

import metrics


def verdict(metric: Mapping[str, Any], base: Mapping[str, Any], new: Mapping[str, Any]) -> tuple[float, str]:
    """``(signed change, verdict)``; the change is positive when ``new`` is worse."""
    change = (new["median"] - base["median"]) / base["median"]
    if metric["better"] == "higher":
        change = -change
    if not metric["host"]:
        if new["median"] == base["median"]:
            return change, "identical"
        if abs(change) > metric["bound"]:
            return change, "regressed" if change > 0 else "improved"
        return change, "changed-within-bound"
    spread = (base["q3"] - base["q1"]) / base["median"]
    if abs(change) > metric["bound"] and abs(change) > spread:
        return change, "regressed" if change > 0 else "improved"
    return change, "unresolved"


def compare(base: Mapping[str, Any], new: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Rows for every metric both result files report, workload by workload."""
    rows: list[dict[str, Any]] = []
    for workload, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(workload)
        if new_entry is None:
            continue
        for metric in metrics.END_TO_END:
            name = metric["name"]
            if name not in base_entry["end_to_end"] or name not in new_entry["end_to_end"]:
                continue
            base_stat, new_stat = base_entry["end_to_end"][name], new_entry["end_to_end"][name]
            change, label = verdict(metric, base_stat, new_stat)
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "base": base_stat["median"], "new": new_stat["median"],
                "change": change, "bound": metric["bound"], "verdict": label,
            })
    return rows


def main(base_path: str, new_path: str) -> int:
    """Print the comparison; exit 1 if any row regressed."""
    with open(base_path, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(new_path, encoding="utf-8") as handle:
        new = json.load(handle)
    if (base["seed"], base["scale"]) != (new["seed"], new["scale"]):
        print(f"note: seed/scale differ ({base['seed']}/{base['scale']} vs "
              f"{new['seed']}/{new['scale']}); simulated rows are not comparable")
    rows = compare(base, new)
    print(f"{'workload':<20}{'metric':<17}{'base':>12}{'new':>12}  {'unit':<8}"
          f"{'worse by':>9}{'bound':>7}  verdict")
    for row in rows:
        print(f"{row['workload']:<20}{row['metric']:<17}{row['base']:>12.4f}{row['new']:>12.4f}  "
              f"{row['unit']:<8}{row['change']:>+9.2%}{row['bound']:>7.0%}  {row['verdict']}")
    for workload, base_entry in base["workloads"].items():
        if workload in new["workloads"]:
            same = base_entry["report_digest"] == new["workloads"][workload]["report_digest"]
            print(f"digest {workload}: {'identical' if same else 'DIFFERENT'}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0
