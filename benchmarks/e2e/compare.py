#!/usr/bin/env python3
"""Compare two benchmark reports: ``compare.py A.json B.json``.

A is the base (parent commit, or the first set of runs), B the candidate.
For every (end-to-end metric, workload) pair one row is printed with both
medians, the ratio B/A, how much worse B is as a share of A, the bound,
the observed run-to-run spread, and a verdict:

* ``ok``          B's median is not worse than A's by more than the bound;
* ``regressed``   it is worse by more than the bound;
* ``unresolved``  the spread between runs of one side (IQR / median) is
                  wider than the bound, so the pair cannot say either way.

Per-layer metrics follow without verdicts (they have no bounds); a
count-type one (unit ``B`` or ``count``) that does not repeat to within
1e-6 is marked ``differs``.  Exits 1 when any row regressed, else 0.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import end_to_end_table, iqr_share  # noqa: E402


def _values(slot: Optional[Dict]) -> List[float]:
    if not slot:
        return []
    return [v for v in slot.get("values", []) if v is not None]


def worse_share(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``.

    From a base of exactly 0 any worsening is infinitely worse (a
    failed-share or wire-bytes metric leaving 0 always regresses).
    """
    worse = new - base if better == "lower" else base - new
    if worse <= 0:
        return 0.0
    return worse / abs(base) if base != 0 else float("inf")


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Dict:
    base, new = statistics.median(a), statistics.median(b)
    spreads = [s for s in (iqr_share(a), iqr_share(b)) if s is not None]
    spread = max(spreads) if spreads else None
    worse = worse_share(base, new, better)
    if spread is not None and spread > bound and bound > 0:
        word = "unresolved"
    elif worse > bound:
        word = "regressed"
    else:
        word = "ok"
    return {"base": base, "new": new, "worse": worse, "spread": spread,
            "verdict": word,
            "ratio": new / base if base else None}


def compare(report_a: Dict, report_b: Dict) -> List[Dict]:
    table = report_a.get("bounds") or end_to_end_table()
    rows = []
    for workload, entry_a in report_a["workloads"].items():
        entry_b = report_b["workloads"].get(workload)
        if entry_b is None:
            continue
        for name, spec in table.items():
            a = _values(entry_a["end_to_end"].get(name))
            b = _values(entry_b["end_to_end"].get(name))
            if not a or not b:
                continue
            rows.append({
                "workload": workload, "metric": name, "unit": spec["unit"],
                "bound": spec["bound"], "runs": (len(a), len(b)),
                **verdict(a, b, spec["better"], spec["bound"]),
            })
    return rows


def layer_rows(report_a: Dict, report_b: Dict) -> List[Dict]:
    rows = []
    for workload, entry_a in report_a["workloads"].items():
        entry_b = report_b["workloads"].get(workload, {})
        for name, slot_a in entry_a.get("per_layer", {}).items():
            a = _values(slot_a)
            b = _values(entry_b.get("per_layer", {}).get(name))
            if not a or not b:
                continue
            base, new = statistics.median(a), statistics.median(b)
            note = ""
            if slot_a["unit"] in ("B", "count"):
                # 1e-6: a round reply carries ``online_seconds`` as a
                # decimal whose length varies by a few bytes per run.
                same = math.isclose(base, new, rel_tol=1e-6)
                note = "exact" if same else "differs"
            rows.append({
                "workload": workload, "metric": name,
                "unit": slot_a["unit"], "base": base, "new": new,
                "ratio": new / base if base else None, "note": note,
            })
    return rows


def _num(value: Optional[float], fmt: str = "{:.4g}") -> str:
    return "n/a" if value is None else fmt.format(value)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        report_a = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        report_b = json.load(fh)
    for label, report in (("A", report_a), ("B", report_b)):
        h = report.get("host", {})
        print(f"{label}: seed={report.get('seed')} commit="
              f"{h.get('git_commit')} nproc={h.get('nproc')} "
              f"noisy={h.get('noisy')}")
    rows = compare(report_a, report_b)
    print(f"\n{'workload':22s} {'metric':18s} {'A (base)':>12s} "
          f"{'B':>12s} {'unit':6s} {'B/A':>7s} {'worse':>8s} "
          f"{'bound':>7s} {'spread':>7s} runs   verdict")
    for r in rows:
        print(f"{r['workload']:22s} {r['metric']:18s} "
              f"{_num(r['base']):>12s} {_num(r['new']):>12s} "
              f"{r['unit']:6s} {_num(r['ratio'], '{:.3f}'):>7s} "
              f"{_num(r['worse'], '{:+.1%}'):>8s} "
              f"{r['bound']:>7.1%} {_num(r['spread'], '{:.1%}'):>7s} "
              f"{r['runs'][0]}/{r['runs'][1]}    {r['verdict']}")
    layers = layer_rows(report_a, report_b)
    if layers:
        print("\nper-layer (no bounds; ratio B/A with its base)")
        for r in layers:
            print(f"{r['workload']:22s} {r['metric']:34s} "
                  f"{_num(r['base']):>12s} {_num(r['new']):>12s} "
                  f"{r['unit']:6s} {_num(r['ratio'], '{:.3f}'):>7s} "
                  f"{r['note']}")
    counts = {word: sum(r["verdict"] == word for r in rows)
              for word in ("ok", "regressed", "unresolved")}
    print(f"\n{counts['ok']} ok, {counts['regressed']} regressed, "
          f"{counts['unresolved']} unresolved")
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
