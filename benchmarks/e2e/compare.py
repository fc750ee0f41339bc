"""Two-set comparison of run records: ``bench.py compare A/ B/``.

Each side is a directory of run records (the JSON files ``bench.py run``
writes).  For every (workload, metric) the comparison prints each
side's median and quartiles and a verdict:

* ``worse`` — B's median is worse than A's by more than the metric's
  bound from ``BENCHMARK.json``;
* ``better`` — B's median is better by more than A's own spread;
* ``unchanged`` — neither;
* ``unresolved`` — the spread between one side's runs is wider than
  the bound, unless every run of B is better than every run of A.

Per-layer metrics have no bound and get the verdict ``-``.
``error_rate`` (failed over attempted operations) is worse whenever it
rises.  Modelled results are deterministic: any difference between two
records, on either side, is a behaviour change (``changed``), not noise.
Records made on machines with different fingerprints are
``incomparable``.

Exit status: 0 when nothing is worse or changed, 1 otherwise, and 2
when the two sets are incomparable.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

SCHEMA = 1

Row = Tuple[str, str, str, Optional[Tuple[float, float, float, int]],
            Optional[Tuple[float, float, float, int]], str]


def load_records(directory: Path) -> List[dict]:
    """Every run record under ``directory``, subdirectories included."""
    records = []
    for path in sorted(Path(directory).rglob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        record = json.loads(path.read_text())
        if record.get("schema") != SCHEMA:
            raise ValueError(f"{path}: not a schema-{SCHEMA} run record")
        records.append(record)
    if not records:
        raise ValueError(f"{directory}: no run records")
    return records


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` cuts
    them; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = quartiles(a)[1], quartiles(b)[1]
    # Positive = B is worse, as a share of A's median.
    change = sign * (med_b - med_a) / abs(med_a) if med_a else \
        sign * (med_b - med_a)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound:
        if all_better:
            return "better"
        if all_worse and change > bound:
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if -change > spread(a):
        return "better"
    return "unchanged"


def _stats(values: Sequence[float]) -> Tuple[float, float, float, int]:
    q1, med, q3 = quartiles(values)
    return med, q1, q3, len(values)


def compare(a_records: List[dict], b_records: List[dict],
            spec: dict) -> Tuple[List[Row], int]:
    """Rows ``(workload, metric, unit, A stats, B stats, verdict)`` —
    stats are ``(median, Q1, Q3, runs)`` — and the exit status."""
    prints = [r["fingerprint"] for r in a_records + b_records]
    differ = sorted({k for p in prints for k in p
                     if any(q.get(k) != p[k] for q in prints)})
    if differ:
        return [("*", "fingerprint", "", None, None,
                 f"incomparable: {', '.join(differ)} differ")], 2
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    rows: List[Row] = []
    by_wl: Dict[str, Tuple[List[dict], List[dict]]] = {}
    for side, records in ((0, a_records), (1, b_records)):
        for r in records:
            by_wl.setdefault(r["workload"], ([], []))[side].append(r)
    for workload in sorted(by_wl):
        a, b = by_wl[workload]
        if not a or not b:
            rows.append((workload, "*", "", None, None, "missing"))
            continue
        for section in ("end_to_end", "per_layer"):
            names = [n for n in units
                     if all(n in r[section] for r in a + b)]
            for name in names:
                av = [r[section][name]["value"] for r in a]
                bv = [r[section][name]["value"] for r in b]
                spec_m = bounds.get(name)
                v = verdict(av, bv, spec_m["bound"], spec_m["better"]) \
                    if section == "end_to_end" else "-"
                rows.append((workload, name, units[name], _stats(av),
                             _stats(bv), v))
        rate_a = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        rate_b = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        rows.append((workload, "error_rate", "ratio",
                     (rate_a, rate_a, rate_a, len(a)),
                     (rate_b, rate_b, rate_b, len(b)),
                     "worse" if rate_b > rate_a else
                     "better" if rate_b < rate_a else "unchanged"))
        modelled = [r["modelled"] for r in a + b]
        shared = set.intersection(*(set(m) for m in modelled))
        drift = sorted(k for k in shared
                       if len({m[k] for m in modelled}) > 1)
        rows.append((workload, "modelled", f"{len(shared)} values", None,
                     None, f"changed: {', '.join(drift[:3])}" if drift
                     else "identical"))
    status = int(any(row[5] == "worse" or row[5].startswith("changed")
                     for row in rows))
    return rows, status


def format_rows(rows: List[Row]) -> str:
    def cell(stats) -> str:
        if stats is None:
            return f"{'':>34s}"
        med, q1, q3, n = stats
        return f"{med:12.5g} [{q1:.4g}, {q3:.4g}] n={n}".rjust(34)

    lines = [f"{'workload':20s} {'metric':26s} {'unit':8s} "
             f"{'A median [Q1, Q3]':>34s} {'B median [Q1, Q3]':>34s}  verdict"]
    for workload, name, unit, a, b, v in rows:
        lines.append(f"{workload:20s} {name:26s} {unit:8s} {cell(a)} "
                     f"{cell(b)}  {v}")
    return "\n".join(lines)
