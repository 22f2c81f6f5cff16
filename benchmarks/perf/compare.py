"""``compare.py A.json B.json``: did the change (B) hold against the base (A)?

Each file is a set of runs written by ``run.py --out``.  For every
(end-to-end metric, workload) row the rule of the choosing-metrics guide is
applied:

* ``regression`` — B's median is worse than A's by more than the metric's
  bound (``error_share``: any rise at all);
* ``gain`` — B wins at least nine tenths of the pairs (i-th run of A against
  i-th run of B, ties counting for neither) *and* the medians differ by more
  than A's own inter-quartile spread;
* ``unresolved`` — neither, but a side's spread is wider than the bound, so
  "no change" cannot be told from a change the bound cares about (unless
  every run of B reads better than every run of A);
* ``unchanged`` — otherwise.

Exits non-zero on any regression.  Smoke runs are refused.
"""

from __future__ import annotations

import json
from pathlib import Path
import statistics
import sys
from typing import Dict, List, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perf.workloads import END_TO_END, Metric  # noqa: E402

Rows = Dict[Tuple[str, str], List[float]]


def load(path: Path) -> Rows:
    """``(workload, metric) -> values`` in run order."""
    runs = json.loads(Path(path).read_text(encoding="utf-8"))["runs"]
    if any(run.get("smoke") for run in runs):
        raise SystemExit(f"{path}: smoke runs carry no comparable numbers")
    rows: Rows = {}
    for run in runs:
        if run.get("trace"):
            continue  # traced runs pay for their spans; never compare them
        for name, cell in run["end_to_end"].items():
            rows.setdefault((run["workload"], name), []).append(cell["value"])
    return rows


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0


def verdict(metric: Metric, base: List[float], change: List[float]) -> Tuple[str, float]:
    """``(verdict, worsening)``; worsening is a share of the base median."""
    sign = 1.0 if metric.better == "lower" else -1.0
    base_median, change_median = statistics.median(base), statistics.median(change)
    if metric.bound == 0.0:  # error_share: absolute
        worse = sign * (max(change) - max(base))
        return ("regression" if worse > 0 else "unchanged"), worse
    worse = sign * (change_median - base_median) / base_median
    if worse > metric.bound:
        return "regression", worse
    pairs = list(zip(base, change))
    wins = sum(sign * (b - a) < 0 for a, b in pairs)
    base_iqr = spread(base) * base_median
    if pairs and wins >= 0.9 * len(pairs) and abs(change_median - base_median) > base_iqr:
        return "gain", worse
    all_better = all(sign * (b - a) < 0 for a in base for b in change)
    if max(spread(base), spread(change)) > metric.bound and not all_better:
        return "unresolved", worse
    return "unchanged", worse


def compare(base: Rows, change: Rows) -> Tuple[List[str], bool]:
    lines = [
        f"{'workload':<16}{'metric':<16}{'base med':>12}{'change med':>12}"
        f"{'worse by':>10}{'bound':>7}{'spread A':>10}{'spread B':>10}  verdict"
    ]
    regressed = False
    for (workload, name) in sorted(set(base) & set(change)):
        metric = END_TO_END[name]
        a, b = base[(workload, name)], change[(workload, name)]
        outcome, worse = verdict(metric, a, b)
        regressed |= outcome == "regression"
        lines.append(
            f"{workload:<16}{name:<16}{statistics.median(a):>12.4f}"
            f"{statistics.median(b):>12.4f}{worse:>+10.3f}{metric.bound:>7.2f}"
            f"{spread(a):>10.3f}{spread(b):>10.3f}  {outcome} (n={len(a)}/{len(b)})"
        )
    for key in sorted(set(base) ^ set(change)):
        lines.append(f"{key[0]:<16}{key[1]:<16} present on one side only")
    return lines, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    lines, regressed = compare(load(Path(argv[0])), load(Path(argv[1])))
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
