"""Compare benchmark results of two commits, one row per workload and metric.

    python3 benchmarks/perf/compare.py BASE.json... -- CHANGE.json...

Each file is the ``--out`` of one ``run.py`` run.  Base run i is paired
with change run i, so run the two commits alternately and list the
files in the order they ran.  For every workload and every end-to-end
metric of ``BENCHMARK.json`` the tool prints both sides' medians and
quartiles and one verdict:

``improved``
    the change wins at least nine tenths of the pairs (ties count for
    neither side), over at least ten pairs, and the medians differ by
    more than the distance between the base's quartiles;
``unresolved``
    the base's own spread (quartile distance over median) is wider than
    the metric's bound and not every change run beats every base run;
``regressed``
    the change's median is worse than the base's by more than the bound;
``unchanged``
    otherwise -- including a gain shown on fewer than ten pairs, which
    is no claim.

``failed_frac`` (failed over attempted commands) gets a row of its own
and counts as regressed on any rise.  The exit status is 1 when any row
regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence

from summary import median, quartiles

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def classify(base: Sequence[float], change: Sequence[float], bound: float,
             better: str) -> str:
    """The verdict for one metric on one workload (see the module doc)."""
    sign = 1.0 if better == "lower" else -1.0

    def gain(b: float, c: float) -> float:
        return sign * (b - c)

    q1, base_median, q3 = quartiles(base)
    change_median = median(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if gain(b, c) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain(base_median, change_median) > q3 - q1):
        return "improved"
    if (q3 - q1) / base_median > bound and not all(
        gain(b, c) > 0 for b in base for c in change
    ):
        return "unresolved"
    if -gain(base_median, change_median) / base_median > bound:
        return "regressed"
    return "unchanged"


def failed_frac(runs: List[Dict], workload: str) -> float:
    results = [run["workloads"][workload] for run in runs]
    return sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)


def compare(base_runs: List[Dict], change_runs: List[Dict], bench: Dict) -> List[Dict]:
    workloads = [name for name in base_runs[0]["workloads"]
                 if all(name in run["workloads"] for run in base_runs + change_runs)]
    rows = []
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            base = [run["workloads"][workload]["metrics"][name] for run in base_runs]
            change = [run["workloads"][workload]["metrics"][name] for run in change_runs]
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "base": quartiles(base), "change": quartiles(change),
                "verdict": classify(base, change, metric["bound"], metric["better"]),
            })
        base_ff = failed_frac(base_runs, workload)
        change_ff = failed_frac(change_runs, workload)
        rows.append({
            "workload": workload, "metric": "failed_frac", "unit": "ratio",
            "base": (base_ff,) * 3, "change": (change_ff,) * 3,
            "verdict": "regressed" if change_ff > base_ff else "unchanged",
        })
    return rows


def render(rows: List[Dict]) -> str:
    def side(q) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [f"{'workload':<18} {'metric':<16} {'base median [q1, q3]':<30} "
             f"{'change median [q1, q3]':<30} {'delta':>8}  verdict"]
    for row in rows:
        base_median, change_median = row["base"][1], row["change"][1]
        delta = (f"{(change_median - base_median) / base_median:+.1%}"
                 if base_median else "n/a")
        lines.append(f"{row['workload']:<18} {row['metric']:<16} "
                     f"{side(row['base']) + ' ' + row['unit']:<30} "
                     f"{side(row['change']) + ' ' + row['unit']:<30} {delta:>8}  "
                     f"{row['verdict']}")
    return "\n".join(lines)


def _load(path) -> Dict:
    return json.loads(Path(path).read_text())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    split = argv.index("--")
    base_files, change_files = argv[:split], argv[split + 1:]
    if not base_files or not change_files:
        print("need at least one base and one change result file", file=sys.stderr)
        return 2
    rows = compare([_load(p) for p in base_files], [_load(p) for p in change_files],
                   _load(BENCHMARK_JSON))
    print(render(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
