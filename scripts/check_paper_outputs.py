"""Check regenerated paper tables against the committed ones.

The paper benches (``benchmarks/test_table1`` ... ``test_table7``,
``test_fig6``, ``test_fig10``) write ``benchmarks/out/*.txt``.  This
script compares each of those files with the committed version
(``git show HEAD:<path>``) and exits 1 on any difference other than a
wall time: in every table, the cells of the columns whose header ends
in ``(s)`` are blanked on both sides first.  Verdicts, state counts,
quotient sizes, spec sizes, the Fig. 9 lasso and the Fig. 6 witness
must match exactly.

Usage (from the repo root, after running the benches)::

    python scripts/check_paper_outputs.py [PATH ...]

With no paths it checks every committed ``benchmarks/out/*.txt``.
"""

from __future__ import annotations

import difflib
import re
import subprocess
import sys
from typing import List, Optional, Tuple

#: A table's header rule, as ``repro.util.tables.render_table`` draws it.
_RULE = re.compile(r"^-+(-\+-+)+$")


def _columns(rule: str) -> List[Tuple[int, Optional[int]]]:
    """``(start, end)`` character spans of the columns under ``rule``;
    the last column runs to the end of the line."""
    spans: List[Tuple[int, Optional[int]]] = []
    start = 0
    for width in (len(part) for part in rule.split("-+-")):
        spans.append((start, start + width))
        start += width + 3
    spans[-1] = (spans[-1][0], None)
    return spans


def normalize(text: str) -> List[str]:
    """The lines of ``text`` with every table row reduced to its cells
    and the cells of ``(s)`` columns blanked."""
    lines = text.splitlines()
    out = [line.rstrip() for line in lines]
    for index, line in enumerate(lines):
        if index == 0 or not _RULE.match(line):
            continue
        spans = _columns(line)
        header = [lines[index - 1][a:b].strip() for a, b in spans]
        timed = {col for col, name in enumerate(header) if name.endswith("(s)")}
        out[index - 1] = " | ".join(header)
        out[index] = "-+-".join("-" for _ in spans)
        row = index + 1
        while row < len(lines) and lines[row].strip():
            cells = [lines[row][a:b].strip() for a, b in spans]
            out[row] = " | ".join(
                "" if col in timed else cell for col, cell in enumerate(cells)
            )
            row += 1
    return out


def _committed(path: str) -> str:
    return subprocess.run(
        ["git", "show", f"HEAD:{path}"],
        check=True, capture_output=True, text=True,
    ).stdout


def _tracked_outputs() -> List[str]:
    listing = subprocess.run(
        ["git", "ls-files", "benchmarks/out/*.txt"],
        check=True, capture_output=True, text=True,
    ).stdout
    return listing.split()


def main(argv: List[str]) -> int:
    paths = argv or _tracked_outputs()
    if not paths:
        print("no committed benchmarks/out/*.txt to check")
        return 1
    failed = 0
    for path in paths:
        with open(path) as handle:
            fresh = normalize(handle.read())
        committed = normalize(_committed(path))
        if fresh == committed:
            print(f"ok       {path}")
            continue
        failed += 1
        print(f"CHANGED  {path}")
        sys.stdout.writelines(
            line + "\n"
            for line in difflib.unified_diff(
                committed, fresh, f"HEAD:{path}", path, lineterm=""
            )
        )
    if failed:
        print(f"{failed} of {len(paths)} outputs differ beyond their (s) columns")
        return 1
    print(f"all {len(paths)} outputs match HEAD outside their (s) columns")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
