"""The committed answers (``expected.json``) and the check of one output.

Every command the benchmark times has a committed answer: its exit
code, the sizes it prints and, for ``explore``, the sha256 of the
``.aut`` file it writes.  A command execution *fails* when any part of
its answer is wrong; several wrong parts in one execution are still one
failure.  The checks are deliberately independent of which internal
lane produced a verdict: an ``--on-the-fly`` FALSE is accepted from any
engine as long as the exit code, the verdict line and a counterexample
are there.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected(path: Path = EXPECTED_PATH) -> Dict:
    return json.loads(path.read_text())


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def render_argv(command: Dict, inputs_dir, work_dir) -> List[str]:
    """The command's CLI arguments with ``{inputs}`` / ``{work}`` filled in."""
    return [arg.format(inputs=inputs_dir, work=work_dir) for arg in command["argv"]]


def out_path(argv: Sequence[str]) -> Optional[str]:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def expected_lines(command: Dict, argv: Sequence[str]) -> List[Tuple[str, int]]:
    """``(regex, n)`` pairs: at least ``n`` output lines must match ``regex``."""
    kind = argv[0]
    holds = command["exit"] == 0
    if kind == "lin":
        wanted = [(rf"linearizable: {'TRUE' if holds else 'FALSE'}\s", 1)]
        if "--on-the-fly" not in argv:
            wanted.append((
                rf"states {command['states']} -> quotient {command['quotient']} \(", 1
            ))
        if not holds:
            wanted.append((r"<initial state>$", 1))
        return wanted
    if kind == "lockfree":
        wanted = [(rf"lock-free: {'TRUE' if holds else 'FALSE'}\s", 1)]
        if not holds:
            wanted.append((r"  -- tau-loop \(divergence\) --$", 1))
        return wanted
    if kind == "compare":
        if "trace" in argv:
            return [(rf".* refines .*: {holds}$", 2)]
        name = "branching-divergence" if "--divergence" in argv else "branching"
        wanted = [(rf"{name} bisimilar: {holds}$", 1)]
        if not holds:
            wanted.append((r"distinguishing experiment", 1))
        return wanted
    if kind == "explore":
        return [(
            rf"{re.escape(argv[1])}: {command['states']} states, "
            rf"{command['transitions']} transitions -> ", 1
        )]
    raise ValueError(f"no answer format for command kind {kind!r}")


def check_output(
    command: Dict, argv: Sequence[str], exit_code: Optional[int], output: str,
    timed_out: bool = False,
) -> List[str]:
    """Everything wrong with one execution (empty when it is correct)."""
    if timed_out:
        return ["timed out"]
    problems = []
    if exit_code != command["exit"]:
        problems.append(f"exit code {exit_code}, expected {command['exit']}")
    lines = output.splitlines()
    for pattern, count in expected_lines(command, argv):
        found = sum(1 for line in lines if re.match(pattern, line))
        if found < count:
            problems.append(f"{found} output lines match {pattern!r}, expected {count}")
    if command.get("sha256"):
        path = out_path(argv)
        try:
            digest = sha256_file(path)
        except OSError as exc:
            digest = f"unreadable ({exc})"
        if digest != command["sha256"]:
            problems.append(f"{path}: sha256 {digest}, expected {command['sha256']}")
    return problems


def tally(problem_lists: Sequence[List[str]]) -> Tuple[int, int]:
    """``(attempted, failed)`` over executions, one failure per bad execution."""
    return len(problem_lists), sum(1 for problems in problem_lists if problems)
