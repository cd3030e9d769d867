"""Write the stored systems that the ``aut-compare`` workload compares.

    PYTHONPATH=src python3 benchmarks/perf/make_inputs.py OUT_DIR KEY...

For each registry key this writes ``OUT_DIR/KEY.aut``, the object
system at 2 threads x 2 ops exactly as ``repro explore KEY`` writes it,
and ``OUT_DIR/KEY.quotient.aut``, its branching-bisimulation quotient
exactly as ``repro quotient KEY`` writes it.  ``run.py`` starts this in
a process of its own, so exploring the inputs never counts towards the
memory of a measured command, and checks the files against the sha256
digests in ``expected.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.core import branching_partition, quotient_lts, write_aut
from repro.lang import ClientConfig, explore
from repro.objects import get


def main(argv) -> int:
    out_dir = Path(argv[0])
    for key in argv[1:]:
        bench = get(key)
        system = explore(bench.build(2), ClientConfig(2, 2, bench.default_workload()))
        write_aut(system, str(out_dir / f"{key}.aut"))
        quotient = quotient_lts(system, branching_partition(system, reduce=True))
        write_aut(quotient.lts, str(out_dir / f"{key}.quotient.aut"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
