"""repro -- Branching Bisimulation and Concurrent Object Verification.

A from-scratch Python reproduction of Yang, Liu, Katoen, Lin & Wu,
*Branching Bisimulation and Concurrent Object Verification* (DSN 2018):

* :mod:`repro.core` -- LTSs, (divergence-sensitive) branching / weak /
  strong bisimulation, quotients, trace refinement with counterexamples,
  the k-trace hierarchy, divergence diagnostics (the CADP substitute);
* :mod:`repro.lang` -- an embedded modeling language for fine-grained
  concurrent algorithms and the most-general-client explorer (the LNT
  substitute);
* :mod:`repro.objects` -- the paper's 14 benchmark data structures,
  their sequential specifications and abstract programs;
* :mod:`repro.verify` -- the two verification pipelines of Fig. 1
  (linearizability via quotient refinement, lock-freedom via
  divergence-sensitive bisimulation);
* :mod:`repro.ltl` -- a next-free LTL model checker for progress
  properties.

Every package resolves its public names lazily (:mod:`repro.util.lazy`):
importing ``repro`` loads no subpackage until one is used.

Quickstart::

    from repro.objects import get
    from repro.verify import check_linearizability, check_lock_freedom_auto

    bench = get("ms_queue")
    workload = bench.default_workload()
    lin = check_linearizability(
        bench.build(2), bench.spec(), num_threads=2, ops_per_thread=2,
        workload=workload,
    )
    assert lin.linearizable
"""

from .util.lazy import lazy_exports

__version__ = "1.0.0"


class InputError(Exception):
    """A file the user gave does not hold what the command needs: an
    unparsable ``.aut`` system, or a checkpoint that is unreadable or
    belongs to another run.  The CLI reports it on one ``error:`` line
    and exits 2."""


_subpackages, __getattr__, __dir__ = lazy_exports(__name__, {
    name: [name] for name in ("core", "lang", "objects", "util", "verify")
})
__all__ = [*_subpackages, "InputError", "__version__"]
