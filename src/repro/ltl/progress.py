"""Progress properties as next-free LTL formulas (Section V.B).

Lock-freedom of a bounded object system says: at every point, the
system eventually performs a return action or terminates (all client
budgets exhausted).  As next-free LTL over actions::

    G F (ret | deadlock)

which fails exactly on executions that eventually take internal steps
forever -- the divergences that the paper's Theorem 5.9 detects via
divergence-sensitive branching bisimulation.  The test-suite checks
that both detection routes agree on every benchmark.

Wait-freedom additionally needs fairness assumptions; with the bounded
most-general client every cycle is silent (operation budgets strictly
decrease on calls), so wait-freedom and lock-freedom coincide at these
bounds -- the paper likewise restricts its experiments to lock-freedom.
"""

from __future__ import annotations

from typing import Hashable, Optional

from ..core.lts import AnyLTS
from ..util.budget import RunBudget
from .product import DEADLOCK, LtlResult, check_ltl
from .syntax import AP, Finally, Globally, Implies


def _is_ret(label: Hashable) -> bool:
    return isinstance(label, tuple) and len(label) > 0 and label[0] == "ret"


def _is_call(label: Hashable) -> bool:
    return isinstance(label, tuple) and len(label) > 0 and label[0] == "call"


def _is_deadlock(label: Hashable) -> bool:
    return label == DEADLOCK


#: "some method returns"
RET = AP("ret", _is_ret)
#: "some method is invoked"
CALL = AP("call", _is_call)
#: "the client has terminated"
TERMINATED = AP("deadlock", _is_deadlock)


def lock_freedom_formula():
    """``G F (ret | deadlock)`` -- the system always eventually progresses."""
    from .syntax import Or

    return Globally(Finally(Or(RET, TERMINATED)))


def check_lock_freedom_ltl(
    lts: AnyLTS, budget: Optional[RunBudget] = None
) -> LtlResult:
    """Model-check lock-freedom as an LTL property on the object system.

    An alternative, formula-based route to the same verdict as
    ``repro.verify.check_lock_freedom_auto`` (Theorem 5.9); the
    counterexample is a lasso whose cycle contains no return.
    ``budget`` is threaded into the product search (phase ``"ltl"``).
    """
    return check_ltl(lts, lock_freedom_formula(), budget=budget)


def thread_response_formula(tid: int, method: Optional[str] = None):
    """``G (call_t -> F ret_t)``: every invocation by thread ``tid`` returns.

    Without fairness constraints this is a *wait-freedom style* test
    that is only meaningful on systems where the thread cannot be
    starved; see the module docstring.
    """

    def is_call_t(label: Hashable) -> bool:
        return (
            _is_call(label)
            and label[1] == tid
            and (method is None or label[2] == method)
        )

    def is_ret_t(label: Hashable) -> bool:
        return (
            _is_ret(label)
            and label[1] == tid
            and (method is None or label[2] == method)
        )

    suffix = f"_{method}" if method else ""
    call_t = AP(f"call_t{tid}{suffix}", is_call_t)
    ret_t = AP(f"ret_t{tid}{suffix}", is_ret_t)
    return Globally(Implies(call_t, Finally(ret_t)))
