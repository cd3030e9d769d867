"""Benchmark registry: the paper's 14 case studies (Table II).

Each entry bundles the model builder, its sequential specification, a
default workload generator, the paper's expected verdicts, and the
optional abstract program for Theorem 5.8.  Benches and tests iterate
over this registry so the case list lives in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from ..lang import ObjectProgram, SpecObject

Workload = List[Tuple[str, Tuple[Any, ...]]]


def queue_workload(num_values: int = 2) -> Workload:
    return [("enq", (v,)) for v in range(1, num_values + 1)] + [("deq", ())]


def stack_workload(num_values: int = 2) -> Workload:
    return [("push", (v,)) for v in range(1, num_values + 1)] + [("pop", ())]


def set_workload(num_values: int = 2) -> Workload:
    out: Workload = []
    for v in range(1, num_values + 1):
        out.append(("add", (v,)))
        out.append(("remove", (v,)))
    return out


def set_workload_with_contains(num_values: int = 1) -> Workload:
    return set_workload(num_values) + [
        ("contains", (v,)) for v in range(1, num_values + 1)
    ]


def newcas_workload(num_values: int = 2) -> Workload:
    values = range(num_values)
    return [("newcas", (e, n)) for e in values for n in values if e != n or e == 0]


def ccas_workload(num_values: int = 2) -> Workload:
    return [("ccas", (0, 1)), ("ccas", (1, 0)), ("setflag", (True,)), ("setflag", (False,))]


def rdcss_workload(num_values: int = 2) -> Workload:
    return [
        ("rdcss", (0, 0, 1)), ("rdcss", (0, 1, 0)),
        ("seta", (1,)), ("seta", (0,)),
    ]


@dataclass
class Benchmark:
    """One case study of Table II."""

    key: str
    title: str                      # Table II row label
    build: Callable[[int], ObjectProgram]
    spec: Callable[[], SpecObject]
    workload: Callable[[int], Workload]
    lock_based: bool = False        # bottom half of Table II
    expect_linearizable: bool = True
    expect_lock_free: Optional[bool] = True   # None: not applicable
    non_fixed_lps: bool = False
    abstract: Optional[Callable[[int], ObjectProgram]] = None

    def default_workload(self, num_values: int = 2) -> Workload:
        return self.workload(num_values)


BENCHMARKS: Dict[str, Benchmark] = {}


def _lazy(target: str, **bound: Any) -> Callable[..., Any]:
    """The function ``target`` ("module:name", relative to this package),
    imported on its first call, with keyword arguments ``bound``.

    Registering a case study loads no model: ``repro list`` imports no
    ``repro.lang`` and ``repro lin X`` loads X's module alone.
    """
    module, _, name = target.partition(":")

    def call(*args: Any, **kwargs: Any) -> Any:
        function = getattr(import_module(module, __package__), name)
        return function(*args, **bound, **kwargs)

    return call


def _register(benchmark: Benchmark) -> None:
    BENCHMARKS[benchmark.key] = benchmark


_register(Benchmark(
    key="treiber",
    title="1. Treiber stack [28]",
    build=_lazy(".treiber:build"),
    spec=_lazy("..lang.spec:stack_spec"),
    workload=stack_workload,
))

_register(Benchmark(
    key="treiber_hp",
    title="2. Treiber stack + HP [24]",
    build=_lazy(".treiber_hp:build"),
    spec=_lazy("..lang.spec:stack_spec"),
    workload=stack_workload,
))

_register(Benchmark(
    key="treiber_hp_buggy",
    title="3. Treiber stack + HP [10] (revised)",
    build=_lazy(".treiber_hp:build_buggy"),
    spec=_lazy("..lang.spec:stack_spec"),
    workload=stack_workload,
    expect_lock_free=False,
))

_register(Benchmark(
    key="ms_queue",
    title="4. MS lock-free queue [25]",
    build=_lazy(".ms_queue:build"),
    spec=_lazy("..lang.spec:queue_spec"),
    workload=queue_workload,
    non_fixed_lps=True,
    abstract=_lazy(".abstractions:abstract_queue"),
))

_register(Benchmark(
    key="dglm_queue",
    title="5. DGLM queue [7]",
    build=_lazy(".dglm_queue:build"),
    spec=_lazy("..lang.spec:queue_spec"),
    workload=queue_workload,
    non_fixed_lps=True,
    abstract=_lazy(".abstractions:abstract_queue"),
))

_register(Benchmark(
    key="ccas",
    title="6. CCAS [29]",
    build=_lazy(".ccas:build"),
    spec=_lazy(".ccas:spec"),
    workload=ccas_workload,
    non_fixed_lps=True,
    abstract=_lazy(".abstractions:abstract_ccas"),
))

_register(Benchmark(
    key="rdcss",
    title="7. RDCSS [15]",
    build=_lazy(".rdcss:build"),
    spec=_lazy(".rdcss:spec"),
    workload=rdcss_workload,
    non_fixed_lps=True,
    abstract=_lazy(".abstractions:abstract_rdcss"),
))

_register(Benchmark(
    key="newcas",
    title="8. NewCompareAndSet",
    build=_lazy(".newcas:build"),
    spec=_lazy("..lang.spec:register_spec"),
    workload=newcas_workload,
))

_register(Benchmark(
    key="hm_list_buggy",
    title="9-1. HM lock-free list [17]",
    build=_lazy(".hm_list:build_buggy"),
    spec=_lazy("..lang.spec:set_spec"),
    workload=set_workload,
    non_fixed_lps=True,
    expect_linearizable=False,
))

_register(Benchmark(
    key="hm_list",
    title="9-2. HM lock-free list (revised)",
    build=_lazy(".hm_list:build"),
    spec=_lazy("..lang.spec:set_spec"),
    workload=set_workload,
    non_fixed_lps=True,
))

_register(Benchmark(
    key="hw_queue",
    title="10. HW queue [18]",
    build=_lazy(".hw_queue:build", max_enqueues=8),
    spec=_lazy("..lang.spec:queue_spec"),
    workload=queue_workload,
    non_fixed_lps=True,
    expect_lock_free=False,
))

_register(Benchmark(
    key="hsy_stack",
    title="11. HSY stack [37]",
    build=_lazy(".hsy_stack:build"),
    spec=_lazy("..lang.spec:stack_spec"),
    workload=stack_workload,
    non_fixed_lps=True,
))

_register(Benchmark(
    key="lazy_list",
    title="12. Heller et al. lazy list [16]",
    build=_lazy(".lazy_list:build"),
    spec=_lazy("..lang.spec:set_spec"),
    workload=set_workload_with_contains,
    lock_based=True,
    expect_lock_free=None,
    non_fixed_lps=True,
))

_register(Benchmark(
    key="optimistic_list",
    title="13. Optimistic list [17]",
    build=_lazy(".optimistic_list:build"),
    spec=_lazy("..lang.spec:set_spec"),
    workload=set_workload,
    lock_based=True,
    expect_lock_free=None,
))

_register(Benchmark(
    key="fine_list",
    title="14. Fine-grained syn. list [17]",
    build=_lazy(".fine_list:build"),
    spec=_lazy("..lang.spec:set_spec"),
    workload=set_workload,
    lock_based=True,
    expect_lock_free=None,
))


def get(key: str) -> Benchmark:
    return BENCHMARKS[key]


def all_benchmarks() -> List[Benchmark]:
    return list(BENCHMARKS.values())
