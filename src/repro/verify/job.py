"""One verdict job: the ``lin`` / ``lockfree`` / ``verify`` / ``explore``
request.

``repro lin``, ``repro lockfree``, ``repro verify``, ``repro submit`` and
the verification daemon all run a request through this module, so they
check it the same way, dispatch it to the same engines and print the
same report:

* :func:`build_request` checks a request against :data:`KINDS` and
  :data:`METHODS` (the tables the CLI's ``choices`` read too) and
  normalizes it into a plain dict;
* :func:`request_program_config` maps it to ``(bench, program, ClientConfig)``;
* :func:`run_job` explores the object system once and hands the frozen
  system to the engine(s) through their ``impl_system`` parameter: the
  Theorem 5.3 quotient pipeline, the BEEH reachability search, both of
  them cross-checked, the Theorem 5.9 lock-freedom check, or
  (``verify``) the quotient pipeline, lock-freedom and
  obstruction-freedom.  It returns a plain result dict, which crosses
  the daemon's socket and sits in its cache as is;
* :func:`exit_code` maps a verdict to the exit code, and
  :func:`report_lines` renders a result dict as the report lines.

The engines are imported when a job runs, so a command loads only the
ones it uses.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..objects import get
from ..util.budget import (
    EXIT_DISAGREEMENT,
    EXIT_INTERRUPTED,
    FALSE,
    REASON_INTERRUPTED,
    TRUE,
    UNKNOWN,
    BudgetExhausted,
    combined_verdict,
    exit_code_for,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..lang.checkpoint import Checkpoint, CheckpointSink
    from ..util.budget import Exhaustion, RunBudget
    from ..util.metrics import Stats

#: Request kinds.
KINDS = ("lin", "lockfree", "verify", "explore")

#: The verdict methods of each kind, the default first.
METHODS: Dict[str, Tuple[Optional[str], ...]] = {
    "lin": ("quotient", "reachability", "both"),
    "lockfree": ("union", "tau-cycle"),
    "verify": (None,),
    "explore": (None,),
}

#: The verdict of a ``both`` job whose two engines decided differently.
DISAGREE = "DISAGREE"

#: The verdict-line label of each engine.
LABELS = {
    "quotient": "linearizable",
    "reachability": "linearizable",
    "lockfree": "lock-free",
    "obstruction": "obstruction-free",
    "explore": "explored",
}

#: The metrics-sink name of each engine.
_PIPELINES = {
    "quotient": "linearizability",
    "reachability": "reachability",
    "lockfree": "lock-freedom",
    "obstruction": "obstruction-freedom",
    "explore": "explore",
}

#: The engines of a ``verify`` job, in report order; a lock-based
#: object runs the first alone.
_VERIFY_ENGINES = ("quotient", "lockfree", "obstruction")


def build_request(
    kind: str,
    key: str,
    threads: int = 2,
    ops: int = 2,
    values: int = 2,
    max_states: Optional[int] = None,
    method: Optional[str] = None,
    deadline: Optional[float] = None,
) -> Dict[str, Any]:
    """Check one request and normalize it into its canonical dict.

    Raises ``ValueError`` for an unknown kind, object or method and for
    a bound below 1, and ``TypeError`` for an unknown field, so a
    malformed submission is a per-connection error in the daemon, never
    a daemon crash.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown request kind {kind!r} (expected {KINDS})")
    try:
        get(key)
    except KeyError:
        raise ValueError(f"unknown benchmark object {key!r}")
    if threads < 1 or ops < 1 or values < 1:
        raise ValueError("threads/ops/values must all be >= 1")
    if method is None:
        method = METHODS[kind][0]
    if method not in METHODS[kind]:
        raise ValueError(f"unknown {kind} method {method!r}")
    return {
        "kind": kind,
        "key": key,
        "threads": int(threads),
        "ops": int(ops),
        "values": int(values),
        "max_states": max_states,
        "method": method,
        "deadline": deadline,
    }


def request_program_config(request: Dict[str, Any]) -> Tuple[Any, Any, Any]:
    """``(bench, program, ClientConfig)`` of a normalized request."""
    from ..lang.client import ClientConfig

    bench = get(request["key"])
    config = ClientConfig(
        num_threads=request["threads"],
        ops_per_thread=request["ops"],
        workload=bench.default_workload(request["values"]),
        max_states=request["max_states"],
    )
    return bench, bench.build(request["threads"]), config


def exhaustion_dict(exhaustion: Optional["Exhaustion"]) -> Optional[Dict[str, Any]]:
    """The plain-dict form of an :class:`~repro.util.budget.Exhaustion`."""
    if exhaustion is None:
        return None
    return {
        "reason": exhaustion.reason,
        "phase": exhaustion.phase,
        "render": exhaustion.render(),
    }


def exit_code(verdict: str, exhaustion: Optional[Dict[str, Any]] = None) -> int:
    """0/1/2 for TRUE/FALSE/UNKNOWN, 3 when the engines disagree, and
    130 when the run was interrupted (``exhaustion`` as a plain dict)."""
    if verdict == DISAGREE:
        return EXIT_DISAGREEMENT
    if exhaustion is not None and exhaustion["reason"] == REASON_INTERRUPTED:
        return EXIT_INTERRUPTED
    return exit_code_for(verdict)


def run_job(
    request: Dict[str, Any],
    budget: Optional["RunBudget"] = None,
    sink: Optional[Callable[[str], Optional["Stats"]]] = None,
    checkpoint: Optional["CheckpointSink"] = None,
    resume: Optional["Checkpoint"] = None,
    spec_checkpoint: Optional["CheckpointSink"] = None,
    spec_resume: Optional["Checkpoint"] = None,
    on_the_fly: bool = False,
    on_explored: Optional[Callable[[Any], None]] = None,
) -> Dict[str, Any]:
    """Run one normalized request and return its result dict.

    The object system is explored once, under ``budget`` and under
    ``checkpoint`` / ``resume`` when given, and ``on_explored`` is
    called with the frozen system.  ``on_the_fly`` (``lin`` with the
    reachability method) explores nothing up front: the streaming
    search explores as it goes.  ``sink(name)`` gives the
    :class:`~repro.util.metrics.Stats` of each engine (named
    ``"<pipeline> t=T ops=O v=V"``), or None to record nothing;
    ``spec_checkpoint`` / ``spec_resume`` go to the quotient pipeline.

    The result carries the request's kind, key, method and bounds, the
    ``verdict`` (``DISAGREE`` when the two ``both`` engines decide
    differently), ``exit_code``, ``exhaustion`` and ``seconds``, and the
    engine's sizes and rendered ``counterexample`` / ``diagnostic``;
    with ``both`` and ``verify``, each engine's part sits under its
    name.  ``verify`` runs its two progress engines on non-blocking
    objects only.  Budget exhaustion never raises: it yields
    ``UNKNOWN``.
    """
    from ..lang.client import explore

    kind, method = request["kind"], request["method"]
    bench, program, config = request_program_config(request)
    if kind == "verify":
        engines = _VERIFY_ENGINES
        if bench.expect_lock_free is None:
            # A lock-based object: linearizability alone.
            engines = engines[:1]
    elif kind != "lin":
        engines = [kind]
    elif method == "both":
        engines = ["quotient", "reachability"]
    else:
        engines = [method]
    bounds = f"t={request['threads']} ops={request['ops']} v={request['values']}"
    stats = {
        engine: sink(f"{_PIPELINES[engine]} {bounds}") if sink else None
        for engine in engines
    }
    t0 = time.perf_counter()
    impl = None
    if not (on_the_fly and method == "reachability"):
        try:
            impl = explore(
                program, config, stats=stats[engines[0]], budget=budget,
                checkpoint=checkpoint, resume=resume,
            )
        except BudgetExhausted as exc:
            exhaustion = exhaustion_dict(exc.exhaustion)
            seconds = time.perf_counter() - t0
            return _result(request, [
                {"engine": engine, "verdict": UNKNOWN, "exhaustion": exhaustion,
                 "seconds": seconds}
                for engine in engines
            ], seconds)
        if on_explored is not None:
            on_explored(impl)
        if len(engines) > 1:
            for engine_stats in stats.values():
                if engine_stats is not None:
                    engine_stats.count("shared_impl_states", impl.num_states)
    explored = time.perf_counter() - t0
    common = dict(
        num_threads=request["threads"],
        ops_per_thread=request["ops"],
        workload=config.workload,
        max_states=request["max_states"],
        budget=budget,
        impl_system=impl,
    )
    parts = []
    if kind == "explore":
        parts.append({
            "engine": "explore", "verdict": TRUE, "exhaustion": None,
            "seconds": explored, "impl_states": impl.num_states,
            "impl_transitions": impl.num_transitions,
        })
    if "quotient" in stats:
        from .linearizability import check_linearizability

        res = check_linearizability(
            program, bench.spec(), stats=stats["quotient"],
            spec_checkpoint=spec_checkpoint, spec_resume=spec_resume,
            **common,
        )
        parts.append(_part(
            "quotient", res, explored + res.total_seconds,
            impl_states=res.impl_states,
            quotient_states=res.impl_quotient_states,
            counterexample=(res.render_counterexample()
                            if res.linearizable is False else None),
        ))
    if "reachability" in stats:
        from .reachability import check_linearizability_reachability

        res = check_linearizability_reachability(
            program, bench.spec(), stats=stats["reachability"],
            on_the_fly=on_the_fly, **common,
        )
        parts.append(_part(
            "reachability", res, explored + res.total_seconds,
            impl_states=res.impl_states,
            product_states=res.product_states,
            monitor_states=res.monitor_states,
            states_expanded=res.states_expanded,
            counterexample=(res.render_counterexample()
                            if res.linearizable is False else None),
        ))
    if "lockfree" in stats:
        from .lockfree import check_lock_freedom_auto

        # ``verify`` runs the literal Theorem 5.9 comparison.
        res = check_lock_freedom_auto(
            program, method=method or "union", stats=stats["lockfree"],
            **common,
        )
        parts.append(_part(
            "lockfree", res, explored + res.seconds,
            impl_states=res.impl_states,
            quotient_states=res.quotient_states,
            diagnostic=(res.render_diagnostic()
                        if res.lock_free is False else None),
        ))
    if "obstruction" in stats:
        from .obstruction import check_obstruction_freedom

        res = check_obstruction_freedom(
            program, stats=stats["obstruction"], **common,
        )
        parts.append(_part(
            "obstruction", res, explored + res.seconds,
            impl_states=res.impl_states,
            diagnostic=(res.render_diagnostic()
                        if res.obstruction_free is False else None),
        ))
    return _result(request, parts, time.perf_counter() - t0)


def _part(engine: str, res, seconds: float, **fields) -> Dict[str, Any]:
    """One engine's share of a result dict."""
    return dict(
        engine=engine,
        verdict=res.verdict,
        exhaustion=exhaustion_dict(res.exhaustion),
        seconds=seconds,
        **fields,
    )


def _result(request: Dict[str, Any], parts: List[Dict[str, Any]],
            seconds: float) -> Dict[str, Any]:
    """The result dict of a request from its engine parts; ``seconds``
    is the whole job's (a single engine's part carries its own).

    Parts combine by one of two rules.  ``both``: a decided verdict
    wins over UNKNOWN, and two different decided verdicts are
    ``DISAGREE``.  ``verify``: FALSE over UNKNOWN over TRUE.  Either
    way an interrupted part makes the job's exhaustion, hence exit 130.
    """
    result = {
        field: request[field]
        for field in ("kind", "key", "method", "threads", "ops", "values")
    }
    if len(parts) == 1 and request["kind"] != "verify":
        result.update(parts[0])
    else:
        # An interrupted part's exhaustion first: it decides the exit code.
        exhaustions = sorted(
            (part["exhaustion"] for part in parts if part["exhaustion"]),
            key=lambda exhaustion: exhaustion["reason"] != REASON_INTERRUPTED,
        )
        result.update({part["engine"]: part for part in parts},
                      exhaustion=exhaustions[0] if exhaustions else None,
                      seconds=seconds)
        if request["kind"] == "verify":
            result["verdict"] = min((part["verdict"] for part in parts),
                                    key=(FALSE, UNKNOWN, TRUE).index)
        else:
            quotient, reachability = parts
            verdict, disagree = combined_verdict(
                quotient["verdict"], reachability["verdict"]
            )
            result.update(
                disagree=disagree,
                verdict=DISAGREE if disagree else verdict,
                counterexample=quotient.get("counterexample"),
            )
    result["exit_code"] = exit_code(result["verdict"], result["exhaustion"])
    return result


def report_lines(result: Dict[str, Any], label: Optional[str] = None) -> List[str]:
    """The report of a result dict: what ``lin`` / ``lockfree`` /
    ``verify`` print under their header and ``submit`` prints under its
    notes.

    ``label`` replaces the verdict-line label (the degrade ladder's
    ``degraded verdict``).
    """
    if result["kind"] == "verify":
        lines = [
            line
            for engine in _VERIFY_ENGINES if engine in result
            for line in _part_lines(result[engine], LABELS[engine])
        ]
        if "lockfree" not in result:
            lines.append("lock-freedom: skipped (lock-based algorithm)")
        return lines
    if result["method"] != "both":
        return _part_lines(result, label or LABELS[result["engine"]])
    label = label or LABELS["quotient"]
    quotient, reachability = result["quotient"], result["reachability"]
    lines = (_part_lines(quotient, f"{label} [quotient]")
             + _part_lines(reachability, f"{label} [reachability]"))
    if result["disagree"]:
        lines.append(
            "ERROR: verdict engines disagree -- "
            f"quotient={quotient['verdict']} "
            f"reachability={reachability['verdict']} "
            "(this is an engine bug, not a property of the object)"
        )
    else:
        lines.append(f"{label}: {result['verdict']}  (both engines agree)")
    return lines


def _part_lines(part: Dict[str, Any], label: str) -> List[str]:
    if part["exhaustion"] is not None:
        return [f"{label}: UNKNOWN -- {part['exhaustion']['render']}"]
    engine = part["engine"]
    if engine == "explore":
        return [f"{part['key']}: {part['impl_states']} states, "
                f"{part['impl_transitions']} transitions"]
    lines = []
    if engine == "quotient":
        factor = part["impl_states"] / part["quotient_states"]
        lines.append(f"states {part['impl_states']} -> quotient "
                     f"{part['quotient_states']} ({factor:.1f}x)")
    elif engine == "reachability":
        if part["states_expanded"] is not None:
            lines.append(f"on-the-fly: expanded {part['states_expanded']} of "
                         f"{part['impl_states']} interned states")
        lines.append(f"states {part['impl_states']} -> product "
                     f"{part['product_states']} "
                     f"({part['monitor_states']} monitor sets)")
    lines.append(f"{label}: {part['verdict']}  ({part['seconds']:.2f}s)")
    witness = part.get("counterexample") or part.get("diagnostic")
    if witness:
        lines.append(witness)
    return lines
