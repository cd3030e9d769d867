"""Seeded random instance generators for differential testing.

Two families of instances:

* random labelled transition systems, parameterized over size, silent-
  action density, determinism and tau-cycle injection -- the raw fuzzing
  substrate for the equivalence engines;
* random client programs over the :mod:`repro.lang` instruction set,
  explored under the most-general client into LTSs whose shape (call/ret
  structure, canonicalized heaps, fused local steps) matches what the
  verification pipelines actually consume.

Everything is driven by :class:`random.Random` so a seed fully
determines an instance, and each generator is also exposed as a
Hypothesis strategy (used by the property tests, which then get
Hypothesis's shrinking for free).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, Union

from ..core.lts import TAU, FrozenLTS, make_lts
from ..lang.client import ClientConfig, explore
from ..lang.ops import (
    Branch,
    CasGlobal,
    LocalAssign,
    Op,
    ReadGlobal,
    Return,
    WriteGlobal,
)
from ..lang.program import Method, ObjectProgram

#: Default visible alphabet for random LTSs.
VISIBLE_LABELS: Tuple[str, ...] = ("a", "b", "c", "d", "e", "f")


@dataclass
class LtsShape:
    """Knobs of the random LTS distribution.

    ``tau_density`` is the probability that a generated transition is
    silent; ``deterministic`` restricts to at most one transition per
    ``(source, label)`` pair; ``tau_cycles`` injects that many random
    silent cycles (of length 1-3) on top of the base transitions, which
    gives divergence-sensitive checks something to disagree about.
    """

    num_states: int = 6
    num_transitions: int = 10
    num_labels: int = 2
    tau_density: float = 0.35
    deterministic: bool = False
    tau_cycles: int = 0


def random_lts(
    seed: Optional[Union[int, random.Random]] = None,
    shape: Optional[LtsShape] = None,
    **overrides: Any,
) -> FrozenLTS:
    """Generate a random LTS; ``seed`` (int or Random) fixes the instance.

    ``overrides`` are applied on top of ``shape`` (or the default
    shape), e.g. ``random_lts(7, tau_density=0.8, tau_cycles=1)``.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    params = dataclass_replace(shape or LtsShape(), **overrides)
    n = max(1, params.num_states)
    labels = VISIBLE_LABELS[: max(1, params.num_labels)]
    transitions: List[Tuple[int, Any, int]] = []
    used = set()
    for _ in range(params.num_transitions):
        src = rng.randrange(n)
        dst = rng.randrange(n)
        if rng.random() < params.tau_density:
            label: Any = "tau"
        else:
            label = rng.choice(labels)
        if params.deterministic:
            if (src, label) in used:
                continue
            used.add((src, label))
        transitions.append((src, label, dst))
    for _ in range(params.tau_cycles):
        length = rng.randint(1, min(3, n))
        cycle = [rng.randrange(n) for _ in range(length)]
        for here, there in zip(cycle, cycle[1:] + cycle[:1]):
            transitions.append((here, "tau", there))
    return make_lts(n, rng.randrange(n), transitions)


def dataclass_replace(shape: LtsShape, **overrides: Any) -> LtsShape:
    """``dataclasses.replace`` that rejects unknown field names early."""
    unknown = set(overrides) - {f.name for f in dataclasses.fields(shape)}
    if unknown:
        raise TypeError(f"unknown LtsShape fields {sorted(unknown)}")
    return dataclasses.replace(shape, **overrides)


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------

def _strategies():
    """Import Hypothesis lazily: only the ``*_strategy`` helpers need it;
    the seeded ``random_*`` generators and the fuzz harness do not."""
    try:
        from hypothesis import strategies as st
    except ImportError as exc:  # pragma: no cover - hypothesis is a test dep
        raise RuntimeError(
            "Hypothesis is required for the strategy helpers; "
            "the seeded random_* generators work without it"
        ) from exc
    return st


def lts_strategy(
    max_states: int = 6,
    max_transitions: int = 12,
    labels: Tuple[str, ...] = ("tau", "a", "b"),
):
    """Hypothesis strategy for small random LTSs.

    Transitions are drawn individually so Hypothesis can shrink a
    failing system transition-by-transition.  The signature is shared
    with (and re-exported by) ``tests/helpers.py``.
    """
    st = _strategies()

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_states))
        num_trans = draw(st.integers(min_value=0, max_value=max_transitions))
        transitions = []
        for _ in range(num_trans):
            src = draw(st.integers(min_value=0, max_value=n - 1))
            dst = draw(st.integers(min_value=0, max_value=n - 1))
            label = draw(st.sampled_from(labels))
            transitions.append((src, label, dst))
        init = draw(st.integers(min_value=0, max_value=n - 1))
        return make_lts(n, init, transitions)

    return build()


def tau_heavy_lts_strategy(max_states: int = 6, max_transitions: int = 12):
    """LTSs biased toward silent structure (tau cycles included)."""
    st = _strategies()

    @st.composite
    def build(draw):
        base = draw(
            lts_strategy(max_states, max_transitions, ("tau", "tau", "a"))
        )
        if draw(st.booleans()):
            state = draw(st.integers(min_value=0, max_value=base.num_states - 1))
            looped = base.thaw()
            # add_transition interns labels verbatim -- the silent action
            # must be passed as TAU, not the "tau" shorthand string.
            looped.add_transition(state, TAU, state)
            base = looped.freeze()
        return base

    return build()


def program_strategy(**kwargs: Any):
    """Hypothesis strategy for random client programs (seed-driven)."""
    st = _strategies()
    return st.integers(min_value=0, max_value=2**32 - 1).map(
        lambda seed: random_program(seed, **kwargs)
    )


# ----------------------------------------------------------------------
# random client programs over the repro.lang instruction set
# ----------------------------------------------------------------------

@dataclass
class ProgramShape:
    """Knobs of the random program distribution.

    Generated programs only move constants from ``{0 .. max_value}``
    between locals and globals, so their state spaces stay finite even
    when ``allow_loops`` permits backward branches (which create real
    tau-cycles -- spinning reads -- in the explored system).
    """

    num_methods: int = 2
    max_body_ops: int = 5
    num_globals: int = 2
    max_value: int = 1
    allow_loops: bool = True


def random_program(
    seed: Optional[Union[int, random.Random]] = None,
    shape: Optional[ProgramShape] = None,
) -> Tuple[ObjectProgram, List[Tuple[str, Tuple[Any, ...]]]]:
    """Generate ``(program, workload)`` for the most-general client."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    params = shape or ProgramShape()
    gnames = [f"g{i}" for i in range(max(1, params.num_globals))]
    methods = []
    for mi in range(max(1, params.num_methods)):
        body = _random_body(rng, params, gnames)
        methods.append(
            Method(name=f"m{mi}", locals_={"x": 0, "y": 0}, body=body)
        )
    program = ObjectProgram(
        name="random_program",
        methods=methods,
        globals_={g: 0 for g in gnames},
    )
    workload = [(m.name, ()) for m in methods]
    return program, workload


def _random_body(
    rng: random.Random, params: ProgramShape, gnames: Sequence[str]
) -> List[Op]:
    n_ops = rng.randint(1, params.max_body_ops)
    body: List[Op] = []
    for pc in range(n_ops):
        body.append(_random_op(rng, params, gnames, pc, n_ops))
    value = rng.choice(["x", "y", rng.randint(0, params.max_value)])
    body.append(Return(value).at(f"L{n_ops}"))
    return body


def _random_op(
    rng: random.Random,
    params: ProgramShape,
    gnames: Sequence[str],
    pc: int,
    n_ops: int,
) -> Op:
    """One random instruction; jump targets stay inside ``[0, n_ops]``.

    Backward branch targets (only with ``allow_loops``) can spin through
    shared reads, but never through value-growing operations, so the
    explored state space stays bounded.
    """
    g = rng.choice(list(gnames))
    const = rng.randint(0, params.max_value)
    kind = rng.randrange(6)
    if kind == 0:
        op: Op = LocalAssign(**{rng.choice(["x", "y"]): const})
    elif kind == 1:
        op = ReadGlobal(rng.choice(["x", "y"]), g)
    elif kind == 2:
        op = WriteGlobal(g, rng.choice(["x", "y", const]))
    elif kind == 3:
        op = CasGlobal(rng.choice(["y", None]), g, const,
                       rng.randint(0, params.max_value))
    elif kind == 4 and pc + 1 < n_ops:
        lo = 0 if (params.allow_loops and rng.random() < 0.25) else pc + 1
        on_true = rng.randint(lo, n_ops)
        on_false = rng.randint(pc + 1, n_ops)
        local = rng.choice(["x", "y"])
        op = Branch(_equals(local, const), on_true=on_true, on_false=on_false)
    else:
        op = LocalAssign(**{rng.choice(["x", "y"]): const})
    return op.at(f"L{pc}")


def _equals(local: str, const: int):
    def cond(env):
        return env[local] == const

    return cond


def explore_random_program(
    seed: Optional[Union[int, random.Random]] = None,
    shape: Optional[ProgramShape] = None,
    num_threads: int = 2,
    ops_per_thread: int = 1,
    max_states: int = 4000,
) -> FrozenLTS:
    """Explore a random program into an object-system LTS.

    Raises :class:`repro.lang.client.StateExplosion` when the instance
    exceeds ``max_states``; fuzzing callers simply skip such draws.
    """
    program, workload = random_program(seed, shape)
    config = ClientConfig(
        num_threads=num_threads,
        ops_per_thread=ops_per_thread,
        workload=workload,
        max_states=max_states,
    )
    return explore(program, config)
