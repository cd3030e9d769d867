"""Labelled transition systems (LTSs) for concurrent object verification.

This module implements Definition 2.1 of the paper: an object system is a
labelled transition system whose visible actions are method invocations
``(t, call, m(n))`` and method responses ``(t, ret(n'), m)``, and whose
internal computation steps are the silent action ``tau``.

States are dense integers, actions are interned to dense integers with
action id ``0`` reserved for ``tau``.  Transitions may carry an optional
*annotation* (e.g. the thread and source-code line that produced an
internal step); annotations are kept for diagnostics only and never
contribute to action identity, so all internal steps are a single
``tau`` action exactly as the paper requires.

The container comes in two forms with one query surface:

* :class:`LTS` -- the append-only *builder*: add states and edges,
  intern actions, read the edges back as rows
  (:meth:`~LTS.transitions`, :meth:`~LTS.transitions_with_annotations`)
  and :meth:`~LTS.freeze`.  State-space exploration and ``.aut``
  parsing build this form; it answers no graph queries, so it keeps no
  derived structure that a mutation could make stale.
* :class:`FrozenLTS` -- the immutable form every query reads, produced
  by :meth:`LTS.freeze`: transitions live in dense CSR (compressed
  sparse row) ``array('q')`` index/offset layouts, sorted by ``(src,
  action, dst)`` with duplicates merged, plus a cached silent-edge
  slice.  The per-source successor slice is contiguous, and every
  equivalence engine in :mod:`repro.core` runs on this form.

Row readers (:func:`disjoint_union`, :func:`tau_successor_lists`,
``write_aut``) accept either form; analysis entry points normalize with
:func:`ensure_frozen`, the identity on a frozen system.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import deque
from itertools import compress, islice
from operator import eq, is_
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

#: The canonical label of the silent action.
TAU: Tuple[str, ...] = ("tau",)

#: The action id of the silent action in every :class:`LTS`.
TAU_ID: int = 0


class LTS:
    """A finite labelled transition system being built (append-only).

    Attributes
    ----------
    init:
        The initial state (an integer).
    action_labels:
        Interned action labels; ``action_labels[0] is TAU``.
    """

    __slots__ = (
        "init",
        "action_labels",
        "_action_ids",
        "_src",
        "_act",
        "_dst",
        "_ann",
        "_num_states",
    )

    def __init__(self) -> None:
        self.init: int = 0
        self.action_labels: List[Hashable] = [TAU]
        self._action_ids: Dict[Hashable, int] = {TAU: TAU_ID}
        self._src: List[int] = []
        self._act: List[int] = []
        self._dst: List[int] = []
        self._ann: List[Any] = []
        self._num_states: int = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_state(self) -> int:
        """Create a fresh state and return its id."""
        self._num_states += 1
        return self._num_states - 1

    def add_states(self, count: int) -> None:
        """Create ``count`` fresh states."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._num_states += count

    def action_id(self, label: Hashable) -> int:
        """Intern ``label`` and return its dense action id."""
        aid = self._action_ids.get(label)
        if aid is None:
            aid = len(self.action_labels)
            self.action_labels.append(label)
            self._action_ids[label] = aid
        return aid

    def lookup_action(self, label: Hashable) -> Optional[int]:
        """Return the action id of ``label`` or ``None`` if never used."""
        return self._action_ids.get(label)

    def add_transition(
        self,
        src: int,
        label: Hashable,
        dst: int,
        annotation: Any = None,
    ) -> None:
        """Add the transition ``src --label--> dst``.

        ``label`` is always interned verbatim -- an ``int`` label is an
        integer-valued *action label*, never an action id (use
        :meth:`add_transition_by_id` for already-interned ids).
        """
        self._append(src, self.action_id(label), dst, annotation)

    def add_transition_by_id(
        self,
        src: int,
        aid: int,
        dst: int,
        annotation: Any = None,
    ) -> None:
        """Add ``src --aid--> dst`` for an already-interned action id."""
        if not 0 <= aid < len(self.action_labels):
            raise ValueError(
                f"action id {aid} is not interned "
                f"(have {len(self.action_labels)} actions)"
            )
        self._append(src, aid, dst, annotation)

    def add_transitions_by_id(
        self,
        srcs: Sequence[int],
        aids: Sequence[int],
        dsts: Sequence[int],
        annotations: Optional[Sequence[Any]] = None,
    ) -> None:
        """Append parallel columns of edges with already-interned action ids.

        The bulk form of :meth:`add_transition_by_id`: the ``i``-th edge
        is ``srcs[i] --aids[i]--> dsts[i]`` annotated ``annotations[i]``
        (``None`` for no annotations at all).  Action ids are checked
        and the state space grown once for the whole batch.
        """
        count = len(srcs)
        if len(aids) != count or len(dsts) != count or (
            annotations is not None and len(annotations) != count
        ):
            raise ValueError("transition columns differ in length")
        if not count:
            return
        low, high = min(aids), max(aids)
        if low < 0 or high >= len(self.action_labels):
            raise ValueError(
                f"action id {low if low < 0 else high} is not interned "
                f"(have {len(self.action_labels)} actions)"
            )
        top = max(max(srcs), max(dsts))
        if top >= self._num_states:
            self._num_states = top + 1
        self._src.extend(srcs)
        self._act.extend(aids)
        self._dst.extend(dsts)
        if annotations is None:
            self._ann.extend([None] * count)
        else:
            self._ann.extend(annotations)

    def _append(self, src: int, aid: int, dst: int, annotation: Any) -> None:
        # Explorers append one edge per transition between states they
        # have already added, so the check below is usually false.
        count = self._num_states
        if src >= count or dst >= count:
            self._num_states = (src if src > dst else dst) + 1
        self._src.append(src)
        self._act.append(aid)
        self._dst.append(dst)
        self._ann.append(annotation)

    # ------------------------------------------------------------------
    # reading back
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return self._num_states

    @property
    def num_transitions(self) -> int:
        return len(self._src)

    @property
    def num_actions(self) -> int:
        return len(self.action_labels)

    def transitions(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate over all transitions as ``(src, action_id, dst)``."""
        return zip(self._src, self._act, self._dst)

    def transitions_with_annotations(self) -> Iterator[Tuple[int, int, int, Any]]:
        """Iterate over ``(src, action_id, dst, annotation)`` tuples."""
        return zip(self._src, self._act, self._dst, self._ann)

    def freeze(self) -> "FrozenLTS":
        """Build the immutable CSR form of this system.

        Transitions are sorted by ``(src, action, dst)`` and duplicates
        are merged; annotations of merged duplicates are kept as a
        tuple of the distinct non-``None`` values.
        """
        return FrozenLTS(self)


class FrozenLTS:
    """Immutable CSR form of an LTS (the form every query reads).

    Layout: the deduplicated transitions sorted by ``(src, action,
    dst)`` live in three parallel ``array('q')`` columns with an
    ``n+1``-entry row-offset array per source state.  Within a source's
    slice the silent action (id 0) sorts first, so the tau out-edges of
    a state are a prefix of its slice and the silent sub-relation is
    available as two flat arrays without any per-query filtering.

    Mutation methods do not exist, and :meth:`action_id` refuses to
    intern new labels.
    """

    __slots__ = (
        "init",
        "action_labels",
        "_action_ids",
        "_num_states",
        "_esrc",
        "_eact",
        "_edst",
        "_ptr",
        "_eann",
        "_tau_src",
        "_tau_dst",
        "_tau_adj",
    )

    def __init__(self, source: LTS) -> None:
        self.init: int = source.init
        self.action_labels: List[Hashable] = list(source.action_labels)
        self._action_ids: Dict[Hashable, int] = dict(source._action_ids)
        n = source.num_states
        self._num_states: int = n

        eann: Optional[List[Optional[Tuple[Any, ...]]]] = None
        if any(a is not None for a in source._ann):
            esrc, eact, edst, eann = _merge_annotated(source)
        else:
            triples = sorted(zip(source._src, source._act, source._dst))
            if any(map(eq, triples, islice(triples, 1, None))):
                # Sorted, so duplicates are adjacent; keep the first.
                triples = list(dict.fromkeys(triples))
            esrc = array("q", [t[0] for t in triples])
            eact = array("q", [t[1] for t in triples])
            edst = array("q", [t[2] for t in triples])
        self._set_edges(esrc, eact, edst, eann)

    @classmethod
    def _from_sorted_columns(
        cls,
        init: int,
        action_labels: Sequence[Hashable],
        num_states: int,
        esrc: array,
        eact: array,
        edst: array,
    ) -> "FrozenLTS":
        """A frozen system whose CSR columns the caller already holds.

        The columns must be sorted by ``(src, action, dst)`` and free of
        duplicates, and ``action_labels`` distinct with ``TAU`` first;
        nothing is checked.  The edges carry no annotations.
        """
        self = cls.__new__(cls)
        self.init = init
        self.action_labels = list(action_labels)
        self._action_ids = {label: aid for aid, label in enumerate(self.action_labels)}
        self._num_states = num_states
        self._set_edges(esrc, eact, edst, None)
        return self

    def _set_edges(
        self,
        esrc: array,
        eact: array,
        edst: array,
        eann: Optional[List[Optional[Tuple[Any, ...]]]],
    ) -> None:
        self._esrc = esrc
        self._eact = eact
        self._edst = edst
        self._eann = eann
        self._ptr = _offsets(self._num_states, esrc)

        silent = [aid == TAU_ID for aid in eact]
        self._tau_src = array("q", compress(esrc, silent))
        self._tau_dst = array("q", compress(edst, silent))
        self._tau_adj: Optional[List[List[int]]] = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return self._num_states

    @property
    def num_transitions(self) -> int:
        return len(self._esrc)

    @property
    def num_actions(self) -> int:
        return len(self.action_labels)

    def action_id(self, label: Hashable) -> int:
        """Look up an already-interned label (frozen systems cannot intern)."""
        aid = self._action_ids.get(label)
        if aid is None:
            raise ValueError(
                f"frozen LTS cannot intern new action label {label!r}; "
                "thaw() first"
            )
        return aid

    def lookup_action(self, label: Hashable) -> Optional[int]:
        """Return the action id of ``label`` or ``None`` if never used."""
        return self._action_ids.get(label)

    def transitions(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate over all transitions as ``(src, action_id, dst)``."""
        return zip(self._esrc, self._eact, self._edst)

    def transitions_with_annotations(self) -> Iterator[Tuple[int, int, int, Any]]:
        """Iterate over ``(src, action_id, dst, annotation)`` tuples.

        A merged duplicate edge that collapsed several distinct
        annotations is yielded once per annotation, so diagnostic
        consumers (thread recovery, essential internal steps) see every
        annotation that existed before deduplication.
        """
        eann = self._eann
        if eann is None:
            for src, act, dst in zip(self._esrc, self._eact, self._edst):
                yield src, act, dst, None
            return
        for index, (src, act, dst) in enumerate(
            zip(self._esrc, self._eact, self._edst)
        ):
            anns = eann[index]
            if anns is None:
                yield src, act, dst, None
            else:
                for ann in anns:
                    yield src, act, dst, ann

    def successors(self, state: int) -> List[Tuple[int, int]]:
        """All ``(action_id, dst)`` pairs leaving ``state``."""
        lo, hi = self._ptr[state], self._ptr[state + 1]
        eact, edst = self._eact, self._edst
        return [(eact[i], edst[i]) for i in range(lo, hi)]

    def tau_successors(self, state: int) -> List[int]:
        """Targets of tau transitions leaving ``state`` (slice prefix)."""
        lo, hi = self._ptr[state], self._ptr[state + 1]
        hi = bisect_right(self._eact, TAU_ID, lo, hi)
        return list(self._edst[lo:hi])

    # ------------------------------------------------------------------
    # cached silent sub-relation (shared by every tau-analysis consumer)
    # ------------------------------------------------------------------
    def tau_edges(self) -> Tuple[array, array]:
        """The silent edges as flat ``(sources, targets)`` arrays."""
        return self._tau_src, self._tau_dst

    def edge_arrays(self) -> Tuple[array, array, array]:
        """The raw CSR columns ``(sources, action_ids, targets)``.

        Sorted by ``(source, action, target)`` and duplicate-free; the
        arrays are the frozen system's own storage -- callers must not
        mutate them.
        """
        return self._esrc, self._eact, self._edst

    def tau_adjacency(self) -> List[List[int]]:
        """Per-state tau successor lists (built once, then cached)."""
        if self._tau_adj is None:
            adj: List[List[int]] = [[] for _ in range(self._num_states)]
            for src, dst in zip(self._tau_src, self._tau_dst):
                adj[src].append(dst)
            self._tau_adj = adj
        return self._tau_adj

    # ------------------------------------------------------------------
    # derived systems
    # ------------------------------------------------------------------
    def reachable_states(self) -> List[int]:
        """States reachable from the initial state, in BFS order."""
        if self._num_states == 0:
            return []
        seen = [False] * self._num_states
        seen[self.init] = True
        order = [self.init]
        queue = deque(order)
        while queue:
            for _aid, dst in self.successors(queue.popleft()):
                if not seen[dst]:
                    seen[dst] = True
                    order.append(dst)
                    queue.append(dst)
        return order

    def relabel(self, mapping: Callable[[Hashable], Hashable]) -> "FrozenLTS":
        """Copy with every action label passed through ``mapping``."""
        return _relabel(self, mapping).freeze()

    def freeze(self) -> "FrozenLTS":
        """Already frozen: the identity."""
        return self

    def thaw(self) -> LTS:
        """Return a mutable builder copy of this system."""
        return _relabel(self, lambda label: label)


#: Either form: what row readers and freezing entry points accept.
AnyLTS = Union[LTS, FrozenLTS]


def ensure_frozen(lts: AnyLTS) -> FrozenLTS:
    """Normalize to the CSR form (the identity on frozen inputs)."""
    if isinstance(lts, FrozenLTS):
        return lts
    return lts.freeze()


def tau_successor_lists(lts: AnyLTS) -> List[List[int]]:
    """Per-state silent successor lists, for every tau analysis.

    A frozen system serves its cached :meth:`FrozenLTS.tau_adjacency`.
    A builder is scanned, not frozen: ``read_aut`` returns builders,
    and a trace comparison of two parsed files must not pay for a CSR
    build.
    """
    if isinstance(lts, FrozenLTS):
        return lts.tau_adjacency()
    adj: List[List[int]] = [[] for _ in range(lts.num_states)]
    for src, aid, dst in lts.transitions():
        if aid == TAU_ID:
            adj[src].append(dst)
    return adj


def _merge_annotated(
    source: LTS,
) -> Tuple[array, array, array, List[Optional[Tuple[Any, ...]]]]:
    """Sorted, duplicate-free CSR columns of an annotated builder.

    The annotations of merged duplicates are kept as a tuple of the
    distinct non-``None`` values, in insertion order.
    """
    triples = sorted(zip(source._src, source._act, source._dst,
                         range(source.num_transitions)))
    anns = source._ann
    esrc = array("q")
    eact = array("q")
    edst = array("q")
    eann: List[Optional[Tuple[Any, ...]]] = []
    last: Optional[Tuple[int, int, int]] = None
    for src, act, dst, index in triples:
        key = (src, act, dst)
        ann = anns[index]
        if key == last:
            if ann is not None:
                merged = eann[-1] or ()
                if ann not in merged:
                    eann[-1] = merged + (ann,)
            continue
        last = key
        esrc.append(src)
        eact.append(act)
        edst.append(dst)
        eann.append((ann,) if ann is not None else None)
    return esrc, eact, edst, eann


def _offsets(num_states: int, sorted_column: Sequence[int]) -> array:
    """Row-offset array of a CSR layout from its sorted leading column."""
    counts = [0] * (num_states + 1)
    for value in sorted_column:
        counts[value + 1] += 1
    total = 0
    ptr = array("q", [0] * (num_states + 1))
    for index in range(num_states + 1):
        total += counts[index]
        ptr[index] = total
    return ptr


def _relabel(lts: FrozenLTS, mapping: Callable[[Hashable], Hashable]) -> LTS:
    out = LTS()
    out.add_states(lts.num_states)
    out.init = lts.init
    for src, aid, dst, ann in lts.transitions_with_annotations():
        out.add_transition(src, mapping(lts.action_labels[aid]), dst, ann)
    return out


def disjoint_union(a: AnyLTS, b: AnyLTS) -> Tuple[FrozenLTS, int, int]:
    """Combine ``a`` and ``b`` into one frozen LTS with disjoint states.

    Returns ``(union, init_a, init_b)`` where ``init_a`` / ``init_b``
    are the images of the two initial states.  The union's own ``init``
    is ``init_a``.  This is the construction used when two object
    systems are compared for (divergence-sensitive) branching
    bisimilarity (Section V of the paper).

    The rows of each system's :meth:`transitions_with_annotations` are
    copied as columns.  Labels are interned at their first use, ``a``'s
    rows before ``b``'s, so the union's action ids are those of adding
    the rows one by one.
    """
    out = LTS()
    out.add_states(a.num_states + b.num_states)
    offset = a.num_states
    for part, shift in ((a, 0), (b, offset)):
        src, act, dst, ann = _row_columns(part)
        labels = part.action_labels
        ids = {aid: out.action_id(labels[aid]) for aid in dict.fromkeys(act)}
        if any(old != new for old, new in ids.items()):
            act = list(map(ids.__getitem__, act))
        if shift:
            src = list(map(shift.__add__, src))
            dst = list(map(shift.__add__, dst))
        out.add_transitions_by_id(src, act, dst, ann)
    out.init = a.init
    return out.freeze(), a.init, b.init + offset


def _row_columns(
    lts: AnyLTS,
) -> Tuple[Sequence[int], Sequence[int], Sequence[int], Optional[Sequence[Any]]]:
    """The rows of ``lts.transitions_with_annotations()`` as columns.

    The annotation column is ``None`` for a frozen system that keeps no
    annotations.
    """
    if isinstance(lts, LTS):
        return lts._src, lts._act, lts._dst, lts._ann
    if lts._eann is None:
        return lts._esrc, lts._eact, lts._edst, None
    src, act, dst, ann = zip(*lts.transitions_with_annotations())
    return src, act, dst, ann


def _same_content(a: Any, b: Any) -> bool:
    """``==`` plus exact types, recursively through the key tuples.

    State keys are nested tuples of scalars, and Python's numeric tower
    makes ``False == 0 == 0.0`` -- so two states whose values differ
    only in bool/int/float flavor collide in any ``==``-keyed table,
    although they neither behave nor render alike (``Lock`` tests
    ``is not False``; a returned ``False`` prints differently from
    ``0``).  This is the one type-exact comparison of state parts.
    """
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if not isinstance(a, tuple):
        return a == b
    if len(a) != len(b):
        return False
    # Scalars are compared here; only nested tuples (``Ref`` included)
    # cost a call.
    for x, y in zip(a, b):
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, tuple):
            if not _same_content(x, y):
                return False
        elif x != y:
            return False
    return True


class LTSBuilder:
    """Incremental LTS construction over arbitrary hashable state keys.

    State-space explorers produce states as rich hashable values (tuples
    of shared memory, heaps and thread records); the builder interns
    them into dense integers.

    Interning is type-exact (:func:`_same_content`): a key that is
    ``==`` to an interned one but differs in bool/int/float flavor (a
    *twin*) gets an id of its own.  Twins are rare, so they live in a
    second table, keyed by their ``==`` class.

    :meth:`add_edges` accepts a revisit built from the stored key's own
    objects by identity alone: two parts that are one object are
    type-exactly equal, and so are two tuples whose elements are.  An
    explorer that hash-conses the parts of its keys (as
    :class:`~repro.lang.client.ExpansionContext` does) makes that the
    common case.
    """

    __slots__ = ("lts", "_state_ids", "_twins", "state_keys")

    def __init__(self) -> None:
        self.lts = LTS()
        self._state_ids: Dict[Hashable, int] = {}
        #: ``==`` class -> ids of its twins (all but the first-seen key).
        self._twins: Dict[Hashable, List[int]] = {}
        self.state_keys: List[Hashable] = []

    def intern(self, key: Hashable) -> Tuple[int, bool]:
        """Intern ``key`` with one hash; return ``(state_id, is_new)``.

        Explorers drive their work-list from ``is_new`` and add edges
        with :meth:`LTS.add_transition` by id, so no key is hashed
        twice (a twin is hashed once more, in the twin table).
        """
        keys = self.state_keys
        fresh = len(keys)
        sid = self._state_ids.setdefault(key, fresh)
        if sid == fresh:
            keys.append(key)
            self.lts.add_state()
            return sid, True
        stored = keys[sid]
        if stored is key or _same_content(stored, key):
            return sid, False
        twins = self._twins.setdefault(key, [])
        for twin in twins:
            if _same_content(keys[twin], key):
                return twin, False
        twins.append(fresh)
        keys.append(key)
        self.lts.add_state()
        return fresh, True

    def add_edges(
        self, src: int, edges: Iterable[Tuple[Hashable, Hashable, Any]]
    ) -> List[int]:
        """Intern every destination of ``src``'s ``(label, key,
        annotation)`` edges and append the edges, in order.

        Returns the destination ids in edge order: exactly what one
        :meth:`intern` and one :meth:`LTS.add_transition` per edge give.
        A new state takes the next id, so the states an explorer must
        push are ``range(num_states before, num_states after)``.

        A key ``==`` to a stored one is that state when, part by part,
        it holds the stored key's objects (for a tuple part, its
        elements); only a key where some part differs by object pays
        the recursive :func:`_same_content`.
        """
        state_ids, keys, lts = self._state_ids, self.state_keys, self.lts
        action_ids = lts._action_ids
        acts, dsts, anns = lts._act, lts._dst, lts._ann
        first = len(dsts)
        for label, key, annotation in edges:
            fresh = len(keys)
            sid = state_ids.setdefault(key, fresh)
            if sid == fresh:
                keys.append(key)
                lts._num_states += 1
            else:
                stored = keys[sid]
                if stored is not key:
                    # ``stored == key``, so two exact tuples here have
                    # equal lengths.
                    same = type(key) is tuple and type(stored) is tuple
                    if same:
                        for old, new in zip(stored, key):
                            if old is not new and (
                                type(old) is not tuple or type(new) is not tuple
                                or not all(map(is_, old, new))
                            ):
                                same = False
                                break
                    if not same and not _same_content(stored, key):
                        sid = self.intern(key)[0]
            aid = action_ids.get(label)
            if aid is None:
                aid = lts.action_id(label)
            acts.append(aid)
            dsts.append(sid)
            anns.append(annotation)
        lts._src.extend([src] * (len(dsts) - first))
        return dsts[first:]

    def known(self, key: Hashable) -> bool:
        """Return whether ``key`` (type-exactly) has been interned."""
        sid = self._state_ids.get(key)
        if sid is None:
            return False
        keys = self.state_keys
        return any(
            _same_content(keys[s], key)
            for s in (sid, *self._twins.get(key, ()))
        )

    def set_init(self, key: Hashable) -> None:
        self.lts.init = self.intern(key)[0]


def make_lts(
    num_states: int,
    init: int,
    transitions: Iterable[Tuple[int, Hashable, int]],
) -> FrozenLTS:
    """Convenience constructor used heavily by the tests.

    ``transitions`` is an iterable of ``(src, label, dst)`` where a
    label of ``"tau"`` or :data:`TAU` denotes the silent action.  The
    result is frozen, so duplicate transitions are merged.
    """
    lts = LTS()
    lts.add_states(num_states)
    lts.init = init
    for src, label, dst in transitions:
        if label == "tau":
            label = TAU
        lts.add_transition(src, label, dst)
    return lts.freeze()


def _dot_escape(text: str) -> str:
    """Escape a label for a double-quoted DOT string."""
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\r\n", "\\n")
        .replace("\n", "\\n")
        .replace("\r", "\\n")
    )


def to_dot(lts: AnyLTS, name: str = "lts", max_states: int = 2000) -> str:
    """Render an LTS in GraphViz DOT format (for small systems)."""
    if lts.num_states > max_states:
        raise ValueError(
            f"refusing to render {lts.num_states} states (max {max_states})"
        )
    lines = [f"digraph {name} {{", "  rankdir=LR;", f'  init [shape=point]; init -> {lts.init};']
    for s in range(lts.num_states):
        lines.append(f'  {s} [shape=circle,label="{s}"];')
    for src, aid, dst in lts.transitions():
        label = lts.action_labels[aid]
        text = "tau" if aid == TAU_ID else str(label)
        lines.append(f'  {src} -> {dst} [label="{_dot_escape(text)}"];')
    lines.append("}")
    return "\n".join(lines)
