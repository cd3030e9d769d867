"""State representation and canonicalization.

A state of the composed system is ``(globals, heap, threads)``:

* ``globals`` -- tuple of values in program declaration order,
* ``heap`` -- tuple of nodes; a node is ``(free_flag, field0, ...)``,
* ``threads`` -- tuple of ``(method_index, pc, locals, budget)`` with
  ``method_index == -1`` for idle threads.

After every step the heap is *canonicalized*: nodes are renumbered in
BFS order from the roots (globals, then thread locals), and nodes that
no root can reach are dropped.  This is a symmetry reduction: two
states that differ only in allocation order collapse, which is one of
the mitigations for running the paper's experiments at CPython speed.
Dropping unreachable nodes models garbage collection; nodes freed
explicitly but still referenced (dangling pointers) survive and remain
candidates for reallocation, keeping ABA scenarios observable.

Values inside globals, locals and node fields may be nested tuples
(e.g. a pointer-with-mark-bit word, or an array of slots); references
are located and rewritten at any nesting depth.  A node's free flag is
a bool, never a reference, so scans pass over whole nodes.
:func:`canonicalize` renumbers only what moves: the globals, nodes and
thread records whose references keep their numbers come back as the
very objects it was given, so later identity tests (the step cache,
:func:`canonicalize_successor`, the state table) hit more often.

Exploration canonicalizes every successor of a state it expands, and
most steps leave the heap's canonical numbering as it was.
:func:`canonicalize_successor` uses that: it replays only the parts of
the traversal a step changed, against counts :func:`root_counts`
recorded once for the (already canonical) source, and falls back to
:func:`canonicalize` -- the one full renaming -- as soon as the
successor's numbering departs from the identity.  An explorer passes
:func:`renumber` instead: the same renaming, computed once per heap
object and root reference lists, with its parts hash-consed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

# The type-exact comparison of state parts lives with the state table.
from ..core.lts import _same_content  # noqa: F401
from .values import Ref

Node = Tuple[Any, ...]          # (free_flag, field values...)
Heap = Tuple[Node, ...]
ThreadRecord = Tuple[int, int, Tuple[Any, ...], int]
StateKey = Tuple[Tuple[Any, ...], Heap, Tuple[ThreadRecord, ...]]


def _number(values: Tuple[Any, ...], remap: Dict[int, int], order: List[int]) -> None:
    """Number every reference nested in ``values`` on its first visit.

    ``remap`` maps an old node index to its new number and ``order``
    lists the old indices by new number.  A node's free flag is a bool,
    so a whole node may be passed.
    """
    for value in values:
        kind = type(value)
        if kind is Ref:
            index = value[1]
            if index not in remap:
                remap[index] = len(order)
                order.append(index)
        elif kind is tuple:
            _number(value, remap, order)


def _renumber(values: Tuple[Any, ...], remap: Dict[int, int]) -> Tuple[Any, ...]:
    """``values`` with every nested reference renumbered through ``remap``.

    Returns ``values`` itself when none of its references moves, so
    unchanged globals, nodes, locals and nested tuples are shared
    rather than copied.
    """
    changed = None
    for pos, value in enumerate(values):
        kind = type(value)
        if kind is Ref:
            index = remap[value[1]]
            if index == value[1]:
                continue
            value = Ref(index)
        elif kind is tuple:
            renumbered = _renumber(value, remap)
            if renumbered is value:
                continue
            value = renumbered
        else:
            continue
        if changed is None:
            changed = list(values)
        changed[pos] = value
    return values if changed is None else tuple(changed)


def _numbering(
    globals_: Tuple[Any, ...], heap: Heap, threads: Tuple[ThreadRecord, ...]
) -> Optional[Dict[int, int]]:
    """The canonical numbering of a state: old node index -> new number.

    Numbers the nodes in the order the roots (the globals, then each
    thread's locals) first reference them, then breadth-first through
    the heap; a node never reached gets no number.  ``None`` when every
    node keeps its index (the state is canonical as given).
    """
    remap: Dict[int, int] = {}
    order: List[int] = []
    _number(globals_, remap, order)
    for record in threads:
        _number(record[2], remap, order)
    cursor = 0
    while cursor < len(order):
        _number(heap[order[cursor]], remap, order)
        cursor += 1
    if len(order) == len(heap):
        for new, old in enumerate(order):
            if new != old:
                break
        else:
            return None
    return remap


def _renumber_heap(heap: Heap, remap: Dict[int, int]) -> Heap:
    """The nodes ``remap`` numbers, renumbered, in new order (the order
    :func:`_numbering` inserted them in)."""
    return tuple([_renumber(heap[old], remap) for old in remap])


def _renumber_threads(
    threads: Tuple[ThreadRecord, ...],
    remap: Dict[int, int],
    share: Callable[[Any], Any],
) -> Tuple[ThreadRecord, ...]:
    """``threads`` with their locals renumbered; a changed record goes
    through ``share``."""
    new_threads = []
    for record in threads:
        locals_ = record[2]
        renumbered = _renumber(locals_, remap)
        if renumbered is not locals_:
            record = share((record[0], record[1], renumbered, record[3]))
        new_threads.append(record)
    return tuple(new_threads)


def _as_is(value: Any) -> Any:
    return value


def canonicalize(
    globals_: Tuple[Any, ...],
    heap: Heap,
    threads: Tuple[ThreadRecord, ...],
) -> StateKey:
    """Canonical renaming + garbage collection of the heap (see module doc).

    Renumbers only what moves: the globals, every node and every thread
    record whose references keep their numbers are returned as the
    input objects, and an already canonical state comes back as-is.
    """
    remap = _numbering(globals_, heap, threads)
    if remap is None:
        return (globals_, heap, threads)
    return (
        _renumber(globals_, remap),
        _renumber_heap(heap, remap),
        _renumber_threads(threads, remap, _as_is),
    )


def _references(values: Tuple[Any, ...], found: List[int]) -> List[int]:
    """``found`` extended by the node index of every reference nested in
    ``values``, in scan order."""
    for value in values:
        kind = type(value)
        if kind is Ref:
            found.append(value[1])
        elif kind is tuple:
            _references(value, found)
    return found


#: Per-run memo of root-segment reference lists: ``id(part) -> (part,
#: node indices of the references nested in part, in scan order)``.
#: Holding ``part`` keeps its id from being reused, as in :data:`Scans`.
RootRefs = Dict[int, Tuple[Tuple[Any, ...], Tuple[int, ...]]]

#: Per-run memo of full renumberings (:func:`renumber`): ``(id(heap),
#: reference list of the globals, of thread 0's locals, ...) -> (heap,
#: numbering, renumbered heap)``, the numbering ``None`` when the state
#: is canonical as given.  Holding ``heap`` keeps its id from being
#: reused.  Its length is the number of renumberings computed.
Renumberings = Dict[Tuple[Any, ...], Tuple[Heap, Optional[Dict[int, int]], Heap]]


def renumber(
    globals_: Tuple[Any, ...],
    heap: Heap,
    threads: Tuple[ThreadRecord, ...],
    refs: RootRefs,
    memo: Renumberings,
    share: Callable[[Any], Any],
) -> StateKey:
    """``canonicalize(globals_, heap, threads)``, memoized per run.

    The numbering visits the roots' references in order and then walks
    the heap, so it -- and the renumbered heap -- is a function of the
    heap object and of each root segment's reference list alone; the
    globals and locals only carry the references it rewrites.  ``memo``
    keeps the numbering and the renumbered heap under ``id(heap)`` and
    those lists (memoized in ``refs`` by segment identity), and the
    renumbered heap, globals and thread records go through ``share``,
    the run's type-exact hash-consing, so a state met again is rebuilt
    from its first key's objects.
    """
    key_parts = [id(heap)]
    for part in (globals_, *[record[2] for record in threads]):
        hit = refs.get(id(part))
        if hit is None:
            hit = refs[id(part)] = (part, tuple(_references(part, [])))
        key_parts.append(hit[1])
    memo_key = tuple(key_parts)
    entry = memo.get(memo_key)
    if entry is None:
        remap = _numbering(globals_, heap, threads)
        renumbered = heap if remap is None else share(_renumber_heap(heap, remap))
        entry = memo[memo_key] = (heap, remap, renumbered)
    remap = entry[1]
    if remap is None:
        return (globals_, heap, threads)
    return (
        share(_renumber(globals_, remap)),
        entry[2],
        _renumber_threads(threads, remap, share),
    )


def _scan_in_order(values: Tuple[Any, ...], count: int) -> int:
    """:func:`_scan` over ``values`` with nodes ``0..count-1`` visited.

    Returns the new count while every first visit is the next index in
    order, and ``-1`` at the first visit that is out of order.
    """
    for value in values:
        kind = type(value)
        if kind is Ref:
            index = value[1]
            if index >= count:
                if index != count:
                    return -1
                count += 1
        elif kind is tuple:
            count = _scan_in_order(value, count)
            if count < 0:
                return -1
    return count


#: Per-run memo of root-segment scans: ``(id(part), count entered with)
#: -> (part, count after part)``.  Holding ``part`` keeps its id from
#: being reused, so a hit is always the same object.  A successor that
#: differs from its canonical source only in thread ``i``'s locals is
#: canonical as built when its memo entry at ``counts[i]`` leaves at
#: ``counts[i + 1]`` (the identity path of :func:`canonicalize_successor`),
#: which the explorer tests inline.
Scans = Dict[Tuple[int, int], Tuple[Tuple[Any, ...], int]]


def _scan_root(part: Tuple[Any, ...], count: int, scans: Scans) -> int:
    """:func:`_scan_in_order` of one root segment, memoized in ``scans``."""
    memo_key = (id(part), count)
    hit = scans.get(memo_key)
    if hit is None:
        hit = scans[memo_key] = (part, _scan_in_order(part, count))
    return hit[1]


def root_counts(key: StateKey, scans: Scans) -> Tuple[int, ...]:
    """Nodes first visited after the globals and after each thread's locals.

    ``key`` must be canonical (``canonicalize(*key)`` returns it
    unchanged), so its roots visit the nodes in index order and each
    count is the number of nodes visited so far.  Entry ``0`` is the
    count after the globals, entry ``i + 1`` the count after thread
    ``i``'s locals.
    """
    globals_, _heap, threads = key
    count = _scan_root(globals_, 0, scans)
    counts = [count]
    for record in threads:
        count = _scan_root(record[2], count, scans)
        counts.append(count)
    if count < 0:
        raise ValueError("root_counts needs a canonical state key")
    return tuple(counts)


def canonicalize_successor(
    source: StateKey,
    counts: Tuple[int, ...],
    globals_: Tuple[Any, ...],
    heap: Heap,
    threads: Tuple[ThreadRecord, ...],
    scans: Scans,
    full: Callable[..., StateKey] = canonicalize,
) -> StateKey:
    """``canonicalize(globals_, heap, threads)`` for a successor of ``source``.

    ``source`` is a canonical key and ``counts`` its :func:`root_counts`.
    The traversal is replayed against the source's: a root segment
    (the globals, or one thread's locals) that is the same object as
    the source's and is entered with the source's count visits exactly
    the source's nodes, so it is skipped.  When the roots end at the
    source's count over the source's heap object, the rest of the
    traversal is the source's too and the successor is returned as-is.
    Otherwise the scan continues in index order; the first visit out of
    order, or a node no root reaches, hands the successor to ``full``
    (:func:`canonicalize`, or an explorer's :func:`renumber`).  Every
    path returns what ``canonicalize`` returns.
    """
    src_globals, src_heap, src_threads = source
    if globals_ is src_globals:
        count = counts[0]
    else:
        count = _scan_root(globals_, 0, scans)
        if count < 0:
            return full(globals_, heap, threads)
    for index, record in enumerate(threads):
        locals_ = record[2]
        if locals_ is src_threads[index][2] and count == counts[index]:
            count = counts[index + 1]
            continue
        if type(locals_) is not tuple:
            return full(globals_, heap, threads)
        count = _scan_root(locals_, count, scans)
        if count < 0:
            return full(globals_, heap, threads)
    if heap is src_heap and count == counts[-1]:
        return (globals_, heap, threads)
    cursor = 0
    while cursor < count:
        count = _scan_in_order(heap[cursor], count)
        if count < 0:
            return full(globals_, heap, threads)
        cursor += 1
    if count != len(heap):
        return full(globals_, heap, threads)
    return (globals_, heap, threads)


def free_node_indices(heap: Heap) -> List[int]:
    """Indices of nodes marked free (candidates for reallocation)."""
    return [index for index, node in enumerate(heap) if node[0]]


class ModelError(Exception):
    """A modeling bug: null dereference, unknown field/global, etc."""
