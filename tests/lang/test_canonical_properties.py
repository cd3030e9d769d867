"""Property tests for state canonicalization (hypothesis)."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lang.state import (
    _same_content,
    canonicalize,
    canonicalize_successor,
    renumber,
    root_counts,
)
from repro.lang.values import Ref

COMMON = settings(max_examples=100, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


def value_strategy(num_nodes):
    base = st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.booleans(),
        st.none(),
        st.builds(Ref, st.integers(min_value=0, max_value=max(0, num_nodes - 1)))
        if num_nodes else st.none(),
    )
    return st.one_of(base, st.tuples(base, base))


@st.composite
def state_strategy(draw, num_threads=None):
    num_nodes = draw(st.integers(min_value=0, max_value=5))
    values = value_strategy(num_nodes)
    heap = tuple(
        tuple([draw(st.booleans())] + draw(st.lists(values, min_size=2, max_size=2)))
        for _ in range(num_nodes)
    )
    globals_ = tuple(draw(st.lists(values, min_size=0, max_size=3)))
    if num_threads is None:
        num_threads = draw(st.integers(min_value=1, max_value=2))
    threads = tuple(
        (draw(st.integers(min_value=-1, max_value=1)),
         draw(st.integers(min_value=-1, max_value=3)),
         tuple(draw(st.lists(values, min_size=0, max_size=2))),
         draw(st.integers(min_value=0, max_value=2)))
        for _ in range(num_threads)
    )
    return globals_, heap, threads


def all_refs(value, acc):
    if type(value) is Ref:
        acc.append(value)
    elif type(value) is tuple:
        for item in value:
            all_refs(item, acc)
    return acc


@COMMON
@given(state_strategy())
def test_canonicalize_idempotent(state):
    once = canonicalize(*state)
    twice = canonicalize(*once)
    assert once == twice


@COMMON
@given(state_strategy())
def test_canonicalize_refs_are_dense_and_valid(state):
    globals_, heap, threads = canonicalize(*state)
    refs = []
    for value in globals_:
        all_refs(value, refs)
    for record in threads:
        all_refs(record[2], refs)
    for node in heap:
        for value in node[1:]:
            all_refs(value, refs)
    for ref in refs:
        assert 0 <= ref.index < len(heap)
    # Every retained node is reachable from a root -> referenced.
    reachable = set()
    frontier = []
    for value in globals_:
        all_refs(value, frontier)
    for record in threads:
        all_refs(record[2], frontier)
    while frontier:
        ref = frontier.pop()
        if ref.index in reachable:
            continue
        reachable.add(ref.index)
        for value in heap[ref.index][1:]:
            all_refs(value, frontier)
    assert reachable == set(range(len(heap)))


@COMMON
@given(state_strategy())
def test_canonicalize_preserves_thread_scalars(state):
    _globals, _heap, threads = canonicalize(*state)
    for original, result in zip(state[2], threads):
        assert result[0] == original[0]
        assert result[1] == original[1]
        assert result[3] == original[3]


# ----------------------------------------------------------------------
# canonicalize_successor: the incremental path equals canonicalize
# ----------------------------------------------------------------------

def _rename(state, perm):
    """Move node ``i`` to ``perm[i]``, rewriting every reference."""
    def rewrite(value):
        if type(value) is Ref:
            return Ref(perm[value[1]])
        if type(value) is tuple:
            return tuple(rewrite(item) for item in value)
        return value

    globals_, heap, threads = state
    new_heap = [None] * len(heap)
    for old, node in enumerate(heap):
        new_heap[perm[old]] = node[:1] + tuple(rewrite(v) for v in node[1:])
    return (
        tuple(rewrite(v) for v in globals_),
        tuple(new_heap),
        tuple((mi, pc, rewrite(locals_), b) for mi, pc, locals_, b in threads),
    )


def _replace(values, pos, value):
    return values[:pos] + (value,) + values[pos + 1:]


EDITS = ("globals", "locals", "field", "alloc", "drop", "reorder")


@st.composite
def successor_strategy(draw):
    """A canonical source and a successor built the way a step builds one:
    unchanged parts stay the source's objects."""
    source = canonicalize(*draw(state_strategy()))
    globals_, heap, threads = source
    for edit in draw(st.lists(st.sampled_from(EDITS), min_size=1, max_size=3)):
        values = value_strategy(len(heap))
        mark_words = st.tuples(values, st.tuples(values, st.booleans()))
        fresh = st.one_of(values, mark_words)
        if edit == "globals" and globals_:
            pos = draw(st.integers(0, len(globals_) - 1))
            globals_ = _replace(globals_, pos, draw(fresh))
        elif edit == "locals":
            tid = draw(st.integers(0, len(threads) - 1))
            mi, pc, locals_, budget = threads[tid]
            if locals_:
                pos = draw(st.integers(0, len(locals_) - 1))
                locals_ = _replace(locals_, pos, draw(fresh))
            else:
                locals_ = (draw(fresh),)
            threads = _replace(threads, tid, (mi, pc, locals_, budget))
        elif edit == "field" and heap:
            index = draw(st.integers(0, len(heap) - 1))
            pos = draw(st.integers(1, len(heap[index]) - 1))
            heap = _replace(heap, index, _replace(heap[index], pos, draw(fresh)))
        elif edit == "alloc":
            # A new node at the end, referenced from one thread's locals.
            node = (False, draw(values), draw(values))
            tid = draw(st.integers(0, len(threads) - 1))
            mi, pc, locals_, budget = threads[tid]
            heap = heap + (node,)
            locals_ = locals_ + (Ref(len(heap) - 1),)
            threads = _replace(threads, tid, (mi, pc, locals_, budget))
        elif edit == "drop" and globals_:
            # Clearing a root may leave nodes no root reaches.
            pos = draw(st.integers(0, len(globals_) - 1))
            globals_ = _replace(globals_, pos, None)
        elif edit == "reorder" and len(heap) > 1:
            perm = draw(st.permutations(range(len(heap))))
            globals_, heap, threads = _rename((globals_, heap, threads), perm)
    return source, (globals_, heap, threads)


@COMMON
@given(successor_strategy())
def test_canonicalize_successor_matches_canonicalize(case):
    source, successor = case
    scans = {}
    counts = root_counts(source, scans)
    for _ in range(2):  # the second pass answers from the scan memo
        got = canonicalize_successor(source, counts, *successor, scans)
        assert _same_content(got, canonicalize(*successor))


@COMMON
@given(st.data())
def test_canonicalize_successor_of_unrelated_state(data):
    # Nothing shared with the source: every segment is scanned, and
    # random states revisit, reorder and drop nodes freely.
    source = canonicalize(*data.draw(state_strategy()))
    successor = data.draw(state_strategy(num_threads=len(source[2])))
    got = canonicalize_successor(source, root_counts(source, {}), *successor, {})
    assert _same_content(got, canonicalize(*successor))


@COMMON
@given(state_strategy())
def test_canonicalize_successor_of_unchanged_state_is_identity(state):
    source = canonicalize(*state)
    got = canonicalize_successor(source, root_counts(source, {}), *source, {})
    assert all(a is b for a, b in zip(got, source))


def test_canonicalize_successor_falls_back_on_out_of_order_visit():
    # Thread 0 now reaches node 1 before node 0: a full renaming.
    heap = ((False, 1, None), (False, 2, None))
    source = ((Ref(0),), heap, ((0, 0, (Ref(1),), 1),))
    assert canonicalize(*source) == source
    successor = ((None,), heap, ((0, 0, (Ref(1), Ref(0)), 1),))
    got = canonicalize_successor(source, root_counts(source, {}), *successor, {})
    assert got == ((None,), ((False, 2, None), (False, 1, None)),
                   ((0, 0, (Ref(0), Ref(1)), 1),))
    assert _same_content(got, canonicalize(*successor))


def test_canonicalize_successor_counts_a_repeated_visit_once():
    # Node 1 is visited twice before node 0: out of order, although the
    # roots and nodes account for as many visits as the heap has nodes.
    source = ((), ((False, None),), ((0, 0, (Ref(0),), 1),))
    successor = ((), ((False, None), (False, Ref(0))),
                 ((0, 0, (Ref(1), Ref(1)), 1),))
    got = canonicalize_successor(source, root_counts(source, {}), *successor, {})
    assert got == ((), ((False, Ref(1)), (False, None)),
                   ((0, 0, (Ref(0), Ref(0)), 1),))
    assert _same_content(got, canonicalize(*successor))


def test_canonicalize_successor_keeps_bool_and_int_apart():
    heap = ((False, 0, (Ref(0), False)),)
    source = ((Ref(0),), heap, ((0, 0, (False,), 1),))
    successor = (source[0], heap, ((0, 0, (0,), 1),))
    got = canonicalize_successor(source, root_counts(source, {}), *successor, {})
    assert got == canonicalize(*successor)
    assert type(got[2][0][2][0]) is int
    assert _same_content(got, successor)
    assert not _same_content(got, source) and got == source


# ----------------------------------------------------------------------
# renumber: the memoized full renaming an explorer falls back on
# ----------------------------------------------------------------------

def type_exact_share():
    """Hash-consing as an explorer does it: the first value of each
    ``==``-class is its representative, and a type twin stays itself."""
    reps = {}

    def share(value):
        rep = reps.setdefault(value, value)
        return rep if _same_content(rep, value) else value

    return share


def flip_flavour(value):
    """``value`` with every ``False``/``True`` nested in it made ``0``/``1``
    and back: ``==`` to it, never type-exactly equal when one occurs."""
    if type(value) is bool:
        return int(value)
    if type(value) is int and value in (0, 1):
        return bool(value)
    if type(value) is tuple:
        return tuple(flip_flavour(item) for item in value)
    return value


@COMMON
@given(successor_strategy())
def test_memoized_renumbering_matches_canonicalize(case):
    # The successor; the same heap object under other roots (threads in
    # reverse order, no globals), which the numbering depends on; and a
    # twin whose node fields differ only in False/0 flavour: the same
    # references, so the same numbering, under another heap object.
    source, successor = case
    globals_, heap, threads = successor
    twin_heap = tuple(node[:1] + flip_flavour(node[1:]) for node in heap)
    states = (
        successor,
        (globals_, heap, threads[::-1]),
        ((), heap, threads),
        (globals_, twin_heap, threads),
    )
    scans, refs, memo = {}, {}, {}
    share = type_exact_share()

    def full(*state):
        return renumber(*state, refs, memo, share)

    counts = root_counts(source, scans)
    for state in states:
        expected = canonicalize(*state)
        first = canonicalize_successor(source, counts, *state, scans, full)
        computed = len(memo)
        again = canonicalize_successor(source, counts, *state, scans, full)
        assert len(memo) == computed  # the repeat is served from the memo
        assert _same_content(first, expected)
        assert _same_content(again, expected)
        direct = renumber(*state, refs, memo, share)
        assert _same_content(direct, expected)
        assert direct[1] is renumber(*state, refs, memo, share)[1]


def test_memoized_renumbering_keeps_false_and_zero_heaps_apart():
    # Thread 0 reaches node 1 first, so both heaps renumber; they are
    # == but differ in one field's flavour, and neither is served the
    # other's renumbered heap.
    heap_false = ((False, False), (False, Ref(0)))
    heap_zero = ((False, 0), (False, Ref(0)))
    threads = ((0, 0, (Ref(1),), 1),)
    refs, memo = {}, {}
    share = type_exact_share()
    for _ in range(2):
        for heap in (heap_false, heap_zero):
            got = renumber((), heap, threads, refs, memo, share)
            assert _same_content(got, canonicalize((), heap, threads))
    assert len(memo) == 2
    got_false = renumber((), heap_false, threads, refs, memo, share)
    got_zero = renumber((), heap_zero, threads, refs, memo, share)
    assert got_false == got_zero
    assert type(got_false[1][1][1]) is bool and type(got_zero[1][1][1]) is int


def test_same_content_is_type_exact():
    assert _same_content((1, (Ref(0), False)), (1, (Ref(0), False)))
    assert not _same_content((1, (Ref(0), False)), (1, (Ref(0), 0)))
    assert not _same_content((0,), (0.0,))
    assert not _same_content(Ref(0), ("ref", 0))
    assert not _same_content((1, 2), (1, 2, 3))


# ----------------------------------------------------------------------
# canonicalize against a reference: the full rebuild it replaced
# ----------------------------------------------------------------------

def reference_canonicalize(globals_, heap, threads):
    """The earlier ``canonicalize``, which rebuilt every part of a state
    whose numbering changed; also returns the old index of each kept
    node, in new order."""
    remap, order = {}, []

    def scan(value):
        if type(value) is Ref:
            if value[1] not in remap:
                remap[value[1]] = len(order)
                order.append(value[1])
        elif type(value) is tuple:
            for item in value:
                scan(item)

    def rewrite(value):
        if type(value) is Ref:
            index = remap[value[1]]
            return value if index == value[1] else Ref(index)
        if type(value) is tuple:
            rewritten = [rewrite(item) for item in value]
            if all(new is old for new, old in zip(rewritten, value)):
                return value
            return tuple(rewritten)
        return value

    for value in globals_:
        scan(value)
    for record in threads:
        scan(record[2])
    cursor = 0
    while cursor < len(order):
        for value in heap[order[cursor]][1:]:
            scan(value)
        cursor += 1
    if order == list(range(len(heap))):
        return (globals_, heap, threads), order
    key = (
        tuple(rewrite(v) for v in globals_),
        tuple(heap[old][:1] + tuple(rewrite(v) for v in heap[old][1:])
              for old in order),
        tuple((mi, pc, rewrite(locals_), budget)
              for (mi, pc, locals_, budget) in threads),
    )
    return key, order


@COMMON
@given(st.one_of(state_strategy(), st.builds(lambda case: case[1], successor_strategy())))
def test_canonicalize_matches_reference_and_keeps_what_does_not_move(state):
    expected, order = reference_canonicalize(*state)
    got = canonicalize(*state)
    assert _same_content(got, expected)
    # Every globals tuple, node and thread record whose references keep
    # their numbers is the input object itself, not a copy.
    globals_, heap, threads = state
    if _same_content(expected[0], globals_):
        assert got[0] is globals_
    for new, old in enumerate(order):
        if _same_content(expected[1][new], heap[old]):
            assert got[1][new] is heap[old]
    for record, expected_record, got_record in zip(threads, expected[2], got[2]):
        if _same_content(expected_record, record):
            assert got_record is record


def test_canonicalize_shares_the_globals_and_nodes_a_move_leaves_alone():
    # Thread 0 reaches node 1 first, so nodes 0 and 1 swap numbers; the
    # globals, node 0's fields and thread 1 hold no reference.
    heap = ((False, 7), (False, Ref(0)))
    state = ((5, None), heap, ((0, 0, (Ref(1),), 1), (-1, -1, (), 0)))
    got = canonicalize(*state)
    assert got == ((5, None), ((False, Ref(1)), (False, 7)),
                   ((0, 0, (Ref(0),), 1), (-1, -1, (), 0)))
    assert got[0] is state[0]
    assert got[1][1] is heap[0]
    assert got[2][1] is state[2][1]
