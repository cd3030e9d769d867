"""Value domain and state canonicalization tests."""

from repro.lang.values import EMPTY, NULL, Ref, Symbol, is_ref
from repro.lang.state import canonicalize, free_node_indices


def test_ref_is_not_an_int():
    assert Ref(3) != 3
    assert hash(Ref(3)) != hash(3) or Ref(3) != 3  # no value collision
    assert is_ref(Ref(0))
    assert not is_ref(0)
    assert not is_ref(("ref", 0))  # equal to Ref(0) as a tuple, yet no reference


def test_ref_identity():
    assert Ref(2) == Ref(2)
    assert Ref(2) != Ref(3)
    assert Ref(5).index == 5
    assert repr(Ref(5)) == "Ref(5)"


def test_symbols():
    assert EMPTY == "EMPTY"
    assert isinstance(EMPTY, Symbol)
    assert NULL is None


def _idle(budget=1):
    return (-1, -1, (), budget)


def test_canonicalize_renames_in_bfs_order():
    # Heap: node0 <- node1 <- global; canonical order must start from
    # the global root, so node1 becomes 0 and node0 becomes 1.
    heap = ((False, "a", None), (False, "b", Ref(0)))
    globals_ = (Ref(1),)
    g, h, t = canonicalize(globals_, heap, (_idle(),))
    assert g == (Ref(0),)
    assert h[0][1] == "b" and h[0][2] == Ref(1)
    assert h[1][1] == "a"


def test_canonicalize_collects_garbage():
    heap = ((False, "live", None), (False, "leaked", None))
    g, h, t = canonicalize((Ref(0),), heap, (_idle(),))
    assert len(h) == 1
    assert h[0][1] == "live"


def test_canonicalize_keeps_freed_but_referenced():
    heap = ((True, "freed", None),)
    g, h, t = canonicalize((Ref(0),), heap, (_idle(),))
    assert len(h) == 1
    assert h[0][0] is True
    assert free_node_indices(h) == [0]


def test_canonicalize_drops_freed_unreferenced():
    heap = ((True, "freed", None),)
    g, h, t = canonicalize((None,), heap, (_idle(),))
    assert h == ()


def test_canonicalize_rewrites_nested_tuples():
    # Marked-pointer words (ref, flag) and array globals must be traversed.
    heap = ((False, 1, (None, False)), (False, 2, (Ref(0), True)))
    globals_ = ((Ref(1), False),)
    g, h, t = canonicalize(globals_, heap, (_idle(),))
    assert g == ((Ref(0), False),)
    assert h[0][2] == (Ref(1), True)


def test_canonicalize_thread_locals_are_roots():
    heap = ((False, "x", None),)
    threads = ((0, 3, (Ref(0), 7), 1),)
    g, h, t = canonicalize((), heap, threads)
    assert len(h) == 1
    assert t[0][2] == (Ref(0), 7)


def test_canonicalize_identical_modulo_allocation_order():
    # Same logical structure built in two different heap orders must
    # produce identical canonical states (the symmetry reduction).
    heap_a = ((False, "n1", Ref(1)), (False, "n2", None))
    heap_b = ((False, "n2", None), (False, "n1", Ref(0)))
    key_a = canonicalize((Ref(0),), heap_a, (_idle(),))
    key_b = canonicalize((Ref(1),), heap_b, (_idle(),))
    assert key_a == key_b


def test_canonicalize_empty():
    key = canonicalize((), (), (_idle(),))
    assert key == ((), (), (_idle(),))
