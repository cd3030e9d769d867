"""Unit tests for the LTS container (Definition 2.1 infrastructure)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    LTS,
    LTSBuilder,
    TAU,
    TAU_ID,
    FrozenLTS,
    disjoint_union,
    ensure_frozen,
    make_lts,
    to_dot,
)
from repro.core.aut import dumps_aut


def test_tau_is_action_zero():
    lts = LTS()
    assert lts.action_labels[TAU_ID] is TAU
    assert lts.action_id(TAU) == TAU_ID


def test_action_interning_is_stable():
    lts = LTS()
    a = lts.action_id(("call", 1, "push", 5))
    b = lts.action_id(("call", 1, "push", 5))
    c = lts.action_id(("call", 2, "push", 5))
    assert a == b
    assert a != c
    assert lts.lookup_action(("call", 1, "push", 5)) == a
    assert lts.lookup_action(("never", "used")) is None


def test_add_transition_grows_state_space():
    lts = LTS()
    lts.add_transition(0, "a", 4)
    assert lts.num_states == 5
    assert lts.num_transitions == 1


def test_add_transition_always_interns_labels():
    # An int label is a *label*, never an action id -- the old ambiguity
    # collided with int-valued labels parsed back from .aut files.
    lts = LTS()
    aid = lts.action_id("a")
    lts.add_transition(0, aid, 1)
    assert lts.action_labels[next(lts.transitions())[1]] == aid
    assert lts.lookup_action(aid) is not None


def test_add_transition_by_id():
    lts = LTS()
    aid = lts.action_id("a")
    lts.add_transition_by_id(0, aid, 1)
    assert [(s, a, d) for s, a, d in lts.transitions()] == [(0, aid, 1)]
    with pytest.raises(ValueError):
        lts.add_transition_by_id(0, 99, 1)
    with pytest.raises(ValueError):
        lts.add_transition_by_id(0, -1, 1)


def test_successors_and_tau_successors():
    lts = make_lts(3, 0, [(0, "a", 1), (0, "tau", 2), (1, "b", 2)])
    a = lts.lookup_action("a")
    b = lts.lookup_action("b")
    assert lts.successors(0) == [(TAU_ID, 2), (a, 1)]
    assert lts.successors(1) == [(b, 2)]
    assert lts.successors(2) == []
    assert lts.tau_successors(0) == [2]
    assert lts.tau_successors(1) == []


def test_has_transition():
    lts = make_lts(2, 0, [(0, "a", 1)])
    a = lts.lookup_action("a")
    assert (a, 1) in lts.successors(0)
    assert (a, 0) not in lts.successors(1)


def test_reachable_states_bfs_order():
    lts = make_lts(4, 0, [(0, "a", 1), (1, "b", 2), (3, "c", 0)])
    assert lts.reachable_states() == [0, 1, 2]


def test_relabel_and_copy():
    lts = make_lts(2, 0, [(0, "a", 1), (0, "tau", 1)])
    doubled = lts.relabel(lambda label: label if label == TAU else (label, label))
    assert isinstance(doubled, FrozenLTS)
    assert doubled.lookup_action(("a", "a")) is not None
    assert doubled.successors(0) == [(TAU_ID, 1), (doubled.lookup_action(("a", "a")), 1)]
    copy = lts.thaw()
    assert isinstance(copy, LTS)
    assert copy.num_states == lts.num_states
    assert list(copy.transitions()) == list(lts.transitions())


def test_annotations_survive():
    lts = LTS()
    lts.add_transition(0, TAU, 1, annotation="t1.L28")
    assert list(lts.transitions_with_annotations())[0][3] == "t1.L28"
    assert list(lts.freeze().transitions_with_annotations()) == [
        (0, TAU_ID, 1, "t1.L28")
    ]


def test_builder_answers_no_graph_queries():
    # One query surface: a builder only appends, reads rows and freezes.
    for name in (
        "successors", "predecessors", "tau_successors", "visible_successors",
        "enabled_actions", "has_transition", "reachable_states",
        "restrict_reachable", "relabel", "copy", "thaw", "annotation",
    ):
        assert not hasattr(LTS, name), name
    for name in (
        "predecessors", "has_transition", "enabled_actions",
        "visible_successors", "successors_by_action", "successor_slice",
        "edge_annotations", "restrict_reachable", "copy",
    ):
        assert not hasattr(FrozenLTS, name), name


def test_disjoint_union_offsets():
    a = make_lts(2, 1, [(1, "x", 0)])
    b = make_lts(3, 2, [(2, "x", 0), (0, "tau", 1)])
    union, init_a, init_b = disjoint_union(a, b)
    assert union.num_states == 5
    assert init_a == 1
    assert init_b == 4
    assert union.init == init_a
    assert union.num_transitions == 3


def test_builder_interns_rich_keys():
    builder = LTSBuilder()
    builder.set_init(("heap", (1, 2)))
    src, src_is_new = builder.intern(("heap", (1, 2)))
    assert (src, src_is_new) == (builder.lts.init, False)
    dst, is_new = builder.intern(("heap", (2, 3)))
    assert is_new
    dst2, is_new2 = builder.intern(("heap", (2, 3)))
    assert not is_new2
    assert dst == dst2 == 1
    assert builder.known(("heap", (1, 2)))
    assert not builder.known(("heap", ()))
    assert builder.lts.num_states == 2
    assert builder.state_keys == [("heap", (1, 2)), ("heap", (2, 3))]


def test_builder_keeps_bool_int_twins_apart():
    # ("g", False) == ("g", 0), but the two are different states.
    builder = LTSBuilder()
    assert builder.intern(("g", (False,))) == (0, True)
    assert builder.intern(("g", (0,))) == (1, True)
    assert builder.intern(("g", (0.0,))) == (2, True)
    assert builder.intern(("g", (0,))) == (1, False)
    assert builder.intern(("g", (False,))) == (0, False)
    assert builder.known(("g", (0.0,)))
    assert not builder.known(("g", (0j,)))
    assert [type(key[1][0]) for key in builder.state_keys] == [bool, int, float]


def test_add_edges_matches_one_intern_and_add_per_edge():
    # Repeated, new and twin destinations, repeated and new labels.
    batches = [
        (0, [("a", ("g", (False,)), "t1.L1"), (TAU, ("g", (1,)), None)]),
        (1, [("a", ("g", (0,)), None), (TAU, ("g", (1,)), "t2.L3"),
             (("ret", 1), ("g", (False,)), None), ("b", ("g", (0.0,)), None)]),
        (2, []),
        (3, [(TAU, ("g", (0,)), None), ("a", ("h", ()), "t1.L2")]),
    ]
    bulk, reference = LTSBuilder(), LTSBuilder()
    for builder in (bulk, reference):
        builder.set_init(("g", (None,)))
    returned, pushed = [], []
    for src, edges in batches:
        known = bulk.lts.num_states
        returned.append(bulk.add_edges(src, edges))
        pushed.append(list(range(known, bulk.lts.num_states)))
        for label, key, annotation in edges:
            dst, _is_new = reference.intern(key)
            reference.lts.add_transition(src, label, dst, annotation)
    assert returned == [[1, 2], [3, 2, 1, 4], [], [3, 5]]
    # New states take the next ids, in the order they are first seen.
    assert pushed == [[1, 2], [3, 4], [], [5]]
    assert bulk.state_keys == reference.state_keys
    assert [type(key[1][0]) for key in bulk.state_keys[:5]] == [
        type(None), bool, int, int, float,
    ]
    assert bulk.lts.num_states == reference.lts.num_states == 6
    assert bulk.lts.action_labels == reference.lts.action_labels
    assert list(bulk.lts.transitions_with_annotations()) == list(
        reference.lts.transitions_with_annotations()
    )


def test_add_edges_accepts_a_revisit_of_the_stored_objects_by_identity(monkeypatch):
    import repro.core.lts as lts_module

    compared = []

    def counting(a, b):
        compared.append((a, b))
        return same_content(a, b)

    same_content = lts_module._same_content
    monkeypatch.setattr(lts_module, "_same_content", counting)

    def fresh(*parts):
        # A new tuple object, never a folded constant.
        return tuple(list(parts))

    # Pair keys, as a specification's explorer builds them, and 3-part
    # keys (globals, heap, thread records) of an object system.
    abstract, records = fresh("q", 1), fresh(fresh(0, None), fresh(1, "x"))
    globals_, heap = fresh(0, False), fresh(fresh(False, 2))
    pair = fresh(abstract, records)
    triple = fresh(globals_, heap, records)
    builder = LTSBuilder()
    builder.set_init(fresh("init"))
    assert builder.add_edges(0, [("a", pair, None), ("b", triple, None)]) == [1, 2]
    # Fresh keys and a fresh records tuple, made of the stored objects:
    # accepted by identity, even where both parts of a pair are.
    revisits = [
        ("a", fresh(abstract, records), None),
        ("b", fresh(globals_, heap, fresh(*records)), None),
        ("c", fresh(abstract, fresh(*records)), None),
    ]
    assert builder.add_edges(1, revisits) == [1, 2, 1]
    assert compared == []
    # A part that differs by object is compared, and a twin interned.
    equal_heap = fresh(fresh(False, 2))
    twin_globals = fresh(0, 0)
    assert builder.add_edges(2, [
        ("d", fresh(globals_, equal_heap, records), None),
        ("e", fresh(twin_globals, heap, records), None),
    ]) == [2, 3]
    assert len(compared) >= 2
    assert builder.state_keys[3][0] is twin_globals


def test_to_dot_renders_and_caps():
    lts = make_lts(2, 0, [(0, "a", 1), (0, "tau", 1)])
    dot = to_dot(lts)
    assert "digraph" in dot
    assert "tau" in dot
    big = LTS()
    big.add_states(3000)
    with pytest.raises(ValueError):
        to_dot(big)


def test_empty_lts_reachability():
    lts = LTS().freeze()
    assert lts.reachable_states() == []
    assert lts.num_states == 0


# ----------------------------------------------------------------------
# FrozenLTS: CSR layout, dedup, membership, annotations
# ----------------------------------------------------------------------

def test_freeze_sorts_and_answers_same_queries():
    lts = LTS()
    for src, label, dst in [
        (1, "b", 2), (0, "a", 1), (0, TAU, 2), (0, "a", 3), (3, TAU, 0),
    ]:
        lts.add_transition(src, label, dst)
    frozen = lts.freeze()
    assert isinstance(frozen, FrozenLTS)
    triples = list(frozen.transitions())
    assert triples == sorted(lts.transitions())
    a = frozen.lookup_action("a")
    assert frozen.successors(0) == [(TAU_ID, 2), (a, 1), (a, 3)]
    assert frozen.tau_successors(0) == [2]
    assert frozen.tau_successors(3) == [0]
    # Slices are (action, dst)-sorted, so the BFS visits 2 before 1.
    assert frozen.reachable_states() == [0, 2, 1, 3]


def test_freeze_dedupes_duplicate_transitions():
    lts = LTS()
    for label in ("a", "a", "a", TAU):
        lts.add_transition(0, label, 1)
    frozen = lts.freeze()
    assert lts.num_transitions == 4
    assert frozen.num_transitions == 2
    assert frozen.successors(0) == [(TAU_ID, 1), (frozen.action_id("a"), 1)]
    assert frozen.successors(1) == []
    assert make_lts(2, 0, [(0, "a", 1), (0, "a", 1)]).num_transitions == 1


def test_freeze_merges_distinct_annotations():
    lts = LTS()
    lts.add_transition(0, TAU, 1, annotation="t1.L8")
    lts.add_transition(0, TAU, 1, annotation="t2.L8")
    lts.add_transition(0, TAU, 1, annotation="t1.L8")
    lts.add_transition(0, "a", 1)
    frozen = lts.freeze()
    assert frozen.num_transitions == 2
    rows = list(frozen.transitions_with_annotations())
    tau_rows = [row for row in rows if row[1] == TAU_ID]
    assert [ann for _, _, _, ann in tau_rows] == ["t1.L8", "t2.L8"]


def test_frozen_is_immutable_and_copy_is_identity():
    frozen = make_lts(2, 0, [(0, "a", 1)])
    assert isinstance(frozen, FrozenLTS)
    assert frozen.freeze() is frozen
    assert ensure_frozen(frozen) is frozen
    assert not hasattr(frozen, "add_transition")
    with pytest.raises(ValueError):
        frozen.action_id("never-interned")


def test_thaw_round_trip():
    lts = make_lts(3, 1, [(0, "a", 1), (1, "tau", 2)])
    thawed = lts.freeze().thaw()
    assert isinstance(thawed, LTS)
    thawed.add_transition(2, "new-label", 0)
    assert thawed.num_transitions == 3
    assert thawed.init == 1
    assert sorted(thawed.transitions()) == sorted(
        list(lts.transitions()) + [(2, thawed.action_id("new-label"), 0)]
    )


def test_to_dot_escapes_backslashes_and_newlines():
    lts = make_lts(2, 0, [(0, 'quo"te', 1), (0, "back\\slash", 1), (0, "new\nline", 1)])
    dot = to_dot(lts)
    assert '\\"' in dot            # quotes escaped, not rewritten to "'"
    assert "\\\\slash" in dot      # backslash doubled
    assert "new\\nline" in dot     # newline becomes the two chars \n
    for line in dot.splitlines():
        assert "\n" not in line.replace("\\n", "")


@pytest.mark.parametrize("mutation", [
    "add_transition", "add_transition_new_state", "add_transition_by_id",
    "add_transitions_by_id", "add_state", "add_states",
])
def test_every_mutation_shows_in_the_next_query(mutation):
    # The builder answers no queries and caches nothing: the next
    # freeze() shows every mutation, also an edge that joins states
    # that already exist (no growth of the state count).
    lts = LTS()
    lts.add_transition(0, "a", 1)
    lts.add_states(1)
    a = lts.lookup_action("a")
    before = lts.freeze()
    assert before.num_states == 3
    assert before.successors(1) == []
    if mutation == "add_transition":
        lts.add_transition(1, "a", 0)
        edge = (1, a, 0)
    elif mutation == "add_transition_new_state":
        lts.add_transition(2, "b", 3)
        edge = (2, lts.lookup_action("b"), 3)
    elif mutation == "add_transition_by_id":
        lts.add_transition_by_id(1, a, 2)
        edge = (1, a, 2)
    elif mutation == "add_transitions_by_id":
        lts.add_transitions_by_id([1], [a], [2])
        edge = (1, a, 2)
    else:
        if mutation == "add_state":
            assert lts.add_state() == 3
        else:
            lts.add_states(2)
        after = lts.freeze()
        assert after.num_states == lts.num_states > before.num_states
        assert after.successors(after.num_states - 1) == []
        assert after.reachable_states() == [0, 1]
        return
    src, aid, dst = edge
    after = lts.freeze()
    assert after.num_states == max(3, dst + 1)
    assert after.successors(src) == [(aid, dst)]
    assert (aid, dst) not in before.successors(src)
    assert list(after.transitions()) == [(0, a, 1), edge]


# ----------------------------------------------------------------------
# bulk columns: add_transitions_by_id and the column-copying union
# ----------------------------------------------------------------------

def test_add_transitions_by_id_appends_columns():
    lts = LTS()
    a = lts.action_id("a")
    lts.add_transition(0, "a", 1, annotation="first")
    lts.add_transitions_by_id([1, 2], [TAU_ID, a], [2, 4], ["t1", None])
    assert lts.num_states == 5
    assert list(lts.transitions_with_annotations()) == [
        (0, a, 1, "first"), (1, TAU_ID, 2, "t1"), (2, a, 4, None),
    ]
    lts.add_transitions_by_id([4], [a], [0])
    assert list(lts.transitions_with_annotations())[3] == (4, a, 0, None)
    lts.add_transitions_by_id([], [], [])
    assert lts.num_transitions == 4


@pytest.mark.parametrize("columns", [
    ([0], [99], [1], None),
    ([0], [-1], [1], None),
    ([0, 1], [0], [1, 0], None),
    ([0], [0], [1], [None, None]),
])
def test_add_transitions_by_id_rejects_bad_columns(columns):
    lts = LTS()
    lts.add_transition(0, "a", 1)
    with pytest.raises(ValueError):
        lts.add_transitions_by_id(*columns)
    assert lts.num_transitions == 1


def _per_edge_union(a, b):
    """Reference: the union built by re-adding every row, one by one."""
    out = LTS()
    out.add_states(a.num_states + b.num_states)
    offset = a.num_states
    for src, aid, dst, ann in a.transitions_with_annotations():
        out.add_transition(src, a.action_labels[aid], dst, ann)
    for src, aid, dst, ann in b.transitions_with_annotations():
        out.add_transition(src + offset, b.action_labels[aid], dst + offset, ann)
    out.init = a.init
    return out.freeze(), a.init, b.init + offset


def _assert_union_matches_reference(a, b):
    union, init_a, init_b = disjoint_union(a, b)
    expected, expected_a, expected_b = _per_edge_union(a, b)
    assert (init_a, init_b, union.init) == (expected_a, expected_b, expected.init)
    assert union.num_states == expected.num_states
    assert [(type(label), label) for label in union.action_labels] == [
        (type(label), label) for label in expected.action_labels
    ]
    assert dumps_aut(union) == dumps_aut(expected)
    assert list(union.transitions_with_annotations()) == list(
        expected.transitions_with_annotations()
    )


def _ghost_label_system():
    lts = LTS()
    lts.action_id("ghost")  # interned, used by no edge
    lts.add_transition(0, "y", 1)
    lts.add_transition(1, TAU, 0)
    return lts


def _merged_annotation_system():
    from repro.lang import ClientConfig, explore
    from repro.objects import get

    bench = get("hw_queue")
    system = explore(bench.build(2), ClientConfig(2, 1, bench.default_workload()))
    rows = [row[:3] for row in system.transitions_with_annotations()]
    assert len(rows) > len(set(rows)), "the fixture lost its merged duplicate edge"
    return system


@pytest.mark.parametrize("case", [
    "second-only-label", "shared-labels-other-order", "unused-interned-label",
    "merged-annotations", "merged-annotations-second", "frozen-and-builder",
])
def test_disjoint_union_matches_the_per_edge_union(case):
    if case == "second-only-label":
        a = make_lts(2, 0, [(0, "x", 1)])
        b = make_lts(2, 1, [(0, "y", 1), (1, "x", 0)])
    elif case == "shared-labels-other-order":
        a = make_lts(2, 0, [(0, "p", 1), (1, "q", 0)])
        b = make_lts(3, 0, [(0, "q", 1), (1, "p", 2), (2, "tau", 2)])
    elif case == "unused-interned-label":
        a = _ghost_label_system()
        b = make_lts(2, 0, [(0, "ghost", 1), (1, "y", 0)])
    elif case == "merged-annotations":
        a = _merged_annotation_system()
        b = a
    elif case == "merged-annotations-second":
        a = make_lts(2, 0, [(0, "z", 1)])
        b = _merged_annotation_system()
    else:
        a = make_lts(3, 2, [(2, "b", 0), (0, "a", 1), (0, "a", 1)]).freeze()
        b = _ghost_label_system()
    _assert_union_matches_reference(a, b)
    _assert_union_matches_reference(b, a)


_LABELS = st.sampled_from(["tau", "a", "b", "c", 1, True, ("call", 1, "m")])


@st.composite
def _annotated_systems(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    lts = LTS()
    lts.add_states(n)
    lts.init = draw(st.integers(0, n - 1))
    for label in draw(st.lists(_LABELS, max_size=3)):
        lts.action_id(TAU if label == "tau" else label)
    for src, label, dst, ann in draw(st.lists(st.tuples(
        st.integers(0, n - 1), _LABELS, st.integers(0, n - 1),
        st.sampled_from([None, None, "t1", "t2"]),
    ), max_size=10)):
        lts.add_transition(src, TAU if label == "tau" else label, dst, ann)
    return lts.freeze() if draw(st.booleans()) else lts


@given(_annotated_systems(), _annotated_systems())
def test_disjoint_union_matches_the_per_edge_union_on_random_systems(a, b):
    _assert_union_matches_reference(a, b)


@given(_annotated_systems())
def test_successors_match_a_scan_of_the_edges(lts):
    frozen = lts.freeze()
    for state in range(frozen.num_states):
        assert frozen.successors(state) == sorted(
            {(aid, dst) for src, aid, dst in lts.transitions() if src == state}
        )
        assert frozen.tau_successors(state) == [
            dst for aid, dst in frozen.successors(state) if aid == TAU_ID
        ]
