"""Graph utility tests: Tarjan SCC and reachability closures."""

from repro.core.graphs import (
    LazyReachabilityClosure,
    reachability_closure,
    scc_has_cycle,
    tarjan_scc,
)


def succ_fn(adjacency):
    return lambda node: adjacency.get(node, ())


def test_single_node_no_edges():
    comp_of, count = tarjan_scc(1, succ_fn({}))
    assert count == 1
    assert comp_of == [0]


def test_chain_is_one_component_per_node():
    comp_of, count = tarjan_scc(3, succ_fn({0: [1], 1: [2]}))
    assert count == 3
    # Reverse topological numbering: successors get smaller ids.
    assert comp_of[2] < comp_of[1] < comp_of[0]


def test_cycle_collapses():
    comp_of, count = tarjan_scc(3, succ_fn({0: [1], 1: [2], 2: [0]}))
    assert count == 1
    assert comp_of == [0, 0, 0]


def test_two_components_with_bridge():
    adjacency = {0: [1], 1: [0, 2], 2: [3], 3: [2]}
    comp_of, count = tarjan_scc(4, succ_fn(adjacency))
    assert count == 2
    assert comp_of[0] == comp_of[1]
    assert comp_of[2] == comp_of[3]
    assert comp_of[2] < comp_of[0]  # downstream component numbered first


def test_disconnected_nodes():
    comp_of, count = tarjan_scc(4, succ_fn({1: [2]}))
    assert count == 4
    assert len(set(comp_of)) == 4


def test_self_loop_is_singleton_component():
    comp_of, count = tarjan_scc(2, succ_fn({0: [0], 1: []}))
    assert count == 2


def test_scc_has_cycle():
    adjacency = {0: [1], 1: [0], 2: [2], 3: []}
    edges = [(0, 1), (1, 0), (2, 2)]
    comp_of, count = tarjan_scc(4, succ_fn(adjacency))
    cyclic = scc_has_cycle(4, comp_of, count, edges)
    assert cyclic[comp_of[0]] is True or cyclic[comp_of[0]] == True  # 2-cycle
    assert cyclic[comp_of[2]]                                       # self-loop
    assert not cyclic[comp_of[3]]                                   # isolated


def test_reachability_closure_chain():
    closures = reachability_closure(3, [[1], [2], []])
    assert closures[0] == frozenset({0, 1, 2})
    assert closures[1] == frozenset({1, 2})
    assert closures[2] == frozenset({2})


def test_reachability_closure_cycle_shares_sets():
    closures = reachability_closure(3, [[1], [0], []])
    assert closures[0] == closures[1] == frozenset({0, 1})
    assert closures[2] == frozenset({2})


def test_reachability_closure_diamond():
    closures = reachability_closure(4, [[1, 2], [3], [3], []])
    assert closures[0] == frozenset({0, 1, 2, 3})
    assert closures[1] == frozenset({1, 3})


def test_deep_graph_no_recursion_limit():
    # Iterative Tarjan must handle chains far deeper than Python's
    # default recursion limit.
    n = 50_000
    adjacency = {i: [i + 1] for i in range(n - 1)}
    comp_of, count = tarjan_scc(n, succ_fn(adjacency))
    assert count == n


def test_lazy_closure_closes_only_what_is_looked_up():
    successors = [[1], [2], [1, 3], [], [0]]
    lazy = LazyReachabilityClosure(successors)
    assert lazy[2] == frozenset({1, 2, 3})
    # 1 and 2 form an SCC: one shared set, found through 2's closure.
    assert lazy[1] is lazy[2]
    assert lazy[4] == frozenset({0, 1, 2, 3, 4})
    assert lazy._closure[0] is None and lazy._closure[3] is None
    assert lazy[3] == frozenset({3})


def test_lazy_closure_of_a_deep_chain_has_no_recursion_limit():
    n = 50_000
    lazy = LazyReachabilityClosure([[i + 1] for i in range(n - 1)] + [[]])
    assert lazy[0] == frozenset(range(n))
