"""The frontier end the one monitor-product search pops from.

Over an explored system the frontier is FIFO (breadth-first), so the
product and monitor counts are those of the committed
``benchmarks/out/reachability_smoke_*.txt`` and a witness is a shortest
violating history.  Over the exploration stream it is LIFO
(depth-first), so a shallow bug ends the run after a fraction of the
system is expanded.  Both orders are pinned here by their exact sizes.
"""

import pytest

from repro.lang import ClientConfig, explore
from repro.objects import get
from repro.verify import check_linearizability_reachability, reachability_search


@pytest.mark.parametrize("key,holds,product,monitors,witness", [
    ("hm_list", True, 41465, 236, None),
    ("hw_queue", True, 7412, 432, None),
    ("hm_list_buggy", False, 23908, 235, 6),
])
def test_search_over_an_explored_system_is_breadth_first(
    key, holds, product, monitors, witness
):
    bench = get(key)
    impl = explore(bench.build(2), ClientConfig(2, 2, bench.default_workload()))
    search = reachability_search(impl, bench.spec())
    assert search.holds is holds
    assert (search.product_states, search.monitor_states) == (product, monitors)
    assert search.states_expanded is None and search.states_interned is None
    if witness is not None:
        assert len(search.counterexample) == witness


def test_search_over_the_stream_is_depth_first():
    bench = get("hm_list_buggy")
    result = check_linearizability_reachability(
        bench.build(2), bench.spec(), num_threads=2, ops_per_thread=2,
        workload=bench.default_workload(), on_the_fly=True,
    )
    assert result.linearizable is False
    assert (result.states_expanded, result.impl_states) == (452, 495)
    assert (result.product_states, result.monitor_states) == (496, 40)
    assert len(result.counterexample) == 8
