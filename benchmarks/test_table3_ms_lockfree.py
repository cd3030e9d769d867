"""Table III: automatically checking lock-freedom of the MS queue.

Per (threads, ops) instance: |Delta|, |Delta/~|, the Theorem 5.9
verdict and the wall time.  Paper numbers (on CADP + a 48-core server)
are printed alongside for the rows we share; absolute state counts
differ by encoding, the verdicts and the quotient-much-smaller shape
are the reproduction target.
"""

from repro.objects import get
from repro.util import render_table
from repro.verify import check_lock_freedom_auto

#: Paper's Table III rows: (th, ops) -> (|D|, |D/~|).
PAPER = {
    (2, 3): (49038, 863),
    (2, 4): (304049, 2648),
    (2, 5): (1554292, 6765),
    (2, 6): (7092627, 15820),
    (3, 1): (10845, 220),
    (3, 2): (1496486, 7337),
    (3, 3): (76157266, 74551),
}

ROWS = {
    "small": [(2, 1), (2, 2), (3, 1)],
    "medium": [(2, 1), (2, 2), (2, 3), (3, 1)],
    "large": [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)],
}


def compute_table3(rows, pipeline_stats=None):
    bench = get("ms_queue")
    results = []
    for threads, ops in rows:
        stats = None
        if pipeline_stats is not None:
            stats = pipeline_stats(f"table3/ms_queue {threads}x{ops}")
        result = check_lock_freedom_auto(
            bench.build(threads),
            num_threads=threads, ops_per_thread=ops,
            workload=bench.default_workload(),
            method="tau-cycle",
            stats=stats,
        )
        results.append(result)
    return results


def test_table3(benchmark, bench_scale, bench_out, pipeline_stats):
    rows = ROWS[bench_scale]
    results = benchmark.pedantic(
        compute_table3, args=(rows, pipeline_stats), rounds=1, iterations=1
    )
    table = render_table(
        ["#Th-#Op", "|D_MS|", "|D_MS/~|", "lock-free (Thm 5.9)", "time (s)",
         "paper |D|", "paper |D/~|"],
        [
            [
                f"{r.num_threads}-{r.ops_per_thread}",
                r.impl_states,
                r.quotient_states,
                "Yes" if r.lock_free else "No",
                f"{r.seconds:.2f}",
                PAPER.get((r.num_threads, r.ops_per_thread), ("-", "-"))[0],
                PAPER.get((r.num_threads, r.ops_per_thread), ("-", "-"))[1],
            ]
            for r in results
        ],
        title="Table III -- automatically checking lock-freedom of the MS queue",
    )
    bench_out("table3_ms_lockfree", table)
    assert all(r.lock_free for r in results)
    # Shape: quotient orders of magnitude smaller, growing with bounds.
    for r in results:
        assert r.quotient_states * 5 < r.impl_states
    sizes = [r.impl_states for r in results]
    quotients = [r.quotient_states for r in results]
    # Rows are not in size order (2-3 outgrows 3-1), so compare only
    # bounds that dominate each other in both threads and operations.
    for small in results:
        for large in results:
            if (small is not large and small.num_threads <= large.num_threads
                    and small.ops_per_thread <= large.ops_per_thread):
                assert small.impl_states < large.impl_states
    # Reduction factor increases with instance size (paper Section VI.G).
    factors = [s / q for s, q in zip(sizes, quotients)]
    assert max(factors) == factors[max(range(len(sizes)), key=lambda i: sizes[i])]
