"""Splitter-queue partition refinement: the one refinement engine.

Every bisimulation partition in :mod:`repro.core` (strong, branching
and weak, with and without divergence) is computed here, and so is the
language partition of the k-trace DFAs
(:func:`repro.core.traces.language_partition`).  Work is
driven by an explicit queue of *splitters*, so after an initial full
pass only the states whose signatures can actually have changed are
ever touched again.  The independent check is the naive
greatest-fixed-point oracles of :mod:`repro.testing.oracles`, pinned
against this module on the corpus, the Hypothesis generators and the
fuzz harness.

Three per-equivalence front ends share the machinery:

* **Strong bisimulation** -- :func:`strong_splitter`, a
  Paige-Tarjan/Fernandez smaller-half refiner over the frozen CSR edge
  arrays.  The fine partition ``P`` is pre-split by seed block and
  enabled-action set (so it is stable w.r.t. the universe), then each
  coarse compound block ``C`` donates its smaller constituent ``B`` as
  a splitter and every predecessor block is three-way split by
  "edges into ``B`` only / into both ``B`` and ``C - B`` / none into
  ``B``" using maintained ``count(s, a, C)`` tables.  Because a state's
  containing constituent at most halves each time the state is scanned,
  the total work is ``O(m log n)`` dictionary operations.  The same
  core minimises the deterministic subset automata of the k-trace
  hierarchy, on which strong bisimilarity is language equivalence.

* **Branching bisimulation** (plain and divergence-sensitive) --
  :func:`branching_splitter`.  Inert tau-SCCs (w.r.t. the seed
  partition) are contracted once up front, by the contraction that
  :mod:`repro.core.reduce` also runs as its layer 1
  (:func:`repro.core.reduce.condense_silent_sccs`) -- states of one
  silent SCC inside a seed block carry equal signatures forever, and
  afterwards the inert graph is a DAG for the rest of the run, so no
  per-sweep Tarjan pass is needed.  Refinement then runs a dirty-block
  worklist: a dirty block recomputes its members' branching signatures
  bottom-up in inert-DAG order (the Groote-Vaandrager bottom-state
  discipline: bottom states are resolved first and non-bottom states
  inherit the union over their inert successors), splits multi-way on
  distinct signatures, and marks the split parts plus every block with
  a direct transition into the split block dirty.  Divergence marks
  are partition-relative (Definition 5.4), so they are re-derived on
  every recomputation from the statically marked silent-cycle
  components.

* **Weak bisimulation** -- :func:`weak_splitter`, via saturation: plain
  weak bisimilarity is strong bisimilarity on the saturated transition
  relation (weak visible steps plus tau-closure silent steps), so the
  Paige-Tarjan core runs on that edge list.  The explicit-divergence
  variant alternates the strong core with partition-relative divergence
  splits until both are stable.

The splitter loops stay plain Python: a per-splitter NumPy gather
measured slower than the dictionary loop even on the largest registry
systems.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .graphs import divergence_marks
from .lts import TAU_ID, FrozenLTS
from .partition import BlockMap, normalize, num_blocks, partition_from_key
from .reduce import condense_silent_sccs

#: Correctness knobs the fuzz harness mutates to prove it has teeth
#: (see ``repro.testing.differential.MUTATIONS``).  ``_REQUEUE_COMPOUND``
#: re-queues a coarse block that is still compound after its smaller
#: half was carved out; dropping it loses splitters
#: (``splitter-drop-smaller-half``).  ``_DIRTY_PREDECESSORS`` marks the
#: blocks with a transition into a freshly split block dirty; dropping
#: it leaves stale signatures unsplit (``splitter-skip-dirty-preds``).
#: ``_MARK_DIVERGENCE`` puts the divergence mark into the signatures of
#: silent-cycle components; dropping it collapses divergence-sensitive
#: branching bisimilarity into the plain relation
#: (``skip-divergence-mark``).
_REQUEUE_COMPOUND = True
_DIRTY_PREDECESSORS = True
_MARK_DIVERGENCE = True

if TYPE_CHECKING:  # pragma: no cover
    from ..util.budget import RunBudget
    from ..util.metrics import Stats


# ----------------------------------------------------------------------
# Paige-Tarjan / Fernandez smaller-half core (strong bisimulation)
# ----------------------------------------------------------------------

def _pt_refine(
    n: int,
    esrc: Sequence[int],
    eact: Sequence[int],
    edst: Sequence[int],
    initial: Optional[BlockMap] = None,
    budget: Optional["RunBudget"] = None,
    stats: Optional["Stats"] = None,
) -> BlockMap:
    """Coarsest strong-bisimulation-stable refinement of ``initial``.

    ``(esrc[i], eact[i], edst[i])`` are the transitions (labels as
    action ids).  Hopcroft's "process only the smaller half" shortcut
    is unsound for nondeterministic systems -- stability w.r.t. ``B``
    and ``B1 subset B`` does not imply stability w.r.t. ``B - B1`` when
    pre-images overlap -- so this is the full Paige-Tarjan three-way
    split with maintained per-``(state, action, coarse-block)`` counts;
    the smaller-half rule only picks *which* constituent is scanned.
    """
    if n == 0:
        return []
    if budget is not None:
        budget.check("refinement", states=n)
    if initial is not None and len(initial) != n:
        raise ValueError("initial partition has wrong length")
    m = len(esrc)

    # Predecessor adjacency (t -> [(a, s)]) and enabled-action sets.
    pred: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    enabled: List[set] = [set() for _ in range(n)]
    for i in range(m):
        s, a, t = esrc[i], eact[i], edst[i]
        pred[t].append((a, s))
        enabled[s].add(a)

    # Fine partition P, pre-split by (seed block, enabled actions) so
    # every block is stable w.r.t. the universe splitter.
    if initial is None:
        keys = [tuple(sorted(enabled[s])) for s in range(n)]
    else:
        keys = [
            (initial[s],) + tuple(sorted(enabled[s])) for s in range(n)
        ]
    block_of = partition_from_key(keys)
    nb = num_blocks(block_of)
    blocks: List[List[int]] = [[] for _ in range(nb)]
    pos: List[int] = [0] * n  # position of each state in its block list
    for s in range(n):
        pos[s] = len(blocks[block_of[s]])
        blocks[block_of[s]].append(s)

    # count[(s, a, x)]: number of a-edges from s into coarse block x.
    count: Dict[Tuple[int, int, int], int] = {}
    for i in range(m):
        key = (esrc[i], eact[i], 0)
        count[key] = count.get(key, 0) + 1

    # Coarse partition X: one compound block holding all of P.
    xblock_of: List[int] = [0] * nb           # P-block id -> X-block id
    xblocks: List[List[int]] = [list(range(nb))]
    queued: List[bool] = [nb > 1]
    queue: List[int] = [0] if nb > 1 else []
    splitters = 0

    def enqueue(x: int) -> None:
        if not queued[x] and len(xblocks[x]) > 1:
            queued[x] = True
            queue.append(x)

    while queue:
        xc = queue.pop()
        queued[xc] = False
        parts = xblocks[xc]
        if len(parts) < 2:
            continue
        splitters += 1
        if budget is not None:
            budget.check(
                "refinement", states=n, blocks=len(blocks),
                splitters=splitters,
            )

        # Carve the smaller of the first two constituents out as B.
        b_id = parts[0]
        if len(blocks[parts[1]]) < len(blocks[b_id]):
            b_id = parts[1]
        parts.remove(b_id)
        xb = len(xblocks)
        xblocks.append([b_id])
        queued.append(False)
        xblock_of[b_id] = xb

        # count(s, a, B) over the predecessors of B's states.
        members = blocks[b_id]
        count_b: Dict[Tuple[int, int], int] = {}
        for t in members:
            for a, s in pred[t]:
                key = (s, a)
                count_b[key] = count_b.get(key, 0) + 1

        # Update the count tables and classify every touched (s, a):
        # does s step into B only, or into both B and C - B?
        movers: Dict[int, List[Tuple[int, bool]]] = {}
        for (s, a), cb in count_b.items():
            old = count[(s, a, xc)]
            count[(s, a, xb)] = cb
            if old == cb:
                del count[(s, a, xc)]
            else:
                count[(s, a, xc)] = old - cb
            movers.setdefault(a, []).append((s, old == cb))

        for a, entries in movers.items():
            touched: Dict[int, Tuple[List[int], List[int]]] = {}
            for s, only_b in entries:
                d = block_of[s]
                bucket = touched.get(d)
                if bucket is None:
                    bucket = ([], [])
                    touched[d] = bucket
                bucket[0 if only_b else 1].append(s)
            for d, (grp_only, grp_both) in touched.items():
                # Three-way split of block d; whatever remains (states
                # with no a-edge into B) keeps the block id.
                for grp in (grp_only, grp_both):
                    dlist = blocks[d]
                    if not grp or len(grp) == len(dlist):
                        continue
                    nid = len(blocks)
                    newlist: List[int] = []
                    for s in grp:
                        p = pos[s]
                        last = dlist[-1]
                        dlist[p] = last
                        pos[last] = p
                        dlist.pop()
                        pos[s] = len(newlist)
                        newlist.append(s)
                        block_of[s] = nid
                    blocks.append(newlist)
                    xd = xblock_of[d]
                    xblock_of.append(xd)
                    xblocks[xd].append(nid)
                    enqueue(xd)

        if _REQUEUE_COMPOUND:
            enqueue(xc)
        # xb was simple when created but B itself may have split above.
        enqueue(xb)

    if stats is not None:
        stats.count("states", n)
        stats.count("splitters", splitters)
        stats.count("splits", len(blocks) - nb)
    return normalize(block_of)


# ----------------------------------------------------------------------
# strong bisimulation front end
# ----------------------------------------------------------------------

def strong_splitter(
    frozen: FrozenLTS,
    initial: Optional[BlockMap] = None,
    budget: Optional["RunBudget"] = None,
    stats: Optional["Stats"] = None,
) -> BlockMap:
    """Strong-bisimilarity partition via the Paige-Tarjan core."""
    esrc, eact, edst = frozen.edge_arrays()
    return _pt_refine(
        frozen.num_states, esrc, eact, edst,
        initial=initial, budget=budget, stats=stats,
    )


# ----------------------------------------------------------------------
# branching bisimulation: tau-SCC condensation + dirty-block worklist
# ----------------------------------------------------------------------

#: Divergence marker inside splitter signatures (distinct from every
#: genuine ``a * stride + block`` code; actions and blocks are >= 0).
_DIV = -1


def branching_splitter(
    frozen: FrozenLTS,
    divergence: bool = False,
    initial: Optional[BlockMap] = None,
    budget: Optional["RunBudget"] = None,
    stats: Optional["Stats"] = None,
) -> BlockMap:
    """(Divergence-sensitive) branching-bisimilarity partition.

    Contract inert tau-SCCs w.r.t. the seed once, then refine with a
    dirty-block worklist over the condensation (module docstring).  The
    contraction is sound even under a seed: two states of one silent
    SCC *inside a seed block* receive equal signatures w.r.t. every
    partition the refinement can reach, so no run ever separates them.
    """
    n = frozen.num_states
    if n == 0:
        return []
    if budget is not None:
        budget.check("refinement", states=n)
    seed = normalize(initial) if initial is not None else [0] * n
    if len(seed) != n:
        raise ValueError("initial partition has wrong length")

    # --- contract inert tau-SCCs w.r.t. the seed partition ------------
    # A component is marked iff it holds a silent cycle.  Marked
    # components stay divergent under every later partition: the cycle
    # lives inside the component, which is never split, so it is always
    # inside the component's block.
    comp_a, C, marked_a, codes_a = condense_silent_sccs(frozen, seed)
    comp_of = comp_a.tolist()
    marked = marked_a.tolist()
    codes = codes_a.tolist()

    # --- condensed, deduplicated edges --------------------------------
    # out[c]: direct steps (a, cdst).  tau_out[c]: condensed silent
    # steps that can still become inert (same seed block -- blocks only
    # ever refine the seed, so a cross-seed tau can never be inert).
    # pred_comps[c]: components with a direct step into c (for dirty
    # propagation).  Tarjan numbers successors first, so iterating a
    # block's members in increasing component id resolves the inert DAG
    # bottom-up.
    AC = len(frozen.action_labels) * C
    seed_of_comp = [0] * C
    for state in range(n):
        seed_of_comp[comp_of[state]] = seed[state]
    out: List[List[Tuple[int, int]]] = [[] for _ in range(C)]
    tau_out: List[List[int]] = [[] for _ in range(C)]
    pred_comps: List[List[int]] = [[] for _ in range(C)]
    for code in codes:
        csrc, rem = divmod(code, AC)
        a, cdst = divmod(rem, C)
        out[csrc].append((a, cdst))
        if a == TAU_ID and seed_of_comp[csrc] == seed_of_comp[cdst]:
            tau_out[csrc].append(cdst)
        if csrc != cdst:
            pred_comps[cdst].append(csrc)

    # --- dirty-block worklist over the condensation -------------------
    block_of: List[int] = [0] * C
    nb0 = num_blocks(seed)
    blocks: List[List[int]] = [[] for _ in range(nb0)]
    for c in range(C):  # ascending component id: members stay sorted
        block_of[c] = seed_of_comp[c]
        blocks[seed_of_comp[c]].append(c)
    dirty: List[bool] = [True] * nb0
    queue = deque(range(nb0))
    processed = 0

    while queue:
        d = queue.popleft()
        dirty[d] = False
        members = blocks[d]
        if len(members) < 2:
            continue
        processed += 1
        if budget is not None:
            budget.check(
                "refinement", states=n, blocks=len(blocks),
                processed=processed,
            )

        # Bottom-up branching signatures w.r.t. the current partition.
        # Members are sorted ascending and Tarjan numbers successors
        # first, so an inert successor inside d is always computed
        # before its predecessors (bottom states resolve first).
        # Signature elements are coded ``a * stride + block`` (the
        # divergence mark is ``-1``); ``stride`` bounds every block id
        # alive while this block is scanned, so codes are injective.
        stride = len(blocks)
        sig: Dict[int, set] = {}
        for c in members:
            acc = set()
            for a, cdst in out[c]:
                bdst = block_of[cdst]
                if a == TAU_ID and bdst == d:
                    continue  # inert: skipped here, folded in below
                acc.add(a * stride + bdst)
            if divergence and marked[c] and _MARK_DIVERGENCE:
                acc.add(_DIV)
            for cdst in tau_out[c]:
                if block_of[cdst] == d:
                    acc |= sig[cdst]
            sig[c] = acc

        groups: Dict[frozenset, List[int]] = {}
        for c in members:
            groups.setdefault(frozenset(sig[c]), []).append(c)
        if len(groups) == 1:
            continue

        # Multi-way split: the largest group keeps id d, the rest get
        # fresh ids.  Every part is dirty (in-block inertness changed),
        # and so is every block with a direct step into old d.
        parts = sorted(groups.values(), key=len, reverse=True)
        old_members = members
        blocks[d] = parts[0]
        new_ids = [d]
        for grp in parts[1:]:
            nid = len(blocks)
            blocks.append(grp)
            for c in grp:
                block_of[c] = nid
            dirty.append(False)
            new_ids.append(nid)
        affected = set(new_ids)
        if _DIRTY_PREDECESSORS:
            for c in old_members:
                for p in pred_comps[c]:
                    affected.add(block_of[p])
        for b in affected:
            if not dirty[b]:
                dirty[b] = True
                queue.append(b)

    if stats is not None:
        stats.count("states", n)
        stats.count("processed", processed)
        stats.count("splits", len(blocks) - nb0)
    return normalize([block_of[comp_of[s]] for s in range(n)])


# ----------------------------------------------------------------------
# weak bisimulation: saturation + Paige-Tarjan (+ divergence splits)
# ----------------------------------------------------------------------

def weak_splitter(
    frozen: FrozenLTS,
    divergence: bool = False,
    initial: Optional[BlockMap] = None,
    budget: Optional["RunBudget"] = None,
    stats: Optional["Stats"] = None,
) -> BlockMap:
    """(Explicit-divergence) weak-bisimilarity partition via saturation.

    Plain weak bisimilarity on ``frozen`` is strong bisimilarity on the
    saturated relation (weak visible steps plus tau-closure silent
    steps), so the strong core computes the weak fixpoint.  For
    the explicit-divergence variant the partition-relative divergence
    marks (Definition 5.4) cannot be folded into a static edge set, so
    the core and mark-based splitting alternate until both are stable.
    """
    from .weak import _weak_step_sets, tau_closures

    n = frozen.num_states
    if n == 0:
        return []
    if budget is not None:
        budget.check("refinement", states=n)

    closures = tau_closures(frozen)
    weak_steps = _weak_step_sets(frozen, closures)
    esrc: List[int] = []
    eact: List[int] = []
    edst: List[int] = []
    for s in range(n):
        for a, t in weak_steps[s]:
            esrc.append(s)
            eact.append(a)
            edst.append(t)
        for u in closures[s]:  # includes s itself
            esrc.append(s)
            eact.append(TAU_ID)
            edst.append(u)

    block_of = _pt_refine(
        n, esrc, eact, edst, initial=initial, budget=budget, stats=stats,
    )
    if not divergence:
        return block_of
    tau_succ = frozen.tau_adjacency()
    while True:
        marks = divergence_marks(tau_succ, block_of)
        refined = partition_from_key(list(zip(block_of, marks)))
        if num_blocks(refined) == num_blocks(block_of):
            return block_of
        block_of = _pt_refine(
            n, esrc, eact, edst, initial=refined, budget=budget, stats=stats,
        )
