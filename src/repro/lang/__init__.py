"""Modeling language for concurrent objects (the paper's LNT substitute).

Concurrent data structures are written as :class:`ObjectProgram`\\ s:
shared globals, a node heap, and methods built from atomic instructions
(:mod:`repro.lang.ops`) and structured statements
(:mod:`repro.lang.stmts`).  :func:`explore` composes the program with a
most-general client into the object-system LTS of Definition 2.1;
:func:`spec_lts` does the same for sequential specifications.
"""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "values": [
        "EMPTY",
        "NULL",
        "Ref",
        "Symbol",
        "is_ref",
    ],
    "state": ["ModelError", "canonicalize"],
    "ops": [
        "Alloc",
        "Assume",
        "AtomicBlock",
        "Branch",
        "CasField",
        "CasGlobal",
        "FetchAddGlobal",
        "Free",
        "Jump",
        "LocalAssign",
        "Lock",
        "LockField",
        "Op",
        "ReadField",
        "ReadGlobal",
        "Return",
        "SwapField",
        "Unlock",
        "UnlockField",
        "WriteField",
        "WriteGlobal",
        "evaluate",
    ],
    "stmts": [
        "Break",
        "Continue",
        "Goto",
        "If",
        "Label",
        "Stmt",
        "While",
        "compile_body",
    ],
    "program": ["HeapBuilder", "Method", "ObjectProgram"],
    "checkpoint": [
        "Checkpoint",
        "CheckpointError",
        "CheckpointMismatch",
        "CheckpointSink",
        "load_checkpoint",
        "save_checkpoint",
    ],
    "client": [
        "ClientConfig",
        "DEFAULT_MAX_STATES",
        "ExpansionContext",
        "StateExplosion",
        "StreamingExplorer",
        "explore",
        "uniform_workload",
    ],
    "spec": [
        "SpecObject",
        "atomic_spec",
        "queue_spec",
        "register_spec",
        "set_spec",
        "spec_lts",
        "stack_spec",
    ],
})
