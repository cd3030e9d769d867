"""Object programs: methods, shared globals, and the initial heap.

An :class:`ObjectProgram` is the modeling-language counterpart of one
of the paper's LNT models: shared global variables, a node heap layout,
and a set of methods that the most-general client will invoke.  The
program is built for a concrete thread count (some algorithms, e.g.
hazard pointers, declare per-thread global slots).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .ops import Op
from .state import Heap, ModelError
from .stmts import Stmt, compile_body
from .values import Ref


class HeapBuilder:
    """Builds the initial heap (e.g. sentinel nodes) of a program."""

    def __init__(self, node_fields: Sequence[str]) -> None:
        self.node_fields = list(node_fields)
        self._nodes: List[Tuple[Any, ...]] = []

    def alloc(self, **fields: Any) -> Ref:
        """Allocate an initial node; unspecified fields default to ``None``."""
        unknown = set(fields) - set(self.node_fields)
        if unknown:
            raise ModelError(f"unknown node fields {sorted(unknown)}")
        node = tuple([False] + [fields.get(name) for name in self.node_fields])
        self._nodes.append(node)
        return Ref(len(self._nodes) - 1)

    def heap(self) -> Heap:
        return tuple(self._nodes)


@dataclass
class Method:
    """One object method.

    ``params`` are bound from the call's arguments; ``locals_`` maps
    the remaining local variables to their initial values.  ``body`` is
    structured statements / instructions; it is compiled on first use.
    """

    name: str
    params: List[str] = field(default_factory=list)
    locals_: Dict[str, Any] = field(default_factory=dict)
    body: Sequence[Union[Op, Stmt]] = field(default_factory=list)

    _ops: Optional[List[Op]] = field(default=None, repr=False, compare=False)
    _local_names: Optional[Tuple[str, ...]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def local_names(self) -> Tuple[str, ...]:
        """The packed layout of the locals, fixed on first use like ``ops``."""
        if self._local_names is None:
            self._local_names = ("_tid", *self.params, *self.locals_)
        return self._local_names

    @property
    def ops(self) -> List[Op]:
        if self._ops is None:
            self._ops = compile_body(self.body)
        return self._ops

    def initial_env(self, tid: int, args: Tuple[Any, ...]) -> Dict[str, Any]:
        """Local environment at method entry."""
        if len(args) != len(self.params):
            raise ModelError(
                f"{self.name} expects {len(self.params)} args, got {len(args)}"
            )
        env: Dict[str, Any] = {"_tid": tid}
        env.update(zip(self.params, args))
        env.update(self.locals_)
        return env

    def pack_env(self, env: Dict[str, Any]) -> Tuple[Any, ...]:
        return tuple([env[name] for name in self.local_names])

    def unpack_env(self, packed: Tuple[Any, ...]) -> Dict[str, Any]:
        return dict(zip(self.local_names, packed))


class ObjectProgram:
    """A concurrent object model: globals + heap layout + methods."""

    def __init__(
        self,
        name: str,
        methods: Sequence[Method],
        globals_: Optional[Dict[str, Any]] = None,
        node_fields: Sequence[str] = (),
        initial_heap: Heap = (),
    ) -> None:
        self.name = name
        self.methods = list(methods)
        self.method_index = {m.name: i for i, m in enumerate(self.methods)}
        if len(self.method_index) != len(self.methods):
            raise ModelError("duplicate method names")
        self.globals_ = dict(globals_ or {})
        self.global_names = list(self.globals_)
        self.global_index = {g: i for i, g in enumerate(self.global_names)}
        self.node_fields = list(node_fields)
        self.field_index = {f: i + 1 for i, f in enumerate(self.node_fields)}
        self.initial_heap = initial_heap

    def initial_globals(self) -> Tuple[Any, ...]:
        return tuple(self.globals_[name] for name in self.global_names)

    def method(self, name: str) -> Method:
        try:
            return self.methods[self.method_index[name]]
        except KeyError:
            raise ModelError(f"unknown method {name!r}") from None

    def __repr__(self) -> str:
        return f"ObjectProgram({self.name!r}, methods={[m.name for m in self.methods]})"
