"""Value domain of the modeling language.

Programs manipulate plain Python values (small ints, booleans, ``None``
as the null pointer, and interned symbolic constants such as ``EMPTY``)
plus heap references.  References are a dedicated tuple subtype so that
state canonicalization can find and renumber every pointer embedded in
globals, locals and node fields, and so that a reference can never
collide (in hashing or equality) with an ordinary integer.
"""

from __future__ import annotations

from typing import Any, Optional


class Ref(tuple):
    """A reference to a heap node (by index).

    Implemented as a tagged tuple: cheap to hash, structurally
    comparable, and distinguishable from data integers.
    """

    __slots__ = ()

    def __new__(cls, index: int) -> "Ref":
        if type(index) is int and 0 <= index < _SHARED_REF_COUNT:
            return _SHARED_REFS[index]
        return tuple.__new__(cls, ("ref", index))

    @property
    def index(self) -> int:
        return self[1]

    def __getnewargs__(self):
        # Without this, pickle would rebuild via Ref(("ref", index)) --
        # the tuple-subclass default passes the whole tuple to __new__ --
        # yielding a double-tagged, unequal reference.  Checkpoint
        # serialization (repro.lang.checkpoint) depends on round-tripping.
        return (self[1],)

    def __repr__(self) -> str:
        return f"Ref({self[1]})"


#: One shared reference per small index, built at import: equal
#: references are then one object, which identity tests short-cut.
_SHARED_REF_COUNT = 256
_SHARED_REFS = tuple(tuple.__new__(Ref, ("ref", index)) for index in range(_SHARED_REF_COUNT))

#: The null pointer.
NULL: Optional[Ref] = None


class Symbol(str):
    """An interned symbolic constant (e.g. ``EMPTY``, ``FULL``).

    A subtype of ``str`` so symbols print readably in actions and
    diagnostics while remaining distinguishable from program data ints.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return str(self)


#: Return value for empty-container method calls (queues, stacks).
EMPTY = Symbol("EMPTY")

#: Return value used by set-like objects.
TRUE = True
FALSE = False


def is_ref(value: Any) -> bool:
    """Whether ``value`` is a heap reference."""
    return type(value) is Ref
