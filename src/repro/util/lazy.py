"""Lazy package namespaces (PEP 562): a name is imported on first use.

Every ``repro`` package exports its public names through a table from
submodule to names instead of importing its submodules up front, so
``from repro.core import read_aut`` imports ``repro.core.aut`` (and what
that module imports) and nothing else.  A CLI command then compiles only
the modules on its own code path; with no bytecode cache
(``PYTHONDONTWRITEBYTECODE``) compiling is most of its start-up time.

A package ``__init__`` reads::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "lts": ["LTS", "TAU"],
        "aut": ["read_aut", "write_aut"],
    })

A name equal to its submodule's exports the submodule itself.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``table`` maps each submodule (relative to ``package``) to the
    public names it defines, in ``__all__`` order.  A name resolves by
    importing its submodule on first access and is then stored in the
    package namespace, so later lookups never reach ``__getattr__``.
    Any other name raises ``AttributeError``, as for a plain module.
    """
    owner = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        loaded = import_module(f"{package}.{module}")
        value = loaded if name == module else getattr(loaded, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    return list(owner), __getattr__, __dir__
