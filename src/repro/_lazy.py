"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import every submodule, and everything they import, as soon as anything
under the package is imported.  Instead each package lists its exports
in a table and hands it to :func:`lazy_exports`, which returns the
module-level ``__getattr__`` and ``__dir__`` that import a submodule the
first time one of its names is read::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.des.event": ("Event", "EventState"),
        "repro.des.simulator": ("Simulator", "SimulationError"),
    })

An entry ``"attr as public"`` exports the submodule's ``attr`` under the
name ``public``, as ``from module import attr as public`` would.  Each
package keeps an ``if TYPE_CHECKING:`` block with the equivalent imports,
so type checkers and readers still see the names.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Return ``(__getattr__, __dir__)`` for ``package`` over ``exports``.

    ``exports`` maps a submodule's absolute name to the names it exports.
    A resolved name is stored in the package's globals, so later reads of
    it are plain attribute lookups that never reach ``__getattr__``.
    """
    origins: Dict[str, Tuple[str, str]] = {}
    for module, entries in exports.items():
        for entry in entries:
            attribute, _, public = entry.partition(" as ")
            origins[public or attribute] = (module, attribute)
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            module, attribute = origins[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), attribute)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origins))

    return __getattr__, __dir__
