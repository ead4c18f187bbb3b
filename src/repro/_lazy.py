"""Lazy re-exports for the package ``__init__``s and :mod:`repro.api`.

A package lists the names it re-exports and the module that defines
each one; :func:`lazy_exports` turns that table into the module's
PEP 562 ``__getattr__`` and ``__dir__``. A name's module is imported
the first time the name is read, and the value is then stored in the
package's namespace, so later reads are plain attribute lookups.
Importing ``repro.x`` therefore loads only ``repro.x`` and what it
imports itself, not every module the package re-exports from.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    module: str, table: Dict[str, Tuple[str, ...]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``module``'s re-exported names.

    ``table`` maps a source module, relative to ``module``'s package
    (``".store"``, ``"..gpusim.flatcore"``), to the names taken from it.
    """
    namespace = sys.modules[module].__dict__
    anchor = namespace["__package__"]
    source_of = {
        name: source for source, names in table.items() for name in names
    }

    def __getattr__(name: str) -> object:
        try:
            source = source_of[name]
        except KeyError:
            raise AttributeError(
                f"module {module!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(source, anchor), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(source_of))

    return __getattr__, __dir__
