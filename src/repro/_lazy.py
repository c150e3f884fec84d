"""The one lazy-export rule every package ``__init__`` uses (PEP 562).

A package keeps its ``__all__`` but imports no submodule up front.  It
hands :func:`lazy_exports` a table of submodule -> re-exported names and
binds the two hooks it returns::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "types": ("BlockAddress", "Placement"),
        ...
    })

A name's submodule is imported on first access -- ``pkg.Name``,
``from pkg import Name`` or ``from pkg import *`` -- and the value is
then stored in the package namespace, so later lookups are plain globals.
Importing a package therefore costs its own ``__init__`` only, and a CLI
subcommand pays for the layers it runs, not for the compiler behind them
(DESIGN.md, "Import layering").
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(package: str, table: Mapping[str, Iterable[str]]
                 ) -> "tuple[Callable[[str], object], Callable[[], list]]":
    """``(__getattr__, __dir__)`` resolving ``table``'s names lazily.

    ``table`` maps a submodule path relative to ``package`` (dots allowed,
    e.g. ``"core.stack"``) to the names the package re-exports from it.
    """
    origin = {name: f"{package}.{sub}"
              for sub, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
