"""Lazy re-exports for the package facades (PEP 562, Scientific Python SPEC 1).

A facade such as :mod:`repro.core` re-exports names defined in its
modules. Importing every one of those modules up front makes a CLI
process load library code that no verb runs, so each facade names the
module behind every export and :func:`attach` imports it on the name's
first access::

    __getattr__, __dir__, __all__ = attach(__name__, {
        "repro.core.welfare": ("marginal_welfare_criterion", "welfare"),
    })

The names each module gives are the facade's ``__all__``, so
``from package import *`` binds every export (reading each through
``__getattr__``) and ``dir()`` lists them.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Callable, Mapping

__all__ = ["attach"]


def attach(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """The module ``__getattr__``, ``__dir__`` and ``__all__`` of a lazy
    facade.

    ``exports`` maps each defining module to the names the facade
    re-exports from it. A resolved name is bound on the package, so its
    module is imported and looked up once. A name that is no export but
    a submodule (``repro.core.regulation``) imports that submodule, so
    ``import repro`` reaches every subpackage and module as an attribute;
    any other name raises :class:`AttributeError`.
    """
    where = {
        name: module for module, names in exports.items() for name in names
    }
    facade = sys.modules[package]

    def __getattr__(name: str) -> object:
        if name in where:
            value = getattr(importlib.import_module(where[name]), name)
            setattr(facade, name, value)
            return value
        submodule = f"{package}.{name}"
        try:
            return importlib.import_module(submodule)
        except ModuleNotFoundError as exc:
            if exc.name != submodule:
                raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(facade.__dict__.keys() | where.keys())

    class Facade(types.ModuleType):
        def __setattr__(self, name: str, value: object) -> None:
            # Importing a submodule binds it on its package. Where an
            # export shares the submodule's name (the function
            # ``repro.core.welfare``), the name stays the export's.
            if name in where and isinstance(value, types.ModuleType):
                return
            super().__setattr__(name, value)

    facade.__class__ = Facade
    return __getattr__, __dir__, sorted(where)
