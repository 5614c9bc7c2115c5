"""The public-API docstring audit.

Every name exported by the audited modules must resolve to an object
whose docstring opens with a one-line summary. Data exports (strings,
tuples of constants, ...) are exempt — they cannot carry docstrings of
their own.
"""

import importlib

import pytest

#: Mirrors tests/docs/test_doctests.py (test modules are not importable
#: from one another under pytest's rootdir import mode).
AUDITED_MODULES = (
    "repro",
    "repro.engine.service",
    "repro.engine.store",
    "repro.fields",
    "repro.scenarios.spec",
    "repro.simulation",
    "repro.simulation.capacity",
    "repro.simulation.dynamics",
    "repro.simulation.trace",
    "repro.simulation.trajectory",
)

_DATA_TYPES = (str, int, float, bool, tuple, list, dict, frozenset)


def _documented_exports(module_name):
    module = importlib.import_module(module_name)
    for export in module.__all__:
        obj = getattr(module, export)
        if isinstance(obj, _DATA_TYPES) or type(obj).__module__ == "types":
            continue
        yield export, obj


@pytest.mark.parametrize("module_name", AUDITED_MODULES)
def test_every_export_has_a_one_line_summary(module_name):
    undocumented = []
    for export, obj in _documented_exports(module_name):
        doc = getattr(obj, "__doc__", None)
        first_line = doc.strip().splitlines()[0].strip() if doc else ""
        if not first_line:
            undocumented.append(export)
    assert not undocumented, (
        f"{module_name} exports without a one-line docstring summary: "
        f"{undocumented}"
    )


@pytest.mark.parametrize("module_name", AUDITED_MODULES)
def test_module_docstring_exists(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip()
