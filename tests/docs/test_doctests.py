"""Doctest collection for the audited public-API modules.

The docstring audit promises that the examples in the public modules are
*runnable*; this wires them into pytest so a drifting example fails the
tier-1 suite, not just the docs build.
"""

import doctest
import importlib

import pytest

#: The audited modules: every one must carry at least one doctest.
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


@pytest.mark.parametrize("module_name", AUDITED_MODULES)
def test_module_doctests_run_and_pass(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, (
        f"{module_name} carries no doctest examples; the docstring audit "
        "requires runnable examples"
    )
    assert results.failed == 0, (
        f"{module_name}: {results.failed} of {results.attempted} doctest "
        "example(s) failed"
    )
