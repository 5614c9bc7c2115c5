"""The lazy package facades keep the eager facades' surface.

``repro`` and its ``core``, ``network``, ``solvers`` and ``analysis``
packages import the module behind a re-export on the name's first
access. Every ``__all__`` name must still resolve, ``from package import
*`` must bind each of them, ``dir()`` must list them, and a name the
package does not have must raise :class:`AttributeError`.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

FACADES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.network",
    "repro.solvers",
]


@pytest.fixture(params=FACADES)
def facade(request):
    return importlib.import_module(request.param)


def test_every_export_resolves(facade):
    for name in facade.__all__:
        value = getattr(facade, name)
        if name != "__version__":
            assert value.__name__ == name, name


def test_star_import_binds_every_export(facade):
    namespace = {}
    exec(f"from {facade.__name__} import *", namespace)
    for name in facade.__all__:
        assert namespace[name] is getattr(facade, name), name


def test_dir_lists_every_export(facade):
    assert set(facade.__all__) <= set(dir(facade))


def test_an_unknown_name_raises_attribute_error(facade):
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(facade, "no_such_name")
    assert not hasattr(facade, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {facade.__name__} import no_such_name", {})


_FRESH_PROBE = """
import sys
from repro.core.welfare import welfare
import repro.core
import repro.core.regulation

# Importing the submodule first must not shadow the function that the
# facade exports under the same name.
assert repro.core.welfare is welfare, repro.core.welfare
assert repro.core.regulation is sys.modules["repro.core.regulation"]
assert "repro.core.investment" not in sys.modules
assert repro.core.optimal_capacity.__module__ == "repro.core.investment"
print("ok")
"""


def test_a_submodule_import_keeps_the_export_of_its_name():
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
