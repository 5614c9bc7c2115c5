"""What a CLI process loads before it does any work.

scipy serves only the scalar brentq/quad paths, which no fused-kernel
run reaches, so the runner and the backend load without it. NumPy's lazy
``numpy.random`` is loaded up front instead, so the campaign work path
does not pay for it inside a timed row.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

_PROBE = """
import sys
from repro.experiments import runner
from repro.backend import get_backend
get_backend()
print(sorted(
    name for name in ("scipy", "numpy.random", "numpy.ma")
    if name in sys.modules
))
"""


@pytest.mark.parametrize("backend", ["numpy", "compiled"])
def test_runner_and_backend_load_without_scipy(backend):
    env = {
        **os.environ,
        "REPRO_BACKEND": backend,
        "PYTHONPATH": str(REPO_ROOT / "src"),
    }
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['numpy.ma', 'numpy.random']"


_POOL_PROBE = """
import sys
from repro.engine.executors import PoolExecutor
executor = PoolExecutor()
executor._ensure_pool(2)
print("scipy.optimize" in sys.modules)
executor.shutdown()
"""


@pytest.mark.parametrize(
    "backend, preloaded", [("numpy", "True"), ("pyloops", "False")]
)
def test_pool_preloads_scipy_only_for_the_scalar_path(backend, preloaded):
    # Without kernels the workers solve on the scalar brentq path: the
    # parent loads scipy once before it forks, so no worker imports it.
    env = {
        **os.environ,
        "REPRO_BACKEND": backend,
        "PYTHONPATH": str(REPO_ROOT / "src"),
    }
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == preloaded
