"""What a CLI process loads before it does any work, and what it needs.

The library depends on numpy alone: the runner and the backend load
without scipy, and the scalar root paths run with scipy unimportable.
NumPy's lazy ``numpy.random`` is loaded up front, so the campaign work
path does not pay for it inside a timed row.
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


_NO_SCIPY_PROBE = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
try:
    import scipy  # noqa: F401
except ImportError:
    pass
else:
    raise SystemExit("the scipy block did not hold")

import numpy as np
from repro.core import SubsidizationGame, solve_equilibrium_best_response
from repro.experiments.runner import main
from repro.experiments.scenarios import section5_market
from repro.simulation import MarketSimulation

assert main(["fig4", "--quiet", "--no-cache", "--out", sys.argv[1]]) == 0
game = SubsidizationGame(section5_market(), 0.5)
eq = solve_equilibrium_best_response(game, sweep="scalar")
assert eq.kkt_residual < 1e-8, eq.kkt_residual
trajectory = MarketSimulation(section5_market(), cap=0.5).run(3)
assert np.all(np.isfinite(trajectory.subsidies))
print("ok")
"""


def test_scalar_paths_run_with_scipy_unimportable(tmp_path):
    # fig4 on the numpy backend solves every congestion root on the scalar
    # path; the scalar best-response sweep and a subsidies trajectory take
    # the scalar best-response root.
    env = {
        **os.environ,
        "REPRO_BACKEND": "numpy",
        "PYTHONPATH": str(REPO_ROOT / "src"),
    }
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_PROBE, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
