"""What a CLI process loads before it does any work, and what it needs.

The library depends on numpy alone: the runner and the backend load
without scipy, and the scalar root paths run with scipy unimportable.
Start-up loads only what a verb runs on its default path: the package
facades resolve their re-exports on first access, the process pool is
imported when a ``workers > 1`` batch spawns one, and the campaign
summary takes its quantiles without ``np.quantile``, so neither the
``multiprocessing`` chain nor ``numpy.ma`` loads. NumPy's lazy
``numpy.random`` is loaded up front, because every campaign row builds a
``random_market``; otherwise the first row would pay for it.

The other side of the rule: no verb's default path imports a module
after start-up, so nothing start-up leaves out is paid for inside a
timed run either.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Loaded at start-up, though no line of the runner names it.
AT_STARTUP = ("numpy.random",)

#: Left out of start-up: no verb runs them on its default path.
NOT_AT_STARTUP = (
    "scipy",
    "multiprocessing",
    "concurrent.futures.process",
    "numpy.ma",
    "repro.core.regulation",
    "repro.core.investment",
    "repro.core.policy",
    "repro.core.welfare",
    "repro.network.sensitivity",
    "repro.network.elasticity",
    "repro.network.aggregation",
    "repro.analysis.reporting",
    "repro.solvers.vi",
)

# Start-up as a CLI process has it: the runner imported, the backend
# loaded. The verb probe then runs one verb in the same process.
_STARTUP = """
import sys
from repro.experiments import runner
from repro.backend import get_backend
get_backend()
"""

_PROBE = _STARTUP + """
watched = sys.argv[1:]
print(sorted(name for name in watched if name in sys.modules))
"""

_VERB_PROBE = _STARTUP + """
import contextlib
import io
import json

started = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = runner.main(sys.argv[1:])
print(json.dumps({
    "code": code,
    "imported": sorted(set(sys.modules) - started),
    "numpy.ma": "numpy.ma" in sys.modules,
}))
"""


def _run(code, *args, backend, timeout=120):
    env = {
        **os.environ,
        "REPRO_BACKEND": backend,
        "PYTHONPATH": str(REPO_ROOT / "src"),
    }
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("backend", ["numpy", "compiled"])
def test_startup_loads_only_what_the_verbs_run(backend):
    loaded = _run(
        _PROBE, *AT_STARTUP, *NOT_AT_STARTUP, backend=backend
    )
    assert loaded == repr(sorted(AT_STARTUP))


VERBS = {
    "all": ["all", "--quiet", "--out", "{tmp}/out"],
    "fig7-charts": ["fig7", "--out", "{tmp}/out"],
    "oligopoly": ["oligopoly", "--carriers", "4", "--json"],
    "campaign-run": [
        "campaign", "run", "--sweep", "grid", "--rows", "2",
        "--param", "n_types=4", "--prices", "0.6,1.0",
        "--policies", "0,1", "--json",
    ],
    "dynamics": ["dynamics", "--json"],
}


@pytest.mark.parametrize("backend", ["numpy", "compiled"])
@pytest.mark.parametrize("verb", sorted(VERBS))
def test_a_verb_imports_nothing_after_startup(verb, backend, tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in VERBS[verb]]
    argv += ["--cache-dir", str(tmp_path / "store")]
    report = json.loads(_run(_VERB_PROBE, *argv, backend=backend))
    assert report["code"] == 0
    assert report["imported"] == []
    assert report["numpy.ma"] is False


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
    last = _run(_NO_SCIPY_PROBE, str(tmp_path), backend="numpy", timeout=300)
    assert last == "ok"
