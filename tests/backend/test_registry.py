"""Backend resolution, fallback recording, and the selection surface."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.backend import (
    BACKEND_NAMES,
    available_backends,
    get_backend,
    ops,
    set_backend,
    use_backend,
    warm_kernels,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestResolution:
    def test_backend_names_are_the_selection_surface(self):
        assert BACKEND_NAMES == ("numpy", "pyloops", "compiled")
        assert set(available_backends()) == set(BACKEND_NAMES)

    def test_cext_is_not_a_selectable_name(self):
        # "compiled" is the one name for the C kernels; the resolved
        # backend still reports itself as "cext".
        with pytest.raises(ValueError, match="unknown backend"):
            set_backend("cext")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            set_backend("cupy")

    def test_unknown_backend_leaves_active_backend_untouched(self):
        before = get_backend()
        with pytest.raises(ValueError):
            set_backend("not-a-backend")
        assert get_backend() is before

    def test_numpy_backend_is_the_lockstep_reference(self):
        with use_backend("numpy") as backend:
            assert backend.name == "numpy"
            assert backend.requested == "numpy"
            assert backend.kernels is None
            assert backend.cache_tag == ""
            assert not backend.compiled
            assert backend.fallback_reason is None

    def test_pyloops_is_always_available(self):
        with use_backend("pyloops") as backend:
            assert backend.name == "pyloops"
            assert backend.compiled
            assert backend.cache_tag != ""
            assert backend.fallback_reason is None

    def test_numba_is_an_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            set_backend("numba")

    def test_compiled_alias_always_resolves_to_a_real_backend(self):
        with use_backend("compiled") as backend:
            assert backend.requested == "compiled"
            assert backend.name in ("cext", "numpy")
            assert backend.name != "compiled"

    def test_kernel_backends_share_one_cache_tag(self):
        tags = set()
        for name in ("pyloops", "compiled"):
            with use_backend(name) as backend:
                if backend.compiled:
                    tags.add(backend.cache_tag)
        assert len(tags) == 1  # pyloops guarantees at least one entry

    def test_available_backends_reports_status_strings(self):
        status = available_backends()
        assert status["numpy"] == "resolves to numpy"
        assert status["pyloops"] == "resolves to pyloops"
        for name, line in status.items():
            assert line.startswith(("resolves to", "falls back to numpy"))


class TestSelection:
    def test_use_backend_restores_the_previous_selection(self):
        before = get_backend().requested
        with use_backend("pyloops"):
            assert get_backend().name == "pyloops"
            with use_backend("numpy"):
                assert get_backend().name == "numpy"
            assert get_backend().name == "pyloops"
        assert get_backend().requested == before

    def test_use_backend_restores_after_an_exception(self):
        before = get_backend().requested
        with pytest.raises(RuntimeError):
            with use_backend("pyloops"):
                raise RuntimeError("boom")
        assert get_backend().requested == before

    def test_env_var_selects_backend_on_first_use(self):
        script = (
            "from repro.backend import get_backend; "
            "b = get_backend(); print(b.requested, b.name)"
        )
        env = {
            **os.environ,
            "REPRO_BACKEND": "pyloops",
            "PYTHONPATH": str(REPO_ROOT / "src"),
        }
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["pyloops", "pyloops"]


class TestOpsRebinding:
    def test_numpy_backend_binds_numpy_exp(self):
        x = np.array([-1.5, 0.0, 0.25, 3.0])
        with use_backend("numpy"):
            assert np.array_equal(ops.exp(x), np.exp(x))

    def test_kernel_backend_binds_libm_exp(self):
        x = np.array([-1.5, 0.0, 0.25, 3.0])
        with use_backend("pyloops"):
            got = ops.exp(x)
        expected = np.array([math.exp(v) for v in x])
        assert np.array_equal(got, expected)

    def test_kernel_backend_pair_dot_accumulates_sequentially(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(5, 7))
        with use_backend("pyloops"):
            got = ops.pair_dot(a, b)
        expected = np.zeros(5)
        for i in range(5):
            acc = 0.0
            for j in range(7):
                acc += a[i, j] * b[i, j]
            expected[i] = acc
        assert np.array_equal(got, expected)

    def test_ops_rebind_back_to_numpy_after_context(self):
        x = np.array([0.1, 0.7])
        with use_backend("numpy"):
            with use_backend("pyloops"):
                pass
            assert np.array_equal(ops.exp(x), np.exp(x))


class TestWarmKernels:
    def test_noop_on_numpy(self):
        with use_backend("numpy"):
            warm_kernels()  # must not raise

    def test_exercises_every_kernel_on_pyloops(self):
        with use_backend("pyloops"):
            warm_kernels()  # must not raise
