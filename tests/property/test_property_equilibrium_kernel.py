"""Property: the one-call compiled equilibrium agrees with the NumPy solver.

Under a kernel backend each :func:`solve_equilibrium` is one
``equilibrium_solve`` kernel call; under ``numpy`` it is the Python
Jacobi/Newton solver the kernel transcribes. Over ``random_market``
draws (every demand and throughput family, some share-weighted) and
policy caps, both must return certified equilibria that agree to the
certification tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import available_backends, use_backend
from repro.core.equilibrium import DEFAULT_CERTIFY_TOL, solve_equilibrium
from repro.core.game import SubsidizationGame
from repro.scenarios.generators import random_market

#: The C kernels when they build, else their pure-Python twin.
KERNEL_BACKEND = (
    "compiled" if available_backends()["compiled"] == "resolves to cext" else "pyloops"
)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_types=st.integers(2, 8),
    cap=st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0]),
    price=st.sampled_from([0.2, 0.6, 1.0, 1.4]),
)
def test_fused_and_numpy_equilibria_agree(seed, n_types, cap, price):
    market = random_market(seed, n_types, price=price).market
    game = SubsidizationGame(market, cap)
    with use_backend("numpy"):
        reference = solve_equilibrium(game)
    with use_backend(KERNEL_BACKEND):
        assert market.kernel_plan() is not None
        fused = solve_equilibrium(game)
    assert reference.kkt_residual <= DEFAULT_CERTIFY_TOL
    assert fused.kkt_residual <= DEFAULT_CERTIFY_TOL
    assert np.all(np.isfinite(fused.subsidies))
    np.testing.assert_allclose(
        fused.subsidies, reference.subsidies, rtol=0.0, atol=DEFAULT_CERTIFY_TOL
    )
    assert fused.state.revenue == pytest.approx(
        reference.state.revenue, rel=1e-7
    )
