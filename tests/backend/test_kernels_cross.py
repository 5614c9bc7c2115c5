"""Cross-implementation check: pyloops and cext kernels agree bitwise.

The Python loop kernels (``kernels_py`` undecorated) and the generated C
kernels are meant to be the *same arithmetic* — libm ``exp``, ``pow`` and
``log1p``, sequential accumulation, identical branch structure. That claim
is what justifies all kernel backends sharing one solve-cache tag, so it
gets its own test: every fused entry point must produce byte-identical
results under both implementations, on the paper's exponential market and
on a market mixing every demand and throughput family; the whole
equilibrium solve also runs on the §5 market and on mixed-family
``random_market`` draws, from cold and warm starts. Skipped wholesale
when no C compiler is available.
"""

import numpy as np
import pytest

from repro.backend import available_backends, use_backend
from repro.backend.dispatch import (
    EQUILIBRIUM_CONVERGED,
    RATE_EXPONENTIAL,
    RATE_POWER,
    RATE_RATIONAL,
    KernelPlan,
    fused_congestion,
)
from repro.core.best_response import best_response_profile_vectorized
from repro.core.equilibrium import solve_equilibrium
from repro.core.game import SubsidizationGame
from repro.experiments.scenarios import section5_market
from repro.scenarios.generators import random_market

from tests.backend.test_golden_parity import (
    make_market,
    make_mixed_market,
    make_profiles,
)

pytestmark = pytest.mark.skipif(
    available_backends()["compiled"] != "resolves to cext",
    reason="C kernel extension unavailable (no compiler)",
)


def _both(fn):
    results = []
    for name in ("pyloops", "compiled"):
        with use_backend(name) as backend:
            results.append(fn(backend))
    return results


def test_fused_congestion_bitwise_across_implementations():
    rng = np.random.default_rng(5)
    populations = rng.uniform(0.0, 2.0, size=(8, 3))
    tags = np.array([RATE_EXPONENTIAL, RATE_POWER, RATE_RATIONAL])
    params = np.array([[0.8, 1.0], [1.5, 0.7], [2.2, 1.4]])

    plan = KernelPlan.congestion(tags, params, 0.9, 1e-10)

    def solve(backend):
        cold = fused_congestion(backend, plan, populations, None)
        warm = fused_congestion(backend, plan, populations, cold * 0.9)
        return np.concatenate([cold, warm])

    phi_py, phi_c = _both(solve)
    assert np.array_equal(phi_py, phi_c)


def _solve_batch_bitwise(market):
    profiles = make_profiles(market)

    def solve(_backend):
        return market.solve_batch(profiles)

    states_py, states_c = _both(solve)
    for field in ("utilizations", "populations", "throughputs", "utilities"):
        assert np.array_equal(
            getattr(states_py, field), getattr(states_c, field)
        ), field


def _marginals_bitwise(market):
    profiles = make_profiles(market)
    game = SubsidizationGame(market, cap=1.0)

    u_py, u_c = _both(lambda _b: game.marginal_utilities_batch(profiles))
    assert np.array_equal(u_py, u_c)


def _best_response_bitwise(market):
    game = SubsidizationGame(market, cap=0.9)
    s = make_profiles(market)[0]

    r_py, r_c = _both(lambda _b: best_response_profile_vectorized(game, s))
    assert np.array_equal(r_py, r_c)


def test_market_solve_batch_bitwise_across_implementations():
    _solve_batch_bitwise(make_market())


def test_marginals_bitwise_across_implementations():
    _marginals_bitwise(make_market())


def test_best_response_bitwise_across_implementations():
    _best_response_bitwise(make_market())


def test_mixed_market_solve_batch_bitwise_across_implementations():
    _solve_batch_bitwise(make_mixed_market())


def test_mixed_marginals_bitwise_across_implementations():
    _marginals_bitwise(make_mixed_market())


def test_mixed_best_response_bitwise_across_implementations():
    _best_response_bitwise(make_mixed_market())


def test_mixed_scalar_solve_bitwise_across_implementations():
    market = make_mixed_market()
    s = make_profiles(market)[0]

    phi_py, phi_c = _both(lambda _b: market.solve(s).utilization)
    assert phi_py == phi_c


#: Share rates the slope is asked along: none (the row's slope slot stays
#: NaN), eq. (13) alone, and an oligopoly carrier's logit share term.
SHARE_RATES = (None, 0.0, -1.3)


def _equilibrium_bitwise(market, cap, starts):
    """``equilibrium_solve`` outputs, pyloops vs cext, from each start and
    share rate, and the ``revenue_slope`` entry at each solution.

    The state row is compared only where the solve converged: a spent
    budget leaves it unset. Rows are compared as bytes, NaN slot included.
    """
    plan = market.kernel_plan()

    def solve(backend):
        bound = plan.bound(backend.kernels)
        runs = []
        for s0 in starts:
            for rate in SHARE_RATES:
                run = backend.kernels.equilibrium_solve(
                    bound, s0, cap, 1e-10, 120, rate
                )
                slope = None
                if rate is not None:
                    slope = backend.kernels.revenue_slope(
                        bound, run[0], cap, rate
                    )
                runs.append((run, slope))
        return runs

    runs_py, runs_c = _both(solve)
    for (run_py, slope_py), (run_c, slope_c) in zip(runs_py, runs_c):
        profile, row, stats, iterations, status, bad, interval = run_py
        assert status == EQUILIBRIUM_CONVERGED
        assert profile.tobytes() == run_c[0].tobytes()
        assert row.tobytes() == run_c[1].tobytes()
        assert np.array_equal(stats, run_c[2])
        assert (iterations, status, bad) == run_c[3:6]
        if slope_py is None:
            assert np.isnan(row[-1])
            continue
        # The slope entry recomputes the row's slope from the profile.
        assert np.isfinite(row[-1])
        assert slope_py[0] == slope_c[0] == row[-1]
        assert np.array_equal(slope_py[1], slope_c[1])


def _warm_and_cold(market, cap):
    """A cold start and a start near the equilibrium (as the oligopoly's
    candidate-price chain warm-starts)."""
    cold = np.zeros(market.size)
    with use_backend("compiled"):
        solution = solve_equilibrium(SubsidizationGame(market, cap)).subsidies
    warm = np.clip(solution * 0.97 + 0.01, 0.0, cap)
    return [cold, warm]


def test_equilibrium_solve_bitwise_on_section5_market():
    market = section5_market()
    _equilibrium_bitwise(market, 0.5, _warm_and_cold(market, 0.5))


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_equilibrium_solve_bitwise_on_mixed_random_markets(seed):
    market = random_market(seed, 6).market
    assert market.kernel_plan() is not None
    _equilibrium_bitwise(market, 1.0, _warm_and_cold(market, 1.0))
