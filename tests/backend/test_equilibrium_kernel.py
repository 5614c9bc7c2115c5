"""The whole-equilibrium kernel: status words, counters and its state row.

Under a kernel backend, :func:`~repro.core.equilibrium.solve_equilibrium`
takes one ``equilibrium_solve`` call per solve (the Jacobi sweeps, the
Newton polish and the KKT certificate). These tests pin what the call
reports — its status word, its own profiling counters, kept apart from
``kernel_calls`` — and that the state row it returns is the market
solved at the returned profile. ``pyloops`` always runs; ``cext`` joins
when a C compiler is present.
"""

import numpy as np
import pytest

from repro.backend import profiling, use_backend
from repro.backend.dispatch import (
    EQUILIBRIUM_BUDGET,
    EQUILIBRIUM_CONVERGED,
    fused_equilibrium,
)
from repro.core import equilibrium
from repro.core.equilibrium import (
    DEFAULT_CERTIFY_TOL,
    natural_map_residuals,
    solve_equilibrium,
    solve_equilibrium_best_response,
)
from repro.core.game import SubsidizationGame
from repro.exceptions import ConvergenceError, EquilibriumError
from repro.providers.content_provider import exponential_cp
from repro.providers.isp import AccessISP
from repro.providers.market import Market

from tests.backend.test_golden_parity import KERNEL_BACKENDS, make_market


def _counts(run):
    """Counter deltas of ``run()`` with profiling on."""
    profiling.reset()
    with profiling.profiled():
        result = run()
    return result, profiling.snapshot()


@pytest.mark.parametrize("name", KERNEL_BACKENDS)
class TestEquilibriumKernel:
    def test_one_fused_call_per_solve(self, name):
        game = SubsidizationGame(make_market(), 0.5)
        with use_backend(name):
            result, counts = _counts(lambda: solve_equilibrium(game))
        assert result.method == "best_response"
        assert result.kkt_residual <= DEFAULT_CERTIFY_TOL
        assert counts["equilibrium_kernel_calls"] == 1
        assert counts["kernel_calls"] == 0
        assert counts["equilibrium_fallbacks"] == 0
        assert counts["residual_evals"] > 0
        assert counts["equilibrium_kernel_seconds"] > 0.0

    def test_state_row_is_the_market_at_the_profile(self, name):
        market = make_market()
        game = SubsidizationGame(market, 0.5)
        with use_backend(name):
            result = solve_equilibrium(game)
            reference = market.solve(result.subsidies)
            profile = result.subsidies[None, :]
            residual = natural_map_residuals(
                profile, game.marginal_utilities_batch(profile), game.cap
            )[0]
        state = result.state
        # The certificate is the cold batched one, bit for bit.
        assert result.kkt_residual == residual
        for field in (
            "subsidies", "effective_prices", "populations", "rates",
            "throughputs", "utilities",
        ):
            np.testing.assert_allclose(
                getattr(state, field), getattr(reference, field),
                rtol=1e-13, atol=1e-15, err_msg=field,
            )
        for field in ("utilization", "revenue", "welfare", "gap_slope"):
            assert getattr(state, field) == pytest.approx(
                getattr(reference, field), rel=1e-13
            ), field
        assert state.price == reference.price
        assert state.capacity == reference.capacity

    def test_spent_budget_returns_the_status_word(self, name):
        market = make_market()
        with use_backend(name) as backend:
            subsidies, _row, iterations, status = fused_equilibrium(
                backend, market.kernel_plan(), np.zeros(market.size), 0.5,
                1e-10, 1,
            )
            _, _, _, converged = fused_equilibrium(
                backend, market.kernel_plan(), np.zeros(market.size), 0.5,
                1e-10, 120,
            )
        assert status == EQUILIBRIUM_BUDGET
        assert iterations == 1
        assert subsidies.shape == (market.size,)
        assert converged == EQUILIBRIUM_CONVERGED

    def test_one_sweep_budget_hands_over_to_the_python_chain(
        self, name, monkeypatch
    ):
        monkeypatch.setattr(equilibrium, "_JACOBI_BUDGET", 1)
        game = SubsidizationGame(make_market(), 0.5)
        with use_backend(name):
            result, counts = _counts(lambda: solve_equilibrium(game))
            reference = solve_equilibrium(game, initial=result.subsidies)
        assert result.kkt_residual <= DEFAULT_CERTIFY_TOL
        assert result.method == "best_response"
        assert counts["equilibrium_kernel_calls"] == 1
        assert counts["equilibrium_fallbacks"] == 1  # Gauss–Seidel
        np.testing.assert_allclose(
            result.subsidies, reference.subsidies, atol=1e-8
        )

    def test_vector_sweep_raises_on_a_spent_budget(self, name):
        game = SubsidizationGame(make_market(), 0.5)
        with use_backend(name):
            with pytest.raises(ConvergenceError, match="in 1 sweeps"):
                solve_equilibrium_best_response(
                    game, sweep="vector", max_sweeps=1
                )

    def test_damped_retry_counts_as_a_fallback(self, name, monkeypatch):
        calls = []

        def fail_first(*args, **kwargs):
            calls.append(kwargs)
            raise ConvergenceError("forced")

        monkeypatch.setattr(equilibrium, "_fused_solve", fail_first)
        game = SubsidizationGame(make_market(), 0.5)
        with use_backend(name):
            result, counts = _counts(lambda: solve_equilibrium(game))
        assert len(calls) == 1
        assert result.kkt_residual <= DEFAULT_CERTIFY_TOL
        assert counts["equilibrium_fallbacks"] == 1  # damping 0.5

    def test_degenerate_marginals_raise_the_lockstep_error(self, name):
        # u = (v − s)·∂θ/∂s − θ overflows for a near-max profitability.
        market = Market(
            [exponential_cp(2.0, 1.0, value=1.7e308, demand_scale=100.0)],
            AccessISP(price=1.0, capacity=1.0),
        )
        game = SubsidizationGame(market, 0.5)
        errors = []
        for backend in ("numpy", name):
            with use_backend(backend), np.errstate(over="ignore"):
                with pytest.raises(EquilibriumError) as caught:
                    solve_equilibrium_best_response(game, sweep="vector")
            errors.append(str(caught.value))
        assert errors[0] == errors[1]
        assert "player 0 is not finite on [0, 0.5]" in errors[1]


def test_numpy_backend_keeps_the_python_solver():
    game = SubsidizationGame(make_market(), 0.5)
    with use_backend("numpy"):
        result, counts = _counts(lambda: solve_equilibrium(game))
    assert result.kkt_residual <= DEFAULT_CERTIFY_TOL
    assert counts["equilibrium_kernel_calls"] == 0
    assert counts["lockstep_calls"] > 0
