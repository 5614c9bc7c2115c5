"""Batched market evaluation versus the scalar path (acceptance parity).

The contract of the array-native stack: evaluating a ``(B, N)`` profile
batch gives results identical — within atol 1e-12 — to ``B`` scalar-path
evaluations. Checked for the paper's exponential market, a mixed-family
market exercising the generic table paths, and under warm starts.
"""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.network.demand import LogitDemand
from repro.network.throughput import RationalThroughput
from repro.network.utilization import MM1Utilization
from repro.providers.content_provider import ContentProvider, exponential_cp
from repro.providers.isp import AccessISP
from repro.providers.market import Market


def _exponential_market() -> Market:
    providers = [
        exponential_cp(alpha, beta, value=value)
        for alpha, beta, value in [
            (2.0, 2.0, 0.5),
            (2.0, 5.0, 1.0),
            (5.0, 2.0, 0.8),
            (5.0, 5.0, 0.3),
        ]
    ]
    return Market(providers, AccessISP(price=1.0, capacity=1.0))


def _mixed_market() -> Market:
    providers = [
        exponential_cp(2.0, 3.0, value=1.0),
        ContentProvider(
            demand=LogitDemand(alpha=3.0, midpoint=0.9, scale=2.0),
            throughput=RationalThroughput(beta=2.0, peak=1.5),
            value=0.7,
        ),
    ]
    return Market(
        providers,
        AccessISP(price=0.8, capacity=2.0, utilization=MM1Utilization()),
    )


def _assert_batch_matches_scalar(market: Market, profiles: np.ndarray) -> None:
    batch = market.solve_batch(profiles)
    assert batch.batch_size == profiles.shape[0]
    for b in range(profiles.shape[0]):
        state = market.solve(profiles[b])
        np.testing.assert_allclose(
            batch.utilizations[b], state.utilization, rtol=0, atol=1e-12
        )
        for field in ("populations", "rates", "throughputs", "utilities"):
            np.testing.assert_allclose(
                getattr(batch, field)[b],
                getattr(state, field),
                rtol=0,
                atol=1e-12,
                err_msg=f"{field} mismatch at row {b}",
            )
        np.testing.assert_allclose(
            batch.revenues[b], state.revenue, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            batch.welfares[b], state.welfare, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            batch.gap_slopes[b], state.gap_slope, rtol=0, atol=1e-10
        )


class TestBatchScalarParity:
    def test_exponential_market(self):
        market = _exponential_market()
        rng = np.random.default_rng(7)
        profiles = rng.uniform(0.0, 0.9, size=(24, market.size))
        _assert_batch_matches_scalar(market, profiles)

    def test_mixed_family_market(self):
        market = _mixed_market()
        rng = np.random.default_rng(11)
        profiles = rng.uniform(0.0, 0.6, size=(12, market.size))
        _assert_batch_matches_scalar(market, profiles)

    def test_zero_profiles_row(self):
        market = _exponential_market()
        profiles = np.zeros((3, market.size))
        _assert_batch_matches_scalar(market, profiles)

    def test_warm_start_changes_nothing(self):
        market = _exponential_market()
        rng = np.random.default_rng(3)
        profiles = rng.uniform(0.0, 0.9, size=(8, market.size))
        cold = market.solve_batch(profiles)
        nearby = market.solve_batch(
            np.clip(profiles + 0.01, 0.0, None)
        ).utilizations
        warm = market.solve_batch(profiles, phi0=nearby)
        np.testing.assert_allclose(
            warm.utilizations, cold.utilizations, rtol=0, atol=1e-13
        )
        np.testing.assert_allclose(
            warm.throughputs, cold.throughputs, rtol=0, atol=1e-12
        )

    def test_single_profile_promotes_to_batch(self):
        market = _exponential_market()
        profile = np.full(market.size, 0.2)
        batch = market.solve_batch(profile)
        assert batch.batch_size == 1
        state = market.solve(profile)
        np.testing.assert_allclose(
            batch.utilizations[0], state.utilization, atol=1e-13
        )

    def test_state_extractor_round_trips(self):
        market = _exponential_market()
        profiles = np.array([[0.1, 0.2, 0.0, 0.4], [0.0, 0.0, 0.0, 0.0]])
        batch = market.solve_batch(profiles)
        state = batch.state(0)
        np.testing.assert_allclose(state.subsidies, profiles[0])
        assert state.price == market.isp.price
        assert state.size == market.size


class TestWarmStartSafeguards:
    def test_degenerate_warm_start_falls_back_to_cold(self):
        # PowerLawUtilization(γ=2) has an infinite supply slope at φ = 0, so
        # a warm start of exactly 0 gives Newton a zero step there; the row
        # must be re-solved cold instead of accepted at the wrong point.
        from repro.network.system import CongestionSystem
        from repro.network.throughput import ExponentialThroughput
        from repro.network.utilization import PowerLawUtilization

        system = CongestionSystem(PowerLawUtilization(gamma=2.0), capacity=10.0)
        laws = [ExponentialThroughput(beta=3.0, peak=1.0)]
        cold = system.solve_population_batch(laws, [[1.0]])
        warm = system.solve_population_batch(
            laws, [[1.0]], phi0=np.array([0.0])
        )
        assert cold.utilizations[0] > 0.0
        np.testing.assert_allclose(
            warm.utilizations, cold.utilizations, rtol=0, atol=1e-12
        )


class TestBatchValidation:
    def test_wrong_width_rejected(self):
        market = _exponential_market()
        with pytest.raises(ModelError):
            market.solve_batch(np.zeros((4, market.size + 1)))

    def test_negative_subsidy_rejected(self):
        market = _exponential_market()
        bad = np.zeros((2, market.size))
        bad[1, 0] = -0.5
        with pytest.raises(ModelError):
            market.solve_batch(bad)

    def test_non_finite_rejected(self):
        market = _exponential_market()
        bad = np.zeros((2, market.size))
        bad[0, 2] = np.nan
        with pytest.raises(ModelError):
            market.solve_batch(bad)

    def test_validation_accepts_exactly_the_reference_set(self):
        # The subsidy check reads one min and one max; it must accept and
        # reject exactly what the elementwise reference check does, give
        # the same message, and clip with the same bits.
        market = _exponential_market()
        edges = (
            0.0, -0.0, 5e-324, -5e-324, -1e-12, -1.0000000000000002e-12,
            -2e-12, 0.7, 1e308, np.inf, -np.inf, np.nan,
        )
        for value in edges:
            for row in (0, 1):
                batch = np.full((2, market.size), 0.25)
                batch[row, row + 1] = value
                reference_ok = not (
                    np.any(batch < -1e-12) or not np.all(np.isfinite(batch))
                )
                for check, arg in (
                    (market.subsidy_matrix, batch),
                    (market.subsidy_vector, batch[row]),
                ):
                    if reference_ok:
                        assert (
                            check(arg).tobytes()
                            == np.clip(arg, 0.0, None).tobytes()
                        )
                    else:
                        with pytest.raises(
                            ModelError,
                            match="^subsidies must be finite and non-negative$",
                        ):
                            check(arg)

    def test_empty_batch_passes_validation(self):
        market = _exponential_market()
        empty = market.subsidy_matrix(np.zeros((0, market.size)))
        assert empty.shape == (0, market.size)
