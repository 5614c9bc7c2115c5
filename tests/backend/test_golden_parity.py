"""Golden tests: fused kernels are bitwise-identical to lockstep, per backend.

The contract the compiled layer is held to (fastmath off, identical
operation order): under any one kernel backend, the fused per-row kernels
and the lockstep NumPy path — evaluated with the same backend-bound ops —
produce *bitwise equal* results for the paper's exponential family: the
congestion solve (K1), the batched marginal-utility chain (K2) and the
vectorized best-response sweep (K3), cold and warm-started alike.

The other built-in families reach the kernels through libm ``pow``,
``log1p`` and ``exp`` where their lockstep arm calls NumPy ufuncs, so on
a market mixing every family the two arms agree to 1e-12 relative on the
utilizations and marginal utilities, and to the root tolerance on best
responses. Cross-backend (numpy vs libm exp) is a separate,
tolerance-level contract checked at the end.

``pyloops`` always runs; ``cext`` joins the matrix when a C compiler is
present.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest

from repro.backend import available_backends, use_backend
from repro.core.best_response import best_response_profile_vectorized
from repro.core.game import BatchedProfileEvaluator, SubsidizationGame
from repro.exceptions import ModelError
from repro.network.demand import (
    ExponentialDemand,
    LinearDemand,
    LogitDemand,
    ScaledDemand,
    ShiftedPowerDemand,
)
from repro.network.throughput import (
    ExponentialThroughput,
    PowerLawThroughput,
    RationalThroughput,
    ThroughputTable,
)
from repro.providers.content_provider import ContentProvider, exponential_cp
from repro.providers.isp import AccessISP
from repro.providers.market import Market


def _kernel_backends() -> list[str]:
    names = ["pyloops"]
    if available_backends()["compiled"] == "resolves to cext":
        names.append("compiled")
    return names


KERNEL_BACKENDS = _kernel_backends()


@contextlib.contextmanager
def lockstep(market):
    """Force the lockstep arm while keeping the backend's ops bound.

    Clears the market's kernel plan (marginals, best responses) and hides
    the throughput tags from the congestion solver.
    """
    market._kernel_plan = None
    try:
        with mock.patch.object(
            ThroughputTable, "kernel_columns", lambda self: None
        ):
            yield
    finally:
        market._kernel_plan = False


def make_market() -> Market:
    providers = [
        exponential_cp(1.0, 1.0, value=1.2),
        exponential_cp(0.5, 2.0, value=0.8, demand_scale=0.7, peak_rate=1.3),
        exponential_cp(2.0, 0.5, value=1.6),
        ContentProvider(
            demand=ScaledDemand(
                ExponentialDemand(alpha=1.5, scale=0.9), weight=0.6
            ),
            throughput=ExponentialThroughput(beta=1.2, peak=0.8),
            value=1.0,
            name="scaled",
        ),
    ]
    return Market(providers, AccessISP(price=1.0, capacity=0.75))


def make_mixed_market() -> Market:
    """Every demand family, bare and share-weighted, on every throughput law.

    24 columns: for each of the four demand families and each of the
    three throughput families, one bare and one ``ScaledDemand`` column.
    The linear columns straddle their tail switch across the profiles.
    """
    demands = (
        lambda k: ExponentialDemand(alpha=1.0 + 0.3 * k, scale=0.05),
        lambda k: LogitDemand(alpha=2.0 + k, midpoint=0.8, scale=0.06),
        lambda k: LinearDemand(base=0.05, slope=0.06 + 0.01 * k),
        lambda k: ShiftedPowerDemand(alpha=1.5 + 0.5 * k, scale=0.07),
    )
    throughputs = (
        lambda k: ExponentialThroughput(beta=1.0 + 0.4 * k, peak=1.1),
        lambda k: PowerLawThroughput(beta=1.5 + 0.5 * k, peak=0.9),
        lambda k: RationalThroughput(beta=2.0 + 0.3 * k, peak=1.2),
    )
    providers = []
    for d, demand in enumerate(demands):
        for t, throughput in enumerate(throughputs):
            for weighted in (False, True):
                k = (d + t) % 3
                law = demand(k)
                if weighted:
                    law = ScaledDemand(law, weight=0.4 + 0.1 * t)
                providers.append(
                    ContentProvider(
                        demand=law,
                        throughput=throughput(k),
                        value=0.4 + 0.05 * (len(providers) % 7),
                        name=f"cp{len(providers)}",
                    )
                )
    return Market(providers, AccessISP(price=0.9, capacity=0.6))


def make_profiles(market: Market, batch: int = 6) -> np.ndarray:
    rng = np.random.default_rng(11)
    return rng.uniform(0.0, 1.0, size=(batch, market.size))


STATE_FIELDS = ("utilizations", "populations", "throughputs", "utilities")


@pytest.mark.parametrize("name", KERNEL_BACKENDS)
class TestGoldenParity:
    def test_market_is_kernel_eligible(self, name):
        market = make_market()
        with use_backend(name):
            assert market.kernel_plan() is not None

    def test_congestion_batch_bitwise(self, name):
        market = make_market()
        profiles = make_profiles(market)
        with use_backend(name):
            fused = market.solve_batch(profiles)
            with lockstep(market):
                lock = market.solve_batch(profiles)
            for field in STATE_FIELDS:
                assert np.array_equal(
                    getattr(fused, field), getattr(lock, field)
                ), field

    def test_congestion_batch_bitwise_warm_started(self, name):
        market = make_market()
        profiles = make_profiles(market)
        with use_backend(name):
            phi0 = market.solve_batch(profiles).utilizations
            shifted = np.clip(profiles + 0.05, 0.0, None)
            fused = market.solve_batch(shifted, phi0=phi0)
            with lockstep(market):
                lock = market.solve_batch(shifted, phi0=phi0)
            assert np.array_equal(fused.utilizations, lock.utilizations)

    def test_marginals_batch_bitwise(self, name):
        market = make_market()
        profiles = make_profiles(market)
        game = SubsidizationGame(market, cap=1.0)
        with use_backend(name):
            fused = game.marginal_utilities_batch(profiles)
            # Diagnostics are the permanent lockstep arm — no plan involved.
            lock = game.marginal_diagnostics_batch(profiles).marginal_utilities
            assert np.array_equal(fused, lock)

    def test_marginals_batch_bitwise_warm_started(self, name):
        market = make_market()
        profiles = make_profiles(market)
        game = SubsidizationGame(market, cap=1.0)
        with use_backend(name):
            phi0 = market.solve_batch(profiles).utilizations
            fused = game.marginal_utilities_batch(profiles, phi0=phi0)
            lock = game.marginal_diagnostics_batch(
                profiles, phi0=phi0
            ).marginal_utilities
            assert np.array_equal(fused, lock)

    def test_scalar_marginals_are_a_batch_of_one(self, name):
        market = make_market()
        profiles = make_profiles(market)
        game = SubsidizationGame(market, cap=1.0)
        s = profiles[0]
        with use_backend(name):
            scalar = game.marginal_utilities(s)
            batched = game.marginal_utilities_batch(s[None, :])
            assert np.array_equal(scalar, batched[0])

    def test_best_response_bitwise(self, name):
        market = make_market()
        profiles = make_profiles(market)
        game = SubsidizationGame(market, cap=0.9)
        s = profiles[0]
        with use_backend(name):
            fused = best_response_profile_vectorized(game, s)
            with lockstep(market):
                lock = best_response_profile_vectorized(game, s)
            assert np.array_equal(fused, lock)

    def test_best_response_chain_bitwise(self, name):
        market = make_market()
        profiles = make_profiles(market)
        game = SubsidizationGame(market, cap=0.9)
        s = profiles[0]
        with use_backend(name):
            fused_ev = BatchedProfileEvaluator(game)
            f1 = best_response_profile_vectorized(game, s, evaluator=fused_ev)
            f2 = best_response_profile_vectorized(game, f1, evaluator=fused_ev)
            with lockstep(market):
                lock_ev = BatchedProfileEvaluator(game)
                l1 = best_response_profile_vectorized(
                    game, s, evaluator=lock_ev
                )
                l2 = best_response_profile_vectorized(
                    game, l1, evaluator=lock_ev
                )
            assert np.array_equal(f1, l1)
            assert np.array_equal(f2, l2)

    def test_invalid_subsidies_raise_the_lockstep_message(self, name):
        market = make_market()
        profiles = make_profiles(market)
        game = SubsidizationGame(market, cap=1.0)
        bad = profiles.copy()
        bad[0, 0] = -0.5
        with use_backend(name):
            with pytest.raises(ModelError) as fused_err:
                game.marginal_utilities_batch(bad)
            with lockstep(market):
                with pytest.raises(ModelError) as lock_err:
                    game.marginal_utilities_batch(bad)
            assert str(fused_err.value) == str(lock_err.value)

    def test_misshapen_warm_start_is_rejected_before_the_kernel(self, name):
        market = make_market()
        profiles = make_profiles(market)
        game = SubsidizationGame(market, cap=1.0)
        with use_backend(name):
            with pytest.raises(ValueError, match="phi0 must have shape"):
                game.marginal_utilities_batch(
                    profiles, phi0=np.zeros(profiles.shape[0] + 2)
                )


def _close(fused, lock, rtol=1e-12):
    np.testing.assert_allclose(fused, lock, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("name", KERNEL_BACKENDS)
class TestMixedFamilyParity:
    """Fused vs lockstep on every family: ulp-level, not bitwise."""

    def test_market_is_kernel_eligible(self, name):
        market = make_mixed_market()
        with use_backend(name):
            assert market.kernel_plan() is not None

    def test_congestion_batch_close(self, name):
        market = make_mixed_market()
        profiles = make_profiles(market)
        with use_backend(name):
            fused = market.solve_batch(profiles)
            with lockstep(market):
                lock = market.solve_batch(profiles)
        _close(fused.utilizations, lock.utilizations)

    def test_congestion_batch_close_warm_started(self, name):
        market = make_mixed_market()
        profiles = make_profiles(market)
        with use_backend(name):
            phi0 = market.solve_batch(profiles).utilizations
            shifted = np.clip(profiles + 0.05, 0.0, None)
            fused = market.solve_batch(shifted, phi0=phi0)
            with lockstep(market):
                lock = market.solve_batch(shifted, phi0=phi0)
        _close(fused.utilizations, lock.utilizations)

    def test_scalar_solve_close(self, name):
        market = make_mixed_market()
        s = make_profiles(market)[0]
        with use_backend(name):
            fused = market.solve(s)
            with lockstep(market):
                lock = market.solve_batch(s[None, :])
        _close(fused.utilization, lock.utilizations[0])

    def test_marginals_close(self, name):
        market = make_mixed_market()
        profiles = make_profiles(market)
        game = SubsidizationGame(market, cap=1.0)
        with use_backend(name):
            fused = game.marginal_utilities_batch(profiles)
            with lockstep(market):
                lock = game.marginal_utilities_batch(profiles)
        _close(fused, lock)

    def test_best_response_within_root_xtol(self, name):
        market = make_mixed_market()
        s = make_profiles(market)[0]
        game = SubsidizationGame(market, cap=0.5)
        xtol = 1e-10
        with use_backend(name):
            fused = best_response_profile_vectorized(game, s, xtol=xtol)
            with lockstep(market):
                lock = best_response_profile_vectorized(game, s, xtol=xtol)
        assert np.any((fused > 0.0) & (fused < 0.5))  # interior roots
        np.testing.assert_allclose(fused, lock, rtol=0.0, atol=xtol)


@pytest.mark.parametrize("name", KERNEL_BACKENDS)
def test_kernel_backend_tracks_numpy_reference_to_tolerance(name):
    """Cross-backend contract: libm vs vectorized exp differ in final ulps.

    Not bitwise (that is the per-backend guarantee above), but far inside
    solver tolerance — which is what makes all kernel backends share one
    solve-cache tag distinct from numpy's.
    """
    market = make_market()
    profiles = make_profiles(market)
    game = SubsidizationGame(market, cap=1.0)
    with use_backend("numpy"):
        reference = game.marginal_utilities_batch(profiles)
    with use_backend(name):
        compiled = game.marginal_utilities_batch(profiles)
    np.testing.assert_allclose(compiled, reference, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("name", KERNEL_BACKENDS)
class TestPlanBinding:
    """A plan's constant kernel arguments are bound once per module and
    never leave the process (the C binding holds raw addresses)."""

    def test_bound_once_per_kernel_module(self, name):
        market = make_market()
        plan = market.kernel_plan()
        with use_backend(name) as backend:
            first = plan.bound(backend.kernels)
            assert plan.bound(backend.kernels) is first

    def test_pickled_market_rebinds_and_matches(self, name):
        import pickle

        market = make_market()
        profiles = make_profiles(market)
        game = SubsidizationGame(market, cap=1.0)
        with use_backend(name):
            before = game.marginal_utilities_batch(profiles)
            assert market.kernel_plan()._bound
            copy = pickle.loads(pickle.dumps(game))
            assert not copy.market.kernel_plan()._bound
            after = copy.marginal_utilities_batch(profiles)
        assert before.tobytes() == after.tobytes()

    def test_scalar_solve_uses_the_market_plan(self, name):
        # Market.solve reaches the congestion kernel through its cached
        # plan: the same columns a fresh throughput table would give.
        market = make_mixed_market()
        s = make_profiles(market)[0]
        with use_backend(name):
            via_plan = market.solve(s)
            classes = market.traffic_classes(s)
            fresh = market.system.solve_utilization(classes)
        assert via_plan.utilization == fresh
