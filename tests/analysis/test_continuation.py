"""Unit tests for repro.analysis.continuation — equilibrium path tracing."""

import numpy as np
import pytest

from repro.analysis.continuation import (
    Breakpoint,
    EquilibriumPath,
    trace_equilibrium_path,
)
from repro.core.characterization import classify_providers
from repro.core.equilibrium import solve_equilibrium
from repro.core.game import SubsidizationGame
from repro.engine import SolveCache, SolveService, SolveStore, solve_grid
from repro.exceptions import ModelError
from repro.experiments.scenarios import section5_market


@pytest.fixture(scope="module")
def kinked_path():
    """q = 0.45 on the §5 market: one CP leaves the cap and returns."""
    return trace_equilibrium_path(
        section5_market(), np.linspace(0.05, 2.0, 25), cap=0.45
    )


class TestPathStructure:
    def test_shapes(self, kinked_path):
        assert kinked_path.subsidies.shape == (25, 8)
        assert len(kinked_path.partitions) == 25

    def test_path_points_are_equilibria(self, kinked_path):
        market = section5_market()
        for k in (0, 12, 24):
            p = float(kinked_path.prices[k])
            direct = solve_equilibrium(
                SubsidizationGame(market.with_price(p), 0.45)
            )
            np.testing.assert_allclose(
                kinked_path.subsidies[k], direct.subsidies, atol=1e-7
            )

    def test_path_is_continuous(self, kinked_path):
        jumps = np.max(np.abs(np.diff(kinked_path.subsidies, axis=0)), axis=1)
        assert np.max(jumps) < 0.1  # no equilibrium-branch jumping


class TestBreakpoints:
    def test_detects_the_two_kinks(self, kinked_path):
        locations = [bp.price for bp in kinked_path.breakpoints]
        assert len(locations) == 2
        assert locations[0] == pytest.approx(0.67, abs=0.05)
        assert locations[1] == pytest.approx(1.64, abs=0.05)

    def test_partitions_actually_differ_across_each_breakpoint(
        self, kinked_path
    ):
        for bp in kinked_path.breakpoints:
            assert (
                bp.before.zero,
                bp.before.capped,
                bp.before.interior,
            ) != (bp.after.zero, bp.after.capped, bp.after.interior)

    def test_breakpoints_verified_by_direct_solves(self, kinked_path):
        # Just left/right of each refined breakpoint, the partition from a
        # cold solve matches the recorded sides.
        market = section5_market()
        bp = kinked_path.breakpoints[0]
        delta = 5e-3
        for price, expected in (
            (bp.price - delta, bp.before),
            (bp.price + delta, bp.after),
        ):
            game = SubsidizationGame(market.with_price(price), 0.45)
            eq = solve_equilibrium(game)
            partition = classify_providers(game, eq.subsidies, boundary_tol=1e-7)
            assert partition.capped == expected.capped

    def test_smooth_segments_cover_the_axis(self, kinked_path):
        segments = kinked_path.smooth_segments()
        assert segments[0][0] == pytest.approx(0.05)
        assert segments[-1][1] == pytest.approx(2.0)
        assert len(segments) == len(kinked_path.breakpoints) + 1
        for (a, b) in segments:
            assert a < b

    def test_no_breakpoints_on_a_stable_partition(self):
        path = trace_equilibrium_path(
            section5_market(), np.linspace(0.1, 1.0, 8), cap=0.3
        )
        assert path.breakpoints == ()
        assert len(path.smooth_segments()) == 1


def legacy_trace_equilibrium_path(
    market, prices, cap, *, price_tol=1e-6, boundary_tol=1e-7
):
    """The pre-refactor in-process trace loop, re-implemented verbatim.

    Golden reference: before the solve-service reroute, the grid sweep and
    every bisection solve ran inline here. The rerouted trace must match
    it bit for bit.
    """
    prices = np.asarray(prices, dtype=float)

    def solve_at(p, warm=None):
        game = SubsidizationGame(market.with_price(float(p)), cap)
        eq = solve_equilibrium(game, initial=warm)
        partition = classify_providers(
            game, eq.subsidies, boundary_tol=boundary_tol
        )
        return eq, partition

    def partition_key(partition):
        return (partition.zero, partition.capped, partition.interior)

    subsidies = []
    partitions = []
    warm = None
    for p in prices:
        eq, partition = solve_at(p, warm)
        warm = eq.subsidies
        subsidies.append(eq.subsidies.copy())
        partitions.append(partition)

    breakpoints = []
    for k in range(prices.size - 1):
        if partition_key(partitions[k]) == partition_key(partitions[k + 1]):
            continue
        lo, hi = float(prices[k]), float(prices[k + 1])
        part_lo, part_hi = partitions[k], partitions[k + 1]
        warm = subsidies[k].copy()
        while hi - lo > price_tol:
            mid = 0.5 * (lo + hi)
            eq, part_mid = solve_at(mid, warm)
            warm = eq.subsidies
            if partition_key(part_mid) == partition_key(part_lo):
                lo = mid
            else:
                hi, part_hi = mid, part_mid
        breakpoints.append(
            Breakpoint(price=0.5 * (lo + hi), before=part_lo, after=part_hi)
        )

    return EquilibriumPath(
        prices=prices,
        subsidies=np.array(subsidies),
        partitions=tuple(partitions),
        breakpoints=tuple(breakpoints),
        cap=cap,
    )


def assert_paths_bitwise_equal(a, b):
    assert a.subsidies.tobytes() == b.subsidies.tobytes()
    assert a.partitions == b.partitions
    assert len(a.breakpoints) == len(b.breakpoints)
    for x, y in zip(a.breakpoints, b.breakpoints):
        assert x.price == y.price
        assert x.before == y.before
        assert x.after == y.after


class TestEnginePathGolden:
    """Golden: the service-routed trace == the pre-refactor inline loop."""

    PRICES = np.linspace(0.05, 2.0, 13)

    def test_trace_with_kinks_bitwise_parity(self):
        market = section5_market()
        legacy = legacy_trace_equilibrium_path(market, self.PRICES, cap=0.45)
        routed = trace_equilibrium_path(
            market,
            self.PRICES,
            cap=0.45,
            service=SolveService(cache=SolveCache()),
        )
        assert len(legacy.breakpoints) > 0  # the refinement path is exercised
        assert_paths_bitwise_equal(legacy, routed)

    def test_warm_store_replays_trace_without_solves(self, tmp_path):
        market = section5_market()
        first = trace_equilibrium_path(
            market,
            self.PRICES,
            cap=0.45,
            service=SolveService(cache=SolveCache(), store=SolveStore(tmp_path)),
        )
        replay_service = SolveService(
            cache=SolveCache(), store=SolveStore(tmp_path)
        )
        second = trace_equilibrium_path(
            market, self.PRICES, cap=0.45, service=replay_service
        )
        assert replay_service.counters.computed == 0
        assert replay_service.counters.store_hits > 0
        assert_paths_bitwise_equal(first, second)

    def test_trace_reuses_grid_engine_rows(self):
        # The on-grid portion of a trace is a cap row with solve_grid's
        # own content key: tracing along axes a figure grid has already
        # solved re-solves nothing on that grid.
        market = section5_market()
        service = SolveService(cache=SolveCache())
        prices = np.linspace(0.1, 1.0, 8)
        solve_grid(market, prices, np.array([0.3]), service=service)
        solved_rows = service.counters.computed
        path = trace_equilibrium_path(market, prices, 0.3, service=service)
        assert service.counters.computed == solved_rows  # row came from cache
        assert service.counters.memory_hits >= 1
        assert path.subsidies.shape == (8, market.size)


class TestValidation:
    def test_rejects_bad_grids(self):
        market = section5_market()
        with pytest.raises(ModelError):
            trace_equilibrium_path(market, [1.0], cap=0.5)
        with pytest.raises(ModelError):
            trace_equilibrium_path(market, [1.0, 0.5], cap=0.5)
