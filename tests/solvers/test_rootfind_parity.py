"""Batch-vs-scalar rootfind parity across model families and edge cases.

Two layers of the same guarantee:

* **Model level** — for every demand family × throughput family the library
  ships, the batched congestion/marginal path must agree with the scalar
  path row by row, under the default numpy backend and under the kernel
  backends (where the exponential family takes the fused route and every
  other family falls back to lockstep with backend-bound ops).
* **Solver level** — the batch rootfind primitives must agree with their
  scalar counterparts on the awkward inputs: boundary roots at ``lo``,
  exact endpoint zeros, and degenerate/non-finite Newton slopes.
"""

import numpy as np
import pytest

from repro.backend import available_backends, use_backend
from repro.core.game import SubsidizationGame
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
)
from repro.providers.content_provider import ContentProvider
from repro.providers.isp import AccessISP
from repro.providers.market import Market
from repro.solvers.batch_rootfind import (
    bracketed_root_batch,
    expand_bracket_batch,
    newton_polish_batch,
)
from repro.solvers.rootfind import solve_increasing


def _backends() -> list[str]:
    names = ["numpy", "pyloops"]
    if available_backends()["compiled"] == "resolves to cext":
        names.append("compiled")
    return names


BACKENDS = _backends()

# One representative per demand family; the three CPs of a market get the
# same family at slightly different strengths.
DEMANDS = {
    "exponential": lambda k: ExponentialDemand(alpha=0.8 + 0.4 * k, scale=0.9),
    "scaled-exponential": lambda k: ScaledDemand(
        ExponentialDemand(alpha=0.8 + 0.4 * k, scale=0.9), weight=0.7
    ),
    "logit": lambda k: LogitDemand(alpha=1.5 + 0.5 * k, midpoint=0.8, scale=1.2),
    "linear": lambda k: LinearDemand(base=1.5 + 0.2 * k, slope=0.9),
    "shifted-power": lambda k: ShiftedPowerDemand(alpha=1.2 + 0.4 * k, scale=1.1),
}

THROUGHPUTS = {
    "exponential": lambda k: ExponentialThroughput(beta=0.9 + 0.5 * k, peak=1.1),
    "power-law": lambda k: PowerLawThroughput(beta=1.1 + 0.5 * k, peak=0.9),
    "rational": lambda k: RationalThroughput(beta=1.4 + 0.6 * k, peak=1.2),
}

VALUES = (1.0, 0.6, 1.4)


def family_market(demand_key: str, throughput_key: str) -> Market:
    providers = [
        ContentProvider(
            demand=DEMANDS[demand_key](k),
            throughput=THROUGHPUTS[throughput_key](k),
            value=VALUES[k],
            name=f"{demand_key}/{throughput_key}/{k}",
        )
        for k in range(3)
    ]
    return Market(providers, AccessISP(price=1.0, capacity=0.8))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("throughput_key", sorted(THROUGHPUTS))
@pytest.mark.parametrize("demand_key", sorted(DEMANDS))
class TestModelLevelParity:
    def test_batch_rows_match_scalar_solves(
        self, demand_key, throughput_key, backend
    ):
        market = family_market(demand_key, throughput_key)
        rng = np.random.default_rng(17)
        profiles = rng.uniform(0.0, 0.9, size=(4, market.size))
        with use_backend(backend):
            batch = market.solve_batch(profiles)
            for b in range(profiles.shape[0]):
                state = market.solve(profiles[b])
                np.testing.assert_allclose(
                    batch.utilizations[b], state.utilization,
                    rtol=1e-9, atol=1e-9,
                )
                np.testing.assert_allclose(
                    batch.populations[b], state.populations, rtol=1e-9
                )
                np.testing.assert_allclose(
                    batch.throughputs[b], state.throughputs,
                    rtol=1e-9, atol=1e-12,
                )
                np.testing.assert_allclose(
                    batch.utilities[b], state.utilities,
                    rtol=1e-9, atol=1e-12,
                )

    def test_batch_marginals_match_scalar_marginals(
        self, demand_key, throughput_key, backend
    ):
        market = family_market(demand_key, throughput_key)
        game = SubsidizationGame(market, cap=0.9)
        rng = np.random.default_rng(23)
        profiles = rng.uniform(0.0, 0.9, size=(4, market.size))
        with use_backend(backend):
            batch = game.marginal_utilities_batch(profiles)
            for b in range(profiles.shape[0]):
                scalar = game.marginal_utilities(profiles[b])
                np.testing.assert_allclose(
                    batch[b], scalar, rtol=1e-8, atol=1e-10
                )


@pytest.mark.parametrize("backend", BACKENDS)
class TestSolverLevelEdgeCases:
    def test_boundary_roots_at_lo_match_scalar(self, backend):
        # f_i(lo) >= 0: the root is the boundary itself, batch and scalar.
        offsets = np.array([0.0, 0.3, 1.7])

        def batch_f(x):
            return x + offsets

        with use_backend(backend):
            lo, hi, f_lo, f_hi = expand_bracket_batch(batch_f, 3, lo=0.0)
            roots = bracketed_root_batch(batch_f, lo, hi, f_lo, f_hi)
        assert np.array_equal(roots, np.zeros(3))
        for c in offsets:
            assert solve_increasing(lambda x: x + c, lo=0.0) == 0.0

    def test_exact_endpoint_zero_resolves_to_the_endpoint(self, backend):
        # f(hi) == 0.0 exactly: the root is hi, no Illinois iterations.
        roots_at = np.array([0.5, 1.25, 2.0])

        def batch_f(x):
            return x - roots_at

        lo = np.zeros(3)
        hi = roots_at.copy()
        with use_backend(backend):
            f_lo = batch_f(lo)
            f_hi = batch_f(hi)
            batch = bracketed_root_batch(batch_f, lo, hi, f_lo, f_hi)
        assert np.array_equal(batch, roots_at)
        for c in roots_at:
            scalar = solve_increasing(
                lambda x: x - c, lo=0.0, initial_width=float(c)
            )
            assert scalar == c

    def test_mixed_family_batch_matches_scalar_rootfind(self, backend):
        # Rows of genuinely different shapes solved jointly agree with
        # one-at-a-time scalar solves to root tolerance.
        rows = [
            lambda x: x - 0.7,
            lambda x: np.expm1(x) - 1.3,
            lambda x: x**3 + 0.5 * x - 2.0,
            lambda x: np.log1p(x) - 0.4,
        ]

        def batch_f(x):
            return np.array([rows[i](x[i]) for i in range(len(rows))])

        with use_backend(backend):
            lo, hi, f_lo, f_hi = expand_bracket_batch(batch_f, len(rows))
            batch = bracketed_root_batch(
                batch_f, lo, hi, f_lo, f_hi, xtol=1e-12
            )
        for i, f in enumerate(rows):
            scalar = solve_increasing(f, xtol=1e-12)
            assert abs(batch[i] - scalar) < 1e-9

    def test_single_row_batches_reproduce_the_joint_batch_bitwise(
        self, backend
    ):
        # Row independence: the joint solve and three one-row solves are
        # the same trajectories, hence bitwise-equal roots.
        shifts = np.array([0.3, 1.1, 2.6])

        def joint(x):
            return np.expm1(x) - shifts

        with use_backend(backend):
            lo, hi, f_lo, f_hi = expand_bracket_batch(joint, 3)
            together = bracketed_root_batch(joint, lo, hi, f_lo, f_hi)
            alone = np.empty(3)
            for i in range(3):
                def one(x, i=i):
                    return np.expm1(x) - shifts[i : i + 1]

                lo1, hi1, fl1, fh1 = expand_bracket_batch(one, 1)
                alone[i] = bracketed_root_batch(one, lo1, hi1, fl1, fh1)[0]
        assert np.array_equal(together, alone)

    def test_degenerate_slopes_stay_unconverged(self, backend):
        # Zero, infinite and NaN slopes carry no Newton information: those
        # rows must keep their iterate and report non-convergence, exactly
        # as when solved alone.
        slopes = np.array([1.0, 0.0, np.inf, np.nan])
        x0 = np.array([1.5, 1.5, 1.5, 1.5])

        def value_and_slope(x_active, rows):
            return x_active - 1.0, slopes[rows]

        with use_backend(backend):
            joint_x, joint_ok = newton_polish_batch(
                value_and_slope, x0, max_iter=8
            )
            alone_x = np.empty(4)
            alone_ok = np.empty(4, dtype=bool)
            for i in range(4):
                def one(x_active, rows, i=i):
                    return x_active - 1.0, np.array([slopes[i]])

                xi, oki = newton_polish_batch(
                    one, x0[i : i + 1], max_iter=8
                )
                alone_x[i] = xi[0]
                alone_ok[i] = oki[0]
        assert joint_ok.tolist() == [True, False, False, False]
        assert joint_x[0] == 1.0
        assert np.array_equal(joint_x[1:], x0[1:])  # untouched iterates
        assert np.array_equal(joint_x, alone_x)
        assert np.array_equal(joint_ok, alone_ok)

    def test_all_unbracketed_rows_reported_together(self, backend):
        # Satellite contract: a mass failure names every failing row and
        # its last interval, not just the first one found.
        from repro.exceptions import BracketError

        def batch_f(x):
            # Rows 0 and 2 never cross zero; row 1 is fine.
            return np.array([-1.0, x[1] - 0.5, -2.0])

        with use_backend(backend):
            with pytest.raises(BracketError) as err:
                expand_bracket_batch(batch_f, 3, max_expansions=12)
        message = str(err.value)
        assert getattr(err.value, "rows", None) == [0, 2]
        assert len(err.value.intervals) == 2
        assert "rows" in message or "0" in message
