"""Unit and golden tests for repro.competition.oligopoly."""

import numpy as np
import pytest

from repro.backend import get_backend, use_backend
from repro.competition import (
    COMPETITION_DEFAULTS,
    IterationPolicy,
    OligopolyGame,
    competition_settings,
    oligopoly,
    oligopoly_shares,
    solve_oligopoly_competition,
)
from repro.core.revenue import optimal_price
from repro.engine import SolveCache, SolveService, SolveStore
from repro.exceptions import ConvergenceError, ModelError
from repro.providers import AccessISP, Market, exponential_cp

from tests.backend.test_golden_parity import KERNEL_BACKENDS


def providers():
    return [
        exponential_cp(2.0, 2.0, value=1.0),
        exponential_cp(5.0, 3.0, value=0.6),
    ]


def cheap_providers():
    """One CP type: the competition dynamics are identical in shape but
    each equilibrium solve is several times cheaper — used by the tests
    that iterate full price competitions."""
    return [exponential_cp(2.0, 2.0, value=1.0)]


def carrier_isps(n, capacity=None):
    cap = capacity if capacity is not None else 1.0 / n
    return tuple(
        AccessISP(price=1.0, capacity=cap, name=f"isp-{k}") for k in range(n)
    )


def game_of(n, *, switching=2.0, cap=0.3, capacity=None, cps=None):
    return OligopolyGame(
        cps if cps is not None else providers(),
        carrier_isps(n, capacity),
        switching=switching,
        cap=cap,
        service=SolveService(cache=SolveCache()),
    )


def best_response(
    game, index, prices, *, price_range=COMPETITION_DEFAULTS["price_range"],
    grid_points=COMPETITION_DEFAULTS["grid_points"],
    xtol=COMPETITION_DEFAULTS["xtol"], warm0=None,
):
    """Carrier ``index``'s full certified search against ``prices`` on
    ``game`` (the own entry is ignored), at the default slope tolerance,
    warm-started from ``warm0``: the raw outcome arrays."""
    lo, hi = price_range
    return oligopoly.solve_oligopoly_sweep(
        game._providers, game.isps[index], game.switching, game.cap, index,
        tuple(prices), lo, hi, grid_points, xtol, COMPETITION_DEFAULTS["tol"],
        warm0,
    )


class TestShares:
    def test_two_carriers_use_the_complement_form(self):
        # w_B = 1 - w_A exactly; an independently normalized softmax
        # differs from it in the last ulp at the second and third pairs.
        for pair in ((1.0, 1.0), (0.3, 1.7), (0.0, 2.5)):
            w_a, w_b = oligopoly_shares(2.0, pair)
            assert w_b == 1.0 - w_a

    def test_equal_prices_split_evenly(self):
        assert game_of(2, capacity=0.5).shares((1.0, 1.0)) == pytest.approx(
            (0.5, 0.5)
        )

    def test_single_carrier_owns_the_market(self):
        assert oligopoly_shares(3.0, (1.2,)) == (1.0,)

    @pytest.mark.parametrize("prices", [(0.5, 1.0), (0.5, 1.0, 1.5)])
    def test_shares_sum_to_one_cheapest_wins(self, prices):
        shares = oligopoly_shares(2.0, prices)
        assert sum(shares) == pytest.approx(1.0)
        assert list(shares) == sorted(shares, reverse=True)
        assert len(set(shares)) == len(shares)

    @pytest.mark.parametrize("prices", [(0.1, 2.0), (0.1, 1.0, 5.0, 2.0)])
    def test_zero_switching_is_captive(self, prices):
        shares = oligopoly_shares(0.0, prices)
        assert shares == pytest.approx((1.0 / len(prices),) * len(prices))

    @pytest.mark.parametrize("prices", [(0.0, 1000.0), (0.0, 1000.0, 2000.0)])
    def test_extreme_prices_do_not_overflow(self, prices):
        shares = oligopoly_shares(10.0, prices)
        assert shares[0] == pytest.approx(1.0)
        assert shares[1] == pytest.approx(0.0)

    def test_empty_prices_rejected(self):
        with pytest.raises(ModelError):
            oligopoly_shares(2.0, ())


class TestTwoCarriers:
    """N=2 behaviour on the symmetric two-carrier market."""

    def test_carrier_market_scales_demand_by_share(self):
        game = game_of(2, capacity=0.5, cap=0.0)
        prices = (0.8, 1.2)
        w_a, _ = game.shares(prices)
        market = game.carrier_market(0, prices)
        base = providers()[0].population(0.8)
        assert market.providers[0].population(0.8) == pytest.approx(w_a * base)

    def test_solve_state_consistency(self):
        state = game_of(2, capacity=0.5).solve((0.9, 1.1))
        assert state.prices == (0.9, 1.1)
        assert state.shares[0] > state.shares[1]  # cheaper carrier bigger
        for k in range(2):
            assert state.revenues[k] == pytest.approx(
                state.equilibria[k].state.revenue
            )
        assert state.total_revenue == pytest.approx(sum(state.revenues))

    def test_symmetric_prices_give_symmetric_outcomes(self):
        state = game_of(2, capacity=0.5).solve((1.0, 1.0))
        np.testing.assert_allclose(
            state.equilibria[0].subsidies, state.equilibria[1].subsidies,
            atol=1e-8,
        )
        assert state.revenues[0] == pytest.approx(state.revenues[1], rel=1e-8)

    def test_more_switching_means_lower_prices(self):
        def equilibrium_price(switching):
            result = solve_oligopoly_competition(
                game_of(2, capacity=0.5, switching=switching, cap=0.0),
                price_range=(0.05, 2.0),
                grid_points=14,
                policy=IterationPolicy(tol=1e-3),
            )
            return result.state.prices[0]

        assert equilibrium_price(4.0) < equilibrium_price(0.5)

    def test_deregulation_raises_both_carriers_revenue(self):
        # §6's conjecture: competition plus subsidization still pays.
        base = game_of(2, capacity=0.5, cap=0.0).solve((0.6, 0.6))
        dereg = game_of(2, capacity=0.5, cap=0.5).solve((0.6, 0.6))
        assert dereg.revenues[0] > base.revenues[0]
        assert dereg.revenues[1] > base.revenues[1]
        assert dereg.welfare > base.welfare


class TestTwoCarrierPriceEquilibrium:
    @pytest.fixture(scope="class")
    def equilibrium(self):
        return solve_oligopoly_competition(
            game_of(2, capacity=0.5),
            price_range=(0.05, 2.0),
            grid_points=16,
            policy=IterationPolicy(tol=1e-4),
        )

    def test_converges_to_symmetric_prices(self, equilibrium):
        p_a, p_b = equilibrium.state.prices
        assert p_a == pytest.approx(p_b, abs=1e-3)

    def test_competition_undercuts_monopoly(self, equilibrium):
        # A monopolist serving the same total demand at the same capacity
        # per head prices higher than either carrier.
        monopoly_market = Market(
            providers(), AccessISP(price=1.0, capacity=1.0)
        )
        monopoly = optimal_price(
            monopoly_market, cap=0.3, price_range=(0.05, 2.0)
        )
        assert equilibrium.state.prices[0] < monopoly.price

    def test_competition_result_is_a_mutual_best_response(self, equilibrium):
        prices = equilibrium.state.prices
        br_a = best_response(
            game_of(2, capacity=0.5), 0, prices, price_range=(0.05, 2.0),
            grid_points=16,
        )
        assert float(br_a["price"]) == pytest.approx(prices[0], abs=0.02)


def sig(x):
    """``x`` at the repo's 12-significant-digit convention."""
    return format(float(x), ".12g")


def assert_state_matches(state, golden):
    assert [sig(p) for p in state.prices] == golden["prices"]
    assert [sig(w) for w in state.shares] == golden["shares"]
    assert [sig(r) for r in state.revenues] == golden["revenues"]
    assert sig(state.welfare) == golden["welfare"]
    assert [
        [sig(s) for s in eq.subsidies] for eq in state.equilibria
    ] == golden["subsidies"]


def assert_competition_matches(result, golden):
    assert result.mode == "gauss-seidel"
    assert result.iterations == golden["iterations"]
    assert sig(result.residual) == golden["residual"]
    assert_state_matches(result.state, golden)


#: Frozen N=2 outputs under the numpy backend. The states at fixed prices
#: were recorded from the former two-carrier module (whose results this
#: game reproduced bitwise) before it was folded into
#: :class:`OligopolyGame`; the best responses and competitions were
#: re-recorded when the search became the certified slope search (each new
#: revenue is at least the old one's, against the same rival prices).
GOLDEN_NUMPY = {
    "best_responses_g10": ["0.613338721075", "0.545970092422", "0.580210125205"],
    "state": {
        "prices": ["0.9", "1.1"],
        "shares": ["0.598687660112", "0.401312339888"],
        "revenues": ["0.111342595318", "0.0736076555654"],
        "welfare": "0.182986635044",
        "subsidies": [["0.298135079252", "0.3"], ["0.3", "0.3"]],
    },
    "competition_cheap": {
        "iterations": 21,
        "residual": "9.58538234896e-10",
        "prices": ["0.673311308482", "0.673311308739"],
        "shares": ["0.500000000129", "0.499999999871"],
        "revenues": ["0.0858416295801", "0.0858416295691"],
        "welfare": "0.254983477856",
        "subsidies": [["0.245016522079"], ["0.245016522209"]],
    },
    "section5_best_responses": ["0.683535526353", "0.613583384694"],
    "section5_state": {
        "prices": ["0.8", "1.2"],
        "shares": ["0.689974481128", "0.310025518872"],
        "revenues": ["0.215409075726", "0.128617728153"],
        "welfare": "0.32110753454",
        "subsidies": [
            ["0", "0", "0.293455585962", "0.296746512163", "0.392740029982",
             "0.445907916003", "0.5", "0.5"],
            ["0", "0", "0.298910379787", "0.29856807178", "0.439933603737",
             "0.42141771423", "0.5", "0.5"],
        ],
    },
    "best_responses_g12": ["0.613338721079", "0.545970092526", "0.580210125237"],
    "competition": {
        "iterations": 26,
        "residual": "4.32128118011e-10",
        "prices": ["0.513939915079", "0.513939914888"],
        "shares": ["0.499999999904", "0.500000000096"],
        "revenues": ["0.100876777319", "0.100876777328"],
        "welfare": "0.350292542788",
        "subsidies": [["0.282169985691", "0.3"], ["0.282169985659", "0.3"]],
    },
}

#: The kernel backends compute the revenue slope in the compiled call
#: (the NumPy backend in Python, with other operation orders) and evaluate
#: ``exp`` with libm, so the searches land on prices that differ in the
#: last digits (recorded on cext; pyloops agrees).
GOLDEN_KERNEL = {
    **GOLDEN_NUMPY,
    "best_responses_g10": ["0.613338721075", "0.545970092422", "0.580210125203"],
    "best_responses_g12": ["0.613338721076", "0.545970092523", "0.580210125238"],
    "section5_best_responses": ["0.683535526353", "0.613583384695"],
    "competition_cheap": {
        "iterations": 21,
        "residual": "9.62604662647e-10",
        "prices": ["0.673311308478", "0.673311308748"],
        "shares": ["0.500000000135", "0.499999999865"],
        "revenues": ["0.0858416295804", "0.085841629569"],
        "welfare": "0.254983477855",
        "subsidies": [["0.245016522077"], ["0.245016522213"]],
    },
    "competition": {
        "iterations": 26,
        "residual": "4.3232303848e-10",
        "prices": ["0.513939915079", "0.513939914883"],
        "shares": ["0.499999999902", "0.500000000098"],
        "revenues": ["0.100876777318", "0.100876777328"],
        "welfare": "0.350292542789",
        "subsidies": [["0.282169985691", "0.3"], ["0.282169985658", "0.3"]],
    },
}


def golden(name):
    table = GOLDEN_NUMPY if get_backend().name == "numpy" else GOLDEN_KERNEL
    return table[name]


def best_responses(game, calls, grid_points, warm=None):
    """Sequential best responses on one game, at the 12-digit convention;
    each carrier's search is warm-started from its previous one, whose
    profile ``warm`` keeps by carrier."""
    out, warm = [], {} if warm is None else warm
    for index, rival in calls:
        prices = (1.0, rival) if index == 0 else (rival, 1.0)
        outcome = best_response(
            game, index, prices, price_range=(0.05, 2.0),
            grid_points=grid_points, warm0=warm.get(index),
        )
        warm[index] = outcome["warm"]
        out.append(sig(outcome["price"]))
    return out


class TestTwoCarrierGolden:
    """N=2 results equal the frozen goldens (floats at 12 significant
    digits, iteration counts exactly)."""

    def test_best_response_prices(self):
        calls = ((0, 1.1), (1, 0.7), (0, 0.9))
        assert best_responses(
            game_of(2, capacity=0.5), calls, 10
        ) == golden("best_responses_g10")
        assert best_responses(
            game_of(2, capacity=0.5), calls, 12
        ) == golden("best_responses_g12")

    def test_solve_state(self):
        assert_state_matches(
            game_of(2, capacity=0.5).solve((0.9, 1.1)), golden("state")
        )

    def test_price_competition_cheap_market(self):
        result = solve_oligopoly_competition(
            game_of(2, capacity=0.5, cps=cheap_providers()),
            initial_prices=(0.7, 0.7),
            price_range=(0.05, 2.0),
            grid_points=10,
            policy=IterationPolicy(tol=1e-9),
        )
        assert_competition_matches(result, golden("competition_cheap"))

    def test_price_competition(self):
        result = solve_oligopoly_competition(
            game_of(2, capacity=0.5),
            price_range=(0.05, 2.0),
            grid_points=12,
            policy=IterationPolicy(tol=1e-9),
        )
        assert_competition_matches(result, golden("competition"))

    def test_best_response_and_state_on_section5(self):
        from repro.experiments.scenarios import section5_market

        game = OligopolyGame(
            section5_market().providers,
            tuple(
                AccessISP(price=1.0, capacity=0.5, name=f"s5-{k}")
                for k in range(2)
            ),
            switching=2.0,
            cap=0.5,
            service=SolveService(cache=SolveCache()),
        )
        warm = {}
        assert best_responses(
            game, ((0, 1.2), (1, 0.8)), 8, warm
        ) == golden("section5_best_responses")
        # The state was recorded warm-started from the searches' profiles.
        state = game._solve_state((0.8, 1.2), (warm[0], warm[1]))
        assert_state_matches(state, golden("section5_state"))


class TestMonopolyDegeneration:
    def test_single_carrier_recovers_the_monopoly_price(self):
        result = solve_oligopoly_competition(
            game_of(1, capacity=1.0, cps=cheap_providers()),
            price_range=(0.05, 2.0),
            grid_points=12,
            policy=IterationPolicy(damping=1.0, tol=1e-3, max_sweeps=10),
        )
        assert result.state.shares == (1.0,)
        monopoly = optimal_price(
            Market(cheap_providers(), AccessISP(price=1.0, capacity=1.0)),
            cap=0.3,
            price_range=(0.05, 2.0),
            grid_points=12,
        )
        assert result.state.prices[0] == pytest.approx(
            monopoly.price, abs=1e-3
        )
        assert result.state.total_revenue == pytest.approx(
            monopoly.revenue, rel=1e-3
        )


class TestIterationModes:
    def test_jacobi_agrees_with_gauss_seidel(self):
        gs = solve_oligopoly_competition(
            game_of(3, cps=cheap_providers()),
            initial_prices=(0.6, 0.6, 0.6),
            price_range=(0.05, 2.0),
            grid_points=8,
            xtol=1e-3,
            policy=IterationPolicy(tol=5e-3),
        )
        jacobi = solve_oligopoly_competition(
            game_of(3, cps=cheap_providers()),
            initial_prices=(0.6, 0.6, 0.6),
            price_range=(0.05, 2.0),
            grid_points=8,
            xtol=1e-3,
            policy=IterationPolicy(mode="jacobi", tol=5e-3),
        )
        assert jacobi.mode == "jacobi"
        np.testing.assert_allclose(
            jacobi.state.prices, gs.state.prices, atol=2e-2
        )
        # Symmetric carriers, symmetric start: Jacobi keeps exact symmetry.
        assert len(set(jacobi.state.prices)) == 1

    def test_carrier_stats_recorded_in_both_modes(self):
        for mode in ("gauss-seidel", "jacobi"):
            result = solve_oligopoly_competition(
                game_of(2, capacity=0.5, cps=cheap_providers()),
                price_range=(0.05, 2.0),
                grid_points=6,
                xtol=1e-2,
                policy=IterationPolicy(mode=mode, tol=2e-2),
            )
            assert len(result.carrier_stats) == 2
            for stats in result.carrier_stats:
                assert stats.sweeps == result.iterations
                assert stats.solves > 0
                assert stats.evaluations > 0
            assert result.total_solves == sum(
                s.solves for s in result.carrier_stats
            )


class TestEdgeCases:
    def test_budget_exhaustion_raises_convergence_error(self):
        with pytest.raises(ConvergenceError) as excinfo:
            solve_oligopoly_competition(
                game_of(2, capacity=0.5, cps=cheap_providers()),
                price_range=(0.05, 2.0),
                grid_points=6,
                xtol=1e-3,
                policy=IterationPolicy(tol=1e-12, max_sweeps=1),
            )
        assert excinfo.value.iterations == 1
        assert excinfo.value.residual > 1e-12

    def test_iteration_policy_validation(self):
        with pytest.raises(ModelError):
            IterationPolicy(mode="newton")
        with pytest.raises(ModelError):
            IterationPolicy(damping=0.0)
        with pytest.raises(ModelError):
            IterationPolicy(damping=1.5)
        with pytest.raises(ModelError):
            IterationPolicy(tol=0.0)
        with pytest.raises(ModelError):
            IterationPolicy(max_sweeps=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": float("inf")},
            {"tol": float("nan")},
            {"max_sweeps": 2.5},
            {"max_sweeps": True},
            {"max_sweeps": "3"},
        ],
    )
    def test_iteration_policy_rejects_non_finite_tol_and_non_integral_sweeps(
        self, kwargs
    ):
        # An infinite tol would report convergence after one sweep; a
        # fractional budget would only fail later, inside range().
        with pytest.raises(ModelError):
            IterationPolicy(**kwargs)

    def test_iteration_policy_accepts_an_integral_float_budget(self):
        policy = IterationPolicy(max_sweeps=3.0)
        assert policy.max_sweeps == 3
        assert type(policy.max_sweeps) is int

    def test_game_validation(self):
        with pytest.raises(ModelError):
            OligopolyGame([], carrier_isps(2))
        with pytest.raises(ModelError):
            OligopolyGame(providers(), [])
        with pytest.raises(ModelError):
            OligopolyGame(providers(), carrier_isps(2), switching=-1.0)
        with pytest.raises(ModelError):
            OligopolyGame(providers(), carrier_isps(2), cap=-0.5)

    def test_price_vector_length_checked(self):
        game = game_of(3)
        with pytest.raises(ModelError):
            game.solve((1.0, 1.0))
        with pytest.raises(ModelError):
            solve_oligopoly_competition(game, initial_prices=(1.0, 1.0))


class TestCompetitionSettings:
    def test_defaults_when_nothing_given(self):
        settings = competition_settings()
        assert settings.policy.mode == COMPETITION_DEFAULTS["iteration_mode"]
        assert settings.policy.damping == COMPETITION_DEFAULTS["damping"]
        assert settings.price_range == COMPETITION_DEFAULTS["price_range"]
        assert settings.grid_points == COMPETITION_DEFAULTS["grid_points"]
        assert settings.xtol == COMPETITION_DEFAULTS["xtol"]

    def test_overrides_beat_metadata_beat_defaults(self):
        settings = competition_settings(
            {"damping": 0.5, "grid_points": 10},
            overrides={"grid_points": 8, "tol": None},
        )
        assert settings.policy.damping == 0.5       # metadata
        assert settings.grid_points == 8            # override wins
        assert settings.policy.tol == COMPETITION_DEFAULTS["tol"]  # None falls through

    def test_malformed_metadata_raises_model_error(self):
        for bad in (
            {"price_range": [1.0]},
            {"price_range": "wide"},
            {"damping": 1.5},
            {"iteration_mode": "sor"},
            {"grid_points": "many"},
            {"max_sweeps": 0},
            {"price_range": [3.0, 0.0]},
            {"price_range": [-1.0, 3.0]},
            {"price_range": [0.0, float("inf")]},
            {"price_range": [float("nan"), 3.0]},
            {"grid_points": 2},
            {"xtol": 0.0},
            {"xtol": -1e-7},
            {"xtol": float("nan")},
            {"xtol": float("inf")},
            {"tol": float("inf")},
            *(
                {key: value}
                for key in ("grid_points", "max_sweeps")
                for value in (32.9, True, "32", float("inf"), float("nan"))
            ),
        ):
            with pytest.raises(ModelError):
                competition_settings(bad)

    def test_integral_float_counts_accepted(self):
        # JSON writers may emit 32.0 for 32; that is still a whole number.
        settings = competition_settings({"grid_points": 32.0, "max_sweeps": 7.0})
        assert settings.grid_points == 32
        assert type(settings.grid_points) is int
        assert settings.policy.max_sweeps == 7
        assert type(settings.policy.max_sweeps) is int

    def test_degenerate_but_valid_search_settings_accepted(self):
        settings = competition_settings(
            {"price_range": [1.5, 1.5], "grid_points": 3, "xtol": 1e-12}
        )
        assert settings.price_range == (1.5, 1.5)
        assert settings.grid_points == 3

    def test_competition_search_defaults_are_the_competition_defaults(self):
        import inspect

        params = inspect.signature(solve_oligopoly_competition).parameters
        for key in ("price_range", "grid_points", "xtol"):
            assert params[key].default == COMPETITION_DEFAULTS[key]

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ModelError):
            competition_settings(overrides={"dampin": 0.5})


class TestSweepOwnPriceEntry:
    def test_own_price_entry_does_not_change_the_search(self):
        """Every candidate replaces the carrier's own entry of the price
        vector, so two searches differing only there agree bit for bit."""
        game = OligopolyGame(
            cheap_providers(), carrier_isps(2, 0.5), switching=2.0, cap=0.3
        )
        first, second = (
            best_response(
                game, 0, prices, price_range=(0.05, 2.0), grid_points=6,
                xtol=1e-3,
            )
            for prices in ((1.0, 1.1), (2.5, 1.1))
        )
        assert_outcomes_identical(second, first)


class TestCompetitionTask:
    def test_keyed_on_the_clipped_arguments(self):
        service = SolveService(cache=SolveCache())
        game = OligopolyGame(
            cheap_providers(), carrier_isps(2, 0.5), switching=2.0, cap=0.3,
            service=service,
        )

        def computed(initial, **policy):
            before = service.counters.computed
            solve_oligopoly_competition(
                game, initial_prices=initial, price_range=(0.05, 2.0),
                grid_points=6, xtol=1e-2,
                policy=IterationPolicy(tol=2e-2, **policy),
            )
            return service.counters.computed - before

        # The competition task and the two carriers' state tasks.
        assert computed((2.0, 2.0)) == 3
        assert computed((2.0, 2.0)) == 0
        # Initial prices clip to the range before they enter the key.
        assert computed((5.0, 9.0)) == 0
        # Another budget is another competition, which lands on the same
        # prices and profiles, so its states hit.
        assert computed((2.0, 2.0), max_sweeps=59) == 1


class TestWarmStoreReplay:
    def test_competition_replays_with_zero_solves(self, tmp_path):
        def run(service):
            game = OligopolyGame(
                cheap_providers(),
                carrier_isps(3),
                switching=2.0,
                cap=0.3,
                service=service,
            )
            return solve_oligopoly_competition(
                game,
                price_range=(0.05, 2.0),
                grid_points=6,
                xtol=1e-3,
                policy=IterationPolicy(tol=1e-2),
            )

        first = run(
            SolveService(cache=SolveCache(), store=SolveStore(tmp_path))
        )
        replay_service = SolveService(
            cache=SolveCache(), store=SolveStore(tmp_path)
        )
        second = run(replay_service)
        assert replay_service.counters.computed == 0
        assert replay_service.counters.store_hits > 0
        assert second.iterations == first.iterations
        assert second.state.prices == first.state.prices
        assert second.state.revenues == first.state.revenues
        for k in range(3):
            assert (
                second.state.equilibria[k].subsidies.tobytes()
                == first.state.equilibria[k].subsidies.tobytes()
            )


class TestFromScenario:
    def test_registered_oligopoly_scenario(self):
        from repro.scenarios import get_scenario

        game = OligopolyGame.from_scenario(
            get_scenario("oligopoly-4"),
            service=SolveService(cache=SolveCache()),
        )
        assert game.n_carriers == 4
        assert game.cap == 0.5
        assert game.switching == 2.0
        # Capacity split evenly: §5 market has a unit link.
        assert [isp.capacity for isp in game.isps] == [0.25] * 4

    def test_overrides_beat_metadata(self):
        from repro.scenarios import get_scenario

        game = OligopolyGame.from_scenario(
            get_scenario("oligopoly-4"),
            carriers=2,
            switching=1.0,
            cap=0.1,
            split_capacity=False,
            service=SolveService(cache=SolveCache()),
        )
        assert game.n_carriers == 2
        assert game.switching == 1.0
        assert game.cap == 0.1
        assert [isp.capacity for isp in game.isps] == [1.0, 1.0]

    def test_plain_scenario_uses_defaults(self):
        from repro.scenarios import ScenarioSpec

        spec = ScenarioSpec(
            scenario_id="plain",
            title="no oligopoly metadata",
            market=Market(providers(), AccessISP(price=1.0, capacity=1.0)),
            prices=(0.5, 1.0),
            policy_levels=(0.0,),
        )
        game = OligopolyGame.from_scenario(
            spec, service=SolveService(cache=SolveCache())
        )
        assert game.n_carriers == 2
        assert game.switching == 2.0
        assert game.cap == 0.0

    def test_invalid_carrier_count_rejected(self):
        from repro.scenarios import get_scenario

        with pytest.raises(ModelError):
            OligopolyGame.from_scenario(
                get_scenario("oligopoly-4"), carriers=0
            )


#: A three-carrier Gauss-Seidel competition on the §5 market under the
#: fused kernels, frozen as exact floats (``float.hex``) and counters.
#: Every CP equilibrium here is one whole-equilibrium kernel call (Jacobi
#: sweeps, Newton polish, certified state and revenue slope). Re-recorded
#: when the best-response search became the certified slope search; any
#: change to a floating-point operation or summation order on that path
#: shows up here.
FROZEN_KERNEL_N3 = {
    "iterations": 22,
    "residual": "0x1.08b9d60000000p-30",
    "prices": [
        "0x1.12b1072301ccap-1", "0x1.12b10723fab74p-1",
        "0x1.12b10727fd8abp-1",
    ],
    "revenues": [
        "0x1.ea1ee2d9dcb03p-4", "0x1.ea1ee2d9a0651p-4",
        "0x1.ea1ee2d8a7ad4p-4",
    ],
    "welfare": "0x1.26799044fc3afp-1",
    "carrier_stats": [(22, 92, 92), (22, 91, 91), (22, 88, 88)],
    "subsidies_sha256": (
        "b46e40310d31f0fb98d2040e903cb8ca8c087458e455c7c2ba4eee3d3ad409e1"
    ),
}


class TestFrozenKernelCompetition:
    def test_three_carriers_bitwise(self):
        import hashlib

        from repro.backend import use_backend
        from repro.experiments.scenarios import section5_market

        with use_backend("compiled") as backend:
            if not backend.compiled:
                pytest.skip(f"no kernel backend: {backend.fallback_reason}")
            game = OligopolyGame(
                section5_market().providers,
                tuple(
                    AccessISP(price=1.0, capacity=1.0 / 3, name=f"c{k}")
                    for k in range(3)
                ),
                switching=2.0,
                cap=0.5,
                service=SolveService(cache=SolveCache()),
            )
            result = solve_oligopoly_competition(
                game,
                initial_prices=(0.7, 0.7, 0.7),
                price_range=(0.05, 2.0),
                grid_points=8,
                xtol=1e-5,
                policy=IterationPolicy(tol=1e-9),
            )
        frozen = FROZEN_KERNEL_N3
        assert result.iterations == frozen["iterations"]
        assert result.residual.hex() == frozen["residual"]
        assert [p.hex() for p in result.state.prices] == frozen["prices"]
        assert [r.hex() for r in result.state.revenues] == frozen["revenues"]
        assert result.state.welfare.hex() == frozen["welfare"]
        assert [
            (s.sweeps, s.solves, s.evaluations) for s in result.carrier_stats
        ] == frozen["carrier_stats"]
        digest = hashlib.sha256()
        for eq in result.state.equilibria:
            digest.update(np.asarray(eq.subsidies, dtype=np.float64).tobytes())
        assert digest.hexdigest() == frozen["subsidies_sha256"]


def section5_providers():
    from repro.experiments.scenarios import section5_market

    return section5_market().providers


def section5_sweep(cps, n, index, *, warm0=None):
    """One best-response search of carrier ``index`` among ``n`` on the
    §5 market's providers ``cps``, with coarse search settings."""
    isp = AccessISP(price=1.0, capacity=1.0 / n, name="s5")
    prices = tuple(0.8 + 0.1 * k for k in range(n))
    return oligopoly.solve_oligopoly_sweep(
        cps, isp, 2.0, 0.5, index,
        oligopoly._with_candidate(prices, index, 0.0),
        0.05, 2.0, 8, 1e-5, 1e-9, warm0,
    )


def market_route_only(monkeypatch):
    """Send every candidate price through ``scaled_carrier_market`` and
    ``solve_equilibrium``, as if no repriced plan were ever certified."""
    monkeypatch.setattr(
        oligopoly, "certified_fused_equilibrium", lambda *args: None
    )


def assert_outcomes_identical(got, want):
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert got[key].tobytes() == want[key].tobytes(), key


@pytest.fixture
def count_markets(monkeypatch):
    """The number of ``Market`` objects built since the fixture ran."""
    built = []
    init = Market.__init__

    def counting(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Market, "__init__", counting)
    return built


@pytest.mark.parametrize("name", KERNEL_BACKENDS)
class TestRepricedPlanRoute:
    """Under a kernel backend each candidate price after the first reprices
    the sweep's kernel plan instead of building its carrier market; the
    outcome is the market route's, bit for bit."""

    def test_repriced_plan_is_the_scaled_market_plan(self, name):
        cps = section5_providers()
        isp = AccessISP(price=1.0, capacity=0.5)
        base = oligopoly.scaled_carrier_market(cps, isp, 0.5, 1.0)
        want = oligopoly.scaled_carrier_market(cps, isp, 0.3, 0.7)
        got = base.kernel_plan().repriced(0.7, 0.3)
        want = want.kernel_plan()
        assert got.price == want.price
        for field in (
            "values", "demand_tags", "demand_params", "rate_tags",
            "rate_params",
        ):
            assert getattr(got, field).tobytes() == getattr(
                want, field
            ).tobytes(), field
        assert (got.mu, got.xtol) == (want.mu, want.xtol)
        assert got.values is base.kernel_plan().values
        assert got.demand_params is not base.kernel_plan().demand_params

    @pytest.mark.parametrize("n", [2, 3])
    def test_sweeps_match_the_market_route_bitwise(
        self, name, n, monkeypatch, count_markets
    ):
        cps = section5_providers()

        def chain():
            first = section5_sweep(cps, n, 0)
            second = section5_sweep(cps, n, n - 1, warm0=first["warm"])
            return first, second

        with use_backend(name):
            count_markets.clear()
            repriced = chain()
            repriced_markets = len(count_markets)
            market_route_only(monkeypatch)
            reference = chain()
        for got, want in zip(repriced, reference):
            assert_outcomes_identical(got, want)
        # One carrier market per sweep task (the first candidate's).
        assert repriced_markets == 2
        assert len(count_markets) - repriced_markets == sum(
            int(outcome["solves"]) for outcome in reference
        )

    def test_competition_builds_one_market_per_sweep_task(
        self, name, count_markets
    ):
        n = 4
        game = game_of(n, cps=cheap_providers())
        with use_backend(name):
            count_markets.clear()
            result = solve_oligopoly_competition(
                game, price_range=(0.05, 2.0), grid_points=6, xtol=1e-3,
                policy=IterationPolicy(tol=1e-3),
            )
        tasks = sum(stats.sweeps for stats in result.carrier_stats)
        # Sweep tasks, plus N fingerprint markets and N final states.
        assert len(count_markets) <= tasks + 2 * n
        assert result.total_solves > tasks + 2 * n

    def test_spent_jacobi_budget_falls_back_to_solve_equilibrium(
        self, name, monkeypatch
    ):
        from repro.backend import profiling
        from repro.core import equilibrium

        monkeypatch.setattr(equilibrium, "_JACOBI_BUDGET", 1)
        cps = section5_providers()
        with use_backend(name):
            profiling.reset()
            with profiling.profiled():
                got = section5_sweep(cps, 2, 0)
            counts = profiling.snapshot()
            market_route_only(monkeypatch)
            want = section5_sweep(cps, 2, 0)
        assert counts["equilibrium_fallbacks"] > 0
        assert float(got["price"]) == float(want["price"])
        assert_outcomes_identical(got, want)

    def test_uncertified_candidate_makes_one_kernel_call(
        self, name, monkeypatch
    ):
        # A candidate whose compiled call spends its Jacobi budget hands
        # that call to solve_equilibrium, which goes on to Gauss-Seidel
        # without repeating it: one equilibrium kernel call per solve.
        from repro.backend import profiling
        from repro.core import equilibrium

        monkeypatch.setattr(equilibrium, "_JACOBI_BUDGET", 1)
        with use_backend(name):
            profiling.reset()
            with profiling.profiled():
                outcome = section5_sweep(section5_providers(), 2, 0)
            counts = profiling.snapshot()
        assert counts["equilibrium_fallbacks"] > 0
        assert counts["equilibrium_kernel_calls"] == int(outcome["solves"])

    def test_invalid_share_on_a_later_candidate_raises_the_market_route_error(
        self, name, monkeypatch
    ):
        # At a huge switching sensitivity every logit term of a candidate
        # above ~1.8 underflows, so its share is NaN while the first
        # candidate's (price 0) is 1.
        cps = section5_providers()
        isp = AccessISP(price=1.0, capacity=0.5)

        def sweep():
            return oligopoly.solve_oligopoly_sweep(
                cps, isp, 1e308, 0.5, 0, (0.0, 2.0), 0.0, 3.0, 8, 1e-5, 1e-9,
                None,
            )

        with use_backend(name):
            for force in (False, True):
                if force:
                    market_route_only(monkeypatch)
                with pytest.raises(ModelError, match="weight must be finite"):
                    sweep()

    @pytest.mark.parametrize(
        "warm0, message",
        [
            (np.zeros(3), r"initial profile must have shape \(8,\), got \(3,\)"),
            (np.full(8, np.nan), "initial profile must not contain NaN"),
        ],
    )
    def test_malformed_warm_start_raises_the_market_route_error(
        self, name, warm0, message, monkeypatch
    ):
        cps = section5_providers()
        errors = []
        with use_backend(name):
            for force in (False, True):
                if force:
                    market_route_only(monkeypatch)
                with pytest.raises(ModelError, match=message) as caught:
                    section5_sweep(cps, 2, 0, warm0=warm0)
                errors.append(str(caught.value))
        assert errors[0] == errors[1]


def single_cp_sweep(cap, *, lo=0.05, hi=2.0):
    """One carrier's full certified search on a one-CP market it owns."""
    return oligopoly.solve_oligopoly_sweep(
        (exponential_cp(2.0, 2.0, value=1.0),),
        AccessISP(price=1.0, capacity=1.0), 2.0, cap, 0, (0.0,), lo, hi, 16,
        1e-9, 1e-10, None,
    )


def certificate_of(outcome):
    return oligopoly.CERTIFICATES[int(outcome["certificate"])]


@pytest.mark.parametrize("name", ["numpy", *KERNEL_BACKENDS])
class TestCertificates:
    """Each certificate kind, reached on a constructed market."""

    def test_interior_zero_of_the_slope(self, name):
        with use_backend(name):
            outcome = single_cp_sweep(0.5)
        assert certificate_of(outcome) == "interior"
        assert abs(float(outcome["slope"])) <= 1e-10
        # The subsidy is interior too: a smooth piece of R(p).
        assert 0.0 < float(outcome["warm"][0]) < 0.5

    def test_range_bound_with_an_outward_slope(self, name):
        with use_backend(name):
            outcome = single_cp_sweep(0.5, hi=0.6)
        assert certificate_of(outcome) == "bound"
        assert float(outcome["price"]) == 0.6
        assert float(outcome["slope"]) > 0.0

    def test_kink_where_the_subsidy_reaches_its_cap(self, name):
        # With q = 0.275 the CP's subsidy reaches the cap at the revenue
        # peak: R'(p) jumps from + to − there, and no price has a zero
        # slope.
        with use_backend(name):
            outcome = single_cp_sweep(0.275)
        assert certificate_of(outcome) == "kink"
        assert float(outcome["price"]) == pytest.approx(0.795827, abs=1e-5)
        assert abs(float(outcome["slope"])) > 1e-3


class TestCertifiedCompetition:
    def test_jacobi_and_gauss_seidel_reach_one_certified_equilibrium(self):
        def solve(mode):
            return solve_oligopoly_competition(
                game_of(3, cps=cheap_providers()),
                initial_prices=(0.6, 0.6, 0.6),
                price_range=(0.05, 2.0),
                grid_points=8,
                policy=IterationPolicy(mode=mode, tol=1e-9),
            )

        gs, jacobi = solve("gauss-seidel"), solve("jacobi")
        np.testing.assert_allclose(
            jacobi.state.prices, gs.state.prices, atol=1e-8
        )
        for result in (gs, jacobi):
            assert all(
                s.certificate == "interior" for s in result.carrier_stats
            )
            assert result.residual <= 1e-9

    def test_four_identical_carriers_agree(self):
        from repro.backend import profiling
        from repro.scenarios import get_scenario

        with use_backend("compiled") as backend:
            if not backend.compiled:
                pytest.skip(f"no kernel backend: {backend.fallback_reason}")
            game = OligopolyGame.from_scenario(
                get_scenario("oligopoly-4"),
                service=SolveService(cache=SolveCache()),
            )
            profiling.reset()
            with profiling.profiled():
                result = solve_oligopoly_competition(game)
            counts = profiling.snapshot()
        prices = result.state.prices
        assert max(prices) - min(prices) <= 1e-9
        # The prices the price-change stop rule reported before the
        # certified search, which spread by 1.9e-6.
        before = (
            0.5202149223732289, 0.5202141454919634, 0.5202134526038319,
            0.5202130241487855,
        )
        np.testing.assert_allclose(prices, before, atol=1e-5)
        assert counts["equilibrium_kernel_calls"] <= 1000
        assert counts["equilibrium_fallbacks"] == 0
        for stats in result.carrier_stats:
            assert stats.certificate == "interior"
            # The full grid on the first and the verifying sweep; local
            # searches in between.
            assert 2 <= stats.grid_sweeps < stats.sweeps


@pytest.mark.parametrize(
    "cap, price_range, kind",
    [(0.3, (0.05, 0.4), "bound"), (0.275, (0.05, 2.0), "kink")],
)
def test_competition_settles_on_bound_and_kink_certificates(
    cap, price_range, kind
):
    # A damped price only approaches a bound or kink geometrically; a
    # price within xtol of one is certified, so the iteration stops.
    game = OligopolyGame(
        (exponential_cp(2.0, 2.0, value=1.0),),
        carrier_isps(1, 1.0),
        switching=2.0,
        cap=cap,
        service=SolveService(cache=SolveCache()),
    )
    result = solve_oligopoly_competition(game, price_range=price_range)
    assert result.carrier_stats[0].certificate == kind
    assert result.iterations < 20
    assert price_range[0] <= result.state.prices[0] <= price_range[1]
