"""Integration tests regenerating every figure on a coarse grid.

Each experiment runs on the paper's price axis thinned 2x (21 prices × 5
policies), exercising the complete pipeline — equilibrium grid, series
extraction, CSV output and the qualitative shape checks.
``test_paper_figures.py`` adds one quantitative anchor per figure.
"""

import numpy as np
import pytest

from repro.experiments import fig04, fig05, fig07, fig08, fig09, fig10, fig11
from repro.experiments.base import (
    is_nondecreasing,
    is_nonincreasing,
    is_single_peaked,
)

COARSE_PRICES = np.round(np.linspace(0.0, 2.0, 21), 10)
COARSE_CAPS = (0.0, 0.5, 1.0, 1.5, 2.0)


@pytest.fixture(scope="module")
def fig4_result():
    return fig04.compute(COARSE_PRICES)


@pytest.fixture(scope="module")
def fig5_result():
    return fig05.compute(COARSE_PRICES)


@pytest.fixture(scope="module")
def grid_results():
    """Compute the §5 figures once for the whole module (shared cache)."""
    return {
        "fig7": fig07.compute(COARSE_PRICES, COARSE_CAPS),
        "fig8": fig08.compute(COARSE_PRICES, COARSE_CAPS),
        "fig9": fig09.compute(COARSE_PRICES, COARSE_CAPS),
        "fig10": fig10.compute(COARSE_PRICES, COARSE_CAPS),
        "fig11": fig11.compute(COARSE_PRICES, COARSE_CAPS),
    }


class TestFig4:
    def test_all_checks_pass(self, fig4_result):
        failed = [c.name for c in fig4_result.checks if not c.passed]
        assert not failed

    def test_panels(self, fig4_result):
        assert [f.figure_id for f in fig4_result.figures] == [
            "fig4-left",
            "fig4-right",
        ]

    def test_throughput_series_decreasing(self, fig4_result):
        theta = fig4_result.figures[0].series_by_name("theta").y
        assert is_nonincreasing(theta)

    def test_revenue_single_peaked(self, fig4_result):
        revenue = fig4_result.figures[1].series_by_name("revenue").y
        assert is_single_peaked(revenue)

    def test_csv_output(self, fig4_result, tmp_path):
        paths = fig4_result.write_csv(tmp_path)
        assert len(paths) == 2
        assert all(p.exists() for p in paths)

    def test_render_mentions_checks(self, fig4_result):
        out = fig4_result.render()
        assert "PASS" in out


class TestFig5:
    def test_all_checks_pass(self, fig5_result):
        failed = [c.name for c in fig5_result.checks if not c.passed]
        assert not failed

    def test_nine_series(self, fig5_result):
        assert len(fig5_result.figures[0].series) == 9

    def test_low_sensitivity_cp_dominates(self, fig5_result):
        # alpha=1, beta=1 has the largest throughput at p=1 (least
        # price- and congestion-sensitive users).
        figure = fig5_result.figures[0]
        mid = len(figure.x) // 2
        best = max(figure.series, key=lambda s: s.y[mid])
        assert best.name == "a1b1"


class TestSection5Figures:
    def test_all_checks_pass(self, grid_results):
        for name, result in grid_results.items():
            failed = [c.name for c in result.checks if not c.passed]
            assert not failed, f"{name}: {failed}"

    def test_eight_panels_each(self, grid_results):
        for name in ("fig8", "fig9", "fig10", "fig11"):
            assert len(grid_results[name].figures) == 8

    def test_fig7_revenue_monotone_in_q(self, grid_results):
        left = grid_results["fig7"].figures[0]
        # At each price index the five q-series must be ordered.
        ys = np.array([s.y for s in left.series])
        for j in range(ys.shape[1]):
            assert is_nondecreasing(ys[:, j], tol=1e-7)

    def test_fig8_zero_cap_series_is_zero(self, grid_results):
        for panel in grid_results["fig8"].figures:
            assert np.all(panel.series_by_name("q=0").y == 0.0)

    def test_fig10_baseline_matches_fig4_style_solve(self, grid_results):
        # The q=0 series of fig10 must equal a direct one-sided solve.
        from repro.experiments.scenarios import section5_market

        market = section5_market()
        panel = grid_results["fig10"].figures[0]
        j = 10  # p = 1.0 on the coarse grid
        p = float(panel.x[j])
        direct = market.with_price(p).solve().throughputs[0]
        assert panel.series_by_name("q=0").y[j] == pytest.approx(direct, rel=1e-9)

    def test_fig11_utilities_consistent_with_fig8_and_fig10(self, grid_results):
        # U_i = (v_i - s_i) * theta_i ties the three figures together.
        from repro.experiments.scenarios import SECTION5_PARAMETERS

        for i in range(8):
            v = SECTION5_PARAMETERS[i][2]
            s = grid_results["fig8"].figures[i].series_by_name("q=2").y
            theta = grid_results["fig10"].figures[i].series_by_name("q=2").y
            u = grid_results["fig11"].figures[i].series_by_name("q=2").y
            np.testing.assert_allclose(u, (v - s) * theta, rtol=1e-8)
