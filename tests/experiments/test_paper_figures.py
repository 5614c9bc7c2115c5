"""Figures 4–11 regenerated end to end, with quantitative anchors.

Each test recomputes one figure (every equilibrium on its grid) on the
paper's price axis thinned 2x, asserts the experiment's shape checks, and
pins the paper's headline observation for that figure. The module starts
from one cold default service: fig07–fig11 share the §5 grid, so the
first of them solves it and the rest read its memoized rows.
"""

import numpy as np
import pytest

from repro.engine.service import default_service
from repro.experiments import fig04, fig05, fig07, fig08, fig09, fig10, fig11
from repro.experiments.scenarios import POLICY_LEVELS, SECTION5_PARAMETERS


@pytest.fixture(scope="module", autouse=True)
def cold_service():
    """Clear the default service's memory tier before the module's first
    figure and after its last."""
    default_service().clear_memory()
    default_service().reset_counters()
    yield
    default_service().clear_memory()

#: The paper's price axis, thinned 2x.
PRICES = np.round(np.linspace(0.0, 2.0, 21), 10)
#: The paper's five policy levels.
CAPS = POLICY_LEVELS


def assert_all_checks_pass(result):
    failed = [check.name for check in result.checks if not check.passed]
    assert not failed, f"{result.experiment_id} shape checks failed: {failed}"


def test_fig04():
    # 21 one-sided solves of the 9-CP §3 market.
    result = fig04.compute(PRICES)
    assert_all_checks_pass(result)
    # The reproduced revenue peak sits in the interior, as in the paper.
    revenue = result.figures[1].series_by_name("revenue").y
    assert revenue.max() > revenue[0] and revenue.max() > revenue[-1]


def test_fig05():
    result = fig05.compute(PRICES)
    assert_all_checks_pass(result)
    figure = result.figures[0]
    assert len(figure.series) == 9
    # Paper's headline observation: the α=1, β=5 CP type *gains* throughput
    # over part of the price axis while α=5, β=1 only loses.
    rising = figure.series_by_name("a1b5").y
    falling = figure.series_by_name("a5b1").y
    assert np.any(np.diff(rising) > 0.0)
    assert np.all(np.diff(falling) <= 1e-9)


def test_fig07():
    # The full §5 grid: 21 prices x 5 policy levels = 105 Nash equilibria.
    result = fig07.compute(PRICES, CAPS)
    assert_all_checks_pass(result)
    revenue_panel, welfare_panel = result.figures
    # Deregulation dominance at the revenue-peak price, quantitatively:
    # under q = 2 the ISP earns strictly more than under q = 0.
    base = revenue_panel.series_by_name("q=0").y
    dereg = revenue_panel.series_by_name("q=2").y
    interior = slice(2, -2)
    assert np.all(dereg[interior] > base[interior])
    # Welfare ordering mirrors it.
    assert np.all(
        welfare_panel.series_by_name("q=2").y[interior]
        >= welfare_panel.series_by_name("q=0").y[interior] - 1e-9
    )


def test_fig08():
    result = fig08.compute(PRICES, CAPS)
    assert_all_checks_pass(result)
    assert len(result.figures) == 8
    # The (α=5, β=5, v=1) CP's subsidy under q=2 approaches its
    # v − 1/α = 0.8 asymptote.
    panel = result.figures[-1]  # last panel is a5b5v1
    tail = panel.series_by_name("q=2").y[-1]
    assert 0.7 < tail < 0.8


def test_fig09():
    result = fig09.compute(PRICES, CAPS)
    assert_all_checks_pass(result)
    # Subsidies keep populations above the regulated baseline everywhere.
    for panel in result.figures:
        base = panel.series_by_name("q=0").y
        dereg = panel.series_by_name("q=2").y
        assert np.all(dereg >= base - 1e-9)


def test_fig10():
    result = fig10.compute(PRICES, CAPS)
    assert_all_checks_pass(result)
    # The paper's exception CP (α=2, β=5, v=1) loses throughput vs the
    # regulated baseline at the congested low-price end under q=2.
    index = SECTION5_PARAMETERS.index((2.0, 5.0, 1.0))
    panel = result.figures[index]
    base = panel.series_by_name("q=0").y
    dereg = panel.series_by_name("q=2").y
    low_p = panel.x <= 0.31
    assert np.any(dereg[low_p] < base[low_p])


def test_fig11():
    result = fig11.compute(PRICES, CAPS)
    assert_all_checks_pass(result)
    # Utilities stay non-negative across the whole grid (a CP can always
    # play s = 0), and at least one CP strictly gains from deregulation.
    gains = 0
    for panel in result.figures:
        base = panel.series_by_name("q=0").y
        dereg = panel.series_by_name("q=2").y
        assert np.all(dereg >= -1e-9)
        if np.any(dereg > base + 1e-6):
            gains += 1
    assert gains >= 1
