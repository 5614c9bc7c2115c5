"""Golden regression: spec-driven figures == the pre-refactor data paths.

The figure modules used to orchestrate their own sweeps: Figures 4–5
looped ``market.with_price(p).solve()`` directly, Figures 7–11 read
quantities off one shared :func:`~repro.engine.solve_grid` grid and built
the per-CP panel layout by hand. This test re-implements those legacy data
paths verbatim and asserts the declarative pipeline's CSVs are
**bitwise-identical** to them — the refactor moved orchestration, not
numbers.
"""

import numpy as np
import pytest

from repro.analysis.series import FigureData, Series
from repro.engine import SolveService, solve_grid
from repro.experiments import fig04, fig05, fig07, fig08, fig09, fig10, fig11
from repro.experiments.scenarios import section3_market, section5_market

PRICES = np.round(np.linspace(0.0, 2.0, 11), 10)
CAPS = (0.0, 1.0, 2.0)


@pytest.fixture(scope="module")
def legacy_price_sweep():
    """The old fig4/fig5 loop: one scalar solve per price point."""
    market = section3_market()
    states = [market.with_price(float(p)).solve() for p in PRICES]
    return market, states


@pytest.fixture(scope="module")
def legacy_grid():
    """The old §5 grid: cold-solved (price × policy) equilibria."""
    market = section5_market()
    grid = solve_grid(
        market, PRICES, np.asarray(CAPS, dtype=float), service=SolveService()
    )
    return market, grid


def legacy_fig4_panels(legacy_price_sweep):
    market, states = legacy_price_sweep
    throughput = np.array([s.aggregate_throughput for s in states])
    revenue = np.array([s.revenue for s in states])
    notes = "Φ=θ/µ, µ=1, λ_i=e^{-β_i φ}, m_i=e^{-α_i p}, α,β ∈ {1,3,5}"
    return (
        FigureData(
            figure_id="fig4-left",
            title="Aggregate throughput θ vs price p (9-CP §3 scenario)",
            x_label="p",
            y_label="θ",
            x=PRICES,
            series=(Series("theta", throughput),),
            notes=notes,
        ),
        FigureData(
            figure_id="fig4-right",
            title="ISP revenue R = p·θ vs price p (9-CP §3 scenario)",
            x_label="p",
            y_label="R",
            x=PRICES,
            series=(Series("revenue", revenue),),
            notes=notes,
        ),
    )


def legacy_fig5_panels(legacy_price_sweep):
    market, states = legacy_price_sweep
    theta = np.stack([s.throughputs for s in states], axis=1)
    names = market.provider_names()
    return (
        FigureData(
            figure_id="fig5",
            title="Per-CP throughput θ_i vs price p (9-CP §3 scenario)",
            x_label="p",
            y_label="θ_i",
            x=PRICES,
            series=tuple(Series(names[i], theta[i]) for i in range(market.size)),
            notes="rows: α ∈ {1,3,5}; cols: β ∈ {1,3,5}",
        ),
    )


def legacy_per_cp_panels(market, grid, values, *, figure_id, quantity, y_label):
    """Verbatim copy of the old fig08._per_cp_figures layout."""
    names = market.provider_names()
    figures = []
    for i in range(market.size):
        series = tuple(
            Series(f"q={grid.caps[k]:g}", values[k, :, i])
            for k in range(grid.caps.size)
        )
        figures.append(
            FigureData(
                figure_id=f"{figure_id}-{names[i]}",
                title=f"{quantity} of {names[i]} vs price p",
                x_label="p",
                y_label=y_label,
                x=grid.prices,
                series=series,
            )
        )
    return tuple(figures)


def assert_csv_identical(new_figures, legacy_figures, tmp_path):
    assert [f.figure_id for f in new_figures] == [
        f.figure_id for f in legacy_figures
    ]
    for new, old in zip(new_figures, legacy_figures):
        new_path = tmp_path / "new" / f"{new.figure_id}.csv"
        old_path = tmp_path / "old" / f"{old.figure_id}.csv"
        new.to_csv(new_path)
        old.to_csv(old_path)
        assert new_path.read_bytes() == old_path.read_bytes(), new.figure_id
        assert new.title == old.title
        assert new.notes == old.notes


class TestPriceSweepFigures:
    def test_fig4_bitwise_identical(self, legacy_price_sweep, tmp_path):
        result = fig04.compute(PRICES)
        assert_csv_identical(
            result.figures, legacy_fig4_panels(legacy_price_sweep), tmp_path
        )

    def test_fig5_bitwise_identical(self, legacy_price_sweep, tmp_path):
        result = fig05.compute(PRICES)
        assert_csv_identical(
            result.figures, legacy_fig5_panels(legacy_price_sweep), tmp_path
        )


class TestGridFigures:
    def test_fig7_bitwise_identical(self, legacy_grid, tmp_path):
        market, grid = legacy_grid
        revenue = grid.quantity(lambda eq: eq.state.revenue)
        welfare = grid.quantity(lambda eq: eq.state.welfare)

        def q_series(matrix):
            return tuple(
                Series(f"q={grid.caps[k]:g}", matrix[k])
                for k in range(grid.caps.size)
            )

        notes = "α,β ∈ {2,5}, v ∈ {0.5,1}, µ=1"
        legacy = (
            FigureData(
                figure_id="fig7-left",
                title="ISP revenue R vs price p at five policy levels "
                "(8-CP §5 scenario)",
                x_label="p",
                y_label="R",
                x=grid.prices,
                series=q_series(revenue),
                notes=notes,
            ),
            FigureData(
                figure_id="fig7-right",
                title="System welfare W vs price p at five policy levels",
                x_label="p",
                y_label="W",
                x=grid.prices,
                series=q_series(welfare),
                notes=notes,
            ),
        )
        result = fig07.compute(PRICES, CAPS)
        assert_csv_identical(result.figures, legacy, tmp_path)

    @pytest.mark.parametrize(
        "module, figure_id, quantity, label, y_label",
        [
            (fig08, "fig8", "subsidies", "Equilibrium subsidy s_i", "s_i"),
            (fig09, "fig9", "populations", "Equilibrium user population m_i", "m_i"),
            (fig10, "fig10", "throughputs", "Equilibrium throughput θ_i", "θ_i"),
            (fig11, "fig11", "utilities", "Equilibrium utility U_i", "U_i"),
        ],
    )
    def test_per_cp_figures_bitwise_identical(
        self, legacy_grid, tmp_path, module, figure_id, quantity, label, y_label
    ):
        market, grid = legacy_grid
        extractors = {
            "subsidies": lambda eq: eq.subsidies,
            "populations": lambda eq: eq.state.populations,
            "throughputs": lambda eq: eq.state.throughputs,
            "utilities": lambda eq: eq.state.utilities,
        }
        values = grid.provider_quantity(extractors[quantity])
        legacy = legacy_per_cp_panels(
            market, grid, values,
            figure_id=figure_id, quantity=label, y_label=y_label,
        )
        result = module.compute(PRICES, CAPS)
        assert_csv_identical(result.figures, legacy, tmp_path)
