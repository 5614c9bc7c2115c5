"""Sweep, series and reporting utilities.

The environment regenerates the paper's figures as *data*: named series
(:mod:`repro.analysis.series`), rendered as ASCII charts
(:mod:`repro.analysis.ascii_plot`) and plain-text tables / CSV files
(:mod:`repro.analysis.reporting`). The (price × policy) grids
themselves are solved by :func:`repro.engine.solve_grid` and
:func:`repro.engine.price_sweep`; :class:`EquilibriumGrid`, their result
type, is re-exported here.
"""

from repro.analysis.ascii_plot import render_chart
from repro.analysis.reporting import format_table, write_csv
from repro.analysis.series import FigureData, Series
from repro.engine import EquilibriumGrid

__all__ = [
    "EquilibriumGrid",
    "FigureData",
    "Series",
    "format_table",
    "render_chart",
    "write_csv",
]
