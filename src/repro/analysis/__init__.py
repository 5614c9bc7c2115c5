"""Sweep, series and reporting utilities.

The environment regenerates the paper's figures as *data*: named series
(:mod:`repro.analysis.series`), rendered as ASCII charts
(:mod:`repro.analysis.ascii_plot`) and plain-text tables / CSV files
(:mod:`repro.analysis.reporting`). The (price × policy) grids
themselves are solved by :func:`repro.engine.solve_grid` and
:func:`repro.engine.price_sweep`; :class:`EquilibriumGrid`, their result
type, is re-exported here.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.analysis.ascii_plot": ("render_chart",),
    "repro.analysis.reporting": ("format_table", "write_csv"),
    "repro.analysis.series": ("FigureData", "Series"),
    "repro.engine": ("EquilibriumGrid",),
})
