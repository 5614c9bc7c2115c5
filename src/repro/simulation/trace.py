"""The one trajectory result type: a solved market time series.

Both the straight-line simulator (:meth:`MarketSimulation.run
<repro.simulation.dynamics.MarketSimulation.run>`) and the service-backed
:func:`~repro.simulation.trajectory.run_trajectory` return a
:class:`DynamicsTrajectory`.

>>> import numpy as np
>>> trajectory = DynamicsTrajectory(
...     kind="subsidies", steps=np.arange(2), subsidies=np.zeros((2, 1)),
...     populations=np.ones((2, 1)), utilizations=np.full(2, 0.5),
...     throughputs=np.ones((2, 1)), utilities=np.ones((2, 1)),
...     revenues=np.ones(2), welfares=np.ones(2), capacities=np.ones(2),
...     prices=np.ones(2))
>>> trajectory.horizon, trajectory.size
(1, 1)
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ModelError

__all__ = ["DynamicsTrajectory"]


@dataclass(frozen=True)
class DynamicsTrajectory:
    """A solved market trajectory: one row of every quantity per period.

    All arrays are aligned with :attr:`steps` (length ``horizon + 1``;
    row 0 is the initial condition). For the ``"subsidies"`` kind,
    capacities and prices are constant unless shocked; for the
    ``"capacity"`` kind, subsidies/populations/... are the per-period
    equilibrium's.
    """

    kind: str
    steps: np.ndarray
    subsidies: np.ndarray
    populations: np.ndarray
    utilizations: np.ndarray
    throughputs: np.ndarray
    utilities: np.ndarray
    revenues: np.ndarray
    welfares: np.ndarray
    capacities: np.ndarray
    prices: np.ndarray

    @property
    def horizon(self) -> int:
        """Number of simulated periods ``T``."""
        return int(self.steps.size) - 1

    @property
    def size(self) -> int:
        """Number of CPs ``N``."""
        return int(self.subsidies.shape[1])

    def adoption(self) -> np.ndarray:
        """Total subscribed population ``Σ_i m_i`` per period."""
        return self.populations.sum(axis=1)

    def aggregate_throughputs(self) -> np.ndarray:
        """Total delivered throughput ``θ`` per period."""
        return self.throughputs.sum(axis=1)

    def capacity_growth(self) -> float:
        """Total relative capacity growth over the run."""
        return float(self.capacities[-1] / self.capacities[0] - 1.0)

    def to_csv(self, path, *, labels=None) -> None:
        """Write the trajectory to CSV (one row per period, wide format)."""
        n = self.size
        if labels is None:
            labels = [f"cp{i}" for i in range(n)]
        if len(labels) != n:
            raise ModelError(f"expected {n} labels, got {len(labels)}")
        header = (
            ["step", "utilization", "revenue", "welfare", "capacity", "price"]
            + [f"s_{name}" for name in labels]
            + [f"m_{name}" for name in labels]
            + [f"theta_{name}" for name in labels]
            + [f"U_{name}" for name in labels]
        )
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for j in range(self.steps.size):
                writer.writerow(
                    [
                        int(self.steps[j]),
                        self.utilizations[j],
                        self.revenues[j],
                        self.welfares[j],
                        self.capacities[j],
                        self.prices[j],
                    ]
                    + list(self.subsidies[j])
                    + list(self.populations[j])
                    + list(self.throughputs[j])
                    + list(self.utilities[j])
                )
