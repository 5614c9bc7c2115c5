"""Unit tests for repro.simulation.trace."""

import csv

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.simulation.trace import DynamicsTrajectory


def make_trajectory():
    return DynamicsTrajectory(
        kind="capacity",
        steps=np.arange(2),
        subsidies=np.array([[0.1, 0.2], [0.3, 0.4]]),
        populations=np.array([[1.0, 2.0], [1.5, 2.5]]),
        utilizations=np.array([0.3, 0.25]),
        throughputs=np.array([[0.5, 0.4], [0.6, 0.5]]),
        utilities=np.array([[0.2, 0.1], [0.3, 0.2]]),
        revenues=np.array([0.9, 1.1]),
        welfares=np.array([0.7, 0.8]),
        capacities=np.array([1.0, 1.5]),
        prices=np.array([1.0, 1.0]),
    )


class TestDynamicsTrajectory:
    def test_accessors(self):
        trajectory = make_trajectory()
        assert trajectory.horizon == 1
        assert trajectory.size == 2
        np.testing.assert_allclose(trajectory.adoption(), [3.0, 4.0])
        np.testing.assert_allclose(trajectory.aggregate_throughputs(), [0.9, 1.1])
        assert trajectory.capacity_growth() == pytest.approx(0.5)

    def test_to_csv_round_trip(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        make_trajectory().to_csv(path, labels=["a", "b"])
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0][:6] == [
            "step", "utilization", "revenue", "welfare", "capacity", "price",
        ]
        assert "s_a" in rows[0] and "U_b" in rows[0]
        assert len(rows) == 3
        assert rows[2][:1] == ["1"] and float(rows[2][4]) == 1.5

    def test_to_csv_validates_labels(self, tmp_path):
        with pytest.raises(ModelError):
            make_trajectory().to_csv(tmp_path / "x.csv", labels=["only-one"])
