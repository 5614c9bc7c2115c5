"""Capacity planning: the investment feedback loop the paper argues for.

Run with::

    python examples/capacity_planning.py

Section 6 leaves the ISP's capacity decision as future work; this example
closes the loop with the ``"capacity"`` kind of the library's trajectory
runner (:func:`repro.simulation.run_trajectory`). The ISP reinvests a fixed
share of usage revenue into capacity each period. Comparing the regulated (q = 0) and deregulated (q = 2)
trajectories shows the paper's central claim quantitatively: subsidization
raises revenue, revenue funds capacity, and the added capacity eventually
relieves the congestion that hurt sensitive CPs in the short run.
"""

from repro.analysis import format_table
from repro.experiments.scenarios import section5_market
from repro.simulation import DynamicsSpec, run_trajectory


def main() -> None:
    market = section5_market(price=0.8)
    periods = 12

    def expansion(cap: float):
        spec = DynamicsSpec(
            kind="capacity", horizon=periods, cap=cap, reinvestment_rate=0.3
        )
        return run_trajectory(market, spec)

    trajectories = {
        "regulated (q=0)": expansion(0.0),
        "deregulated (q=2)": expansion(2.0),
    }

    for name, trajectory in trajectories.items():
        print(f"== {name} ==")
        rows = []
        for t in range(0, periods + 1, 2):
            rows.append(
                [
                    t,
                    float(trajectory.capacities[t]),
                    float(trajectory.revenues[t]),
                    float(trajectory.utilizations[t]),
                    float(trajectory.welfares[t]),
                ]
            )
        print(
            format_table(
                ["period", "capacity µ", "revenue R", "phi", "welfare W"], rows
            )
        )
        growth = 100.0 * trajectory.capacity_growth()
        print(f"total capacity growth: {growth:.1f}%")
        print()

    regulated = trajectories["regulated (q=0)"]
    deregulated = trajectories["deregulated (q=2)"]
    extra = deregulated.capacities[-1] / regulated.capacities[-1] - 1.0
    print(f"deregulation funds {100.0 * extra:.1f}% more capacity after "
          f"{periods} periods — the paper's investment-incentive mechanism.")


if __name__ == "__main__":
    main()
