"""Physical and demand substrate of the macroscopic Internet model (§3).

This package implements everything "below" the game:

* :mod:`repro.network.utilization` — capacity-utilization functions
  ``Φ(θ, µ)`` and their inverses ``Θ(φ, µ)`` (Assumption 1),
* :mod:`repro.network.throughput` — per-user throughput families ``λ(φ)``
  decaying in utilization (Assumption 1),
* :mod:`repro.network.demand` — user-population demand families ``m(t)``
  decaying in the per-unit usage price (Assumption 2),
* :mod:`repro.network.system` — the congestion fixed point of Definition 1 /
  Lemma 1 and the resulting :class:`~repro.network.system.SystemState`,
* :mod:`repro.network.sensitivity` — the comparative statics of Theorems 1
  and 2,
* :mod:`repro.network.elasticity` — elasticity algebra (Definition 2),
* :mod:`repro.network.aggregation` — CP aggregation/equivalence (Lemma 2).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.network.aggregation": (
        "aggregate_equivalent_classes",
        "peak_demands",
        "rescale_class",
    ),
    "repro.network.demand": (
        "DemandFunction",
        "DemandTable",
        "ExponentialDemand",
        "LinearDemand",
        "LogitDemand",
        "ScaledDemand",
        "ShiftedPowerDemand",
    ),
    "repro.network.elasticity": (
        "chain_elasticity",
        "elasticity_of",
        "log_derivative",
    ),
    "repro.network.sensitivity": (
        "PriceSensitivity",
        "SystemSensitivity",
        "price_sensitivity",
        "system_sensitivity",
        "throughput_increases_with_price",
    ),
    "repro.network.system": (
        "BatchedSystemState",
        "CongestionSystem",
        "SystemState",
        "TrafficClass",
    ),
    "repro.network.throughput": (
        "ExponentialThroughput",
        "ThroughputTable",
        "PowerLawThroughput",
        "RationalThroughput",
        "ThroughputFunction",
    ),
    "repro.network.utilization": (
        "LinearUtilization",
        "MM1Utilization",
        "PowerLawUtilization",
        "UtilizationFunction",
    ),
})
