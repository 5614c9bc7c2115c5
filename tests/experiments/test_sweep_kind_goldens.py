"""Frozen outputs of every sweep kind: figure CSV digests and row metrics.

One small experiment per sweep kind (``price``, ``grid``) writes its
figure CSVs, and one tiny campaign per row kind lands its warehouse
metrics. The sha256 of every CSV, and every row's metric names (in
column order) with their values at 12 significant digits, must match the
values recorded here. They pin the
layout, the x-axis, the series names and the numbers of each kind, so a
change to how a kind dispatches cannot move any of them unnoticed.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.campaigns import (
    SWEEP_METRICS,
    CampaignSpec,
    run_campaign,
    warehouse_for_service,
)
from repro.engine import (
    SolveCache,
    SolveService,
    SolveStore,
    set_default_service,
)
from repro.experiments.pipeline import ExperimentSpec, PanelSpec, run_spec
from repro.scenarios import ScenarioSpec, scaled_market


def _store_service(path) -> SolveService:
    return SolveService(cache=SolveCache(), store=SolveStore(path / "store"))


@pytest.fixture
def private_service(tmp_path):
    """Run the pipeline on a private store-backed default service."""
    set_default_service(_store_service(tmp_path))
    yield
    set_default_service(None)


def _grid_scenario() -> ScenarioSpec:
    return scaled_market(
        4,
        prices=(0.5, 1.0, 1.5),
        policy_levels=(0.0, 1.0),
        scenario_id="golden-grid",
    )


def _axis_spec(sweep: str) -> ExperimentSpec:
    """A price or grid spec with one scalar and one per-CP panel."""
    return ExperimentSpec(
        experiment_id=f"golden-{sweep}",
        title=f"golden {sweep} sweep",
        scenario=_grid_scenario(),
        sweep=sweep,
        panels=(
            PanelSpec(f"golden-{sweep}-revenue", "revenue", "revenue", "R"),
            PanelSpec(
                f"golden-{sweep}-throughputs",
                "throughput of {name}",
                "throughputs",
                "θ",
            ),
        ),
    )


def _price_campaign(**overrides) -> CampaignSpec:
    fields = dict(
        campaign_id="golden-price",
        generator="random_market",
        sweep="price",
        seed_count=1,
        axes={"n_types": (4, 6)},
        base_params={"prices": [0.8, 1.2]},
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


def _campaign(kind: str) -> CampaignSpec:
    if kind == "price":
        return _price_campaign()
    if kind == "grid":
        return _price_campaign(
            campaign_id="golden-grid",
            sweep="grid",
            axes={},
            base_params={
                "n_types": 4,
                "prices": [0.8, 1.2],
                "policy_levels": [0.0, 0.5],
            },
        )
    if kind == "dynamics":
        return CampaignSpec(
            campaign_id="golden-dyn",
            generator="shocked_market",
            sweep="dynamics",
            seed_count=2,
            base_params={
                "n_shocks": 1,
                "kind": "capacity",
                "horizon": 3,
                "cap": 0.5,
            },
        )
    return CampaignSpec(
        campaign_id="golden-olig",
        generator="random_market",
        sweep="market_structure",
        seed_count=1,
        axes={"carriers": (1, 3)},
        base_params={"n_types": 4, "grid_points": 5, "xtol": 1e-2},
    )


def csv_digests(kind: str, out_dir) -> dict[str, str]:
    """``{csv name: sha256}`` of one kind's experiment output."""
    result = run_spec(_axis_spec(kind))
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in result.write_csv(out_dir)
    }


def _digits(value: float) -> str:
    # Residuals below 1e-13 (a grid's KKT maximum, say) are rounding
    # noise, not output: they read as zero.
    return format(round(value, 13) + 0.0, ".12g")


def warehouse_rows(kind: str, tmp_path) -> list[list[tuple[str, str]]]:
    """Per row: ``(metric, 12-significant-digit value)`` in column order."""
    spec = _campaign(kind)
    service = _store_service(tmp_path)
    with warehouse_for_service(service) as wh:
        run_campaign(spec, service=service, warehouse=wh)
        records = wh.rows(spec.digest())
        for record in records:
            assert sorted(record["metrics"]) == sorted(SWEEP_METRICS[kind])
        return [
            [
                (name, _digits(record["metrics"][name]))
                for name in SWEEP_METRICS[kind]
            ]
            for record in records
        ]


CSV_DIGESTS: dict[str, dict[str, str]] = {
    "price": {
        "golden-price-revenue.csv": (
            "a165cf0a92056d4353aeebfa220f33e41513cb16b725f5ee3b4ebfbe63bb1ab2"
        ),
        "golden-price-throughputs.csv": (
            "23b283dcc6b4b729b09cdc749d408add213e3b7c0f15a9a5180b8d28d33278b6"
        ),
    },
    "grid": {
        "golden-grid-revenue.csv": (
            "735dce7bb572fcf879fe175d5c6ea963004ecb213e030a9f827565b7b945b9f1"
        ),
        "golden-grid-throughputs-cp0000-a1b1.csv": (
            "74848b4f7b84ffda5d1bc4b54d3f4ec8143074b6972c8777c4b1702f94d198e6"
        ),
        "golden-grid-throughputs-cp0001-a1b5.csv": (
            "fe948a7b54b6707721579e3f27efb999b9ac43bb96ae8cb9e5d43cdd30670c6d"
        ),
        "golden-grid-throughputs-cp0002-a5b1.csv": (
            "eb1a8e66a7b38082bb46aadbe1d0d0dc357c045bf031f3e006ede31d201d704f"
        ),
        "golden-grid-throughputs-cp0003-a5b5.csv": (
            "a6876c8397b6ace8ef4883f20039727de56b61d40ecfdd7db648e6cd94737e35"
        ),
    },
}

WAREHOUSE_ROWS: dict[str, list[list[tuple[str, str]]]] = {
    "price": [
        [
            ("welfare", "0.105933137034"),
            ("revenue", "0.240219059559"),
            ("utilization", "0.200182549633"),
            ("aggregate_throughput", "0.200182549633"),
            ("price_star", "1.2"),
            ("cap_star", "0"),
            ("welfare_max", "0.12327077459"),
            ("welfare_mean", "0.114601955812"),
            ("kkt_max", "0"),
        ],
        [
            ("welfare", "0.110754285129"),
            ("revenue", "0.265183512489"),
            ("utilization", "0.220986260407"),
            ("aggregate_throughput", "0.220986260407"),
            ("price_star", "1.2"),
            ("cap_star", "0"),
            ("welfare_max", "0.131198146261"),
            ("welfare_mean", "0.120976215695"),
            ("kkt_max", "0"),
        ],
    ],
    "grid": [
        [
            ("welfare", "0.109455067562"),
            ("revenue", "0.246360428516"),
            ("utilization", "0.205300357097"),
            ("aggregate_throughput", "0.205300357097"),
            ("price_star", "1.2"),
            ("cap_star", "0.5"),
            ("welfare_max", "0.131137840687"),
            ("welfare_mean", "0.117449204968"),
            ("kkt_max", "0"),
        ],
    ],
    "dynamics": [
        [
            ("welfare", "0.412539966923"),
            ("welfare_min", "0.308326473812"),
            ("revenue", "0.416303708359"),
            ("adoption_final", "1.63597003415"),
            ("capacity_final", "1.22501262419"),
            ("survived", "1"),
        ],
        [
            ("welfare", "0.23788002331"),
            ("welfare_min", "0.231887716819"),
            ("revenue", "0.354413917517"),
            ("adoption_final", "0.585500032551"),
            ("capacity_final", "1.21650972186"),
            ("survived", "1"),
        ],
    ],
    "market_structure": [
        [
            ("welfare", "0.109874738822"),
            ("industry_revenue", "0.242469436475"),
            ("mean_price", "1.09615624335"),
            ("mean_utilization", "0.221199703915"),
            ("hhi", "1"),
            ("carriers", "1"),
        ],
        [
            ("welfare", "0.132616973206"),
            ("industry_revenue", "0.201170193661"),
            ("mean_price", "0.638211936387"),
            ("mean_utilization", "0.315209074277"),
            ("hhi", "0.333333333333"),
            ("carriers", "3"),
        ],
    ],
}


@pytest.mark.parametrize("kind", sorted(CSV_DIGESTS))
def test_experiment_csv_digests(kind, private_service, tmp_path):
    digests = csv_digests(kind, tmp_path / "out")
    assert list(digests.items()) == list(CSV_DIGESTS[kind].items())


@pytest.mark.parametrize("kind", sorted(WAREHOUSE_ROWS))
def test_campaign_row_metrics(kind, tmp_path):
    assert warehouse_rows(kind, tmp_path) == WAREHOUSE_ROWS[kind]
