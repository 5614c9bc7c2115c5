"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.providers.content_provider import exponential_cp
from repro.providers.isp import AccessISP
from repro.providers.market import Market


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: heavyweight stress variants, skipped unless "
        "$REPRO_SLOW_TESTS is set (CI's dedicated jobs enable them)",
    )


def pytest_collection_modifyitems(config, items):
    if os.environ.get("REPRO_SLOW_TESTS", "").strip():
        return
    skip = pytest.mark.skip(reason="slow stress variant; set REPRO_SLOW_TESTS=1")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def finite_difference(func, x: float, h: float = 1e-6) -> float:
    """Plain central difference used to validate analytic derivatives."""
    return (func(x + h) - func(x - h)) / (2.0 * h)


@pytest.fixture
def two_cp_market() -> Market:
    """A tiny asymmetric market: profitable/price-elastic vs cheap/sticky."""
    return Market(
        [
            exponential_cp(5.0, 2.0, value=1.0, name="big"),
            exponential_cp(2.0, 5.0, value=0.4, name="small"),
        ],
        AccessISP(price=1.0, capacity=1.0),
    )


@pytest.fixture
def four_cp_market() -> Market:
    """A four-type market spanning the §5 parameter corners."""
    return Market(
        [
            exponential_cp(2.0, 2.0, value=1.0, name="a2b2v1"),
            exponential_cp(5.0, 5.0, value=0.5, name="a5b5v05"),
            exponential_cp(2.0, 5.0, value=1.0, name="a2b5v1"),
            exponential_cp(5.0, 2.0, value=0.5, name="a5b2v05"),
        ],
        AccessISP(price=1.0, capacity=1.0),
    )


@pytest.fixture
def fresh_grid_cache():
    """A cold in-process solve on the default service.

    Clears the default service's memory tier (figure rows memoize there)
    and zeroes its counters, so a test's solve/hit counts are its own, and
    clears the memory tier again afterwards.
    """
    from repro.engine.service import default_service

    default_service().clear_memory()
    default_service().reset_counters()
    yield
    default_service().clear_memory()
