"""The campaign summary's quartiles are numpy's, bit for bit.

:meth:`CampaignWarehouse.summary` takes ``p25``, ``median`` and ``p75``
from one sort instead of calling ``np.quantile`` and ``np.median``, which
load ``numpy.ma``. For any column of finite metric values, each of the
three must equal numpy's figure for the stored column in ``float.hex``:
one and two rows, ties, signed zeros (sqlite stores -0.0 as 0.0),
subnormals and magnitudes whose sums overflow.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaigns.warehouse import CampaignWarehouse

CAMPAIGN = "q" * 64

BIG = 1.7976931348623157e308

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, BIG, -BIG]

columns = st.lists(
    st.one_of(
        st.sampled_from(EDGES),
        st.integers(-3, 3).map(float),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=12,
)


def _summary(column):
    with CampaignWarehouse(":memory:") as warehouse:
        warehouse.register(
            CAMPAIGN,
            campaign_id="quartiles",
            title="quartiles",
            spec={},
            total_rows=len(column),
        )
        for index, value in enumerate(column):
            warehouse.append(
                CAMPAIGN,
                digest=f"d{index}",
                row_index=index,
                seed=index,
                scenario_id="s",
                scenario_digest="s" * 64,
                params={},
                metrics={"m": value},
            )
        return warehouse.metric(CAMPAIGN, "m"), warehouse.summary(CAMPAIGN)


@settings(max_examples=300, deadline=None)
@given(columns)
@example([-0.0])
@example([5e-324])
@example([0.0, -0.0])
@example([-0.0, 0.0])
@example([2.0, 2.0])
@example([BIG, BIG])
@example([-BIG, BIG, -0.0])
@example([1.0, 1.0, -1.0, -1.0, 0.0])
def test_summary_quartiles_equal_numpys_bit_for_bit(column):
    with np.errstate(over="ignore"):
        stored, summary = _summary(column)
        want = {
            "p25": np.quantile(stored, 0.25),
            "median": np.median(stored),
            "p75": np.quantile(stored, 0.75),
        }
    assert {key: summary["m"][key].hex() for key in want} == {
        key: float(value).hex() for key, value in want.items()
    }
