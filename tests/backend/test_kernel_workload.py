"""The fused kernels agree with the lockstep NumPy path on a real workload.

The same workload — repeated cold batched marginal-utility evaluations
(population + congestion solve + derivative chain) over the §5 eight-CP
market, plus a vectorized best-response sweep — runs under ``numpy`` and
under the best available ``compiled`` backend. The results may differ in
the last ulps (libm vs vectorized exp), never beyond solver tolerance.
On a machine without a C compiler ``compiled`` resolves to numpy and the
comparison is trivially exact.
"""

import numpy as np

from repro.backend import use_backend
from repro.core.best_response import best_response_profile_vectorized
from repro.core.game import BatchedProfileEvaluator, SubsidizationGame
from repro.experiments.scenarios import section5_market

#: Repetitions of the batched marginal sweep (cold every time).
_ROUNDS = 40


def _workload(game: SubsidizationGame, profiles: np.ndarray) -> np.ndarray:
    evaluator = BatchedProfileEvaluator(game)
    u = None
    for _ in range(_ROUNDS):
        evaluator.reset()  # keep every evaluation a cold solve
        u = evaluator.marginal_utilities(profiles)
    responses = best_response_profile_vectorized(game, profiles[0])
    return np.concatenate([u.ravel(), responses])


def test_compiled_matches_numpy_on_batched_marginals():
    market = section5_market(price=0.8)
    game = SubsidizationGame(market, cap=1.0)
    rng = np.random.default_rng(7)
    profiles = rng.uniform(0.0, 1.0, size=(64, market.size))

    with use_backend("numpy"):
        reference = _workload(game, profiles)
    with use_backend("compiled"):
        value = _workload(game, profiles)
    np.testing.assert_allclose(value, reference, rtol=1e-9, atol=1e-12)
