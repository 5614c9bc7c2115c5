"""Unit tests for repro.core.welfare — Corollary 2."""

import numpy as np
import pytest

from repro.core.policy import policy_effect
from repro.core.welfare import marginal_welfare_criterion, welfare
from repro.exceptions import ModelError


class TestWelfareFunction:
    def test_dot_product(self):
        assert welfare([1.0, 2.0], [0.5, 1.0]) == pytest.approx(2.5)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ModelError):
            welfare([1.0, 2.0], [0.5])

    def test_matches_market_state(self, four_cp_market):
        state = four_cp_market.solve([0.1, 0.0, 0.2, 0.0])
        assert welfare(state.throughputs, four_cp_market.values) == pytest.approx(
            state.welfare
        )


class TestCorollaryTwo:
    def test_criterion_sign_matches_direct_derivative(self, four_cp_market):
        # Corollary 2: with dphi/dq > 0, dW/dq > 0 iff gain > loss.
        effect = policy_effect(four_cp_market, 0.2)
        criterion = marginal_welfare_criterion(four_cp_market, effect)
        assert criterion.applicable
        assert criterion.predicts_increase() == (criterion.dwelfare_dq > 0.0)

    def test_criterion_matches_across_policy_levels(self, four_cp_market):
        for q in (0.1, 0.3, 0.45):
            effect = policy_effect(four_cp_market, q)
            criterion = marginal_welfare_criterion(four_cp_market, effect)
            if criterion.applicable and abs(criterion.dwelfare_dq) > 1e-10:
                assert criterion.predicts_increase() == (
                    criterion.dwelfare_dq > 0.0
                ), f"criterion sign disagrees at q={q}"

    def test_not_applicable_when_phi_does_not_rise(self, four_cp_market):
        # With a saturated cap nothing moves: dphi/dq = 0, criterion void.
        effect = policy_effect(four_cp_market, 5.0)
        criterion = marginal_welfare_criterion(four_cp_market, effect)
        assert not criterion.applicable

    def test_loss_term_depends_only_on_physics(self, four_cp_market):
        # The right side of Corollary 2 is built from eps^lambda_m (eq. 14),
        # which involves populations/rates but not the policy response.
        effect_a = policy_effect(four_cp_market, 0.2, dp_dq=0.0)
        effect_b = policy_effect(four_cp_market, 0.2, dp_dq=0.3)
        a = marginal_welfare_criterion(four_cp_market, effect_a)
        b = marginal_welfare_criterion(four_cp_market, effect_b)
        assert a.loss_term == pytest.approx(b.loss_term, rel=1e-9)
