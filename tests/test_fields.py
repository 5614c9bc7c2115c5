"""The value rules of :mod:`repro.fields`."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.fields import (
    choice,
    document,
    flag,
    interval,
    number,
    resolve,
    whole,
)


class TestNumber:
    def test_ints_floats_and_numpy_scalars_become_floats(self):
        for value in (2, 2.0, np.float64(2.0), np.int64(2)):
            result = number("x", value)
            assert result == 2.0 and type(result) is float

    @pytest.mark.parametrize(
        "value", [True, False, "1", None, [1.0], float("nan"),
                  float("inf"), -float("inf"), 10 ** 400],
    )
    def test_non_numbers_are_rejected(self, value):
        with pytest.raises(ModelError, match="^x must be a finite number"):
            number("x", value)

    def test_closed_and_open_ends(self):
        assert number("x", 0.0, "[0, inf)") == 0.0
        assert number("x", 1.0, "(0, 1]") == 1.0
        assert number("x", -3.0, "(-inf, 0)") == -3.0
        with pytest.raises(ModelError, match=r"x must lie in \(0, 1\]"):
            number("x", 0.0, "(0, 1]")
        with pytest.raises(ModelError, match=r"x must lie in \[0, 1\)"):
            number("x", 1.0, "[0, 1)")
        with pytest.raises(ModelError, match=r"x must lie in \[0, inf\)"):
            number("x", -0.5, "[0, inf)")


class TestWhole:
    def test_integral_floats_are_whole(self):
        assert whole("n", 32.0) == 32
        assert type(whole("n", 32.0)) is int
        assert type(whole("n", np.int64(3))) is int

    @pytest.mark.parametrize(
        "value", [True, 2.5, "3", float("nan"), float("inf"), None],
    )
    def test_anything_else_is_rejected(self, value):
        with pytest.raises(ModelError, match="^n must be a whole number"):
            whole("n", value)

    def test_lower_bound(self):
        with pytest.raises(ModelError, match="n must be at least 1, got 0"):
            whole("n", 0, at_least=1)


def test_flag_is_true_or_false_only():
    assert flag("f", True) is True
    assert flag("f", False) is False
    for value in ("no", "true", 1, 0, None):
        with pytest.raises(ModelError, match="f must be true or false"):
            flag("f", value)


def test_choice_is_one_of_the_names():
    assert choice("mode", "a", ("a", "b")) == "a"
    for value in ("c", 1, None, ["a"]):
        with pytest.raises(ModelError, match="mode must be one of 'a', 'b'"):
            choice("mode", value, ("a", "b"))


class TestInterval:
    def test_a_pair_becomes_a_float_tuple(self):
        assert interval("r", [0, 2], "[0, inf)") == (0.0, 2.0)

    def test_equal_ends_only_when_the_caller_allows_them(self):
        assert interval("r", (1.5, 1.5), equal_ok=True) == (1.5, 1.5)
        with pytest.raises(ModelError, match="r needs lo < hi"):
            interval("r", (1.5, 1.5))
        with pytest.raises(ModelError, match="r needs lo <= hi"):
            interval("r", (2.0, 1.0), equal_ok=True)

    @pytest.mark.parametrize(
        "value", ["ab", [1.0], (0.0, 1.0, 2.0), {"lo": 0.0, "hi": 1.0}, None],
    )
    def test_non_pairs_are_rejected(self, value):
        with pytest.raises(ModelError, match="r must be a"):
            interval("r", value)

    def test_ends_follow_the_number_rules(self):
        with pytest.raises(ModelError, match=r"r must lie in \[0, inf\)"):
            interval("r", (-1.0, 2.0), "[0, inf)")
        with pytest.raises(ModelError, match="r must be a finite number"):
            interval("r", (0.0, float("inf")))


def test_document_checks_the_mapping_and_its_format_tag():
    assert document({"format": "f/1", "a": 1}, "f/1", "doc") == {"a": 1}
    with pytest.raises(ModelError, match="doc must be a mapping"):
        document(["f/1"], "f/1", "doc")
    with pytest.raises(ModelError, match="unsupported doc format 'f/2'"):
        document({"format": "f/2"}, "f/1", "doc")


class TestResolve:
    DEFAULTS = {"a": 1, "b": 2, "c": 3}

    def test_overrides_beat_the_block_beats_the_defaults(self):
        assert resolve(self.DEFAULTS, {"a": 10, "b": 20}, {"b": 200}) == {
            "a": 10, "b": 200, "c": 3,
        }

    def test_a_none_override_falls_through(self):
        assert resolve(self.DEFAULTS, {"a": 10}, {"a": None}) == {
            "a": 10, "b": 2, "c": 3,
        }

    def test_unknown_keys_are_rejected_by_name(self):
        with pytest.raises(ModelError, match=r"unknown thing\(s\) \['z'\]"):
            resolve(self.DEFAULTS, {"z": 1}, what="thing")
        with pytest.raises(ModelError, match=r"\['z'\]"):
            resolve(self.DEFAULTS, None, {"z": 1})
        # A None override of an unknown key is no setting at all.
        assert resolve(self.DEFAULTS, None, {"z": None}) == self.DEFAULTS
