"""Value rules for untrusted settings: one funnel for every document.

The model's knobs reach the solvers from scenario files, campaign files
and CLI flags that users write. Every settings funnel reads them with
these rules, and every rejection raises
:class:`~repro.exceptions.ModelError` naming the field:

* a **number** is a finite ``int`` or ``float`` (booleans, strings, NaN
  and ±inf are not), inside a range written in interval notation:
  ``"(0, 1]"`` has an open and a closed end;
* a **whole** number is an integer or an integral float (``32.0`` is 32);
* a **flag** is ``True`` or ``False`` only;
* a **choice** is one of a fixed set of names;
* an **interval** is a ``(lo, hi)`` pair of numbers with ``lo < hi``, or
  ``lo <= hi`` where the caller allows ``lo == hi``;
* :func:`resolve` is the one precedence rule: an override of ``None``
  falls through to the document's block, the block to the defaults, and
  unknown keys are rejected.

Rules that tie one field to another stay with the object that owns both.

>>> number("damping", 0.5, "(0, 1]")
0.5
>>> whole("grid_points", 32.0, at_least=3)
32
>>> resolve({"tol": 1e-10, "xtol": 1e-7}, {"tol": 1e-6}, {"xtol": None})
{'tol': 1e-06, 'xtol': 1e-07}
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Collection, Mapping

from repro.exceptions import ModelError

__all__ = [
    "choice",
    "document",
    "flag",
    "interval",
    "number",
    "resolve",
    "whole",
]


def number(name: str, value: Any, span: str = "(-inf, inf)") -> float:
    """``value`` as a finite ``float`` inside ``span``."""
    try:
        real = (
            isinstance(value, numbers.Real)
            and not isinstance(value, bool)
            and math.isfinite(value)
        )
    except OverflowError:  # an int too large for a float
        real = False
    if not real:
        raise ModelError(f"{name} must be a finite number, got {value!r}")
    lo, hi = (float(end) for end in span[1:-1].split(","))
    if not (
        (lo < value if span[0] == "(" else lo <= value)
        and (value < hi if span[-1] == ")" else value <= hi)
    ):
        raise ModelError(f"{name} must lie in {span}, got {value!r}")
    return float(value)


def whole(name: str, value: Any, *, at_least: int | None = None) -> int:
    """``value`` as an ``int``: an integer, or a float with no fractional
    part; never truncated or parsed."""
    count = value
    if isinstance(value, float) and value.is_integer():
        count = int(value)
    if isinstance(count, bool) or not isinstance(count, numbers.Integral):
        raise ModelError(f"{name} must be a whole number, got {value!r}")
    if at_least is not None and count < at_least:
        raise ModelError(f"{name} must be at least {at_least}, got {value!r}")
    return int(count)


def flag(name: str, value: Any) -> bool:
    """``value`` if it is ``True`` or ``False``; ``"no"`` or ``1`` raise."""
    if not isinstance(value, bool):
        raise ModelError(f"{name} must be true or false, got {value!r}")
    return value


def choice(name: str, value: Any, options: Collection[str]) -> str:
    """``value`` if it is one of the names in ``options``."""
    if not isinstance(value, str) or value not in options:
        raise ModelError(
            f"{name} must be one of {', '.join(map(repr, options))}, "
            f"got {value!r}"
        )
    return value


def interval(
    name: str, value: Any, span: str = "(-inf, inf)", *, equal_ok=False
) -> tuple[float, float]:
    """``value`` as a ``(lo, hi)`` pair of numbers inside ``span``, with
    ``lo < hi`` — or ``lo <= hi`` when ``equal_ok``."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ModelError(f"{name} must be a (lo, hi) pair, got {value!r}")
    lo, hi = (number(name, end, span) for end in value)
    if lo > hi or (lo == hi and not equal_ok):
        raise ModelError(
            f"{name} needs lo {'<=' if equal_ok else '<'} hi, got {value!r}"
        )
    return lo, hi


def document(payload: Any, fmt: str, what: str) -> dict[str, Any]:
    """The fields of a mapping whose ``"format"`` tag is ``fmt``."""
    if not isinstance(payload, Mapping):
        raise ModelError(
            f"{what} must be a mapping, got {type(payload).__name__}"
        )
    data = dict(payload)
    tag = data.pop("format", None)
    if tag != fmt:
        raise ModelError(f"unsupported {what} format {tag!r}")
    return data


def resolve(
    defaults: Mapping[str, Any],
    block: Mapping[str, Any] | None = None,
    overrides: Mapping[str, Any] | None = None,
    *,
    what: str = "setting",
) -> dict[str, Any]:
    """Every key of ``defaults``, taken from ``overrides`` (unless
    ``None``), else ``block``, else ``defaults``; a key of ``block`` or
    ``overrides`` that ``defaults`` lacks raises, naming it."""
    given = {
        key: value
        for key, value in (overrides or {}).items()
        if value is not None
    }
    for layer in (block or {}, given):
        unknown = set(layer) - set(defaults)
        if unknown:
            raise ModelError(
                f"unknown {what}(s) {sorted(unknown)}; "
                f"known: {sorted(defaults)}"
            )
    return {**defaults, **(block or {}), **given}
