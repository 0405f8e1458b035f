"""One check for numeric arguments.

Constructors, ``__post_init__`` methods and engine façades pass each
numeric argument through :func:`check_number`, so each rule is written
once and treats NaN (which fails every comparison, so ``if x < 0:
raise`` lets it through), infinities, bools and fractions alike.  Checks
that run per event, chunk or request stay inline in their hot paths.
"""

from __future__ import annotations

import math
from numbers import Integral, Real


def check_number(name: str, value, *, ge=None, gt=None, le=None, lt=None, integer=False):
    """Return ``value`` unchanged if it is a finite number within bounds.

    A number is real but never a ``bool``; ``integer=True`` also requires
    an integral type, so ``2.0`` fails as ``2.5`` does.  ``ge``/``gt`` and
    ``le``/``lt`` are inclusive and exclusive bounds.  Otherwise raises
    ``ValueError`` naming ``name``, the rule and the value, e.g.
    ``num_ants must be an integer, got 2.5``.
    """
    kind = type(value)
    # Plain float and int first: the numbers ABCs are several times slower,
    # and the scenario builders check every spec field.
    if kind is float:
        if integer:
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    elif kind is not int:
        if isinstance(value, bool) or not isinstance(value, Integral if integer else Real):
            rule = "an integer" if integer else "a real number"
            raise ValueError(f"{name} must be {rule}, got {value!r}")
        if not isinstance(value, Integral) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if (
        (ge is not None and value < ge)
        or (gt is not None and value <= gt)
        or (le is not None and value > le)
        or (lt is not None and value >= lt)
    ):
        raise ValueError(f"{name} must be {_rule(ge, gt, le, lt)}, got {value!r}")
    return value


def _rule(ge, gt, le, lt) -> str:
    """The bounds as text: ``positive``, ``>= 1``, ``in [0, 1)``, ..."""
    low, high = (ge if ge is not None else gt), (le if le is not None else lt)
    if low is not None and high is not None:
        return f"in {'[' if ge is not None else '('}{low}, {high}{']' if le is not None else ')'}"
    if low == 0:
        return "non-negative" if ge is not None else "positive"
    if low is not None:
        return f">= {low}" if ge is not None else f"> {low}"
    return f"<= {high}" if le is not None else f"< {high}"


__all__ = ["check_number"]
