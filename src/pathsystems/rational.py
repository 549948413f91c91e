"""Exact rational arithmetic shared across the package, and the error
every failed exact re-check raises.

Every numeric decision in this library is made in exact rational
arithmetic; no floating point appears anywhere on a decision path.
`Q` is the standard library's `fractions.Fraction`, the one rational
type.  The LP core pivots over Python ints: it keeps an int row as given,
scales any other row to integers once (`scaled_to_integers`), and builds
rationals only for its results.  The exact re-checks scale their
rationals to integers the same way before comparing.

Every solution, certificate and witness is re-checked exactly before it
is returned; `ensure` makes each re-check raise `VerificationError`, so
the checks also run under `python -O`, which strips `assert`.
"""

from fractions import Fraction as Q
from math import lcm

__all__ = [
    "Q",
    "VerificationError",
    "parse_rational",
    "rational_to_json",
    "rational_to_text",
]

ZERO = Q(0)
ONE = Q(1)


class VerificationError(RuntimeError):
    """An exact re-check of a computed result failed."""


def ensure(condition, what):
    """Raise VerificationError naming `what` unless `condition` holds."""
    if not condition:
        raise VerificationError(f"re-check failed: {what}")


def scaled_to_integers(values):
    """The integers L*v for the lcm L of the denominators of `values`, and L.

    Ints and rationals are accepted alike.  A positive common scale keeps
    every sign, comparison and linear relation of the values.
    """
    L = lcm(*[v.denominator for v in values])
    return [v.numerator * (L // v.denominator) for v in values], L


def _integer(value, what):
    """An int, or the int a decimal string spells; bools and floats are refused."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{what} {value!r} is not an integer or a decimal string")


def parse_rational(value):
    """Parse a rational from an int, a "num/den" string, or a
    {"num": ..., "den": ...} mapping (values may be decimal strings).

    Numerator and denominator must be ints or decimal strings, and the
    denominator non-zero; anything else raises ValueError.
    """
    if isinstance(value, dict):
        num, den = value["num"], value.get("den", 1)
    elif isinstance(value, str) and "/" in value:
        num, den = value.split("/", 1)
    else:
        num, den = value, 1
    num, den = _integer(num, "numerator"), _integer(den, "denominator")
    if den == 0:
        raise ValueError(f"rational {value!r} has denominator 0")
    return Q(num, den)


def rational_to_json(q):
    """Serialize as {"num", "den"} with decimal strings (lossless)."""
    q = Q(q)
    return {"num": str(q.numerator), "den": str(q.denominator)}


def rational_to_text(q):
    """Compact "num/den" form used in TSV output."""
    q = Q(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
