"""Exact rational arithmetic shared across the package.

Every numeric decision in this library is made in exact rational
arithmetic; no floating point appears anywhere on a decision path.
gmpy2's mpq (the optional `fast` extra) is used when available (roughly
25x faster than fractions.Fraction); the stdlib Fraction is a drop-in
fallback.
"""

from fractions import Fraction

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    Q = Fraction

ZERO = Q(0)
ONE = Q(1)


def rat(num, den=1):
    """Exact rational from integers (or anything Q accepts)."""
    return Q(num, den)


def parse_rational(value):
    """Parse a rational from an int, a "num/den" string, or a
    {"num": ..., "den": ...} mapping (values may be decimal strings)."""
    if isinstance(value, bool):
        raise ValueError("booleans are not rationals")
    if isinstance(value, int):
        return Q(value)
    if isinstance(value, str):
        if "/" in value:
            num, den = value.split("/", 1)
            return Q(int(num), int(den))
        return Q(int(value))
    if isinstance(value, dict):
        return Q(int(value["num"]), int(value.get("den", 1)))
    raise ValueError(f"cannot parse rational from {value!r}")


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
