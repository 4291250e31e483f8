"""Canonical string forms for exact and archimedean scalars in JSON payloads."""

from __future__ import annotations

from fractions import Fraction


def rat_str(q: Fraction | int) -> str:
    """Canonical "p" / "p/q" form of an exact rational."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def real_str(x: float) -> str:
    """17 significant digits: enough to round-trip a double, stable across runs."""
    return format(float(x), ".17g")
