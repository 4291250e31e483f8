"""Canonical string forms for exact and archimedean scalars in JSON payloads."""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import ArithCurvesError, MalformedInput

# A rational literal's size is its digit count plus |exponent|.  The bound keeps
# every parse cheap, and at Python's default int-to-str limit (4300 digits) any
# one accepted literal still prints back.
MAX_LITERAL_DIGITS = 4300

_RATIONAL = re.compile(r"\s*[+-]?(?=\.?[0-9])([0-9]*)"
                       r"(?:/([0-9]+)|(?:\.([0-9]*))?(?:[eE][+-]?0*([0-9]+))?)\s*")


def parse_rational(text: str) -> Fraction:
    """A literal "p", "p/q" or "-1.5e-3", its size checked before any integer is built."""
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise MalformedInput(f"{text!r} is not a rational literal")
    *digits, exp = m.groups("")
    if (len(exp) > len(str(MAX_LITERAL_DIGITS))
            or sum(map(len, digits)) + int(exp or 0) > MAX_LITERAL_DIGITS):
        raise MalformedInput(f"a rational literal has more than MAX_LITERAL_DIGITS = "
                             f"{MAX_LITERAL_DIGITS} digits, counting |exponent|")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(f"{text!r} is not a rational literal: {exc}") from None


def rat_str(q: Fraction | int) -> str:
    """Canonical "p" / "p/q" form of an exact rational."""
    q = Fraction(q)
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise ArithCurvesError(f"a result has more than {sys.get_int_max_str_digits()} digits, "
                               f"Python's int-to-str limit") from None


def real_str(x: float) -> str:
    """17 significant digits: enough to round-trip a double, stable across runs."""
    return format(float(x), ".17g")
