import sys
import time
from fractions import Fraction

import pytest

from arithcurves.errors import ArithCurvesError, MalformedInput
from arithcurves.jsonutil import MAX_LITERAL_DIGITS, parse_rational, rat_str


@pytest.mark.parametrize("text", ["0", "-7", "+3/4", " 12/8 ", "1.5", "-.5", "1.", "1e400",
                                  "2.5E-3", "1e-400", "1" * MAX_LITERAL_DIGITS,
                                  f"1e{MAX_LITERAL_DIGITS - 1}"])
def test_parse_rational_agrees_with_fraction(text):
    assert parse_rational(text) == Fraction(text)


@pytest.mark.parametrize("text", ["", "a", "1/0", "1/-2", "1e", "e5", "1.5/2", "inf", "nan",
                                  "1_000", "٣", "1 / 2", "0x10"])
def test_parse_rational_rejects_other_text(text):
    with pytest.raises(MalformedInput):
        parse_rational(text)


@pytest.mark.parametrize("text", ["1" * (MAX_LITERAL_DIGITS + 1), f"1e{MAX_LITERAL_DIGITS}",
                                  f"1e-{MAX_LITERAL_DIGITS}", "1e10000000", "1e" + "9" * 100,
                                  "1" * 2200 + "/" + "1" * 2200, "1e" + "9" * 10 ** 6])
def test_literal_size_is_checked_before_any_integer_is_built(text):
    start = time.perf_counter()
    with pytest.raises(MalformedInput, match="MAX_LITERAL_DIGITS"):
        parse_rational(text)
    assert time.perf_counter() - start < 0.5       # Fraction("1e10000000") takes seconds


def test_rat_str_names_the_output_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert rat_str(Fraction(10 ** (limit - 1), 3)) == "1" + "0" * (limit - 1) + "/3"
    with pytest.raises(ArithCurvesError, match=str(limit)):
        rat_str(10 ** limit)
