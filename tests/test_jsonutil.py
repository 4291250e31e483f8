import sys
import time
from fractions import Fraction

import pytest

from arithcurves.arakelov import NumberField, parse_element
from arithcurves.errors import ArithCurvesError, MalformedInput
from arithcurves.jsonutil import MAX_LITERAL_DIGITS, parse_rational, rat_str
from helpers import parse_element_termwise

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:
    st = None


@pytest.mark.parametrize("text", ["0", "-7", "+3/4", " 12/8 ", "1.5", "-.5", "1.", "1e400",
                                  "2.5E-3", "1e-400", "1" * MAX_LITERAL_DIGITS,
                                  "-" + "1" * MAX_LITERAL_DIGITS,
                                  "1" * 2150 + "." + "2" * 2150,
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


# ---------------------------------------------------------------------------
# oracles: Fraction(text) for the literal grammar, the term-by-term reader for elements

def literals(spaced: bool = True):
    """Literals drawn part by part: a sign, leading zeros, p/q, a point with digits on
    either side or one side only ("1.5", ".5", "1."), a signed exponent with leading
    zeros, and whitespace around."""
    digits = st.text("0123456789", min_size=1, max_size=6)
    zeros = st.sampled_from(["", "0", "00"])
    exponent = st.tuples(st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), zeros,
                         st.integers(0, 400).map(str)).map("".join)
    body = st.one_of(
        st.tuples(zeros, digits, st.just("/"), digits),
        st.tuples(st.one_of(st.tuples(zeros, digits).map("".join),
                            st.tuples(zeros, digits, st.just("."), digits).map("".join),
                            digits.map(lambda d: "." + d), digits.map(lambda d: d + ".")),
                  st.one_of(st.just(""), exponent)))
    space = st.sampled_from(["", " ", "\t", " \n"] if spaced else [""])
    return st.tuples(space, st.sampled_from(["", "+", "-"]), body.map("".join),
                     space).map("".join)


def near_misses():
    """Text one step outside the grammar: a digit separator, a non-ASCII digit, a signed
    denominator, an exponent without digits, a bare point or slash, a decimal
    numerator, and spaces around the slash."""
    digits = st.text("0123456789", min_size=1, max_size=4)
    miss = st.one_of(
        st.tuples(digits, st.just("_"), digits),
        st.tuples(digits, st.sampled_from(["\u0663", "\u0969", "\uff13"]), digits),
        st.tuples(digits, st.sampled_from(["/-", "/+"]), digits),
        st.tuples(digits, st.sampled_from(["e", "E+", "e-"])),
        st.just((".",)), st.tuples(st.just("/"), digits),
        st.tuples(digits, st.just("."), digits, st.just("/"), digits),
        st.tuples(digits, st.sampled_from([" / ", " /", "/ "]), digits))
    return st.tuples(st.sampled_from(["", "+", "-"]), miss.map("".join),
                     st.sampled_from(["", " "])).map("".join)


@pytest.mark.skipif(st is None, reason="hypothesis is not installed")
def test_parse_rational_oracle():
    """parse_rational(t) == Fraction(t), as a Fraction; a zero denominator gives
    Fraction's own message."""
    @settings(max_examples=400, deadline=None)
    @given(literals())
    def check(text):
        try:
            expected = Fraction(text)
        except ZeroDivisionError as exc:
            with pytest.raises(MalformedInput) as info:
                parse_rational(text)
            assert str(info.value) == f"{text!r} is not a rational literal: {exc}"
            return
        value = parse_rational(text)
        assert type(value) is Fraction and value == expected
    check()


@pytest.mark.skipif(st is None, reason="hypothesis is not installed")
def test_parse_rational_refuses_near_misses():
    @settings(max_examples=300, deadline=None)
    @given(near_misses())
    def check(text):
        with pytest.raises(MalformedInput, match="is not a rational literal"):
            parse_rational(text)
    check()


ELEMENT_FIELDS = [NumberField(d) for d in (0, -1, -5, 2, 13)]


def _outcome(parse, K, text):
    try:
        x = parse(K, text)
    except ArithCurvesError as exc:
        return type(exc).__name__, str(exc)
    assert type(x.a) is Fraction and type(x.b) is Fraction
    return x


def element_texts(K):
    """Sums of signed terms: a literal, a literal times w (or i in Q(i)), w alone, or a
    near miss."""
    unit = st.sampled_from(["w", "i"] if K.d == -1 else ["w"])
    term = st.one_of(
        literals(spaced=False),
        st.tuples(literals(spaced=False), st.sampled_from(["*", ""]), unit).map("".join),
        unit, near_misses())
    signed = st.tuples(st.sampled_from(["", "+", "-", " + ", "- "]), term).map("".join)
    return st.lists(signed, min_size=1, max_size=4).map("".join)


@pytest.mark.skipif(st is None, reason="hypothesis is not installed")
def test_parse_element_matches_the_term_by_term_reader():
    """Same value, or the same error, as adding each term to a Fraction(0) seed,
    over Q, Q(i), Q(sqrt(-5)), Q(sqrt(2)) and Q(sqrt(13))."""
    @settings(max_examples=300, deadline=None)
    @given(st.one_of([st.tuples(st.just(K), element_texts(K)) for K in ELEMENT_FIELDS]))
    def check(case):
        K, text = case
        assert _outcome(parse_element, K, text) == _outcome(parse_element_termwise, K, text)
    check()
