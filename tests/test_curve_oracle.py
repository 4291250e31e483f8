"""Fiber arithmetic against sympy: rational cameral points, ramified primes, F_p shapes."""

import math
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from arithcurves.arakelov import FractionalIdeal, NumberField  # noqa: E402
from arithcurves.curve import (cameral_curve, cameral_fiber_rational,  # noqa: E402
                               higgs_field, ramified_primes, spectral_curve)

QQ = NumberField(0)
X = sympy.Symbol("x")

small = st.fractions(min_value=-40, max_value=40, max_denominator=6)
# two roots near 1e9 give constant terms near 1e18
large = st.integers(-10 ** 9, 10 ** 9).map(Fraction)


def _expand(roots, extra):
    """Monic coefficients (highest first) of prod (x - r) times the monic `extra`."""
    poly = [Fraction(1)]
    for factor in [[Fraction(1), -r] for r in roots] + ([extra] if extra else []):
        out = [Fraction(0)] * (len(poly) + len(factor) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        poly = out
    return poly


def _phi(poly):
    """Companion matrix of a monic poly, twisted by (1/den) so its entries belong."""
    n = len(poly) - 1
    mat = [[Fraction(int(i == j + 1)) for j in range(n)] for i in range(n)]
    for i in range(n):
        mat[i][n - 1] = -poly[n - i]
    den = math.lcm(*(c.denominator for c in poly))
    return higgs_field(QQ, mat, twist=FractionalIdeal.from_elements(
        QQ, [QQ.element(Fraction(1, den))]))


def _sympy_poly(poly):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in poly], X)


@settings(max_examples=100, deadline=None)
@given(roots=st.lists(st.one_of(small, large, st.just(Fraction(0))), min_size=1, max_size=3)
       .flatmap(lambda rs: st.lists(st.sampled_from(rs), min_size=1, max_size=4)),
       extra=st.none() | st.lists(small, min_size=2, max_size=2).map(lambda c: [Fraction(1), *c]))
def test_cameral_points_match_sympy_roots(roots, extra):
    poly = _expand(roots, extra)
    want = sorted(r for r in sympy.roots(_sympy_poly(poly), multiple=True) if r.is_rational)
    got = cameral_fiber_rational(cameral_curve(_phi(poly)))
    if len(want) < len(poly) - 1:
        assert got is None
        return
    want = [Fraction(int(r.p), int(r.q)) for r in want]
    assert got == sorted(got) and len(set(got)) == len(got)
    assert all(sorted(point) == want for point in got)
    counts = [want.count(r) for r in set(want)]
    assert len(got) == math.factorial(len(want)) // math.prod(map(math.factorial, counts))


@settings(max_examples=100, deadline=None)
@given(coeffs=st.lists(st.one_of(small, st.integers(-10 ** 6, 10 ** 6).map(Fraction)),
                       min_size=1, max_size=4),
       bound=st.integers(2, 3000))
def test_ramified_primes_match_sympy_factorization(coeffs, bound):
    poly = [Fraction(1), *coeffs]
    C = spectral_curve(_phi(poly))
    assume(not C.degenerate)
    den = math.lcm(*(c.denominator for c in poly))
    d = C.disc.a
    want = sorted(p for p in set(sympy.primefactors(d.numerator) + sympy.primefactors(
        d.denominator) + sympy.primefactors(den)) if p < bound)
    got = ramified_primes(C, bound)
    assert [p for p, _ in got] == want
    for p, shape in got:
        if den % p == 0:
            assert shape is None
            continue
        reduced = [c.numerator * pow(c.denominator, -1, p) % p for c in poly]
        _, factors = sympy.Poly(reduced, X, modulus=p).factor_list()
        assert shape == sorted((f.degree(), e) for f, e in factors)
