"""Curve arithmetic against sympy: rational cameral points, ramified primes, F_p shapes
and their parity, discriminants, and the norms of fractional ideals."""

import functools
import itertools
import math
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from arithcurves.arakelov import FractionalIdeal, NumberField  # noqa: E402
from arithcurves.curve import (cameral_curve, cameral_fiber_rational,  # noqa: E402
                               higgs_field, poly_discriminant, ramified_primes,
                               smallest_split_prime, spectral_curve)
from arithcurves.errors import DegenerateCurve  # noqa: E402
from arithcurves.finitefield import factor_pattern  # noqa: E402
from helpers import (fiber_shape, ideal_power, integral_pairs,  # noqa: E402
                     ramified_by_odd_division)

QQ = NumberField(0)
X = sympy.Symbol("x")

FIELDS = [0, -1, -5, 13]        # Q, Q(i), Q(sqrt(-5)), Q(sqrt(13))
CURVE_QUADRATIC_FIELDS = [-1, -5, 2, 13]     # the bases of the curve-quadratic benchmark
PRIMES = [2, 3, 5, 7, 11, 13, 101]

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
    C = cameral_curve(_phi(poly))
    if _sympy_poly(poly).discriminant() == 0:   # a repeated root: no good reduction anywhere
        with pytest.raises(DegenerateCurve):
            cameral_fiber_rational(C)
        return
    want = sorted(r for r in sympy.roots(_sympy_poly(poly), multiple=True) if r.is_rational)
    got = cameral_fiber_rational(C)
    if len(want) < len(poly) - 1:
        assert got is None
        return
    want = [Fraction(int(r.p), int(r.q)) for r in want]
    assert got == sorted(itertools.permutations(want))


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
    # the good primes too: the curve reduces its integral model, the oracle the Fractions
    for p in sympy.primerange(50):
        if den % p:
            assert fiber_shape(C, p) == _sympy_shape(poly, p)
    assert fiber_shape(C, smallest_split_prime(C)) == [(1, 1)] * len(coeffs)


@settings(max_examples=100, deadline=None)
@given(coeffs=st.lists(st.one_of(small, st.integers(-10 ** 6, 10 ** 6).map(Fraction)),
                       min_size=1, max_size=4),
       bound=st.integers(0, 3) | st.integers(4, 5000))
# disc 4 * 7919: the prime cofactor just below the bound, and exactly at it
@example(coeffs=[Fraction(0), Fraction(-7919)], bound=7920)
@example(coeffs=[Fraction(0), Fraction(-7919)], bound=7919)
# disc 4 * 101 * 103: the scan ends at the bound, with a composite cofactor left
@example(coeffs=[Fraction(0), Fraction(-10403)], bound=50)
def test_ramified_primes_match_odd_trial_division(coeffs, bound):
    C = spectral_curve(_phi([Fraction(1), *coeffs]))
    assume(not C.degenerate)
    assert ramified_primes(C, bound) == ramified_by_odd_division(C, bound)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), q=st.sampled_from([1, 2, 3, 6]), data=st.data())
def test_fiber_factor_count_has_the_parity_of_the_discriminant(n, q, data):
    """Stickelberger: at an odd prime p of good reduction, a squarefree monic p_phi of
    degree n with r irreducible factors mod p has (-1)^(n - r) = (disc / p), the
    Legendre symbol.  factor_pattern gives r and the Hankel determinant gives disc."""
    entry = st.integers(-20, 20).map(lambda a: Fraction(a, q))
    mat = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    C = spectral_curve(higgs_field(QQ, mat, twist=FractionalIdeal.from_elements(
        QQ, [QQ.element(Fraction(1, q))])))
    assume(not C.degenerate)
    d = C.disc.a
    bad = d.numerator * d.denominator * math.lcm(*(c.a.denominator for c in C.poly))
    for p in sympy.primerange(3, 300):
        if bad % p:
            r = len(fiber_shape(C, p))
            assert (-1) ** (n - r) == sympy.legendre_symbol(d.numerator * d.denominator % p, p)


def _sympy_shape(poly, p):
    """sympy's factor shape of a monic poly over Q (highest degree first) reduced mod p."""
    reduced = [c.numerator * pow(c.denominator, -1, p) % p for c in poly]
    _, factors = sympy.Poly(reduced, X, modulus=p).factor_list()
    return sorted((f.degree(), e) for f, e in factors)


def _sympy_element(K, x):
    """x = a + b w as a sympy number."""
    d = K.d
    w = (1 + sympy.sqrt(d)) / 2 if d % 4 == 1 else sympy.sqrt(d)
    return _rational(x.a) + _rational(x.b) * w


def _rational(q):
    return sympy.Rational(q.numerator, q.denominator)


@functools.lru_cache(maxsize=None)
def _domain(d):
    """sympy's Q or Q(sqrt(d)), and w in it (0 over Q)."""
    if not d:
        return sympy.QQ, sympy.QQ.zero
    dom = sympy.QQ.algebraic_field(sympy.sqrt(d))
    return dom, dom.from_sympy((1 + sympy.sqrt(d)) / 2 if d % 4 == 1 else sympy.sqrt(d))


def _elements(K):
    b = small if K.degree == 2 else st.just(Fraction(0))
    return st.builds(K.element, small, b)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.sampled_from(FIELDS), n=st.integers(1, 6))
def test_poly_discriminant_matches_sympy(data, d, n):
    K = NumberField(d)
    poly = [K.one] + data.draw(st.lists(_elements(K), min_size=n, max_size=n))
    if n >= 2 and data.draw(st.booleans()):     # a repeated root: disc = 0
        r = data.draw(_elements(K))
        poly = [K.one, -r - r, r * r] + [K.element(0)] * (n - 2)
    dom, w = _domain(d)
    want = sympy.Poly([dom.convert(_rational(c.a)) + dom.convert(_rational(c.b)) * w
                       for c in poly], X, domain=dom).discriminant()
    got = poly_discriminant(*integral_pairs(poly), K)
    assert sympy.expand(_sympy_element(K, got) - want) == 0


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.sampled_from(FIELDS), n=st.integers(1, 4),
       den=st.integers(1, 10 ** 40))
def test_curve_discriminant_with_a_large_matrix_denominator(data, d, n, den):
    """M / D twisted by (1 / D), D up to 10^40: the curve divides the Hankel
    determinant of g(y) = det(y I - M) by D^(n(n-1))."""
    K = NumberField(d)
    pair = st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(-9, 9) if d else st.just(0))
    rows = data.draw(st.lists(st.lists(pair, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and data.draw(st.booleans()):      # a repeated row: a singular matrix
        rows[-1] = rows[0]
    mat = [[K.element(Fraction(a, den), Fraction(b, den)) for a, b in row] for row in rows]
    C = spectral_curve(higgs_field(K, mat, twist=FractionalIdeal.from_elements(
        K, [K.element(Fraction(1, den))])))
    dom, w = _domain(d)
    sym = DomainMatrix([[dom.convert(_rational(x.a)) + dom.convert(_rational(x.b)) * w
                         for x in row] for row in mat], (n, n), dom)
    want = sympy.Poly(sym.charpoly(), X, domain=dom).discriminant()
    assert sympy.expand(_sympy_element(K, C.disc) - want) == 0


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from(PRIMES), data=st.data())
def test_factor_pattern_matches_sympy_factor_list(p, data):
    f = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=8)) + [1]
    if data.draw(st.booleans()):                # square a factor: repeated roots
        f = [sum(f[i] * f[k - i] for i in range(max(0, k - len(f) + 1), min(k, len(f) - 1) + 1))
             % p for k in range(2 * len(f) - 1)]
    _, factors = sympy.Poly(list(reversed(f)), X, modulus=p).factor_list()
    assert factor_pattern(f, p) == sorted((g.degree(), e) for g, e in factors)


def _ideals(K):
    return st.lists(_elements(K).filter(bool), min_size=1, max_size=3).map(
        lambda gens: FractionalIdeal.from_elements(K, gens))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.sampled_from(FIELDS))
def test_ideal_norms_are_multiplicative(data, d):
    K = NumberField(d)
    i, j = data.draw(_ideals(K)), data.draw(_ideals(K))
    assert (i * j).norm() == i.norm() * j.norm()
    x = data.draw(_elements(K).filter(bool))
    norm = _sympy_element(K, x)
    if K.degree == 2:                           # times the Galois conjugate a + b w'
        norm = sympy.expand(norm * _sympy_element(K, x.conj()))
    assert FractionalIdeal.from_elements(K, [x]).norm() == abs(norm)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.sampled_from(CURVE_QUADRATIC_FIELDS), n=st.integers(1, 4))
def test_certificates_are_coordinates_over_the_twist_powers(data, d, n):
    K = NumberField(d)
    twist = data.draw(_ideals(K))
    u, v = twist.basis_elements()
    entry = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(lambda c: c[0] * u + c[1] * v)
    rows = st.lists(entry, min_size=n, max_size=n)
    phi = higgs_field(K, data.draw(st.lists(rows, min_size=n, max_size=n)), twist=twist)
    cert = spectral_curve(phi).certificate
    for k, (c, coords) in enumerate(zip(cert.values, cert.power_coords), start=1):
        assert coords == ideal_power(twist, k).membership_coords(c)
