"""The characteristic polynomial, and the determinant read off its constant term,
against sympy, over Q (Fractions) and over quadratic fields."""

import functools
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy import Rational, sqrt  # noqa: E402
from sympy.polys.domains import QQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from arithcurves.arakelov import FieldElement, NumberField  # noqa: E402
from helpers import char_poly  # noqa: E402

FIELDS = [0, -5, 13]            # Q; w = sqrt(-5); w = (1 + sqrt(13))/2
CHAR_FIELDS = [0, -1, -5, 13]   # and Q(i), w = i


def det(rows):
    """(-1)^n c_n of det(l I - M) = l^n + ... + c_n; 1 for the empty matrix."""
    if not rows:
        return 1
    c = char_poly(rows)[-1]
    return -c if len(rows) % 2 else c


def _rat(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _element_maker(d, rng):
    if d == 0:
        return lambda: _rat(rng)
    K = NumberField(d)
    return lambda: K.element(_rat(rng), _rat(rng))


def _to_sympy(d, dom, x):
    if isinstance(x, FieldElement):
        return _rational(dom, x.a) + _rational(dom, x.b) * _omega(d, dom)
    return _rational(dom, x)


def _rational(dom, q):
    return dom.convert(Rational(q.numerator, q.denominator))


@functools.lru_cache(maxsize=None)
def _omega(d, dom):
    return dom.from_sympy((1 + sqrt(d)) / 2 if d % 4 == 1 else sqrt(d))


def _domain(d):
    return QQ.algebraic_field(sqrt(d)) if d else QQ


def _domain_matrix(d, dom, rows, ncols):
    return DomainMatrix([[_to_sympy(d, dom, x) for x in row] for row in rows],
                        (len(rows), ncols), dom)


def _random_matrix(rng, elem, m, k):
    rows = [[elem() for _ in range(k)] for _ in range(m)]
    if m > 1 and rng.random() < 0.4:               # a dependent row: rank deficient
        c = elem()
        rows[-1] = [c * x for x in rows[0]]
    return rows


@pytest.mark.parametrize("d", FIELDS)
def test_det_matches_sympy(d):
    rng = random.Random(100 + d)
    elem = _element_maker(d, rng)
    dom = _domain(d)
    assert det([]) == 1
    singular = 0
    for n in (1, 2, 3, 4):
        for _ in range(25):
            rows = _random_matrix(rng, elem, n, n)
            got = det(rows)
            want = _domain_matrix(d, dom, rows, n).det()
            assert _to_sympy(d, dom, got) == want, rows
            singular += not want
    assert singular > 10


def _special_matrices(rng, d, n):
    """Zero, nilpotent, singular, mixed-denominator and ~1e30 matrices of size n."""
    K = NumberField(d)

    def elem(num, den):
        a = Fraction(rng.randint(-num, num), rng.randint(1, den))
        return K.element(a, Fraction(rng.randint(-num, num), rng.randint(1, den))) if d else a

    zero = K.element(0) if d else Fraction(0)
    small = [[elem(5, 3) for _ in range(n)] for _ in range(n)]
    nilpotent = [[elem(5, 3) if j > i else zero for j in range(n)] for i in range(n)]
    singular = [list(row) for row in small]
    if n > 1:
        singular[-1] = [x + y for x, y in zip(small[0], small[1 % (n - 1)])]
    mixed = [[elem(9, rng.choice((1, 2, 3, 5, 7, 11, 12))) for _ in range(n)] for _ in range(n)]
    huge = [[elem(10 ** 30, 10 ** 3) for _ in range(n)] for _ in range(n)]
    return [[[zero] * n for _ in range(n)], nilpotent, singular, mixed, huge]


@pytest.mark.parametrize("d", CHAR_FIELDS)
def test_char_coeffs_match_sympy_charpoly(d):
    rng = random.Random(300 + d)
    dom = _domain(d)
    kind = FieldElement if d else Fraction
    for n in range(7):
        for rows in _special_matrices(rng, d, n):
            got = char_poly(rows)
            assert len(got) == n and all(type(c) is kind for c in got)
            want = _domain_matrix(d, dom, rows, n).charpoly()
            assert [dom.one] + [_to_sympy(d, dom, c) for c in got] == want, rows


def test_char_coeffs_accepts_ints_and_returns_fractions():
    got = char_poly([[1, 2], [3, 4]])
    assert got == [-5, -2] and all(type(c) is Fraction for c in got)


def _sylvester(p, q):
    n, m = len(p) - 1, len(q) - 1
    zero = 0 * p[0]
    return ([[zero] * i + p + [zero] * (m - 1 - i) for i in range(m)]
            + [[zero] * i + q + [zero] * (n - 1 - i) for i in range(n)])


@pytest.mark.parametrize("d", FIELDS)
def test_det_matches_sympy_up_to_size_9(d):
    rng = random.Random(400 + d)
    elem = _element_maker(d, rng)
    dom = _domain(d)
    one = NumberField(d).one if d else Fraction(1)
    cases = [_random_matrix(rng, elem, n, n) for n in range(5, 10) for _ in range(3)]
    for _ in range(3):                  # Sylvester matrices of degree-5 polynomials
        p = [one] + [elem() for _ in range(5)]
        cases.append(_sylvester(p, [c * (5 - i) for i, c in enumerate(p[:-1])]))
    for rows in cases:
        got = det(rows)
        assert _to_sympy(d, dom, got) == _domain_matrix(d, dom, rows, len(rows)).det(), rows
