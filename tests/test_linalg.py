"""det and solve against sympy, over Q (Fractions) and over quadratic fields."""

import functools
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy import Rational, sqrt  # noqa: E402
from sympy.polys.domains import QQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from arithcurves.arakelov import FieldElement, NumberField  # noqa: E402
from arithcurves.linalg import det, solve  # noqa: E402

FIELDS = [0, -5, 13]            # Q; w = sqrt(-5); w = (1 + sqrt(13))/2


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
    dom = QQ.algebraic_field(sqrt(d)) if d else QQ
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


@pytest.mark.parametrize("d", FIELDS)
def test_solve_matches_sympy(d):
    rng = random.Random(200 + d)
    elem = _element_maker(d, rng)
    dom = QQ.algebraic_field(sqrt(d)) if d else QQ
    outcomes = {"unique": 0, "underdetermined": 0, "inconsistent": 0}
    for m, k in ((1, 1), (2, 2), (3, 3), (4, 4), (4, 2), (3, 1), (2, 4)):
        for _ in range(20):
            rows = _random_matrix(rng, elem, m, k)
            if rng.random() < 0.5:                  # a consistent right-hand side
                x0 = [elem() for _ in range(k)]
                rhs = [sum((a * b for a, b in zip(row, x0)), 0 * x0[0]) for row in rows]
            else:
                rhs = [elem() for _ in range(m)]
            A = _domain_matrix(d, dom, rows, k)
            b = _domain_matrix(d, dom, [[y] for y in rhs], 1)
            rank, rank_aug = A.rank(), A.hstack(b).rank()
            x = solve(rows, rhs)
            if rank_aug > rank:
                assert x is None, (rows, rhs)
                outcomes["inconsistent"] += 1
                continue
            assert x is not None and len(x) == k, (rows, rhs)
            assert A * _domain_matrix(d, dom, [[v] for v in x], 1) == b
            outcomes["unique" if rank == k else "underdetermined"] += 1
    assert min(outcomes.values()) > 5, outcomes
