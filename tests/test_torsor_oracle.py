"""The exact positive-definite test and Gram determinant against sympy, over Q and
Q(i), and tied to the floating-point Lemma-7 oracle through integer witnesses."""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from arithcurves.errors import ArithCurvesError  # noqa: E402
from arithcurves.torsor import GAUSSIAN, gram_det  # noqa: E402
from helpers import char_poly  # noqa: E402

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def _entry(field, re, im=Fraction(0)):
    return GAUSSIAN.element(re, im) if field else re


def _conj(x):
    return x.conj() if hasattr(x, "field") else x


@st.composite
def hermitian(draw, field):
    """A Hermitian matrix of size <= 5: free entries (mostly indefinite), or A^H A + c I
    for a square A whose rank may fall short (singular when c = 0)."""
    n = draw(st.integers(1, 5))
    cell = (st.builds(lambda a, b: _entry(field, a, b), rationals, rationals) if field
            else rationals)
    if draw(st.booleans()):
        rows = [[draw(cell) for _ in range(n)] for _ in range(n)]
        if draw(st.booleans()):                     # a repeated row: rank < n
            rows[-1] = rows[0]
        c = draw(st.sampled_from([Fraction(0), Fraction(1, 100), Fraction(1)]))
        return [[sum((_conj(rows[k][i]) * rows[k][j] for k in range(n)), _entry(field, c)
                     if i == j else _entry(field, Fraction(0))) for j in range(n)]
                for i in range(n)]
    gram = [[None] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = _entry(field, draw(rationals))
        for j in range(i):
            gram[i][j] = draw(cell)
            gram[j][i] = _conj(gram[i][j])
    return gram


def _sympy(gram):
    return sympy.Matrix([[sympy.Rational(x.a) + sympy.I * sympy.Rational(x.b)
                          if hasattr(x, "field") else sympy.Rational(x) for x in row]
                         for row in gram])


def _positive_definite(m) -> bool:
    """Sylvester's criterion on sympy's exact minors: a Hermitian matrix is positive
    definite exactly when its leading principal minors are positive.  (sympy's own
    `is_positive_definite` reads MISREAD below as not positive definite.)"""
    return all(sympy.expand(m[:k, :k].det()) > 0 for k in range(1, m.rows + 1))


def _check_against_sympy(gram, field):
    want = _sympy(gram)
    if _positive_definite(want):
        det = sympy.expand(want.det())
        assert gram_det(gram, field) == Fraction(int(det.p), int(det.q))
    else:
        with pytest.raises(ArithCurvesError, match="must be positive definite"):
            gram_det(gram, field)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), field=st.sampled_from([None, GAUSSIAN]))
def test_positive_definite_test_and_det_match_sympy(data, field):
    _check_against_sympy(data.draw(hermitian(field)), field)


# positive definite (leading minors 513/4, 1855493/144, 27043661/72, 2098237/8)
MISREAD = [[(Fraction(513, 4), 0), (Fraction(16, 3), Fraction(173, 4)),
            (Fraction(49, 2), Fraction(-119, 2)), (-3, Fraction(15, 2))],
           [(Fraction(16, 3), Fraction(-173, 4)), (Fraction(2075, 18), 0),
            (0, Fraction(-296, 3)), (6, Fraction(33, 4))],
           [(Fraction(49, 2), Fraction(119, 2)), (0, Fraction(296, 3)), (142, 0),
            (Fraction(-15, 2), Fraction(15, 2))],
           [(-3, Fraction(-15, 2)), (6, Fraction(-33, 4)), (Fraction(-15, 2), Fraction(-15, 2)),
            (Fraction(9, 4), 0)]]


def test_a_hermitian_matrix_sympy_misreads():
    gram = [[_entry(GAUSSIAN, Fraction(a), Fraction(b)) for a, b in row] for row in MISREAD]
    assert gram_det(gram, GAUSSIAN) == Fraction(2098237, 8)
    _check_against_sympy(gram, GAUSSIAN)


integers = st.integers(-3, 3)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), field=st.sampled_from([None, GAUSSIAN]), n=st.integers(1, 3))
def test_integer_witnesses_tie_the_exact_and_float_layers(data, field, n):
    """For an invertible integer g, the exact det of g^H g is |det g|^2, and the Lemma-7
    oracle passes on the form Ad(g)^T Ad(g) that g witnesses."""
    np = pytest.importorskip("numpy")
    from lemma7 import canonical_form, verify_compatibility, witnessed_form
    cell = st.builds(lambda a, b: _entry(field, Fraction(a), Fraction(b)), integers,
                     integers) if field else integers.map(Fraction)
    g = [[data.draw(cell) for _ in range(n)] for _ in range(n)]
    det_g = (-1) ** n * char_poly(g)[-1]
    assume(det_g)
    gram = [[sum((_conj(g[k][i]) * g[k][j] for k in range(n)), _entry(field, Fraction(0)))
             for j in range(n)] for i in range(n)]
    assert gram_det(gram, field) == (det_g.norm() if field else det_g ** 2)
    g_float = np.array([[complex(x.a, x.b) if field else float(x) for x in row] for row in g])
    assume(np.linalg.cond(g_float) < 50)
    cd = canonical_form(n, "complex" if field else "real")
    assert verify_compatibility(cd, witnessed_form(cd, g_float)).ok
