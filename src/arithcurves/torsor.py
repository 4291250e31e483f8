"""Arithmetic GL_n-torsors as metrized lattices, read exactly.

A torsor over F = Q or Q(sqrt(d)) is a pseudo-basis of fractional ideals
I_1, ..., I_n with, at each archimedean place, a metric on the standard
representation given by its Gram matrix G: rational and symmetric at a real
place, over Q(i) and Hermitian at a complex one.  G is g^H g for its Cholesky
factor g, and the pullback Ad(g)^T H_can Ad(g) of the canonical form on gl_n
is compatible with the Cartan involution by construction (Lemma 7), so no
clause is checked here; the tests hold a floating-point oracle of the clauses.
What the slope needs of G is that it is positive definite, and det G.

Both come from one Berkowitz run per place (`linalg.integral_char_poly`) on
D G, D the common denominator of the entries.  A Hermitian matrix has real
eigenvalues, so by Descartes' rule of signs G is positive definite exactly
when the coefficients of det(y I - D G) strictly alternate in sign, and then
det G = (-1)^n g_n / D^n.  The slope of det^k is

    k deg_ar(det) = k (-log N(I_1 ... I_n) - 1/2 sum_v eps_v log det G_v),

eps_v = 1 at a real and 2 at a complex place: `arakelov.degree_from_logs`, the
formula of `arakelov.arithmetic_degree`, with log metric 1/2 log det G_v, the log
of a Fraction taken as log(num) - log(den), so nothing leaves the float range
before the slope itself.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import linalg
from .arakelov import FractionalIdeal, NumberField, _log, degree_from_logs
from .errors import ArithCurvesError, MalformedInput

GAUSSIAN = NumberField(-1)      # Q(i): the entries of a complex place's Gram matrix


def gram_det(gram, field: NumberField | None = None) -> Fraction:
    """det G of an n x n Gram matrix of Fractions (field None, a real place) or of
    FieldElements of Q(i) (a complex place), refused unless it is symmetric
    (Hermitian) and positive definite; past MAX_CHI_WORK `linalg.integral_char_poly`
    refuses it before Berkowitz."""
    conj = (lambda x: x.conj()) if field else (lambda x: x)
    if any(row[j] != conj(gram[j][i]) for i, row in enumerate(gram) for j in range(i + 1)):
        raise MalformedInput("metric Gram matrix must be "
                             + ("Hermitian" if field else "symmetric"))
    den, g = linalg.integral_char_poly(gram, field)
    # the coefficients are real (b = 0), since G is Hermitian
    if any((-1) ** k * a <= 0 for k, (a, _) in enumerate(g)):
        raise ArithCurvesError("metric Gram matrix must be positive definite")
    n = len(gram)
    return Fraction((-1) ** n * g[n][0], den ** n)


def slope(field: NumberField, ideal: FractionalIdeal, dets, k: int = 1) -> float:
    """<det^k, mu> = k deg_ar of the determinant line bundle: the product `ideal` of a
    torsor's ideals, with the Gram determinants `dets` of its places, real ones first."""
    degree = degree_from_logs(field, ideal.norm(), (_log(d) / 2 for d in dets))
    try:
        value = 0.0 + k * degree        # 0.0 + reads a zero slope as 0, not -0
    except OverflowError:               # k itself is beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ArithCurvesError("the character power is beyond the floating-point range of "
                               "the archimedean metrics")
    return value
