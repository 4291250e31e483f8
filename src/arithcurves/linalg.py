"""Exact linear algebra over Q (ints, Fractions) and quadratic fields (FieldElements).

The characteristic polynomial and the determinant come from one division-free
routine, Berkowitz's algorithm (Inf. Process. Lett. 18, 1984), on integer pairs
(a, b) = a + b w with w^2 = s w + t, after scaling the matrix by the common
denominator D of its entries: that multiplies the k-th coefficient by D^k.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ArithCurvesError


def _dot(xs, ys, s: int, t: int) -> tuple[int, int]:
    """sum x_i y_i of integer pairs; w^2 = s w + t is applied once, at the end."""
    a = b = bb = 0
    for (a1, b1), (a2, b2) in zip(xs, ys):
        a += a1 * a2
        b += a1 * b2 + b1 * a2
        bb += b1 * b2
    return a + bb * t, b + bb * s


def _berkowitz(m, s: int, t: int) -> list[tuple[int, int]]:
    """det(l I - M) of a square matrix of integer pairs, highest degree first.

    Step r borders the leading block A by the column C above and the row R left
    of m[r][r], and multiplies the polynomial of A by the Toeplitz matrix of
    (1, -m[r][r], -R C, -R A C, ..., -R A^(r-1) C).
    """
    p = [(1, 0)]
    for r in range(len(m)):
        row = m[r][:r]
        block = [m[i][:r] for i in range(r)]
        v = [m[i][r] for i in range(r)]
        a, b = m[r][r]
        q = [(1, 0), (-a, -b)]
        for k in range(r):
            a, b = _dot(row, v, s, t)
            q.append((-a, -b))
            if k < r - 1:
                v = [_dot(x, v, s, t) for x in block]
        p = [_dot(q[i::-1], p, s, t) for i in range(r + 1)] + [_dot(q[:0:-1], p, s, t)]
    return p


def char_poly(matrix) -> list:
    """[c_1, ..., c_n] with det(l I - M) = l^n + c_1 l^{n-1} + ... + c_n.

    Entries are ints, Fractions or FieldElements of one quadratic field; the
    coefficients are FieldElements if any entry is one, else Fractions.
    """
    fields = {x.field for row in matrix for x in row if hasattr(x, "field")}
    if len(fields) > 1:
        raise ArithCurvesError("field elements from different fields")
    field = fields.pop() if fields else None
    pairs = [[(x.a, x.b) if hasattr(x, "field") else (x, 0) for x in row] for row in matrix]
    den = math.lcm(*(c.denominator for row in pairs for x in row for c in x))
    scaled = [[(a.numerator * (den // a.denominator), b.numerator * (den // b.denominator))
               for a, b in row] for row in pairs]
    s, t = field.omega_poly if field else (0, 0)
    out, scale = [], 1
    for a, b in _berkowitz(scaled, s, t)[1:]:
        scale *= den
        out.append(field.element(Fraction(a, scale), Fraction(b, scale)) if field
                   else Fraction(a, scale))
    return out


def det(matrix):
    """Determinant of a square matrix, (-1)^n c_n; 1 for the empty matrix."""
    if not matrix:
        return 1
    c = char_poly(matrix)[-1]
    return -c if len(matrix) % 2 else c
