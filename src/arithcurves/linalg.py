"""Exact linear algebra over Q (ints, Fractions) and quadratic fields (FieldElements).

The characteristic polynomial comes from one division-free routine,
Berkowitz's algorithm (Inf. Process. Lett. 18, 1984), on integer pairs
(a, b) = a + b w with w^2 = s w + t, after scaling the matrix by the common
denominator D of its entries: that multiplies the k-th coefficient by D^k.
`curve` also takes the discriminant from those pairs (`integral_char_poly`).

chi on gl_n, the characteristic morphism on all n x n matrices, is the
coefficient tuple of that polynomial.  Its cost grows with n and with the
digits of the scaled entries, so `chi_gl` and `torsor.gram_det` refuse, before
Berkowitz, a matrix whose cost estimate n^3 * D^log2(3) passes MAX_CHI_WORK, where D
is Hadamard's bound on the digits of the coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import MAX_CHI_WORK, ArithCurvesError, MalformedInput, NonSquare


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


def _scaled(matrix) -> tuple[int, list[list[tuple[int, int]]]]:
    """(D, D M): D the common denominator of the entries (ints, Fractions or
    FieldElements a + b w), D M as rows of integer pairs (a, b)."""
    pairs = [[(x.a, x.b) if hasattr(x, "field") else (x, 0) for x in row] for row in matrix]
    den = math.lcm(*(c.denominator for row in pairs for x in row for c in x))
    return den, [[(a.numerator * (den // a.denominator), b.numerator * (den // b.denominator))
                  for a, b in row] for row in pairs]


def integral_char_poly(matrix, field) -> tuple[int, list[tuple[int, int]]]:
    """(D, g): D the common denominator of the entries (ints, Fractions or
    FieldElements of `field`), g = det(y I - D M) on integer pairs, highest first."""
    den, scaled = _scaled(matrix)
    return den, _berkowitz(scaled, *(field.omega_poly if field else (0, 0)))


def descale(den: int, g, field) -> list:
    """[g_1 / D, ..., g_n / D^n]: FieldElements of `field`, or Fractions for None."""
    return [field.element(Fraction(a, den ** k), Fraction(b, den ** k)) if field
            else Fraction(a, den ** k) for k, (a, b) in enumerate(g[1:], start=1)]


def char_poly(matrix) -> list:
    """[c_1, ..., c_n] with det(l I - M) = l^n + c_1 l^{n-1} + ... + c_n.

    Entries are ints, Fractions or FieldElements of one quadratic field; the
    coefficients are FieldElements if any entry is one, else Fractions.
    """
    fields = {x.field for row in matrix for x in row if hasattr(x, "field")}
    if len(fields) > 1:
        raise ArithCurvesError("field elements from different fields")
    field = fields.pop() if fields else None
    return descale(*integral_char_poly(matrix, field), field)


def coefficient_digits(n: int, entry_bound: int) -> int:
    """Decimal digits that bound every coefficient of det(l I - M), for an n x n
    integer matrix M whose entries are at most entry_bound in absolute value.

    The k-th coefficient is a sum of C(n, k) principal k x k minors, and
    Hadamard's inequality bounds each by (sqrt(k) entry_bound)^k.
    """
    log_b = math.log10(max(entry_bound, 1))
    return 1 + int(max(math.log10(math.comb(n, k)) + k * (math.log10(k) / 2 + log_b)
                       for k in range(1, n + 1)))


def check_chi_work(matrix) -> None:
    """Refuse a square matrix, of what `integral_char_poly` takes, whose characteristic
    polynomial would cost more than MAX_CHI_WORK: n^3 products of D-digit integers, D
    the digit bound of its scaled coefficients (each scaled entry a + b w bounded by
    |a| + |b|), each priced D^log2(3), as CPython's Karatsuba multiplication costs."""
    n = len(matrix)
    bound = max((abs(a) + abs(b) for row in _scaled(matrix)[1] for a, b in row), default=0)
    digits = coefficient_digits(n, bound) if n else 0
    work = n ** 3 * round(digits ** math.log2(3))
    if work > MAX_CHI_WORK:
        raise MalformedInput(f"characteristic polynomial work n^3 * D^1.585 = {work} "
                             f"exceeds the limit {MAX_CHI_WORK} (n = {n}, and D = {digits} "
                             f"digits bound the coefficients)")


def chi_gl(a) -> tuple[Fraction, ...]:
    """chi of a rational matrix: (c_1, ..., c_n) with c_k = e_k(eigenvalues).

    The characteristic polynomial is l^n - c_1 l^{n-1} + c_2 l^{n-2} - ...
    + (-1)^n c_n.
    """
    mat = [[Fraction(x) for x in row] for row in a]
    if any(len(row) != len(mat) for row in mat):
        raise NonSquare("matrix is not square")
    check_chi_work(mat)
    return tuple(-c if k % 2 else c for k, c in enumerate(char_poly(mat), start=1))
