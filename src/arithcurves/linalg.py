"""Exact linear algebra over Q (ints, Fractions) and quadratic fields (FieldElements).

The characteristic polynomial comes from one division-free routine,
Berkowitz's algorithm (Inf. Process. Lett. 18, 1984), on integer pairs
(a, b) = a + b w with w^2 = s w + t, after scaling the matrix by the common
denominator D of its entries: that multiplies the k-th coefficient by D^k.
`curve` also takes the discriminant from those pairs (`integral_char_poly`).

chi on gl_n, the characteristic morphism on all n x n matrices, is the
coefficient tuple of that polynomial.  Its cost grows with n and with the
digits of the scaled entries, so `integral_char_poly`, the one entry to
Berkowitz for `chi`, each place of `slope` and `curve`, refuses a matrix whose
cost estimate n^3 * D^log2(3) passes MAX_CHI_WORK, D Hadamard's bound on the
digits of the coefficients; the estimate is four times that when an entry has a
w-part, since `_dot` then spends four integer products on a pair product.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import MAX_CHI_WORK, MalformedInput, NonSquare


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


def _scaled(pairs, den: int) -> list[list[tuple[int, int]]]:
    """D M as rows of integer pairs, for M given as rows of pairs of rationals (a, b)
    and D = den a common denominator of their coordinates."""
    return [[(a.numerator * (den // a.denominator), b.numerator * (den // b.denominator))
             for a, b in row] for row in pairs]


def integral_char_poly(matrix, field) -> tuple[int, list[tuple[int, int]]]:
    """(D, g): D the common denominator of the entries (ints, Fractions or
    FieldElements of `field`), g = det(y I - D M) on integer pairs, highest first.

    Refused before Berkowitz when its price passes MAX_CHI_WORK: n^3 products of
    integers with the digits `coefficient_digits` gives g's coefficients from the
    largest |a| + |b| of the scaled entries a + b w, each priced digits^log2(3), as
    CPython's Karatsuba multiplication costs, and four per product when an entry has
    a nonzero w-part.  D is built one denominator at a time: a nonzero coordinate of
    denominator q scales to at least D / q, so the matrix is refused as soon as D
    over the least such q prices past the limit, before D grows further."""
    pairs = [[(x.a, x.b) if hasattr(x, "field") else (x, 0) for x in row] for row in matrix]
    n, w_part = len(pairs), any(b for row in pairs for _, b in row)

    def work(bound: int) -> tuple[int, int]:
        digits = coefficient_digits(n, bound) if n else 0
        return (4 if w_part else 1) * n ** 3 * round(digits ** math.log2(3)), digits

    dens = [c.denominator for row in pairs for x in row for c in x if c]
    least, den = min(dens, default=1), 1
    for q in dens:
        if den % q:
            den = math.lcm(den, q)
            if work(den // least)[0] > MAX_CHI_WORK:
                raise MalformedInput(f"characteristic polynomial work exceeds the limit "
                                     f"{MAX_CHI_WORK} on the common denominator of the "
                                     f"matrix entries alone")
    scaled = _scaled(pairs, den)
    cost, digits = work(max((abs(a) + abs(b) for row in scaled for a, b in row), default=0))
    if cost > MAX_CHI_WORK:
        raise MalformedInput(f"characteristic polynomial work {'4 ' if w_part else ''}"
                             f"n^3 * D^1.585 = {cost} exceeds the limit {MAX_CHI_WORK} "
                             f"(n = {n}, and D = {digits} digits bound the coefficients)")
    return den, _berkowitz(scaled, *(field.omega_poly if field else (0, 0)))


def descale(den: int, g, field) -> list:
    """[g_1 / D, ..., g_n / D^n]: FieldElements of `field`, or Fractions for None."""
    return [field.element(Fraction(a, den ** k), Fraction(b, den ** k)) if field
            else Fraction(a, den ** k) for k, (a, b) in enumerate(g[1:], start=1)]


def coefficient_digits(n: int, entry_bound: int) -> int:
    """Decimal digits that bound every coefficient of det(l I - M), for an n x n
    integer matrix M whose entries are at most entry_bound in absolute value.

    The k-th coefficient is a sum of C(n, k) principal k x k minors, and
    Hadamard's inequality bounds each by (sqrt(k) entry_bound)^k.
    """
    log_b = math.log10(max(entry_bound, 1))
    return 1 + int(max(math.log10(math.comb(n, k)) + k * (math.log10(k) / 2 + log_b)
                       for k in range(1, n + 1)))


def chi_gl(a) -> tuple[Fraction, ...]:
    """chi of a rational matrix: (c_1, ..., c_n) with c_k = e_k(eigenvalues).

    The characteristic polynomial is l^n - c_1 l^{n-1} + c_2 l^{n-2} - ...
    + (-1)^n c_n.
    """
    mat = [[Fraction(x) for x in row] for row in a]
    if any(len(row) != len(mat) for row in mat):
        raise NonSquare("matrix is not square")
    coeffs = descale(*integral_char_poly(mat, None), None)
    return tuple(-c if k % 2 else c for k, c in enumerate(coeffs, start=1))
