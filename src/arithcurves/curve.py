"""Arithmetic characteristic curves attached to twisted Higgs matrices.

A Higgs field is an n x n matrix (n at most MAX_CURVE_N) over Q or a quadratic
field whose entries lie in a fractional ideal L.  Its characteristic point
(c_1, ..., c_n) satisfies c_k in L^k with an explicit membership certificate;
the spectral curve is the rank-n algebra O_F[l]/(p(l)) for the monic
characteristic polynomial p, and the cameral curve imposes e_k(l_1..l_n) = c_k,
a cover of generic degree n!.

Fiber analysis works over the base Q, where one rule decides good reduction:
the bad primes of a nondegenerate curve are the prime divisors of
N = |num(disc)| * den(disc) * den, den the lcm of the coefficient denominators.
Factorization shapes of p mod a prime q come from one distinct-degree pass in
`finitefield` (gcd(p, x^(q^d) - x) for d = 1, 2, ..., which also counts
multiplicities), ramified primes are the prime divisors of N (found by trial
division up to the fiber bound, at most MAX_FIBER_BOUND), rational cameral
points are Hensel lifts of the simple roots mod the least good prime, and
covering degrees are checked at the smallest completely split good prime: its
n distinct roots must reproduce the characteristic point, so the cameral
fiber there has n! points.  The discriminant is the Hankel determinant of the
power sums of the roots D l_i of g(y) = det(y I - D M), D the common
denominator of the entries, taken on the integer pairs of the Berkowitz run
that gives the characteristic point and divided by D^(n(n-1)).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .arakelov import FieldElement, FractionalIdeal, NumberField
from .errors import (MAX_CURVE_N, MAX_FIBER_BOUND, ArithCurvesError, DegenerateCurve,
                     MembershipFailure, UnsupportedBase)
from .finitefield import factor_pattern, is_prime, roots_mod_p, splits_completely
from .linalg import _berkowitz, _dot, descale, integral_char_poly


class HiggsField(NamedTuple):
    field: NumberField
    matrix: tuple[tuple[FieldElement, ...], ...]
    twist: FractionalIdeal

    @property
    def n(self) -> int:
        return len(self.matrix)


def higgs_field(K: NumberField, entries, twist: FractionalIdeal | None = None) -> HiggsField:
    """Build and validate a Higgs field; every entry must lie in the twist ideal."""
    if len(entries) > MAX_CURVE_N:
        raise ArithCurvesError(f"Higgs matrix size {len(entries)} exceeds the limit {MAX_CURVE_N}")
    if twist is None:
        twist = FractionalIdeal.ring_of_integers(K)
    mat = []
    for row in entries:
        r = []
        for x in row:
            e = x if isinstance(x, FieldElement) else K.element(Fraction(x))
            if not twist.contains(e):
                raise MembershipFailure(f"entry {e} is not in the twist ideal")
            r.append(e)
        mat.append(tuple(r))
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ArithCurvesError("Higgs matrix must be square")
    return HiggsField(field=K, matrix=tuple(mat), twist=twist)


class CharPointCertificate(NamedTuple):
    values: tuple[FieldElement, ...]            # c_k = e_k(eigenvalues)
    power_coords: tuple[tuple[int, ...], ...]   # coords of c_k over a basis of L^k


def characteristic_point(phi: HiggsField) -> CharPointCertificate:
    """chi(phi) with the exact certificate that c_k lies in twist^k."""
    return _certify(phi, descale(*integral_char_poly(phi.matrix, phi.field), phi.field))


def _certify(phi: HiggsField, coeffs) -> CharPointCertificate:
    """The certificate for the coefficients of det(l I - phi), c_k = (-1)^k coeffs[k-1]."""
    values = tuple(-a if k % 2 == 1 else a for k, a in enumerate(coeffs, start=1))
    coords = []
    power = FractionalIdeal.ring_of_integers(phi.field)
    for k, c in enumerate(values, start=1):
        power = power * phi.twist                   # L^k, one product per k
        cert = power.membership_coords(c)
        if cert is None:
            raise MembershipFailure(f"coefficient {k} escapes the twist power")
        coords.append(cert)
    return CharPointCertificate(values=values, power_coords=tuple(coords))


class CharacteristicCurve(NamedTuple):
    kind: str                                # "spectral" | "cameral"
    field: NumberField
    n: int
    poly: tuple[FieldElement, ...]           # monic, highest degree first
    certificate: CharPointCertificate        # chi(phi) and its integrality witness
    twist: FractionalIdeal
    disc: FieldElement

    @property
    def degree(self) -> int:
        return self.n if self.kind == "spectral" else math.factorial(self.n)

    @property
    def degenerate(self) -> bool:
        return not self.disc and self.n > 1


def poly_discriminant(g, den: int, K: NumberField) -> FieldElement:
    """disc(p) for g(y) = D^n p(y / D) on integer pairs, highest degree first, and
    D = den; zero iff the monic p has a repeated root.

    With S_k the k-th power sum of the roots D l_i of g, disc(g) = D^(n(n-1)) disc(p)
    = prod_{i<j} (D l_i - D l_j)^2 = det(V^T V) = det[S_{i+j}] for the Vandermonde V.
    """
    n = len(g) - 1
    if n <= 1:
        return K.one
    s, t = K.omega_poly
    sums = _power_sums(g, 2 * n - 1, s, t)
    # the constant term of det(y I - H) is (-1)^n det H
    a, b = _berkowitz([sums[i:i + n] for i in range(n)], s, t)[-1]
    scale = (-1) ** n * den ** (n * (n - 1))
    return K.element(Fraction(a, scale), Fraction(b, scale))


def _power_sums(g, count: int, s: int, t: int) -> list[tuple[int, int]]:
    """S_0 .. S_{count-1} of the roots of a monic g on integer pairs, by Newton's
    identities S_k = -(k g_k + sum_{0<i<k} g_i S_{k-i}) (g_k = 0 for k > n): no
    division, and w^2 = s w + t applied once per S_k."""
    n = len(g) - 1
    S = [(n, 0)]
    for k in range(1, count):
        a, b = _dot(g[1:], S[:0:-1], s, t)
        if k <= n:
            a, b = a + k * g[k][0], b + k * g[k][1]
        S.append((-a, -b))
    return S


def spectral_curve(phi: HiggsField) -> CharacteristicCurve:
    """Spec O_F[l]/(p_phi): the degree-n cover cut out by the char polynomial."""
    den, g = integral_char_poly(phi.matrix, phi.field)     # the one Berkowitz run
    coeffs = descale(den, g, phi.field)
    cert = _certify(phi, coeffs)
    poly = (phi.field.one, *coeffs)
    # A coefficient past the int-to-str limit cannot be emitted: raise its
    # ArithCurvesError here, before the discriminant, the costliest step.
    for c in poly:
        str(c)
    return CharacteristicCurve(kind="spectral", field=phi.field, n=phi.n, poly=poly,
                               certificate=cert, twist=phi.twist,
                               disc=poly_discriminant(g, den, phi.field))


def cameral_curve(phi: HiggsField) -> CharacteristicCurve:
    """The base change along t -> t//W: relations e_k(l_1..l_n) = c_k.

    It is cut out by the same characteristic point as the spectral curve, so
    it carries the same data under another kind.
    """
    return spectral_curve(phi)._replace(kind="cameral")


# ---------------------------------------------------------------------------
# Fibers and ramification over the base Q

def _rational_poly(C: CharacteristicCurve) -> list[Fraction]:
    if C.field.degree != 1:
        raise UnsupportedBase("fiber analysis runs over base Q; factor the prime "
                              "in the quadratic base first")
    return [c.a for c in C.poly]


def _reduce_poly(C: CharacteristicCurve, p: int) -> list[int]:
    coeffs = _rational_poly(C)
    if any(c.denominator % p == 0 for c in coeffs):
        raise ArithCurvesError(f"coefficients have denominator divisible by {p}")
    # lowest degree first for the finite-field layer
    return [int(c.numerator * pow(c.denominator, -1, p)) % p for c in reversed(coeffs)]


def _bad_reduction(C: CharacteristicCurve) -> tuple[int, int]:
    """(den, N): den the lcm of the coefficient denominators, N = |num(disc)| *
    den(disc) * den.  The bad primes are the prime divisors of N; at every other
    prime p_phi reduces to a squarefree polynomial of degree n."""
    if C.degenerate:
        raise DegenerateCurve("discriminant vanishes identically")
    den = math.lcm(*(c.denominator for c in _rational_poly(C)))
    d = C.disc.a
    return den, abs(d.numerator) * d.denominator * den


def _good_primes(N: int):
    """The primes not dividing N, in increasing order."""
    return (p for p in itertools.count(2) if is_prime(p) and N % p)


def fiber(C: CharacteristicCurve, p: int) -> list[tuple[int, int]]:
    """(residue degree, multiplicity) shape of p_phi mod p; sum e f = n."""
    if C.kind != "spectral":
        raise ArithCurvesError("prime fibers are computed on the spectral presentation")
    if C.degenerate:
        raise DegenerateCurve("discriminant vanishes identically")
    if not is_prime(p):
        raise ArithCurvesError(f"{p} is not prime")
    shape = factor_pattern(_reduce_poly(C, p), p)
    assert sum(d * e for d, e in shape) == C.n
    return shape


def ramified_primes(C: CharacteristicCurve,
                    bound: int) -> list[tuple[int, list[tuple[int, int]] | None]]:
    """Primes below the bound of bad reduction, with fiber shapes.

    A prime dividing a coefficient denominator is listed with shape None: p_phi
    has no reduction there, so its fiber is not defined on this presentation.
    The primes come from trial division of N (see `_bad_reduction`), so the
    scan stops at min(bound, sqrt of what is left) and tests no candidate for
    primality; its cost is capped by MAX_FIBER_BOUND.
    """
    if bound > MAX_FIBER_BOUND:
        raise ArithCurvesError(f"fiber bound {bound} exceeds the limit {MAX_FIBER_BOUND}")
    if bound < 0:
        raise ArithCurvesError(f"fiber bound {bound} is negative")
    den, rest = _bad_reduction(C)
    primes = []
    p = 2
    while p < bound and p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1 if p == 2 else 2
    # every prime below p is stripped, so a cofactor below the bound is prime
    if 1 < rest < bound:
        primes.append(rest)
    return [(p, None) if den % p == 0 else (p, fiber(C, p)) for p in primes]


def smallest_split_prime(C: CharacteristicCurve) -> int:
    """Least prime where p_phi splits into n distinct linear factors.

    The scan runs over the good primes (see `_bad_reduction`) and tests each
    with one x^p = x (mod p_phi) check.  Split primes have density
    1/|Gal| >= 1/n! (Chebotarev); the least one is at most d_L^A for the
    discriminant d_L of the splitting field and an absolute constant A
    (Lagarias, Montgomery and Odlyzko, 1979), and O((log d_L)^2) under GRH
    (Lagarias and Odlyzko, 1977).
    """
    _, N = _bad_reduction(C)
    return next(p for p in _good_primes(N) if splits_completely(_reduce_poly(C, p), p))


def covering_degree_check(C: CharacteristicCurve) -> bool:
    """Fiber count over the smallest completely split prime matches the degree.

    Spectral curves must show n distinct roots r_i mod p.  The tuples with
    e_k = c_k for every k are the orderings of a multiset whose polynomial is
    l^n - c_1 l^{n-1} + ..., so a cameral curve has n! of them exactly when
    prod (l - r_i) has the coefficients (-1)^k c_k of the certificate.
    """
    p = smallest_split_prime(C)
    roots = roots_mod_p(_reduce_poly(C, p), p)
    if len(roots) != C.n:
        return False
    if C.kind == "spectral":
        return True
    want = [1] + [int(c.a.numerator * pow(c.a.denominator, -1, p)) * (-1) ** k % p
                  for k, c in enumerate(C.certificate.values, start=1)]
    prod = [1]                                  # prod (l - r), highest degree first
    for r in roots:
        prod = [(a - r * b) % p for a, b in zip(prod + [0], [0] + prod)]
    return prod == want


def cameral_fiber_rational(C: CharacteristicCurve) -> list[tuple[Fraction, ...]] | None:
    """Ordered eigenvalue tuples over Q, or None if p_phi does not split there.

    The rational roots r of the monic p_phi are y / den for the integer roots y
    of g(y) = den^n p_phi(y / den).  At the least good prime p (see
    `_bad_reduction`), g mod p is squarefree, so every root mod p is simple:
    each is Newton-lifted past twice the Cauchy bound and checked exactly.
    """
    den, N = _bad_reduction(C)
    g = [int(c * den ** i) for i, c in enumerate(_rational_poly(C))]
    roots = [Fraction(y, den) for y in _integer_roots(g, next(_good_primes(N)))]
    if len(roots) < C.n:
        return None
    return sorted(itertools.permutations(roots))


def _integer_roots(g: list[int], p: int) -> list[int]:
    """Integer roots of a monic g (highest degree first) squarefree mod p, by Hensel lifting."""
    bound = 2 * (1 + max(abs(c) for c in g))
    dg = [c * (len(g) - 1 - i) for i, c in enumerate(g[:-1])]
    out = []
    for r in roots_mod_p([c % p for c in reversed(g)], p):
        m = p
        while m <= bound:
            m *= m
            r = (r - _eval_poly(g, r) * pow(_eval_poly(dg, r), -1, m)) % m
        y = r - m if 2 * r > m else r
        if _eval_poly(g, y) == 0:
            out.append(y)
    return out


def _eval_poly(coeffs, x):
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc
