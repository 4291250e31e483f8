"""Arithmetic characteristic curves attached to twisted Higgs matrices.

A Higgs field is an n x n matrix (n at most MAX_CURVE_N) over Q or a quadratic
field whose entries lie in a fractional ideal L.  Its characteristic point
(c_1, ..., c_n) satisfies c_k in L^k with an explicit membership certificate;
the spectral curve is the rank-n algebra O_F[l]/(p(l)) for the monic
characteristic polynomial p, and the cameral curve imposes e_k(l_1..l_n) = c_k,
a cover of generic degree n!.

Fiber analysis works over the base Q: factorization shapes of p mod a prime q
come from one distinct-degree pass in `finitefield` (gcd(p, x^(q^d) - x) for
d = 1, 2, ..., which also counts multiplicities), ramified primes are the
prime divisors of the discriminant (found by trial division up to the fiber
bound, at most MAX_FIBER_BOUND), rational cameral points are Hensel lifts of
the roots mod the least prime where p stays squarefree, and covering degrees
are checked at the smallest completely split prime: its n distinct roots must
reproduce the characteristic point, so the cameral fiber there has n! points.
The discriminant is the Hankel determinant of the power sums of the roots.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .arakelov import FieldElement, FractionalIdeal, NumberField
from .errors import (MAX_CURVE_N, MAX_FIBER_BOUND, ArithCurvesError, DegenerateCurve,
                     MembershipFailure, UnsupportedBase)
from .finitefield import (factor_pattern, is_prime, is_squarefree, roots_mod_p,
                          splits_completely)
from .linalg import char_poly, det


class HiggsField(NamedTuple):
    field: NumberField
    matrix: tuple[tuple[FieldElement, ...], ...]
    twist: FractionalIdeal
    entry_membership: tuple[tuple[tuple[int, ...], ...], ...]   # coords in the twist basis

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
    memb = []
    for row in entries:
        r, m = [], []
        for x in row:
            e = x if isinstance(x, FieldElement) else K.element(Fraction(x))
            coords = twist.membership_coords(e)
            if coords is None:
                raise MembershipFailure(f"entry {e} is not in the twist ideal")
            r.append(e)
            m.append(coords)
        mat.append(tuple(r))
        memb.append(tuple(m))
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ArithCurvesError("Higgs matrix must be square")
    return HiggsField(field=K, matrix=tuple(mat), twist=twist,
                      entry_membership=tuple(memb))


class CharPointCertificate(NamedTuple):
    values: tuple[FieldElement, ...]            # c_k = e_k(eigenvalues)
    power_coords: tuple[tuple[int, ...], ...]   # coords of c_k over a basis of L^k


def characteristic_point(phi: HiggsField) -> CharPointCertificate:
    """chi(phi) with the exact certificate that c_k lies in twist^k."""
    acs = char_poly(phi.matrix)
    values = tuple(-a if k % 2 == 1 else a for k, a in enumerate(acs, start=1))
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


def poly_discriminant(poly, K: NumberField) -> FieldElement:
    """disc of a monic polynomial; zero iff it has a repeated root.

    With s_k the k-th power sum of the roots, disc = prod_{i<j} (l_i - l_j)^2
    = det(V^T V) = det[s_{i+j}] for the Vandermonde matrix V; Newton's
    identities give s_1 .. s_{2n-2} from the coefficients without division.
    """
    n = len(poly) - 1
    if n <= 1:
        return K.one
    s = _power_sums(poly, K, 2 * n - 1)
    return det([s[i:i + n] for i in range(n)])


def _power_sums(poly, K: NumberField, count: int) -> list[FieldElement]:
    """s_0 .. s_{count-1} of the roots of a monic polynomial, by Newton's identities
    s_k = -(k c_k + sum_{0<i<k} c_i s_{k-i}) (c_k = 0 for k > n): no division."""
    n = len(poly) - 1
    s = [K.element(n)]
    for k in range(1, count):
        acc = k * poly[k] if k <= n else K.zero
        for i in range(1, min(k, n + 1)):
            acc = acc + poly[i] * s[k - i]
        s.append(-acc)
    return s


def spectral_curve(phi: HiggsField) -> CharacteristicCurve:
    """Spec O_F[l]/(p_phi): the degree-n cover cut out by the char polynomial."""
    cert = characteristic_point(phi)
    # p(l) = l^n - c_1 l^{n-1} + c_2 l^{n-2} - ... + (-1)^n c_n
    poly = (phi.field.one, *(c * (-1) ** k for k, c in enumerate(cert.values, start=1)))
    return CharacteristicCurve(kind="spectral", field=phi.field, n=phi.n, poly=poly,
                               certificate=cert, twist=phi.twist,
                               disc=poly_discriminant(poly, phi.field))


def cameral_curve(phi: HiggsField) -> CharacteristicCurve:
    """The base change along t -> t//W: relations e_k(l_1..l_n) = c_k.

    It is cut out by the same characteristic point as the spectral curve, so
    it carries the same data under another kind.
    """
    return spectral_curve(phi)._replace(kind="cameral")


def discriminant(phi: HiggsField) -> FieldElement:
    return spectral_curve(phi).disc


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
    """Primes below the bound dividing the discriminant, with fiber shapes.

    A prime dividing a coefficient denominator is listed with shape None: p_phi
    has no reduction there, so its fiber is not defined on this presentation.
    The primes come from trial division of |num(disc)| * den(disc) * den, so
    the scan stops at min(bound, sqrt of what is left) and tests no candidate
    for primality; its cost is capped by MAX_FIBER_BOUND.
    """
    if bound > MAX_FIBER_BOUND:
        raise ArithCurvesError(f"fiber bound {bound} exceeds the limit {MAX_FIBER_BOUND}")
    if C.degenerate:
        raise DegenerateCurve("discriminant vanishes identically")
    den = math.lcm(*(c.denominator for c in _rational_poly(C)))
    d = C.disc.a
    rest = abs(d.numerator) * d.denominator * den
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

    The scan skips the primes dividing the discriminant or a coefficient
    denominator and tests each other prime with one x^p = x (mod p_phi) check.
    Split primes have density 1/|Gal| >= 1/n! (Chebotarev); the least one is
    at most d_L^A for the discriminant d_L of the splitting field and an
    absolute constant A (Lagarias, Montgomery and Odlyzko, 1979), and
    O((log d_L)^2) under GRH (Lagarias and Odlyzko, 1977).
    """
    if C.degenerate:
        raise DegenerateCurve("discriminant vanishes identically")
    coeffs = _rational_poly(C)
    d = C.disc.a
    p = 1
    while True:
        p += 1
        if not is_prime(p):
            continue
        if d.numerator % p == 0 or d.denominator % p == 0:
            continue
        if any(c.denominator % p == 0 for c in coeffs):
            continue
        if splits_completely(_reduce_poly(C, p), p):
            return p


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
    of g(y) = den^n p_phi(y / den).  They are found p-adically: at the least
    prime p where the squarefree part of g stays squarefree, its roots mod p
    are Newton-lifted past twice the Cauchy bound and checked exactly.
    """
    f = _rational_poly(C)
    den = math.lcm(*(c.denominator for c in f))
    g = [int(c * den ** i) for i, c in enumerate(f)]
    if not C.disc:
        g = _squarefree_part(g)
    roots: list[Fraction] = []
    for y in _integer_roots(g):
        r = Fraction(y, den)
        while len(f) > 1 and _eval_poly(f, r) == 0:
            roots.append(r)
            f = _deflate(f, r)
    if len(f) > 1:
        return None
    return sorted(set(itertools.permutations(roots)))


def _integer_roots(g: list[int]) -> list[int]:
    """Integer roots of a monic squarefree g (highest degree first), by Hensel lifting."""
    if len(g) < 2:
        return []
    p = 2
    while not (is_prime(p) and is_squarefree([c % p for c in reversed(g)], p)):
        p += 1
    bound = 2 * (1 + max(abs(c) for c in g))
    dg = _derivative(g)
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


def _squarefree_part(g: list[int]) -> list[int]:
    """g / gcd(g, g') for a monic integral g, again monic and integral."""
    a, b = [Fraction(c) for c in g], [Fraction(c) for c in _derivative(g)]
    while b:
        a, b = b, _divmod(a, b)[1]
    return [int(c) for c in _divmod(g, [c / a[0] for c in a])[0]]


def _divmod(f, g) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder over Q, highest degree first."""
    q, r = [], [Fraction(c) for c in f]
    while len(r) >= len(g):
        c = r[0] / g[0]
        q.append(c)
        r = [x - c * y for x, y in zip(r[1:], g[1:])] + r[len(g):]
    while r and r[0] == 0:
        r.pop(0)
    return q, r


def _derivative(coeffs) -> list:
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


def _eval_poly(coeffs, x):
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _deflate(coeffs, root: Fraction) -> list[Fraction]:
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + out[-1] * root)
    return out
