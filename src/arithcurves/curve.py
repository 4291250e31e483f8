"""Arithmetic characteristic curves attached to twisted Higgs matrices.

A Higgs field is an n x n matrix over Q or a quadratic field whose entries lie
in a fractional ideal L.  Its characteristic point (c_1, ..., c_n) satisfies
c_k in L^k with an explicit membership certificate; the spectral curve is the
rank-n algebra O_F[l]/(p(l)) for the monic characteristic polynomial p, and
the cameral curve imposes e_k(l_1..l_n) = c_k, a cover of generic degree n!.

Fiber analysis works over the base Q: factorization shapes of p mod a prime
come from the squarefree/distinct-degree machinery, ramified primes are the
prime divisors of the discriminant, and covering degrees are counted by
enumeration over the residue field of the smallest completely split prime.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .arakelov import FieldElement, FractionalIdeal, NumberField
from .charmorph import char_coeffs
from .errors import (ArithCurvesError, DegenerateCurve, MembershipFailure,
                     UnsupportedBase)
from .finitefield import factor_pattern, is_prime, is_squarefree, roots_mod_p
from .linalg import det


@dataclass(frozen=True)
class HiggsField:
    field: NumberField
    matrix: tuple[tuple[FieldElement, ...], ...]
    twist: FractionalIdeal
    entry_membership: tuple[tuple[tuple[int, ...], ...], ...]   # coords in the twist basis

    @property
    def n(self) -> int:
        return len(self.matrix)


def higgs_field(K: NumberField, entries, twist: FractionalIdeal | None = None) -> HiggsField:
    """Build and validate a Higgs field; every entry must lie in the twist ideal."""
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


@dataclass(frozen=True)
class CharPointCertificate:
    values: tuple[FieldElement, ...]            # c_k = e_k(eigenvalues)
    power_coords: tuple[tuple[int, ...], ...]   # coords of c_k over a basis of L^k


def characteristic_point(phi: HiggsField) -> CharPointCertificate:
    """chi(phi) with the exact certificate that c_k lies in twist^k."""
    acs = char_coeffs([list(row) for row in phi.matrix])
    values = tuple(-a if k % 2 == 1 else a for k, a in enumerate(acs, start=1))
    coords = []
    for k, c in enumerate(values, start=1):
        power = phi.twist.power(k)
        cert = power.membership_coords(c)
        if cert is None:
            raise MembershipFailure(f"coefficient {k} escapes the twist power")
        coords.append(cert)
    return CharPointCertificate(values=values, power_coords=tuple(coords))


@dataclass(frozen=True)
class CharacteristicCurve:
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


def _monic_poly(phi: HiggsField, values) -> tuple[FieldElement, ...]:
    # p(l) = l^n - c_1 l^{n-1} + c_2 l^{n-2} - ... + (-1)^n c_n
    coeffs = [phi.field.one]
    for k, c in enumerate(values, start=1):
        coeffs.append(c * ((-1) ** k))
    return tuple(coeffs)


def resultant(p, q, K: NumberField) -> FieldElement:
    """Sylvester resultant of two polynomials (highest degree first)."""
    p, q = list(p), list(q)
    n, m = len(p) - 1, len(q) - 1
    size = n + m
    rows = []
    for i in range(m):
        rows.append([K.zero] * i + p + [K.zero] * (size - i - n - 1))
    for i in range(n):
        rows.append([K.zero] * i + q + [K.zero] * (size - i - m - 1))
    return det(rows)


def poly_discriminant(poly, K: NumberField) -> FieldElement:
    """disc of a monic polynomial; zero iff it has a repeated root."""
    n = len(poly) - 1
    if n <= 1:
        return K.one
    deriv = [c * (n - i) for i, c in enumerate(poly[:-1])]
    res = resultant(list(poly), deriv, K)
    sign = (-1) ** (n * (n - 1) // 2)
    return res * sign


def spectral_curve(phi: HiggsField) -> CharacteristicCurve:
    """Spec O_F[l]/(p_phi): the degree-n cover cut out by the char polynomial."""
    cert = characteristic_point(phi)
    poly = _monic_poly(phi, cert.values)
    return CharacteristicCurve(kind="spectral", field=phi.field, n=phi.n, poly=poly,
                               certificate=cert, twist=phi.twist,
                               disc=poly_discriminant(poly, phi.field))


def cameral_curve(phi: HiggsField) -> CharacteristicCurve:
    """The base change along t -> t//W: relations e_k(l_1..l_n) = c_k.

    It is cut out by the same characteristic point as the spectral curve, so
    it carries the same data under another kind.
    """
    return replace(spectral_curve(phi), kind="cameral")


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
    """
    if C.degenerate:
        raise DegenerateCurve("discriminant vanishes identically")
    den = math.lcm(*(c.denominator for c in _rational_poly(C)))
    d = C.disc.a
    out = []
    for p in range(2, bound):
        if not is_prime(p):
            continue
        if den % p == 0:
            out.append((p, None))
        elif d.numerator % p == 0 or d.denominator % p == 0:
            out.append((p, fiber(C, p)))
    return out


def smallest_split_prime(C: CharacteristicCurve) -> int:
    """Least prime where p_phi splits into n distinct linear factors."""
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
        if factor_pattern(_reduce_poly(C, p), p) == [(1, 1)] * C.n:
            return p


def covering_degree_check(C: CharacteristicCurve) -> bool:
    """Fiber count over the smallest completely split prime matches the degree.

    Spectral curves must show n distinct roots; cameral curves are checked by
    enumerating ordered tuples in the residue field, expecting n! of them.
    """
    p = smallest_split_prime(C)
    f = _reduce_poly(C, p)
    roots = roots_mod_p(f, p)
    if not is_squarefree(f, p) or len(roots) != C.n:
        return False
    if C.kind == "spectral":
        return True
    want = [int(c.a.numerator * pow(c.a.denominator, -1, p)) % p
            for c in C.certificate.values]
    count = 0
    for tup in itertools.product(roots, repeat=C.n):
        if all(_ek_mod(tup, k, p) == want[k - 1] for k in range(1, C.n + 1)):
            count += 1
    return count == math.factorial(C.n)


def _ek_mod(values, k: int, p: int) -> int:
    total = 0
    for comb in itertools.combinations(values, k):
        prod = 1
        for v in comb:
            prod = prod * v % p
        total = (total + prod) % p
    return total


def cameral_fiber_rational(C: CharacteristicCurve) -> list[tuple[Fraction, ...]] | None:
    """Ordered eigenvalue tuples over Q, or None if p_phi does not split there."""
    roots: list[Fraction] = []
    remaining = _rational_poly(C)
    while len(remaining) > 1:
        root = _one_rational_root(remaining)
        if root is None:
            return None
        roots.append(root)
        remaining = _deflate(remaining, root)
    return sorted(set(itertools.permutations(roots)))


def _one_rational_root(coeffs: list[Fraction]) -> Fraction | None:
    if coeffs[-1] == 0:
        return Fraction(0)
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    for a in _divisors(ints[-1]):
        for b in _divisors(ints[0]):
            for s in (1, -1):
                cand = Fraction(s * a, b)
                if _eval_poly(coeffs, cand) == 0:
                    return cand
    return None


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    k = 1
    while k * k <= n:
        if n % k == 0:
            out += [k, n // k]
        k += 1
    return sorted(set(out))


def _eval_poly(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _deflate(coeffs, root: Fraction) -> list[Fraction]:
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + out[-1] * root)
    return out
