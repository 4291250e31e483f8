"""Arithmetic over Q and quadratic fields Q(sqrt(d)): rings of integers,
fractional ideals in Hermite normal form, metrized line bundles and their
arithmetic degree.

Finite-place data is exact (Fractions over the integral basis {1, w}); only
archimedean metrics are floating point, with a global 1e-9 tolerance.  The
arithmetic degree of (I, rho) is, by the product formula (log |N(s)| is the sum
of eps_v log |sigma_v(s)| for every nonzero section s of I),

    deg(I, rho) = -log N(I) - sum_v eps_v log rho_v

with eps = 1 at real and 2 at complex places, and the log of the exact N(I)
taken as log(num) - log(den), so the value is finite on every admitted input.

The records are NamedTuples.  NumberField, FieldElement and MetrizedLineBundle
validate in `__new__` on a NamedTuple base, and `_make` and `_replace` go through
it.  Tuple arithmetic and ordering, which mean nothing here, raise TypeError.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple

from .errors import MAX_FIELD_D, ArithCurvesError, MalformedInput, ZeroIdeal
from .jsonutil import MAX_LITERAL_DIGITS, _quote, _rational, _text, parse_rational, rat_str


def _is_squarefree(n: int) -> bool:
    """Trial division up to the cube root of |n|: every prime factor of the
    cofactor left is above it, so the cofactor is 1, p, pq or p^2."""
    n = abs(n)
    k = 2
    while k * k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return False
        k += 1
    r = math.isqrt(n)
    return n == 1 or r * r != n


def _validated_make(cls, iterable):
    """`_make`, and so `_replace`, through the validating `__new__`."""
    return cls(*iterable)


_FIELD_TOO_LARGE = f"|d| exceeds the limit MAX_FIELD_D = {MAX_FIELD_D}"


class _NumberField(NamedTuple):
    d: int


class NumberField(_NumberField):
    """Q when d = 0, otherwise Q(sqrt(d)) for squarefree d, |d| <= MAX_FIELD_D."""

    __slots__ = ()

    def __new__(cls, d: int = 0):
        if abs(d) > MAX_FIELD_D:            # before the squarefree loop, which is O(cbrt |d|)
            raise ArithCurvesError(_FIELD_TOO_LARGE)
        if d != 0 and (d == 1 or not _is_squarefree(d)):
            raise ArithCurvesError(f"d = {d} must be 0 or squarefree != 1")
        return super().__new__(cls, d)

    _make = classmethod(_validated_make)

    @property
    def degree(self) -> int:
        return 1 if self.d == 0 else 2

    @property
    def signature(self) -> tuple[int, int]:
        if self.d == 0:
            return (1, 0)
        return (2, 0) if self.d > 0 else (0, 1)

    @property
    def omega_poly(self) -> tuple[int, int]:
        """(s, t) with w^2 = s w + t; w = (1+sqrt(d))/2 iff d = 1 mod 4."""
        if self.d % 4 == 1:
            return (1, (self.d - 1) // 4)
        return (0, self.d)

    @property
    def name(self) -> str:
        if self.d == 0:
            return "Q"
        if self.d == -1:
            return "Q(i)"
        return f"Q(sqrt({self.d}))"

    @property
    def place_weights(self) -> list[int]:
        r1, r2 = self.signature
        return [1] * r1 + [2] * r2

    def element(self, a, b=0) -> "FieldElement":
        return FieldElement(self, Fraction(a), Fraction(b))

    @property
    def one(self) -> "FieldElement":
        return self.element(1)

    @property
    def omega(self) -> "FieldElement":
        return self.element(0, 1)


def parse_field(name: str) -> NumberField:
    s = name.strip().replace(" ", "")
    if s in ("Q", "QQ"):
        return NumberField(0)
    if s == "Q(i)":
        return NumberField(-1)
    m = re.fullmatch(r"Q\(sqrt\((-?)0*(\d+)\)\)", s)
    if not m:
        raise ArithCurvesError(f"cannot parse field {name!r}")
    sign, digits = m.groups()
    if len(digits) > len(str(MAX_FIELD_D)):     # past the limit, and maybe past int()'s
        raise ArithCurvesError(_FIELD_TOO_LARGE)
    return NumberField(int(sign + digits))


_ZERO = Fraction(0)


class _FieldElement(NamedTuple):
    field: NumberField
    a: Fraction
    b: Fraction


class FieldElement(_FieldElement):
    """a + b*w over the integral basis {1, w} of the field."""

    __slots__ = ()

    def __new__(cls, field: NumberField, a: Fraction, b: Fraction = _ZERO):
        if field.d == 0 and b != 0:
            raise ArithCurvesError("Q has no w component")
        return super().__new__(cls, field, a, b)

    _make = classmethod(_validated_make)

    def _unordered(self, other):
        raise TypeError("field elements are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ArithCurvesError("field elements from different fields")
            return other
        return FieldElement(self.field, Fraction(other))

    def __add__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        s, t = self.field.omega_poly
        return FieldElement(self.field,
                            self.a * o.a + self.b * o.b * t,
                            self.a * o.b + self.b * o.a + self.b * o.b * s)

    __rmul__ = __mul__

    def conj(self) -> "FieldElement":
        if self.field.degree == 1:
            return self
        s, _ = self.field.omega_poly
        return FieldElement(self.field, self.a + self.b * s, -self.b)

    def norm(self) -> Fraction:
        if self.field.degree == 1:
            return self.a
        s, t = self.field.omega_poly
        return self.a * self.a + self.a * self.b * s - self.b * self.b * t

    def trace(self) -> Fraction:
        if self.field.degree == 1:
            return self.a
        s, _ = self.field.omega_poly
        return 2 * self.a + self.b * s

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __str__(self):
        if self.field.d == 0:
            return rat_str(self.a)
        return f"{rat_str(self.a)} + {rat_str(self.b)}*w"


def parse_element(field: NumberField, s: str) -> FieldElement:
    """Accepts forms like "3/2", "w", "-w", "1+2*w", "1/2 - 3/4*w", "1e-5", "i" for Q(i)."""
    text = s.strip().replace(" ", "")
    if field.d == -1:
        text = text.replace("i", "w")
    # a term is a joining sign and a signed literal; a sign after an exponent's e stays put
    terms = re.findall(r"([+-]?)([+-]?(?:[eE][+-]?|[^+\-eE])+)", text)
    if not text or "".join(sign + term for sign, term in terms) != text:
        raise MalformedInput(f"cannot parse field element {s!r}")
    parts: tuple[list, list] = ([], [])          # the values of the 1 and the w terms
    for sign, term in terms:
        is_w = term.endswith("w")
        literal = term[:-1].rstrip("*") if is_w else term
        try:
            value = parse_rational(literal + "1" if literal in ("", "+", "-") else literal)
        except MalformedInput as exc:
            raise MalformedInput(f"cannot parse field element {s!r}: {exc}") from None
        parts[is_w].append(-value if sign == "-" else value)
    return FieldElement(field, *(sum(p[1:], p[0]) if p else _ZERO for p in parts))


# ---------------------------------------------------------------------------
# Fractional ideals

def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with g = gcd(a, b) >= 0 and u a + v b = g, by Euclid's steps in a loop."""
    u, v, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, u, v, u1, v1 = b, r, u1, v1, u - q * u1, v - q * v1
    return (a, u, v) if a >= 0 else (-a, -u, -v)


def _rat_gcd(values: list[Fraction]) -> Fraction:
    den = math.lcm(*(v.denominator for v in values)) if values else 1
    num = math.gcd(*(int(v * den) for v in values)) if values else 0
    return Fraction(num, den)


class FractionalIdeal(NamedTuple):
    """Nonzero fractional ideal, canonical upper-triangular HNF basis.

    Degree 1: rows = ((q,),) for the ideal q Z, q > 0.
    Degree 2: rows = ((a, b), (0, c)) for Z(a + b w) + Z(c w), with a, c > 0
    and 0 <= b < c.
    """

    field: NumberField
    rows: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_elements(cls, field: NumberField, elements) -> "FractionalIdeal":
        elems = [e if isinstance(e, FieldElement) else field.element(e) for e in elements]
        elems = [e for e in elems if e]
        if not elems:
            raise ZeroIdeal("no nonzero generators")
        if field.degree == 1:
            q = _rat_gcd([abs(e.a) for e in elems])
            return cls(field, ((q,),))
        pairs = []
        for e in elems:
            pairs.append((e.a, e.b))
            ew = e * field.omega
            pairs.append((ew.a, ew.b))
        den = math.lcm(*(x.denominator for p in pairs for x in p))
        int_rows = [(int(x * den), int(y * den)) for x, y in pairs]
        a, b, others = 0, 0, []
        for x, y in int_rows:
            if x == 0:
                others.append(y)
                continue
            if a == 0:
                a, b = (x, y) if x > 0 else (-x, -y)
                continue
            g, u, v = _xgcd(a, x)
            others.append((a * y - x * b) // g)
            a, b = g, u * b + v * y
        c = 0
        for y in others:
            c = math.gcd(c, abs(y))
        if a == 0 or c == 0:
            raise ZeroIdeal("generators span a rank-deficient module")
        b %= c
        return cls(field, ((Fraction(a, den), Fraction(b, den)),
                           (Fraction(0), Fraction(c, den))))

    @classmethod
    def ring_of_integers(cls, field: NumberField) -> "FractionalIdeal":
        return cls.from_elements(field, [field.one])

    def basis_elements(self) -> list[FieldElement]:
        if self.field.degree == 1:
            return [self.field.element(self.rows[0][0])]
        (a, b), (_, c) = self.rows
        return [self.field.element(a, b), self.field.element(0, c)]

    def norm(self) -> Fraction:
        if self.field.degree == 1:
            return self.rows[0][0]
        return self.rows[0][0] * self.rows[1][1]

    def __mul__(self, other: "FractionalIdeal") -> "FractionalIdeal":
        if self.field != other.field:
            raise ArithCurvesError("ideals over different fields")
        prods = [x * y for x in self.basis_elements() for y in other.basis_elements()]
        return FractionalIdeal.from_elements(self.field, prods)

    def _not_a_product(self, other):
        raise TypeError("fractional ideals support only the ideal product")

    __add__ = __radd__ = __rmul__ = _not_a_product

    def membership_coords(self, x: FieldElement) -> tuple[int, ...] | None:
        """Integer coordinates of x over the HNF basis, or None if x not in it."""
        if self.field.degree == 1:
            q = self.rows[0][0]
            if x.b:
                return None
            m, r = divmod(x.a.numerator * q.denominator, x.a.denominator * q.numerator)
            return None if r else (m,)
        (a, b), (_, c) = self.rows
        m, r = divmod(x.a.numerator * a.denominator, x.a.denominator * a.numerator)
        if r:
            return None
        # n = (x.b - m b) / c over the denominator x.b.denominator * b.denominator
        bd = b.denominator
        n, r = divmod((x.b.numerator * bd - m * b.numerator * x.b.denominator) * c.denominator,
                      x.b.denominator * bd * c.numerator)
        return None if r else (m, n)

    def contains(self, x: FieldElement) -> bool:
        return self.membership_coords(x) is not None

    def hnf_strings(self) -> list[list[str]]:
        return [[rat_str(x) for x in row] for row in self.rows]


# readers of the fields and ideals in CLI documents (see `jsonutil`)

def read_field(value, key: str) -> NumberField:
    return parse_field(_text(value, key))


# Each generator's denominator divides the lcm of the denominators of the (at most
# three) HNF entries, so past 3 * MAX_LITERAL_DIGITS digits one of them cannot print.
_IDEAL_DEN_LIMIT = 10 ** (3 * MAX_LITERAL_DIGITS)


def read_ideal(spec, key: str, K: NumberField) -> FractionalIdeal:
    """Generator strings, or HNF rows (lists) emitted by the CLI.  The generators'
    common denominator is taken one generator at a time and refused, before any HNF
    work, once it passes 3 * MAX_LITERAL_DIGITS digits."""
    if not isinstance(spec, list):
        raise MalformedInput(f"an ideal must be a JSON list of generators, got {_quote(spec)}")
    elements, den = [], 1
    for item in spec:
        if isinstance(item, list):
            if len(item) != K.degree:
                raise MalformedInput(f"HNF rows over {K.name} must have length {K.degree}, "
                                     f"got {_quote(item)}")
            e = K.element(*(_rational(x, key) for x in item))
        else:
            e = parse_element(K, str(item))
        den = math.lcm(den, e.a.denominator, e.b.denominator)
        if den >= _IDEAL_DEN_LIMIT:
            raise MalformedInput(f"the generators' common denominator has more than "
                                 f"3 * MAX_LITERAL_DIGITS = {3 * MAX_LITERAL_DIGITS} digits, "
                                 f"so the ideal's HNF could not be printed")
        elements.append(e)
    return FractionalIdeal.from_elements(K, elements)


# ---------------------------------------------------------------------------
# Metrized line bundles

class _MetrizedLineBundle(NamedTuple):
    ideal: FractionalIdeal
    metrics: tuple[float, ...]       # one positive scalar per archimedean place


class MetrizedLineBundle(_MetrizedLineBundle):
    __slots__ = ()

    def __new__(cls, ideal: FractionalIdeal, metrics: tuple[float, ...]):
        r1, r2 = ideal.field.signature
        if len(metrics) != r1 + r2:
            raise ArithCurvesError(f"need {r1 + r2} metric factors, got {len(metrics)}")
        if not all(math.isfinite(m) for m in metrics):
            raise ArithCurvesError("metric factors must be finite")
        if any(m <= 0 for m in metrics):
            raise ArithCurvesError("metric factors must be positive")
        return super().__new__(cls, ideal, metrics)

    _make = classmethod(_validated_make)


def _log(q: Fraction) -> float:
    """log q of a positive Fraction, as log(num) - log(den): finite for any q."""
    return math.log(q.numerator) - math.log(q.denominator)


def degree_from_logs(K: NumberField, norm: Fraction, logs) -> float:
    """-log N(I) - sum_v eps_v l_v, from the norm N(I) and the log metric l_v of
    each place of K, real places first.  0.0 - reads a zero degree as 0, not -0."""
    return 0.0 - _log(norm) - sum(eps * l for eps, l in zip(K.place_weights, logs))


def arithmetic_degree(K: NumberField, L: MetrizedLineBundle) -> float:
    """Arakelov degree of L, by the product formula: l_v = log rho_v."""
    return degree_from_logs(K, L.ideal.norm(), map(math.log, L.metrics))
