import math
import random
from fractions import Fraction

import pytest

from arithcurves.arakelov import (FieldElement, FractionalIdeal, MetrizedLineBundle,
                                  NumberField, _is_squarefree, _xgcd, arithmetic_degree,
                                  parse_element, parse_field)
from arithcurves.errors import MAX_FIELD_D, ArithCurvesError, MalformedInput, ZeroIdeal
from arithcurves.finitefield import factor_pattern
from helpers import embeddings, ideal_power, section_degree

try:
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st
except ImportError:
    st = None

QQ = NumberField(0)
Q2 = NumberField(2)
QI = NumberField(-1)
Q5M = NumberField(-5)
FIELDS = [QQ, Q2, QI, Q5M, NumberField(5)]


def minor_gcd_index(rows):
    """Index of the span of integer rows in Z^2: gcd of the 2x2 minors."""
    g = 0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            (a, b), (c, d) = rows[i], rows[j]
            g = math.gcd(g, abs(a * d - b * c))
    return g


def rand_element(K, rng, span=9):
    while True:
        a = Fraction(rng.randint(-span, span), rng.randint(1, 6))
        b = Fraction(rng.randint(-span, span), rng.randint(1, 6)) if K.degree == 2 else 0
        x = K.element(a, b)
        if x:
            return x


def test_field_construction():
    assert QQ.signature == (1, 0) and QQ.degree == 1
    assert Q2.signature == (2, 0)
    assert QI.signature == (0, 1)
    assert NumberField(5).omega_poly == (1, 1)          # w = (1+sqrt5)/2, w^2 = w + 1
    assert QI.omega_poly == (0, -1)
    assert parse_field("Q(sqrt(-5))") == Q5M
    assert parse_field("Q(i)") == QI
    with pytest.raises(ArithCurvesError):
        NumberField(12)                                  # not squarefree
    with pytest.raises(ArithCurvesError):
        parse_field("Q(sqrt(2)/3)")


@pytest.mark.parametrize("text, a, b", [
    ("1e-5", Fraction(1, 100000), 0), ("2E+3*w", 0, 2000), ("1e-5 - 1e-1*w", Fraction(1, 100000),
                                                              Fraction(-1, 10)),
    ("-1 + -2*w", -1, -2), ("3/2 - w", Fraction(3, 2), -1), ("1.5w", 0, Fraction(3, 2)),
])
def test_parse_element_reads_signed_exponents(text, a, b):
    assert parse_element(Q5M, text) == Q5M.element(a, b)


@pytest.mark.parametrize("text", ["", "+", "1+", "1+x", "e", "1e", "w*2", "1/0", "1e5000"])
def test_parse_element_rejects_malformed_text(text):
    with pytest.raises(MalformedInput, match="cannot parse field element"):
        parse_element(Q5M, text)


def test_element_arithmetic_and_parse():
    x = parse_element(Q5M, "1/2 - 3/4*w")
    assert x.a == Fraction(1, 2) and x.b == Fraction(-3, 4)
    assert parse_element(QI, "1+i") == QI.element(1, 1)
    assert parse_element(Q2, "w") == Q2.omega
    y = Q5M.element(2, 3)
    assert (x + y) - y == x
    assert x * y == y * x
    w = Q2.omega
    assert w * w == Q2.element(2)                        # sqrt(2)^2 = 2
    assert str(QQ.element(Fraction(3, 2))) == "3/2"


def test_norm_trace_conj():
    x = QI.element(1, 1)                                 # 1 + i
    assert x.norm() == 2 and x.trace() == 2
    assert x * x.conj() == QI.element(x.norm())
    g = NumberField(5).omega                             # golden ratio
    assert g.norm() == -1 and g.trace() == 1


def test_minkowski_examples():
    assert embeddings(QQ.element(3)) == [3.0]
    em = embeddings(Q2.omega)
    assert em[0] == pytest.approx(math.sqrt(2)) and em[1] == pytest.approx(-math.sqrt(2))
    (z,) = embeddings(QI.element(1, 1))
    assert z == pytest.approx(1 + 1j)


def test_ideal_norm_examples():
    assert FractionalIdeal.from_elements(QQ, [QQ.element(2)]).norm() == 2
    ideal = FractionalIdeal.from_elements(Q5M, [Q5M.element(2), Q5M.element(1, 1)])
    assert ideal.norm() == 2
    # oracle: index of the generated Z-module via gcd of 2x2 minors
    gens = [Q5M.element(2), Q5M.element(2) * Q5M.omega,
            Q5M.element(1, 1), Q5M.element(1, 1) * Q5M.omega]
    rows = [(int(g.a), int(g.b)) for g in gens]
    assert minor_gcd_index(rows) == 2
    assert FractionalIdeal.from_elements(QI, [QI.element(1, 1)]).norm() == 2


def test_ideal_norm_multiplicative():
    rng = random.Random(4)
    for K in [QI, Q5M, Q2]:
        for _ in range(15):
            i1 = FractionalIdeal.from_elements(K, [rand_element(K, rng)])
            i2 = FractionalIdeal.from_elements(K, [rand_element(K, rng),
                                                   rand_element(K, rng)])
            assert (i1 * i2).norm() == i1.norm() * i2.norm()


def test_principal_norm_is_element_norm():
    rng = random.Random(8)
    for K in FIELDS:
        for _ in range(10):
            x = rand_element(K, rng)
            assert FractionalIdeal.from_elements(K, [x]).norm() == abs(x.norm())


def test_hnf_canonical_and_membership():
    i1 = FractionalIdeal.from_elements(Q5M, [Q5M.element(2), Q5M.element(1, 1)])
    i2 = FractionalIdeal.from_elements(Q5M, [Q5M.element(1, 1), Q5M.element(2),
                                             Q5M.element(3, 1)])
    assert i1 == i2
    rng = random.Random(1)
    for _ in range(20):
        m, n = rng.randint(-5, 5), rng.randint(-5, 5)
        b1, b2 = i1.basis_elements()
        x = b1 * m + b2 * n
        assert i1.membership_coords(x) == (m, n)
    assert not i1.contains(Q5M.element(1))
    with pytest.raises(ZeroIdeal):
        FractionalIdeal.from_elements(QQ, [QQ.element(0)])


def membership_by_quotients(ideal, x):
    """`membership_coords` by its definition: each coordinate a Fraction quotient."""
    if ideal.field.degree == 1:
        if x.b != 0:
            return None
        m = x.a / ideal.rows[0][0]
        return (int(m),) if m.denominator == 1 else None
    (a, b), (_, c) = ideal.rows
    m = x.a / a
    if m.denominator != 1:
        return None
    n = (x.b - m * b) / c
    return (int(m), int(n)) if n.denominator == 1 else None


@pytest.mark.skipif(st is None, reason="hypothesis is not installed")
def test_membership_coords_matches_fraction_quotients():
    """Over Q, Q(i), Q(sqrt(-5)), Q(sqrt(2)) and Q(sqrt(13)), on ideals generated by
    elements with fractional coordinates: an element of the ideal has its integer
    coordinates, moving one coordinate off the integers reaches the None branch of
    that coordinate, and any element agrees with the quotients."""
    coord = st.fractions(min_value=-12, max_value=12, max_denominator=6)
    proper = st.integers(2, 7).flatmap(lambda d: st.integers(1, d - 1).map(
        lambda k: Fraction(k, d)))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def check(data):
        K = data.draw(st.sampled_from([QQ, QI, Q5M, Q2, NumberField(13)]))

        def element():
            return K.element(data.draw(coord), data.draw(coord) if K.degree == 2 else 0)

        gens = [element() for _ in range(data.draw(st.integers(1, 3)))]
        assume(any(gens))
        ideal = FractionalIdeal.from_elements(K, gens)
        basis = ideal.basis_elements()
        coords = tuple(data.draw(st.integers(-30, 30)) for _ in basis)
        inside = sum((e * m for e, m in zip(basis, coords)), K.element(0))
        assert ideal.membership_coords(inside) == coords
        assert membership_by_quotients(ideal, inside) == coords
        for e in basis:
            outside = inside + e * data.draw(proper)
            assert ideal.membership_coords(outside) is None
            assert membership_by_quotients(ideal, outside) is None
        x = element()
        assert ideal.membership_coords(x) == membership_by_quotients(ideal, x)
    check()


def test_ideal_power():
    two = FractionalIdeal.from_elements(QQ, [QQ.element(2)])
    assert ideal_power(two, 3).norm() == 8
    assert ideal_power(two, 0).norm() == 1


def test_degree_trivial_and_scaled():
    unit = FractionalIdeal.ring_of_integers(QQ)
    assert arithmetic_degree(QQ, MetrizedLineBundle(unit, (1.0,))) == 0.0
    for t in (0.5, 2.0, 7.25):
        bundle = MetrizedLineBundle(unit, (t,))
        assert arithmetic_degree(QQ, bundle) == pytest.approx(-math.log(t), abs=1e-12)


def test_degree_class_number_example():
    """deg of ((2, 1+sqrt(-5)), standard metric) = -log 2, and so it reads via two
    sections."""
    ideal = FractionalIdeal.from_elements(Q5M, [Q5M.element(2), Q5M.element(1, 1)])
    bundle = MetrizedLineBundle(ideal, (1.0,))
    assert arithmetic_degree(Q5M, bundle) == -math.log(2)
    d1 = section_degree(Q5M, bundle, section=Q5M.element(2))
    d2 = section_degree(Q5M, bundle, section=Q5M.element(1, 1))
    assert d1 == pytest.approx(-math.log(2), abs=1e-9)
    assert d2 == pytest.approx(-math.log(2), abs=1e-9)


def test_degree_section_independent():
    rng = random.Random(17)
    for K in [QQ, Q2, QI, Q5M]:
        ideal = FractionalIdeal.from_elements(K, [rand_element(K, rng)])
        r1, r2 = K.signature
        bundle = MetrizedLineBundle(ideal, tuple(rng.uniform(0.5, 2.0)
                                                 for _ in range(r1 + r2)))
        base = arithmetic_degree(K, bundle)
        for _ in range(10):
            mult = rand_element(K, rng)
            # any nonzero multiple of a basis element is again a section
            s = ideal.basis_elements()[0] * K.element(rng.randint(1, 5))
            assert section_degree(K, bundle, section=s) == pytest.approx(base, abs=1e-9)


def test_product_formula():
    rng = random.Random(23)
    for K in FIELDS:
        for _ in range(50):
            x = rand_element(K, rng)
            lhs = math.log(abs(x.norm()))
            rhs = sum(e * math.log(abs(s))
                      for e, s in zip(K.place_weights, embeddings(x)))
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_degree_additive_under_tensor():
    rng = random.Random(31)
    for K in [QQ, Q5M, Q2]:
        r = sum(K.signature)
        for _ in range(10):
            l1 = MetrizedLineBundle(FractionalIdeal.from_elements(K, [rand_element(K, rng)]),
                                    tuple(rng.uniform(0.5, 2.0) for _ in range(r)))
            l2 = MetrizedLineBundle(FractionalIdeal.from_elements(
                K, [rand_element(K, rng), rand_element(K, rng)]),
                tuple(rng.uniform(0.5, 2.0) for _ in range(r)))
            tensor = MetrizedLineBundle(l1.ideal * l2.ideal,
                                        tuple(a * b for a, b in zip(l1.metrics, l2.metrics)))
            assert arithmetic_degree(K, tensor) == pytest.approx(
                arithmetic_degree(K, l1) + arithmetic_degree(K, l2), abs=1e-9)


def test_principal_bundle_degree_zero():
    """x O_F with the metric transported from the trivial bundle along x, so that x has
    norm 1 at every place: degree 0 is exactly the product formula."""
    rng = random.Random(37)
    for K in FIELDS:
        for _ in range(10):
            x = rand_element(K, rng)
            transported = MetrizedLineBundle(FractionalIdeal.from_elements(K, [x]),
                                             tuple(1.0 / abs(s) for s in embeddings(x)))
            assert arithmetic_degree(K, transported) == pytest.approx(0.0, abs=1e-9)
            # flat rho = 1 metric instead shifts the degree by -log|N(x)|
            flat = MetrizedLineBundle(FractionalIdeal.from_elements(K, [x]),
                                      (1.0,) * sum(K.signature))
            assert arithmetic_degree(K, flat) == pytest.approx(
                -math.log(abs(x.norm())), abs=1e-9)


def _splitting(K: NumberField, p: int) -> list[tuple[int, int]]:
    """(f, e) shape of p in K: the minimal polynomial of w factored mod p (Dedekind)."""
    if K.degree == 1:
        return factor_pattern([0, 1], p)
    s, t = K.omega_poly
    return factor_pattern([-t, -s, 1], p)


def test_factor_prime_examples():
    assert _splitting(QI, 5) == [(1, 1), (1, 1)]
    assert _splitting(QI, 2) == [(1, 2)]
    assert _splitting(QQ, 11) == [(1, 1)]
    assert _splitting(QI, 7) == [(2, 1)]


def test_factor_prime_degree_sum():
    """The shapes sum to [K:Q], and p ramifies exactly when it divides disc(K)."""
    for K in [Q2, QI, Q5M, NumberField(5), NumberField(-3)]:
        s, t = K.omega_poly
        disc = s * s + 4 * t                    # of w's minimal polynomial x^2 - s x - t
        for p in (2, 3, 5, 7, 11, 13, 41):
            shape = _splitting(K, p)
            assert sum(f * e for f, e in shape) == K.degree
            assert any(e > 1 for _, e in shape) == (disc % p == 0)


def test_degree_with_a_tiny_section_and_metric():
    """rho |sigma(s)| below the smallest float: the archimedean term is summed as logs."""
    x = Fraction(3.0320515274385424e-230)
    bundle = MetrizedLineBundle(FractionalIdeal.from_elements(QQ, [QQ.element(x)]), (float(x),))
    assert arithmetic_degree(QQ, bundle) == pytest.approx(-2 * math.log(x), rel=1e-12)


def _error(call) -> tuple[type, str]:
    with pytest.raises(ArithCurvesError) as exc:
        call()
    return type(exc.value), str(exc.value)


def test_validating_records_raise_as_before():
    unit = FractionalIdeal.ring_of_integers(QQ)
    assert _error(lambda: NumberField(4)) == (
        ArithCurvesError, "d = 4 must be 0 or squarefree != 1")
    assert _error(lambda: NumberField(1)) == (
        ArithCurvesError, "d = 1 must be 0 or squarefree != 1")
    assert _error(lambda: FieldElement(QQ, 0, 1)) == (ArithCurvesError, "Q has no w component")
    assert _error(lambda: MetrizedLineBundle(unit, (math.nan,))) == (
        ArithCurvesError, "metric factors must be finite")
    assert _error(lambda: MetrizedLineBundle(unit, (-1.0,))) == (
        ArithCurvesError, "metric factors must be positive")
    assert _error(lambda: MetrizedLineBundle(unit, (1.0, 1.0))) == (
        ArithCurvesError, "need 1 metric factors, got 2")


def test_records_are_immutable_and_hashable():
    x = Q5M.element(1, 2)
    ideal = FractionalIdeal.from_elements(Q5M, [Q5M.element(2), Q5M.element(1, 1)])
    bundle = MetrizedLineBundle(ideal, (2.0,))
    for record, name in ((Q5M, "d"), (x, "a"), (ideal, "rows"), (bundle, "metrics")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None
        assert hash(record) == hash(type(record)(*record))
    assert len({Q5M, NumberField(-5), x, Q5M.element(1, 2), ideal, bundle}) == 4


def test_field_elements_stay_field_elements_under_int_arithmetic():
    x = Q5M.element(Fraction(1, 2), 3)
    for value in (2 * x, x * 2, 0 + x, x + 0, sum([x, x, x]), 1 - x, x - 1):
        assert isinstance(value, FieldElement)
    assert 2 * x == x * 2 == x + x and 0 + x == x + 0 == x
    assert sum([x, x, x]) == 3 * x
    assert not QQ.element(0) and not Q5M.element(0) and Q5M.one and x
    assert str(x) == "1/2 + 3*w"


def _xgcd_recursive(a, b):
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, u, v = _xgcd_recursive(b, a % b)
    return (g, v, u - (a // b) * v)


def test_xgcd_matches_the_recursive_euclid():
    """The same (g, u, v) as Euclid written recursively, signs and zeros included."""
    rng = random.Random(288)
    for _ in range(3000):
        a, b = (rng.choice([0, rng.randint(-50, 50), rng.randint(-10 ** 40, 10 ** 40)])
                for _ in range(2))
        g, u, v = _xgcd(a, b)
        assert (g, u, v) == _xgcd_recursive(a, b), (a, b)
        assert g == math.gcd(a, b) and u * a + v * b == g


def test_is_squarefree_matches_trial_division_by_squares():
    for d in range(1, 10 ** 4):
        want = all(d % (k * k) for k in range(2, math.isqrt(d) + 1))
        assert _is_squarefree(d) == _is_squarefree(-d) == want, d


# 21557 is the least prime above the cube root of MAX_FIELD_D (21544.3) and 21529
# the largest below it; 3162253 and 3162167 are the two largest primes below its
# square root, and 9999999999971 the largest prime below it.
@pytest.mark.parametrize("d, squarefree", [
    (21557 ** 2, False), (2 * 21557 ** 2, False), (21529 ** 2, False),
    (21557 * 21559, True), (21529 * 21557, True), (3162253 ** 2, False),
    (3162253 * 3162167, True), (9999999999971, True),
])
def test_is_squarefree_near_the_field_limit(d, squarefree):
    assert d <= MAX_FIELD_D
    assert _is_squarefree(d) == _is_squarefree(-d) == squarefree
    if squarefree:
        assert NumberField(-d).d == -d
    else:
        assert _error(lambda: NumberField(d))[1] == f"d = {d} must be 0 or squarefree != 1"


def test_fractional_ideals_refuse_tuple_repetition():
    with pytest.raises(TypeError):
        2 * FractionalIdeal.ring_of_integers(Q5M)


def test_fractional_ideals_refuse_tuple_concatenation():
    ideal = FractionalIdeal.ring_of_integers(Q5M)
    with pytest.raises(TypeError):
        ideal + ideal


def test_field_elements_are_not_ordered():
    for x, y in ((Q5M.one, Q5M.omega), (QQ.one, QQ.element(2))):
        for compare in (lambda: x < y, lambda: x <= y, lambda: x > y, lambda: x >= y):
            with pytest.raises(TypeError):
                compare()
        with pytest.raises(TypeError):
            sorted([x, y])
    assert QQ.one == QQ.element(1) and Q5M.one != Q5M.omega


def test_replace_validates_like_the_constructor():
    unit = FractionalIdeal.ring_of_integers(QQ)
    bundle = MetrizedLineBundle(unit, (1.0,))
    assert _error(lambda: bundle._replace(metrics=(math.nan,))) == (
        ArithCurvesError, "metric factors must be finite")
    assert _error(lambda: Q5M._replace(d=4)) == (
        ArithCurvesError, "d = 4 must be 0 or squarefree != 1")
    assert _error(lambda: QQ.one._replace(b=Fraction(1))) == (
        ArithCurvesError, "Q has no w component")
    assert bundle._replace(metrics=(2.0,)) == MetrizedLineBundle(unit, (2.0,))
    assert Q5M.one._replace(b=Fraction(1)) == Q5M.element(1, 1)
    assert type(Q5M._replace(d=2)) is NumberField
