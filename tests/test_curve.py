import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from arithcurves import curve, finitefield
from arithcurves.arakelov import FractionalIdeal, NumberField
from arithcurves.curve import (MAX_CURVE_N, MAX_FIBER_BOUND, cameral_curve,
                               cameral_fiber_rational, covering_degree_check, higgs_field,
                               poly_discriminant, ramified_primes,
                               smallest_split_prime, spectral_curve)
from arithcurves.errors import (ArithCurvesError, DegenerateCurve, MembershipFailure,
                                UnsupportedBase)
from arithcurves.finitefield import (factor_pattern, is_prime, primes, roots_mod_p,
                                     splits_completely)
from helpers import fiber_shape, ideal_power, integral_pairs

QQ = NumberField(0)


def q_higgs(entries, twist=None):
    return higgs_field(QQ, entries, twist=twist)


def test_characteristic_point_examples():
    cert = spectral_curve(q_higgs([[0, 1], [2, 0]])).certificate
    assert [v.a for v in cert.values] == [0, -2]
    zero = spectral_curve(q_higgs([[0, 0], [0, 0]])).certificate
    assert all(v.a == 0 for v in zero.values)


def test_twisted_membership_certificates():
    two = FractionalIdeal.from_elements(QQ, [QQ.element(2)])
    phi = q_higgs([[2, 2], [2, 2]], twist=two)
    cert = spectral_curve(phi).certificate
    assert [v.a for v in cert.values] == [4, 0]
    # coordinates over the basis of (2)^k reconstruct the coefficient
    for k, (v, coords) in enumerate(zip(cert.values, cert.power_coords), start=1):
        basis = ideal_power(phi.twist, k).basis_elements()
        assert sum((b * c for b, c in zip(basis, coords)), QQ.element(0)) == v
    with pytest.raises(MembershipFailure):
        q_higgs([[1, 0], [0, 0]], twist=two)


def test_spectral_curve_examples():
    C = spectral_curve(q_higgs([[0, 1], [2, 0]]))
    assert [c.a for c in C.poly] == [1, 0, -2]
    assert C.disc.a == 8 and C.degree == 2 and not C.degenerate
    C2 = spectral_curve(q_higgs([[1, 0], [0, 2]]))
    assert [c.a for c in C2.poly] == [1, -3, 2]
    assert C2.disc.a == 1
    C3 = spectral_curve(q_higgs([[0, 1], [0, 0]]))
    assert [c.a for c in C3.poly] == [1, 0, 0]
    assert C3.disc.a == 0 and C3.degenerate


def test_curve_records_are_immutable_and_hashable():
    phi = q_higgs([[0, 1], [2, 0]])
    C = cameral_curve(phi)
    assert C == spectral_curve(phi)._replace(kind="cameral") and C.degree == 2
    for record, name in ((phi, "matrix"), (C, "kind"), (C.certificate, "values")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert hash(record) == hash(type(record)(*record))


def test_discriminant_formulas():
    rng = random.Random(2)
    for _ in range(40):
        m = [[rng.randint(-6, 6) for _ in range(2)] for _ in range(2)]
        C = spectral_curve(q_higgs(m))
        b, c = C.poly[1].a, C.poly[2].a
        assert C.disc.a == b * b - 4 * c
    for _ in range(20):
        d = rng.sample(range(-9, 10), 3)
        C = spectral_curve(q_higgs([[d[0], 0, 0], [0, d[1], 0], [0, 0, d[2]]]))
        want = Fraction((d[0] - d[1]) ** 2 * (d[0] - d[2]) ** 2 * (d[1] - d[2]) ** 2)
        assert C.disc.a == want
    assert spectral_curve(q_higgs([[5]])).disc.a == 1   # n = 1 convention


def test_conjugation_invariance_over_integers():
    rng = random.Random(13)
    for _ in range(15):
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        g = [[Fraction(1), Fraction(0), Fraction(0)],
             [Fraction(rng.randint(-2, 2)), Fraction(1), Fraction(0)],
             [Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)), Fraction(1)]]
        ginv = _inv3(g)
        conj = _mul3(_mul3(g, m), ginv)
        c1 = spectral_curve(q_higgs(m))
        c2 = spectral_curve(q_higgs(conj))
        assert c1.poly == c2.poly and c1.disc == c2.disc


def _mul3(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def _inv3(g):
    n = 3
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(g)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def test_fiber_examples():
    C = spectral_curve(q_higgs([[0, 1], [2, 0]]))
    assert fiber_shape(C, 5) == [(2, 1)]
    assert fiber_shape(C, 7) == [(1, 1), (1, 1)]
    assert fiber_shape(C, 2) == [(1, 2)]


def test_fiber_degree_conservation():
    rng = random.Random(19)
    for n in (2, 3):
        for _ in range(10):
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            C = spectral_curve(q_higgs(m))
            if C.degenerate:
                continue
            for p in (2, 3, 5, 7, 11, 13):
                assert sum(f * e for f, e in fiber_shape(C, p)) == n


def test_fiber_refuses_degenerate_and_quadratic_base():
    C = spectral_curve(q_higgs([[0, 1], [0, 0]]))
    with pytest.raises(DegenerateCurve):
        curve._integral_model(C)
    with pytest.raises(DegenerateCurve):
        cameral_fiber_rational(C._replace(kind="cameral"))
    K = NumberField(-1)
    phi = higgs_field(K, [[K.element(0), K.element(1)], [K.omega, K.element(0)]])
    with pytest.raises(UnsupportedBase):
        curve._integral_model(spectral_curve(phi))
    # Where several errors apply, each public fiber function raises the first of:
    # the fiber bound, a degenerate curve and a quadratic base.
    degenerate, quadratic = C, spectral_curve(phi)
    quadratic_degenerate = spectral_curve(higgs_field(K, [[K.element(0), K.element(1)],
                                                          [K.element(0), K.element(0)]]))
    half = spectral_curve(q_higgs([[Fraction(1, 2), 1], [0, 0]],            # den = 2
                                  FractionalIdeal.from_elements(QQ, [QQ.element(Fraction(1, 2))])))
    vanishes, base_q = "discriminant vanishes identically", "fiber analysis runs over base Q"
    cases = [
        (ramified_primes, (quadratic_degenerate, MAX_FIBER_BOUND + 1), ArithCurvesError,
         "exceeds the limit"),
        (ramified_primes, (quadratic_degenerate, -1), ArithCurvesError, "is negative"),
        (ramified_primes, (quadratic_degenerate, 10), DegenerateCurve, vanishes),
        (ramified_primes, (degenerate, 10), DegenerateCurve, vanishes),
        (ramified_primes, (quadratic, 10), UnsupportedBase, base_q),
    ]
    for func in (smallest_split_prime, covering_degree_check, cameral_fiber_rational):
        cases += [(func, (degenerate,), DegenerateCurve, vanishes),
                  (func, (quadratic_degenerate,), DegenerateCurve, vanishes),
                  (func, (quadratic,), UnsupportedBase, base_q)]
    for func, args, error, message in cases:
        with pytest.raises(ArithCurvesError) as info:
            func(*args)
        assert type(info.value) is error and message in str(info.value), (func.__name__, args)
    # at a prime dividing den the scan reports the prime with no shape, and the
    # good-prime functions skip it
    assert ramified_primes(half, 10) == [(2, None)]
    assert smallest_split_prime(half) == 3 and covering_degree_check(half)
    assert cameral_fiber_rational(half._replace(kind="cameral")) == [
        (Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(0))]


def test_ramified_primes_match_discriminant():
    C = spectral_curve(q_higgs([[0, 1], [2, 0]]))
    ram = ramified_primes(C, 100)
    assert [p for p, _ in ram] == [2]
    assert ram[0][1] == [(1, 2)]
    # both directions below 100: repeated factor <-> divides disc
    for p in primes(100):
        repeated = any(e > 1 for _, e in fiber_shape(C, p))
        assert repeated == (C.disc.a.numerator % p == 0)


@pytest.mark.parametrize("entries, twist, bound, want", [
    ([[1, 2], [3, 4]], None, 3_000_000, [3, 11]),                # disc 33
    ([[0, 1], [999983, 0]], None, 10 ** 6, [2, 999983]),         # prime cofactor below
    ([[0, 1], [999983, 0]], None, 999983, [2]),                  # ... and at the bound
    ([[Fraction(1, 2), 1], [0, 0]], Fraction(1, 2), 10, [2]),    # 2 is skipped
    ([[Fraction(1, 6), 1], [Fraction(5, 3), 2]], Fraction(1, 6), 50, [2, 3, 19]),
])
def test_ramified_primes_test_only_reported_primes(monkeypatch, entries, twist, bound, want):
    ideal = FractionalIdeal.from_elements(QQ, [QQ.element(twist)]) if twist else None
    C = spectral_curve(q_higgs(entries, ideal))
    calls, models, integral_model = [], [], curve._integral_model
    monkeypatch.setattr(curve, "is_prime", lambda p: calls.append(p) or is_prime(p))
    monkeypatch.setattr(curve, "_integral_model", lambda C: models.append(C) or integral_model(C))
    out = ramified_primes(C, bound)
    assert [p for p, _ in out] == want
    # one integral model per call, and no prime tested: the shapes come from factor_pattern
    assert calls == [] and models == [C]


def test_fiber_bound_limit_raises_before_scanning(monkeypatch):
    monkeypatch.setattr(finitefield, "_SIEVE", bytearray())
    C = spectral_curve(q_higgs([[0, 1], [2, 0]]))                  # disc 8
    assert ramified_primes(C, MAX_FIBER_BOUND) == [(2, [(1, 2)])]
    # N = 8 is done at p = 3, so the sieve grew no further than its first stretch
    assert 0 < len(finitefield._SIEVE) < 1024
    with pytest.raises(ArithCurvesError, match="exceeds the limit"):
        ramified_primes(C, MAX_FIBER_BOUND + 1)


def test_covering_degree_spectral_and_cameral():
    phi = q_higgs([[0, 1], [2, 0]])
    C = spectral_curve(phi)
    assert smallest_split_prime(C) == 7
    assert covering_degree_check(C)
    assert covering_degree_check(cameral_curve(phi))
    phi3 = q_higgs([[1, 1, 0], [0, 2, 1], [1, 0, 5]])
    C3 = spectral_curve(phi3)
    if not C3.degenerate:
        assert covering_degree_check(C3)
        assert covering_degree_check(cameral_curve(phi3))


SIEVE_LIMIT = 2 * 10 ** 5


@functools.lru_cache(maxsize=None)
def _primes_by_miller_rabin():
    return [n for n in range(SIEVE_LIMIT) if is_prime(n)]


@pytest.mark.parametrize("start", [
    0, 1, 2, finitefield._FIRST - 1, finitefield._FIRST, finitefield._FIRST + 1,
    finitefield._SEGMENT - 1, finitefield._SEGMENT, finitefield._SEGMENT + 1])
def test_sieve_matches_miller_rabin_exhaustively(monkeypatch, start):
    """Every prime below 2 * 10^5, from a sieve that starts out covering the odd
    numbers below 2 * start, on either side of the first growth and of a segment."""
    monkeypatch.setattr(finitefield, "_SIEVE", bytearray())
    finitefield._sieve_to(start)
    assert len(finitefield._SIEVE) == start
    want = _primes_by_miller_rabin()
    assert list(finitefield.primes(SIEVE_LIMIT)) == want
    assert len(finitefield._SIEVE) <= SIEVE_LIMIT // 2
    # a bounded scan stops at its limit, whatever the sieve already holds
    for limit in (0, 1, 2, 3, 4, 5, 2 * start - 1, 2 * start, 2 * start + 1, 2 * start + 3):
        assert list(finitefield.primes(limit)) == [q for q in want if q < limit], limit
    # an unbounded scan grows the sieve while a bounded one is half read
    bounded, unbounded = finitefield.primes(SIEVE_LIMIT), finitefield.primes()
    head = list(itertools.islice(bounded, 100))
    assert list(itertools.islice(unbounded, len(want) + 5))[:len(want)] == want
    assert head + list(bounded) == want


def _mulmod_reference(a, b, f, p):
    """a * b mod monic f over F_p by schoolbook product and long division."""
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    n = len(f) - 1
    for k in range(len(out) - 1, n - 1, -1):
        c = out[k]
        for i in range(n + 1):
            out[k - n + i] = (out[k - n + i] - c * f[i]) % p
    return finitefield.trim(out[:n])


def test_powmod_matches_repeated_multiplication_exhaustively():
    """base^e mod f for every e < 64, every p < 30 and every degree of f up to 4:
    all monic f over F_2 and F_3, and four random ones per degree above that,
    with the base x and a random base of degree up to 6 (reduced first)."""
    rng = random.Random(19)
    count = 0
    for p in [q for q in range(30) if is_prime(q)]:
        for d in range(5):
            if p <= 3:
                fs = [[*low, 1] for low in itertools.product(range(p), repeat=d)]
            else:
                fs = [[rng.randrange(p) for _ in range(d)] + [1] for _ in range(4)]
            for f in fs:
                for base in ([0, 1], finitefield.trim([rng.randrange(p) for _ in range(7)])):
                    want = _mulmod_reference([1], [1], f, p) if d else []
                    for e in range(64):
                        got = finitefield.powmod(base, e, f, p)
                        assert (got if e else finitefield.rem(got, f, p)) == want, (base, e, f, p)
                        want = _mulmod_reference(want, base, f, p)
                        count += 1
    assert count == 64 * 2 * ((1 + 2 + 4 + 8 + 16) + (1 + 3 + 9 + 27 + 81) + 8 * 5 * 4)


def test_split_criterion_matches_factor_pattern_exhaustively():
    """x^p = x (mod f) holds exactly when f is n distinct linear factors mod p,
    for every monic f of degree n <= 3 over F_p, p <= 7, squarefree or not."""
    for p in (2, 3, 5, 7):
        for n in (1, 2, 3):
            for low in itertools.product(range(p), repeat=n):
                f = [*low, 1]
                assert splits_completely(f, p) == (factor_pattern(f, p) == [(1, 1)] * n), (f, p)


def _trial_division_pattern(f, p):
    """Factor shape of monic f over F_p by dividing out every monic g, smallest
    degree first: each g that divides what is left has no factor of lower
    degree, so it is irreducible."""
    shape = []
    for d in range(1, len(f)):
        for low in itertools.product(range(p), repeat=d):
            g = [*low, 1]
            e = 0
            while len(f) >= len(g):
                q, r = [0] * (len(f) - d), list(f)
                for k in range(len(f) - d - 1, -1, -1):
                    q[k] = r[k + d]
                    for i in range(d + 1):
                        r[k + i] = (r[k + i] - q[k] * g[i]) % p
                if any(r):
                    break
                f, e = q, e + 1
            if e:
                shape.append((d, e))
    return sorted(shape)


def test_factor_pattern_matches_trial_division_exhaustively():
    """Every monic f of degree <= 6 over F_2, <= 4 over F_3, <= 3 over F_5 and F_7,
    inseparable ones included, against trial division."""
    assert factor_pattern([1, 0, 0, 0, 1], 2) == [(1, 4)]           # x^4 + 1 = (x + 1)^4
    assert factor_pattern([2, 0, 0, 1], 3) == [(1, 3)]              # x^3 + 2 = (x + 2)^3
    count = 0
    for p, top in ((2, 6), (3, 4), (5, 3), (7, 3)):
        for n in range(1, top + 1):
            for low in itertools.product(range(p), repeat=n):
                f = [*low, 1]
                want = _trial_division_pattern(f, p)
                assert factor_pattern(f, p) == want, (f, p)
                count += 1
    assert count == 126 + 120 + 155 + 399
    # a non-monic c * f answers as f does, in every public function
    f, p = [1, 2, 2, 2, 1], 3                                        # (x + 1)^2 (x^2 + 1)
    cf = [2 * c % p for c in f]
    assert factor_pattern(cf, p) == factor_pattern(f, p) == [(1, 2), (2, 1)]
    assert roots_mod_p(cf, p) == roots_mod_p(f, p) == [2]
    f, p = [0, 6, 0, 1], 7                                           # x (x - 1)(x + 1)
    assert splits_completely([3 * c % p for c in f], p) is splits_completely(f, p) is True


# A 6 x 6 matrix whose characteristic polynomial splits first at p = 12653.
LATE_SPLIT_6X6 = [[-14, 5, 6, -12, 7, -12], [-14, 5, 0, -1, 8, 13], [-13, 5, -15, 7, 2, -11],
                  [4, 11, 14, -13, -10, 4], [5, 14, -7, 14, 11, 13], [5, -1, 0, 7, -15, 10]]


def test_split_scan_tests_each_unskipped_prime_once(monkeypatch):
    C = spectral_curve(q_higgs(LATE_SPLIT_6X6))
    tried = []

    def counting(f, p):
        tried.append(p)
        return finitefield.splits_completely(f, p)

    monkeypatch.setattr(curve, "splits_completely", counting)
    monkeypatch.setattr(curve, "factor_pattern", None)      # the scan factors nothing
    assert smallest_split_prime(C) == 12653
    # the 1512 primes up to 12653, less 5, 17 and 61, which divide the discriminant
    assert [p for p in (5, 17, 61) if C.disc.a.numerator % p == 0] == [5, 17, 61]
    assert len(tried) == 1509 and len(set(tried)) == 1509 and tried[-1] == 12653
    assert all(is_prime(p) and p not in (5, 17, 61) for p in tried)


def _tuple_count_check(C, p):
    """The covering check by brute force: count the n^n tuples of roots mod p
    whose elementary symmetric functions are the certificate's c_k."""
    f = [int(c.a.numerator * pow(c.a.denominator, -1, p)) % p for c in reversed(C.poly)]
    roots = [x for x in range(p) if sum(c * pow(x, i, p) for i, c in enumerate(f)) % p == 0]
    if any(e > 1 for _, e in factor_pattern(f, p)) or len(roots) != C.n:
        return False
    if C.kind == "spectral":
        return True
    want = [int(c.a.numerator * pow(c.a.denominator, -1, p)) % p for c in C.certificate.values]
    count = sum(all(sum(math.prod(comb) for comb in itertools.combinations(tup, k)) % p
                    == want[k - 1] for k in range(1, C.n + 1))
                for tup in itertools.product(roots, repeat=C.n))
    return count == math.factorial(C.n)


def test_covering_check_matches_the_tuple_count(monkeypatch):
    rng = random.Random(10)
    outcomes = set()
    dens = set()
    for trial in range(70):
        n = rng.randint(1, 4)
        # after 40 integral matrices, fractional ones under the matching twist (1/q)
        q = 1 if trial < 40 else rng.choice((2, 3, 6))
        m = [[Fraction(rng.randint(-5, 5), q) for _ in range(n)] for _ in range(n)]
        twist = FractionalIdeal.from_elements(QQ, [QQ.element(Fraction(1, q))])
        C = cameral_curve(q_higgs(m, twist))
        if C.degenerate:
            continue
        den = math.lcm(*(c.a.denominator for c in C.poly))
        dens.add(den)
        p = smallest_split_prime(C)
        values = list(C.certificate.values)
        k = rng.randrange(n)
        curves = [C, C._replace(kind="spectral")]
        # a shift by p is invisible mod p; a shift by 1 or -2 is not
        for delta in (p, 1, -2):
            tampered = values[:k] + [values[k] + delta] + values[k + 1:]
            curves.append(C._replace(certificate=C.certificate._replace(values=tuple(tampered))))
        # also at a small prime other than p and prime to den, where p_phi need not split
        for prime in (p, rng.choice([r for r in (2, 3, 5, 7) if r != p and den % r])):
            monkeypatch.setattr(curve, "smallest_split_prime", lambda _, prime=prime: prime)
            for D in curves:
                want = _tuple_count_check(D, prime)
                assert covering_degree_check(D) == want
                outcomes.add((D.kind, want))
    assert outcomes == {(kind, ok) for kind in ("spectral", "cameral") for ok in (True, False)}
    assert 1 in dens and len(dens) > 2


@pytest.mark.parametrize("d", [0, -5])
def test_discriminant_is_the_product_of_squared_root_differences(d):
    K = NumberField(d)
    rng = random.Random(d)
    for n in range(MAX_CURVE_N + 1):
        for _ in range(6):
            roots = [K.element(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                               rng.randint(-3, 3) if d else 0) for _ in range(n)]
            if n > 1 and rng.random() < 0.2:
                roots[-1] = roots[0]                    # a repeated root
            poly = [K.one]
            for r in roots:
                poly = [a - r * b for a, b in zip(poly + [K.element(0)], [K.element(0)] + poly)]
            want = functools.reduce(lambda acc, ij: acc * (ij[0] - ij[1]) * (ij[0] - ij[1]),
                                    itertools.combinations(roots, 2), K.one)
            assert poly_discriminant(*integral_pairs(poly), K) == want


def test_power_sums_of_known_roots():
    """Newton's identities in poly_discriminant: S_k of g(y) = D^n p(y / D), built
    from the roots D l_i on integer pairs, is the sum of their k-th powers, over Q
    and over Q(sqrt(-5))."""
    for d in (0, -5):
        K = NumberField(d)
        s, t = K.omega_poly
        rng = random.Random(100 + d)
        for n in range(MAX_CURVE_N + 1):
            roots = [K.element(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                               rng.randint(-3, 3) if d else 0) for _ in range(n)]
            den = math.lcm(*(r.a.denominator for r in roots))
            roots = [r * den for r in roots]                # the roots D l_i of g
            poly = [K.one]
            for r in roots:
                poly = [a - r * b for a, b in zip(poly + [K.element(0)], [K.element(0)] + poly)]
            g, one = integral_pairs(poly)
            assert one == 1
            powers, want = [K.one] * n, []
            for _ in range(2 * n + 2):
                want.append(sum(powers, K.element(0)))
                powers = [x * r for x, r in zip(powers, roots)]
            assert curve._power_sums(g, 2 * n + 2, s, t) == [(x.a, x.b) for x in want]
    # roots 1, 2, 3: e = (6, 11, 6) and S_0 .. S_3 = (3, 6, 14, 36)
    g = [(1, 0), (-6, 0), (11, 0), (-6, 0)]
    assert [a for a, _ in curve._power_sums(g, 4, 0, 0)] == [3, 6, 14, 36]


def test_discriminant_closed_forms_exhaustively():
    """Every monic quadratic and cubic over Q with integer coefficients in [-4, 4],
    and every monic quadratic with coefficient pairs in [-2, 2] over the four
    quadratic bases of the curve-quadratic benchmark."""
    r = range(-4, 5)
    for b, c in itertools.product(r, r):
        assert poly_discriminant([(1, 0), (b, 0), (c, 0)], 1, QQ).a == b * b - 4 * c
    for b, c, d in itertools.product(r, r, r):
        want = b * b * c * c - 4 * c ** 3 - 4 * b ** 3 * d - 27 * d * d + 18 * b * c * d
        assert poly_discriminant([(1, 0), (b, 0), (c, 0), (d, 0)], 1, QQ).a == want
    r = range(-2, 3)
    for d in (-1, -5, 2, 13):
        K = NumberField(d)
        for b0, b1, c0, c1 in itertools.product(r, r, r, r):
            b, c = K.element(b0, b1), K.element(c0, c1)
            got = poly_discriminant([(1, 0), (b0, b1), (c0, c1)], 1, K)
            assert got == b * b - 4 * c


def test_cameral_examples():
    # n = 1: single relation l_1 = tr(phi)
    C1 = cameral_curve(q_higgs([[7]]))
    assert C1.degree == 1 and [c.a for c in C1.poly] == [1, -7]
    assert cameral_fiber_rational(C1) == [(Fraction(7),)]
    # diag(1,2): exactly |W| = 2 ordered points over Q
    C2 = cameral_curve(q_higgs([[1, 0], [0, 2]]))
    assert C2.degree == 2
    assert cameral_fiber_rational(C2) == [(1, 2), (2, 1)]
    # l^2 + l/2: g(y) = y^2 + y is squarefree mod 2, but 2 divides den, so the
    # roots 0 and -1 of g lift at 3, the least good prime
    half = FractionalIdeal.from_elements(QQ, [QQ.element(Fraction(1, 2))])
    Ch = cameral_curve(q_higgs([[0, 0], [0, Fraction(-1, 2)]], twist=half))
    assert [c.a for c in Ch.poly] == [1, Fraction(1, 2), 0]
    assert cameral_fiber_rational(Ch) == [(Fraction(-1, 2), 0), (0, Fraction(-1, 2))]
    # l^2 - 2 does not split over Q but its points live in Q(sqrt 2)
    Cs = cameral_curve(q_higgs([[0, 1], [2, 0]]))
    assert cameral_fiber_rational(Cs) is None
    K2 = NumberField(2)
    r = K2.omega
    for tup in [(r, -r), (-r, r)]:
        assert tup[0] + tup[1] == K2.element(0)              # e1 = c1 = 0
        assert tup[0] * tup[1] == K2.element(-2)             # e2 = c2 = -2


def test_cameral_spectral_root_compatibility():
    """Cameral fiber coordinates match the spectral root multiset."""
    C = cameral_curve(q_higgs([[1, 0], [0, 2]]))
    pts = cameral_fiber_rational(C)
    spec_roots = sorted([1, 2])
    for pt in pts:
        assert sorted(pt) == spec_roots


def test_quadratic_base_construction_works():
    K = NumberField(-1)
    phi = higgs_field(K, [[K.element(0), K.element(1)], [K.omega, K.element(0)]])
    C = spectral_curve(phi)
    assert str(C.disc) == "0 + 4*w"
    assert all(coords is not None for coords in C.certificate.power_coords)


def test_twisted_powers_certificates():
    rng = random.Random(29)
    for m in (2, 3, 5):
        twist = FractionalIdeal.from_elements(QQ, [QQ.element(m)])
        for _ in range(10):
            mat = [[m * rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            cert = spectral_curve(q_higgs(mat, twist=twist)).certificate
            for k, v in enumerate(cert.values, start=1):
                assert v.a % (m ** k) == 0


def test_factor_pattern_cross_check_against_roots():
    rng = random.Random(41)
    for _ in range(20):
        m = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        C = spectral_curve(q_higgs(m))
        if C.degenerate:
            continue
        p = 13
        coeffs = [int(c.a) % p for c in reversed(C.poly)]
        pat = factor_pattern(coeffs, p)
        # number of linear factors counted with multiplicity == roots with multiplicity
        nroots = sum(e for d, e in pat if d == 1)
        roots = [x for x in range(p)
                 if sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0]
        assert len(roots) == len([1 for d, e in pat if d == 1])
        assert nroots >= len(roots)
