"""Test-side references shared by several test modules: ideal powers, the
term-by-term reader of field elements, integral characteristic polynomials,
characteristic polynomials of field-element matrices, factor shapes of a curve mod
a prime, ramified primes by odd trial division, W-invariance and Reynolds
symmetrization from W's simple reflections, Chevalley brackets with the gl_n
realization, the characteristic polynomial's work price, and the tuple-vector
references of the Lie layer (reflections, root strings, the Weyl closure,
structure constants, the Chevalley table and its verification report)."""

import itertools
import math
import re
from fractions import Fraction

from arithcurves import curve, errors, linalg
from arithcurves.arakelov import FieldElement, FractionalIdeal
from arithcurves.charmorph import realization
from arithcurves.chevalley import BasisVector, ChevalleyReport, build_chevalley_basis
from arithcurves.errors import DimensionMismatch, MalformedInput, NotARoot
from arithcurves.finitefield import factor_pattern
from arithcurves.jsonutil import parse_rational
from arithcurves.poly import Poly
from arithcurves.cartan import CartanType
from arithcurves.rootsys import (WEYL_ORDER, WeylElement, build_root_system, inner, vadd, vneg,
                                 vsub)


def ideal_power(ideal, k):
    """ideal^k as k successive ideal products; the ring of integers for k = 0."""
    assert k >= 0
    out = FractionalIdeal.ring_of_integers(ideal.field)
    for _ in range(k):
        out = out * ideal
    return out


def parse_element_termwise(field, s: str) -> FieldElement:
    """`arakelov.parse_element` one term at a time: each term's value is added to
    a Fraction(0) seed for its coordinate."""
    text = s.strip().replace(" ", "")
    if field.d == -1:
        text = text.replace("i", "w")
    terms = re.findall(r"([+-]?)([+-]?(?:[eE][+-]?|[^+\-eE])+)", text)
    if not text or "".join(sign + term for sign, term in terms) != text:
        raise MalformedInput(f"cannot parse field element {s!r}")
    a = b = Fraction(0)
    for sign, term in terms:
        literal = term[:-1].rstrip("*") if term.endswith("w") else term
        try:
            value = parse_rational(literal + "1" if literal in ("", "+", "-") else literal)
        except MalformedInput as exc:
            raise MalformedInput(f"cannot parse field element {s!r}: {exc}") from None
        value = -value if sign == "-" else value
        if term.endswith("w"):
            b += value
        else:
            a += value
    return FieldElement(field, a, b)


def integral_pairs(poly):
    """(g, D) for a monic poly of FieldElements (highest degree first): D the lcm of
    the coefficient denominators and g(y) = D^n p(y / D) as integer pairs, the
    arguments `curve.poly_discriminant` takes before K."""
    den = math.lcm(*(c.denominator for x in poly for c in (x.a, x.b)))
    return [(int(x.a * den ** k), int(x.b * den ** k)) for k, x in enumerate(poly)], den


def char_poly(matrix) -> list:
    """[c_1, ..., c_n] with det(l I - M) = l^n + c_1 l^{n-1} + ... + c_n: FieldElements
    of the field of the matrix's FieldElements, Fractions when it holds none."""
    field = next((x.field for row in matrix for x in row if hasattr(x, "field")), None)
    return linalg.descale(*linalg.integral_char_poly(matrix, field), field)


def fiber_shape(C, p: int) -> list[tuple[int, int]]:
    """(residue degree, multiplicity) shape of a curve over Q at a prime p that does
    not divide a coefficient denominator, from its integral model."""
    return factor_pattern(curve._integral_model(C)[1], p)


def ramified_by_odd_division(C, bound):
    """`curve.ramified_primes` by trial division of N by 2 and every odd number
    while it is below the bound and its square is at most what is left of N."""
    den, _, rest = curve._integral_model(C)
    found, p = [], 2
    while p < bound and p * p <= rest:
        if rest % p == 0:
            found.append(p)
            while rest % p == 0:
                rest //= p
        p += 1 if p == 2 else 2
    if 1 < rest < bound:
        found.append(rest)
    return [(p, None) if den % p == 0 else (p, fiber_shape(C, p)) for p in found]


# ---------------------------------------------------------------------------
# invariant theory: W enters only through its simple reflections, as matrices on
# a realization's coordinates.  W is generated by them, so invariance under them
# is invariance under W, and the mean of a monomial over W is its mean over the
# orbit that they close, by orbit-stabilizer.

def monomial(exponents, c=1) -> Poly:
    e = tuple(int(x) for x in exponents)
    return Poly(len(e), {e: Fraction(c)})


def substitute_linear(p: Poly, matrix) -> Poly:
    """p(M x): replace variable i by the linear form sum_j M[i][j] x_j."""
    n = p.nvars
    forms = [Poly(n, {tuple(1 if k == j else 0 for k in range(n)): Fraction(matrix[i][j])
                      for j in range(n) if matrix[i][j] != 0})
             for i in range(n)]
    out = Poly(n)
    for e, c in p.terms.items():
        term = Poly(n, {(0,) * n: c})
        for i, k in enumerate(e):
            for _ in range(k):
                term = term * forms[i]
        out = out + term
    return out


def simple_reflections(real) -> list:
    """W's simple reflections as matrices on the coordinates, columns the images."""
    t = real.weyl_type
    if t is None:
        return []
    if t.family == "G":
        # On the plane basis b1, b2: a1 = b1 and a2 = -(3 b1 + b2) / 2.
        half = Fraction(1, 2)
        return [[[-1, 0], [0, 1]], [[-half, -3 * half], [-half, half]]]
    rs = build_root_system(t)
    n = len(rs.simple[0])
    # an orthogonal reflection is a symmetric matrix: row j is the image of e_j
    return [[reflect(rs, tuple(int(i == j) for i in range(n)), a) for j in range(n)]
            for a in rs.simple]


def is_invariant(t, p: Poly) -> bool:
    """Exact check of p(w t) = p(t) for every w in W, on W's generators."""
    return all(substitute_linear(p, m) == p for m in simple_reflections(realization(t)))


def reynolds_symmetrize(t, exponents) -> Poly:
    """Average of a monomial over the Weyl group, taken over its orbit; always W-invariant."""
    real = realization(t)
    e = tuple(int(k) for k in exponents)
    if len(e) != real.nvars:
        raise DimensionMismatch(f"expected {real.nvars} exponents, got {len(e)}")
    gens = simple_reflections(real)

    def key(p):
        return frozenset(p.terms.items())

    start = monomial(e)
    orbit = {key(start): start}
    frontier = [start]
    while frontier:
        images = {key(q): q for q in (substitute_linear(p, m) for p in frontier for m in gens)
                  if key(q) not in orbit}
        orbit.update(images)
        frontier = list(images.values())
    total = Poly(real.nvars)
    for p in orbit.values():
        total = total + p
    return total.scale(Fraction(1, len(orbit)))


# ---------------------------------------------------------------------------
# Chevalley brackets in basis coordinates, and the gl_n realization

def _check_coords(L, x) -> tuple:
    x = tuple(Fraction(c) for c in x)
    if len(x) != L.dim:
        raise DimensionMismatch(f"expected {L.dim} coordinates, got {len(x)}")
    return x


def bracket(L, x, y) -> tuple:
    """[x, y] in basis coordinates; integer inputs give integer outputs."""
    x, y = _check_coords(L, x), _check_coords(L, y)
    out = [Fraction(0)] * L.dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            for k, c in L.table.get((i, j), ()):
                out[k] += xi * yj * c
    return tuple(out)


def adjoint_matrix(L, x) -> list:
    """Matrix of ad(x) on the Chevalley lattice; column j holds [x, basis_j].

    chi_gl of it is the characteristic morphism of g read through the adjoint
    representation, with integer entries for an integral x."""
    x = _check_coords(L, x)
    cols = []
    for j in range(L.dim):
        col = [Fraction(0)] * L.dim
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for k, c in L.table.get((i, j), ()):
                col[k] += xi * c
        cols.append(col)
    return [[cols[j][i] for j in range(L.dim)] for i in range(L.dim)]


def principal_nilpotent(L) -> tuple:
    """e = sum of the simple root vectors: ad(e) is nilpotent, so e lies in the
    fiber of the characteristic morphism over 0 (chi(ad e) = 0)."""
    simple_idx = {L.rs.index[a] for a in L.rs.simple}
    return tuple(Fraction(1) if i in simple_idx else Fraction(0) for i in range(L.dim))


def gl_realization(n: int) -> tuple:
    """gl_n as A_{n-1} plus a rank-1 center, with matching elementary matrices.

    Returns the abstract algebra and one n x n matrix per basis vector:
    x_{e_i - e_j} -> E_ij, h_k -> E_kk - E_{k+1,k+1}, z -> identity.  With the
    extraspecial-pair ordering of `chevalley`, the bracket table agrees with
    matrix commutators entry for entry.
    """
    rs = build_root_system(CartanType("A", n - 1))
    L = build_chevalley_basis(rs, center_rank=1)
    mats = []
    for b in L.basis:
        m = [[Fraction(0)] * n for _ in range(n)]
        if b.kind == "x":
            a = rs.roots[b.index]
            i = next(k for k, c in enumerate(a) if c == 1)
            j = next(k for k, c in enumerate(a) if c == -1)
            m[i][j] = Fraction(1)
        elif b.kind == "h":
            m[b.index][b.index] = Fraction(1)
            m[b.index + 1][b.index + 1] = Fraction(-1)
        else:
            for i in range(n):
                m[i][i] = Fraction(1)
        mats.append(tuple(tuple(row) for row in m))
    return L, mats


def chi_work(n: int, entry_bound: int, w_part: bool = False) -> tuple[int, int]:
    """(work, D) of an n x n matrix with entries at most entry_bound: n^3 products of
    D-digit integers, each priced D^log2(3), and four of them per product when an
    entry has a w-part."""
    digits = linalg.coefficient_digits(n, entry_bound)
    return (4 if w_part else 1) * n ** 3 * round(digits ** math.log2(3)), digits


def chi_work_message(n: int, entry_bound: int, w_part: bool = False) -> str:
    work, digits = chi_work(n, entry_bound, w_part)
    return (f"characteristic polynomial work {'4 ' if w_part else ''}n^3 * D^1.585 = {work} "
            f"exceeds the limit {errors.MAX_CHI_WORK} (n = {n}, and D = {digits} digits "
            f"bound the coefficients)")


def largest_admitted_entry(n: int, w_part: bool = False) -> int:
    """The largest B for which an n x n matrix with entries at most B passes MAX_CHI_WORK."""
    def admitted(b: int) -> bool:
        return chi_work(n, b, w_part)[0] <= errors.MAX_CHI_WORK
    lo, hi = 1, 2
    while admitted(hi):
        lo, hi = hi, hi * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
    return lo


# ---------------------------------------------------------------------------
# Tuple-vector references of the Lie layer, which runs on root indices and ints
# (`rootsys.RootIndex`): the same algorithms on root vectors through vadd / vneg
# and Fraction quotients, with dict lookups keyed by vector tuples.

def vscale(c, u) -> tuple:
    return tuple(c * a for a in u)


def cartan_fraction(rs, a, b):
    """<a, b> = 2 (a,b) / (b,b) as a Fraction quotient: an int when it is integral."""
    q = Fraction(2 * inner(rs, tuple(a), tuple(b)), inner(rs, tuple(b), tuple(b)))
    return q.numerator if q.denominator == 1 else q


def reflect(rs, v, a) -> tuple:
    """Reflection v - <v, a> a of v in the hyperplane orthogonal to the root a."""
    return vsub(tuple(v), vscale(cartan_fraction(rs, v, a), tuple(a)))


def root_string(rs, a, b) -> tuple[int, int]:
    """(l, k) with b - l·a, ..., b + k·a the full a-string of roots through b."""
    a, b = tuple(a), tuple(b)
    if not rs.is_root(a) or not rs.is_root(b):
        raise NotARoot("root-string endpoints must be roots")
    if b == a or b == vneg(a):
        raise ValueError("no root string through +-a in direction a")
    low = next(k for k in itertools.count() if not rs.is_root(vsub(b, vscale(k + 1, a))))
    up = next(k for k in itertools.count() if not rs.is_root(vadd(b, vscale(k + 1, a))))
    return low, up


def compose(w1, w2):
    """w1 after w2 as root permutations."""
    return WeylElement(word=w1.word + w2.word, perm=tuple(w1.perm[j] for j in w2.perm))


def weyl_group_reference(rs) -> list:
    """The Weyl group by breadth-first closure through `compose`, sorted by word."""
    gens = [WeylElement(word=(i,), perm=tuple(rs.index[reflect(rs, a, s)] for a in rs.roots))
            for i, s in enumerate(rs.simple)]
    ident = WeylElement(word=(), perm=tuple(range(len(rs.roots))))
    seen = {ident.perm: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                c = compose(g, w)
                if c.perm not in seen:
                    seen[c.perm] = c
                    nxt.append(c)
        frontier = nxt
    elements = sorted(seen.values(), key=lambda w: (len(w.word), w.word))
    assert len(elements) == WEYL_ORDER[(rs.cartan_type.family, rs.rank)]
    return elements


def structure_constants_reference(rs) -> dict:
    """N_{a,b} keyed by the root pair (a, b), for every pair with a + b a root:
    extraspecial seeds l + 1, the rest forced through Jacobi in Fractions."""
    pos = list(rs.positive)
    pos_set = set(pos)
    order = {a: i for i, a in enumerate(pos)}
    table = {}

    def put(a, b, v):
        table[(a, b)] = v
        table[(b, a)] = -v

    def get(a, b):
        s = vadd(a, b)
        if not rs.is_root(s):
            return 0
        if (a, b) in table:
            return table[(a, b)]
        assert not (a in pos_set and b in pos_set), "positive pair out of processing order"
        if a not in pos_set and b in pos_set:
            v = -get(vneg(a), vneg(b))
        elif a in pos_set and s in pos_set:
            v = -Fraction(inner(rs, s, s), inner(rs, a, a)) * get(vneg(b), s)
        else:
            v = get(vneg(b), vneg(a))
        assert Fraction(v).denominator == 1
        table[(a, b)] = v = int(v)
        return v

    for g in pos:
        if sum(rs.coeffs[g]) < 2:
            continue
        spairs = [(a, vsub(g, a)) for a in pos
                  if vsub(g, a) in pos_set and order[a] < order[vsub(g, a)]]
        spairs.sort(key=lambda p: order[p[0]])
        al, be = spairs[0]
        put(al, be, root_string(rs, al, be)[0] + 1)
        for xi, eta in spairs[1:]:
            d1, d2 = vsub(be, xi), vsub(xi, al)
            t = 0
            if rs.is_root(d1):
                t += get(be, vneg(xi)) * get(al, d1)
            if rs.is_root(d2):
                t += get(vneg(xi), al) * get(be, vneg(d2))
            v = -t * Fraction(inner(rs, g, g), inner(rs, eta, eta)) / table[(al, be)]
            assert v.denominator == 1 and abs(v) == root_string(rs, xi, eta)[0] + 1
            put(xi, eta, int(v))

    for a in rs.roots:
        for b in rs.roots:
            if b != vneg(a) and rs.is_root(vadd(a, b)):
                get(a, b)
    return table


def coroot_coords_reference(rs, a) -> tuple:
    """Coordinates c_t (s_t,s_t)/(a,a) of the coroot of a over the simple coroots."""
    sol = [Fraction(c * inner(rs, s, s), inner(rs, a, a)) for c, s in zip(rs.coeffs[a], rs.simple)]
    assert all(c.denominator == 1 for c in sol), f"non-integral coroot for {a}"
    return tuple(c.numerator for c in sol)


def chevalley_reference(rs, center_rank: int) -> tuple:
    """(basis, table) of the Chevalley basis, in `build_chevalley_basis`'s order."""
    nroots, rank = len(rs.roots), rs.rank
    basis = tuple([BasisVector("x", i) for i in range(nroots)]
                  + [BasisVector("h", i) for i in range(rank)]
                  + [BasisVector("z", j) for j in range(center_rank)])
    consts = structure_constants_reference(rs)
    table = {}

    def put(i, j, entries):
        entries = [(k, c) for k, c in entries if c != 0]
        if entries:
            table[(i, j)] = tuple(entries)
            table[(j, i)] = tuple((k, -c) for k, c in entries)

    for i, a in enumerate(rs.roots):
        for j in range(i + 1, nroots):
            b = rs.roots[j]
            if b == vneg(a):
                put(i, j, [(nroots + k, c) for k, c in enumerate(coroot_coords_reference(rs, a))])
            elif rs.is_root(vadd(a, b)):
                put(i, j, [(rs.index[vadd(a, b)], consts[(a, b)])])
        for k in range(rank):
            put(nroots + k, i, [(i, cartan_fraction(rs, a, rs.simple[k]))])
    for (a, b), v in consts.items():
        assert v == -consts[(vneg(a), vneg(b))]
    return basis, table


def _jacobi_holds_reference(L, n: int) -> bool:
    """The grading clause, then Jacobi on every triple among the first n basis
    vectors whose weights sum to a root or 0, through tuple-keyed lookups."""
    rs, table = L.rs, L.table
    wt = [sum(c * 64 ** t for t, c in enumerate(rs.coeffs[a])) for a in rs.roots]
    wt += [0] * (L.dim - len(wt))
    if any(wt[k] != wt[i] + wt[j] for (i, j), entries in table.items() for k, _ in entries):
        return False
    live = set(wt)
    for i, j, k in itertools.combinations(range(n), 3):
        if wt[i] + wt[j] + wt[k] not in live:
            continue
        acc = {}
        for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c in table.get((v, w), ()):
                for p, d in table.get((u, m), ()):
                    acc[p] = acc.get(p, 0) + c * d
        if any(acc.values()):
            return False
    return True


def verify_chevalley_reference(L) -> ChevalleyReport:
    """`chevalley.verify_chevalley` on root vectors: the pair clauses walk root
    strings and test N^2 = k (l+1) (s,s)/(b,b) in Fractions."""
    rs, table = L.rs, L.table
    nroots = len(rs.roots)
    integral = all(isinstance(v, int) for entries in table.values() for _, v in entries)
    antisymmetric = all({k: -v for k, v in entries} == dict(table.get((j, i), ()))
                        for (i, j), entries in table.items())

    magnitudes_ok = opposite_sign_ok = True
    literal = pairs = 0
    string_failures = []
    for i, a in enumerate(rs.roots):
        for b in rs.roots[i + 1:]:
            s = vadd(a, b)
            if not rs.is_root(s):
                continue
            pairs += 1
            n_ab = dict(table.get((rs.index[a], rs.index[b]), ())).get(rs.index[s], 0)
            lo, up = root_string(rs, a, b)
            if abs(n_ab) != lo + 1:
                magnitudes_ok = False
            rev = dict(table.get((rs.index[vneg(a)], rs.index[vneg(b)]), ()))
            n_opp = rev.get(rs.index[vneg(s)], 0)
            if n_opp != -n_ab:
                opposite_sign_ok = False
            if n_opp == n_ab:
                literal += 1
            expect = Fraction(up * (lo + 1) * inner(rs, s, s), inner(rs, b, b))
            if Fraction(n_ab) ** 2 != expect:
                string_failures.append((a, b, n_ab, expect))

    cartan_action_ok = True
    for k in range(rs.rank):
        for i, a in enumerate(rs.roots):
            entries = dict(table.get((L.h_index(k), i), ()))
            if entries.get(i, 0) != cartan_fraction(rs, a, rs.simple[k]) or len(entries) > 1:
                cartan_action_ok = False

    coroot_ok = all(
        dict(table.get((rs.index[a], rs.index[vneg(a)]), ()))
        == {L.h_index(k): c for k, c in enumerate(coroot_coords_reference(rs, a)) if c != 0}
        for a in rs.positive)

    gg = nroots + rs.rank
    central_ok = not any(c for (i, j), entries in table.items() if max(i, j) >= gg
                         for _, c in entries)
    return ChevalleyReport(antisymmetric=antisymmetric, integral=integral,
                           magnitudes_ok=magnitudes_ok, cartan_action_ok=cartan_action_ok,
                           coroot_ok=coroot_ok, opposite_sign_ok=opposite_sign_ok,
                           literal_paper_sign_count=literal, pair_count=pairs,
                           string_identity_failures=string_failures,
                           jacobi_ok=central_ok and _jacobi_holds_reference(L, gg),
                           jacobi_triples=gg * (gg - 1) * (gg - 2) // 6)
