"""Integral Chevalley bases with integer structure constants.

The basis of [g,g] is {x_a : a in Phi} u {h_i : simple i}; a reductive g adds
an abelian center of rank c at most MAX_CENTER_RANK with basis z_1, ..., z_c.
Signs are resolved by the extraspecial-pair convention: positive roots are
ordered by height then colexicographically on simple-root coefficients, the
minimal decomposition of each non-simple positive root gets constant +(l+1),
and every remaining constant is forced from those seeds through Jacobi-derived
reduction rules.  With this ordering the type-A tables coincide with the
elementary-matrix realization of gl_n (checked in the tests).  All of it runs
on the integer root vectors of `rootsys`, and `verify_chevalley` brackets on
ints.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .errors import MAX_CENTER_RANK, DimensionMismatch
from .rootsys import RootSystem, Vector, cartan_integer, inner, root_string, vadd, vneg, vsub


class BasisVector(NamedTuple):
    kind: str        # "x" root vector, "h" simple coroot, "z" central
    index: int       # root index ("x"), simple index ("h"), center index ("z")


class IntegralLieAlgebra(NamedTuple):
    rs: RootSystem
    center_rank: int
    basis: tuple[BasisVector, ...]
    # (i, j) -> ((k, c), ...) meaning [b_i, b_j] = sum c * b_k, all c integers
    table: dict[tuple[int, int], tuple[tuple[int, int], ...]]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def label(self, i: int) -> str:
        b = self.basis[i]
        if b.kind == "x":
            cf = self.rs.coeffs[self.rs.roots[b.index]]
            return "x(" + ",".join(str(c) for c in cf) + ")"
        if b.kind == "h":
            return f"h({b.index + 1})"
        return f"z({b.index + 1})"

    def h_index(self, i: int) -> int:
        return len(self.rs.roots) + i

    def z_index(self, j: int) -> int:
        return len(self.rs.roots) + self.rs.rank + j


def coroot_coords(rs: RootSystem, a: Vector) -> tuple[int, ...]:
    """Integer coordinates c_t (s_t,s_t)/(a,a) of the coroot 2a/(a,a) over the
    simple coroots 2s_t/(s_t,s_t), where a = sum c_t s_t."""
    a = tuple(a)
    sol = [Fraction(c * inner(rs, s, s), inner(rs, a, a)) for c, s in zip(rs.coeffs[a], rs.simple)]
    assert all(c.denominator == 1 for c in sol), f"non-integral coroot for {a}"
    return tuple(c.numerator for c in sol)


def structure_constants(rs: RootSystem) -> dict[tuple[Vector, Vector], int]:
    """N_{a,b} for every ordered pair of roots with a + b again a root."""
    pos = list(rs.positive)
    pos_set = set(pos)
    order = {a: i for i, a in enumerate(pos)}

    table: dict[tuple[Vector, Vector], int] = {}

    def put(a: Vector, b: Vector, v: int) -> None:
        table[(a, b)] = v
        table[(b, a)] = -v

    def get(a: Vector, b: Vector) -> int:
        s = vadd(a, b)
        if not rs.is_root(s):
            return 0
        if (a, b) in table:
            return table[(a, b)]
        if a in pos_set and b in pos_set:
            raise AssertionError("positive pair out of processing order")
        if a not in pos_set and b in pos_set:
            v = -get(vneg(a), vneg(b))
        elif a in pos_set and s in pos_set:
            # triple (a, b, -s):  N_{a,b} = (s,s)/(a,a) N_{b,-s} = -(s,s)/(a,a) N_{-b,s}
            v = -Fraction(inner(rs, s, s), inner(rs, a, a)) * get(vneg(b), s)
        else:
            v = get(vneg(b), vneg(a))
        assert Fraction(v).denominator == 1
        v = int(v)
        table[(a, b)] = v
        return v

    for g in pos:
        if rs.height(g) < 2:
            continue
        spairs = [(a, vsub(g, a)) for a in pos
                  if vsub(g, a) in pos_set and order[a] < order[vsub(g, a)]]
        spairs.sort(key=lambda p: order[p[0]])
        al, be = spairs[0]
        put(al, be, root_string(rs, al, be)[0] + 1)
        for xi, eta in spairs[1:]:
            # Jacobi on (x_al, x_be, x_{-xi}) against the extraspecial seed:
            #   N_{al,be} (eta,eta)/(g,g) N_{xi,eta} = -(T2 + T3)
            d1 = vsub(be, xi)
            d2 = vsub(xi, al)
            t = 0
            if rs.is_root(d1):
                t += get(be, vneg(xi)) * get(al, d1)
            if rs.is_root(d2):
                t += get(vneg(xi), al) * get(be, vneg(d2))
            v = -t * Fraction(inner(rs, g, g), inner(rs, eta, eta)) / table[(al, be)]
            assert v.denominator == 1 and abs(v) == root_string(rs, xi, eta)[0] + 1, \
                f"structure constant {v} for {xi}+{eta} fails the string bound"
            put(xi, eta, int(v))

    # Materialize the remaining mixed/negative pairs.
    for a in rs.roots:
        for b in rs.roots:
            if b != vneg(a) and rs.is_root(vadd(a, b)):
                get(a, b)
    return table


def build_chevalley_basis(rs: RootSystem, center_rank: int = 0) -> IntegralLieAlgebra:
    """Chevalley basis of [g,g] extended by an abelian center of the given rank."""
    if center_rank < 0:
        raise DimensionMismatch(f"center rank must be >= 0, got {center_rank}")
    if center_rank > MAX_CENTER_RANK:
        raise DimensionMismatch(f"center rank {center_rank} exceeds the limit {MAX_CENTER_RANK}")

    nroots, rank = len(rs.roots), rs.rank
    basis = tuple([BasisVector("x", i) for i in range(nroots)]
                  + [BasisVector("h", i) for i in range(rank)]
                  + [BasisVector("z", j) for j in range(center_rank)])
    consts = structure_constants(rs)

    table: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}

    def put(i: int, j: int, entries: list[tuple[int, int]]) -> None:
        entries = [(k, c) for k, c in entries if c != 0]
        if entries:
            table[(i, j)] = tuple(entries)
            table[(j, i)] = tuple((k, -c) for k, c in entries)

    for i, a in enumerate(rs.roots):
        # [x_a, x_b] for b later in the list; (j, i) filled by antisymmetry
        for j in range(i + 1, nroots):
            b = rs.roots[j]
            if b == vneg(a):
                put(i, j, [(nroots + k, c) for k, c in enumerate(coroot_coords(rs, a))])
            elif rs.is_root(vadd(a, b)):
                put(i, j, [(rs.index[vadd(a, b)], consts[(a, b)])])
        # [h_k, x_a]
        for k in range(rank):
            put(nroots + k, i, [(i, cartan_integer(rs, a, rs.simple[k]))])

    # Verify the Chevalley theorem clauses that are cheap at build time:
    # [h,h] = 0 and centrality hold by omission;  magnitudes |N| = l+1 and the
    # opposite-pair sign rule were asserted during construction of `consts`.
    for (a, b), v in consts.items():
        assert v == -consts[(vneg(a), vneg(b))]

    return IntegralLieAlgebra(rs=rs, center_rank=center_rank, basis=basis, table=table)


# ---------------------------------------------------------------------------
# Verification report

class ChevalleyReport(NamedTuple):
    antisymmetric: bool
    integral: bool
    magnitudes_ok: bool
    cartan_action_ok: bool
    coroot_ok: bool
    opposite_sign_ok: bool            # N_{-a,-b} = -N_{a,b} for all pairs
    literal_paper_sign_count: int     # pairs with N_{-a,-b} = +N_{a,b} (reported only)
    pair_count: int
    string_identity_failures: list    # pairs violating N^2 = k(l+1)(g,g)/(b,b)
    jacobi_ok: bool
    jacobi_triples: int

    @property
    def ok(self) -> bool:
        return (self.antisymmetric and self.integral and self.magnitudes_ok
                and self.cartan_action_ok and self.coroot_ok
                and self.opposite_sign_ok and not self.string_identity_failures
                and self.jacobi_ok)


def _jacobi_holds(L: IntegralLieAlgebra, n: int) -> bool:
    """The grading clause, then Jacobi on every triple of distinct basis vectors
    among the first n whose weights sum to a root or 0 (see verify_chevalley)."""
    # A weight c is held as the int sum c_t 64^t.  That map is additive, and
    # one-to-one on vectors with |c_t| < 32: every root coefficient is at most
    # 3 (G2's highest root), so sums of up to three weights stay inside it.
    rs, table = L.rs, L.table
    wt = [sum(c * 64 ** t for t, c in enumerate(rs.coeffs[a])) for a in rs.roots]
    wt += [0] * (L.dim - len(wt))
    if any(wt[k] != wt[i] + wt[j] for (i, j), entries in table.items() for k, _ in entries):
        return False
    live = set(wt)
    for i, j, k in itertools.combinations(range(n), 3):
        if wt[i] + wt[j] + wt[k] not in live:
            continue
        acc: dict[int, int] = {}
        for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c in table.get((v, w), ()):
                for p, d in table.get((u, m), ()):
                    acc[p] = acc.get(p, 0) + c * d
        if any(acc.values()):
            return False
    return True


def verify_chevalley(L: IntegralLieAlgebra) -> ChevalleyReport:
    """Check every clause of the integral-basis theorem on the built table.

    jacobi_ok holds when the table respects the root-lattice grading, Jacobi
    holds on every triple of the [g,g] basis (root vectors and simple coroots),
    and each central vector brackets to zero with every basis vector, in both
    orders, which gives Jacobi on any triple containing one.  Grading: each
    [b_i, b_j] lies in weight wt_i + wt_j, where x_a has weight a and h_k, z_j
    weight 0.  So every basis weight lies in Phi u {0}, [b_i, [b_j, b_k]] lies
    in weight wt_i + wt_j + wt_k, and a triple whose weights sum outside
    Phi u {0} has all three double brackets zero: only the others are
    bracketed.  jacobi_triples is C(dim [g,g], 3), the triples certified.
    """
    rs = L.rs
    nroots = len(rs.roots)

    integral = all(isinstance(v, int) for entries in L.table.values() for _, v in entries)

    antisymmetric = True
    for (i, j), entries in L.table.items():
        back = dict(L.table.get((j, i), ()))
        if {k: -v for k, v in entries} != back:
            antisymmetric = False

    magnitudes_ok = True
    opposite_sign_ok = True
    literal = 0
    pairs = 0
    string_failures = []
    for i, a in enumerate(rs.roots):
        for b in rs.roots[i + 1:]:
            s = vadd(a, b)
            if not rs.is_root(s):
                continue
            pairs += 1
            entries = dict(L.table.get((rs.index[a], rs.index[b]), ()))
            n_ab = entries.get(rs.index[s], 0)
            lo, up = root_string(rs, a, b)
            if abs(n_ab) != lo + 1:
                magnitudes_ok = False
            rev = dict(L.table.get((rs.index[vneg(a)], rs.index[vneg(b)]), ()))
            n_opp = rev.get(rs.index[vneg(s)], 0)
            if n_opp != -n_ab:
                opposite_sign_ok = False
            if n_opp == n_ab:
                literal += 1
            # Squared-constant identity through the same root string.
            expect = Fraction(up * (lo + 1) * inner(rs, s, s), inner(rs, b, b))
            if Fraction(n_ab) ** 2 != expect:
                string_failures.append((a, b, n_ab, expect))

    cartan_action_ok = True
    for k in range(rs.rank):
        for i, a in enumerate(rs.roots):
            entries = dict(L.table.get((L.h_index(k), i), ()))
            want = cartan_integer(rs, a, rs.simple[k])
            if entries.get(i, 0) != want or len(entries) > 1:
                cartan_action_ok = False

    coroot_ok = True
    for a in rs.positive:
        i, j = rs.index[a], rs.index[vneg(a)]
        entries = dict(L.table.get((i, j), ()))
        want = {L.h_index(k): c for k, c in enumerate(coroot_coords(rs, a)) if c != 0}
        if entries != want:
            coroot_ok = False

    gg = nroots + rs.rank
    central_ok = not any(c for (i, j), entries in L.table.items() if max(i, j) >= gg
                         for _, c in entries)
    jacobi_ok = central_ok and _jacobi_holds(L, gg)
    count = gg * (gg - 1) * (gg - 2) // 6

    return ChevalleyReport(antisymmetric=antisymmetric, integral=integral,
                           magnitudes_ok=magnitudes_ok, cartan_action_ok=cartan_action_ok,
                           coroot_ok=coroot_ok, opposite_sign_ok=opposite_sign_ok,
                           literal_paper_sign_count=literal, pair_count=pairs,
                           string_identity_failures=string_failures,
                           jacobi_ok=jacobi_ok, jacobi_triples=count)
