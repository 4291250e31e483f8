"""Integral Chevalley bases with integer structure constants.

The basis of [g,g] is {x_a : a in Phi} u {h_i : simple i}; a reductive g adds
an abelian center of rank c at most MAX_CENTER_RANK with basis z_1, ..., z_c.
Signs are resolved by the extraspecial-pair convention: positive roots are
ordered by height then colexicographically on simple-root coefficients, the
minimal decomposition of each non-simple positive root gets constant +(l+1),
and every remaining constant is forced from those seeds through Jacobi-derived
reduction rules.  With this ordering the type-A tables coincide with the
elementary-matrix realization of gl_n (checked in the tests).  All of it runs
on root indices (`rootsys.RootIndex`) in ints: each quotient is an exact
`divmod` that raises on a remainder, and `verify_chevalley` brackets on ints.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import MAX_CENTER_RANK, ArithCurvesError, DimensionMismatch
from .rootsys import RootSystem, cartan_integer


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


def coroot_coords(rs: RootSystem, i: int) -> tuple[int, ...]:
    """Integer coordinates c_t (s_t,s_t)/(a,a) of the coroot 2a/(a,a) over the
    simple coroots 2s_t/(s_t,s_t), where a = sum c_t s_t is root i."""
    norm = rs.view.norm                                     # simple root t is root t
    quot = [divmod(c * ns, norm[i]) for c, ns in zip(rs.coeffs[rs.roots[i]], norm)]
    if any(r for _, r in quot):
        raise ArithCurvesError(f"non-integral coroot for {rs.roots[i]}")
    return tuple(q for q, _ in quot)


def structure_constants(rs: RootSystem) -> dict[tuple[int, int], int]:
    """N_{a,b} for every ordered pair of root indices (i, j) with a + b again a root."""
    wt, at, norm = rs.view.weight, rs.view.at, rs.view.norm
    n, npos = len(rs.roots), len(rs.positive)

    table: dict[tuple[int, int], int] = {}

    def put(i: int, j: int, v: int) -> None:
        table[i, j], table[j, i] = v, -v

    def get(i: int, j: int) -> int:
        s = at.get(wt[i] + wt[j])
        if s is None:
            return 0
        if (i, j) in table:
            return table[i, j]
        if i < npos and j < npos:
            raise ArithCurvesError("positive pair out of processing order")
        if i >= npos and j < npos:
            v = -get(i - npos, j + npos)
        elif i < npos and s < npos:
            # triple (a, b, -s):  N_{a,b} = (s,s)/(a,a) N_{b,-s} = -(s,s)/(a,a) N_{-b,s}
            v, r = divmod(-norm[s] * get(j - npos, s), norm[i])
            if r:
                raise ArithCurvesError(f"N for {rs.roots[i]}+{rs.roots[j]} is not an integer")
        else:
            v = get((j + npos) % n, (i + npos) % n)
        table[i, j] = v
        return v

    for g in range(rs.rank, npos):              # the simple roots lead the positive ones
        # (a, g - a) with a earlier than g - a: both are lower than g, so before it
        spairs = [(a, b) for a in range(g) for b in (at.get(wt[g] - wt[a]),)
                  if b is not None and a < b]
        al, be = spairs[0]
        put(al, be, rs.view.string(be, al, -1) + 1)
        for xi, eta in spairs[1:]:
            # Jacobi on (x_al, x_be, x_{-xi}) against the extraspecial seed:
            #   N_{al,be} (eta,eta)/(g,g) N_{xi,eta} = -(T2 + T3)
            d1, d2 = at.get(wt[be] - wt[xi]), at.get(wt[xi] - wt[al])
            t = 0
            if d1 is not None:
                t += get(be, xi + npos) * get(al, d1)
            if d2 is not None:
                t += get(xi + npos, al) * get(be, (d2 + npos) % n)
            v, r = divmod(-t * norm[g], norm[eta] * table[al, be])
            if r or abs(v) != rs.view.string(eta, xi, -1) + 1:
                raise ArithCurvesError(f"structure constant for {rs.roots[xi]}+{rs.roots[eta]} "
                                       "fails the string bound")
            put(xi, eta, v)

    # Materialize the remaining mixed/negative pairs.
    for i in range(n):
        for j in range(n):
            if wt[i] + wt[j] in at:
                get(i, j)
    return table


def build_chevalley_basis(rs: RootSystem, center_rank: int = 0) -> IntegralLieAlgebra:
    """Chevalley basis of [g,g] extended by an abelian center of the given rank."""
    if center_rank < 0:
        raise DimensionMismatch(f"center rank must be >= 0, got {center_rank}")
    if center_rank > MAX_CENTER_RANK:
        raise DimensionMismatch(f"center rank {center_rank} exceeds the limit {MAX_CENTER_RANK}")

    nroots, npos, rank = len(rs.roots), len(rs.positive), rs.rank
    basis = tuple([BasisVector("x", i) for i in range(nroots)]
                  + [BasisVector("h", i) for i in range(rank)]
                  + [BasisVector("z", j) for j in range(center_rank)])
    consts = structure_constants(rs)
    wt, at, cartan = rs.view.weight, rs.view.at, rs.view.cartan

    table: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}

    def put(i: int, j: int, entries: list[tuple[int, int]]) -> None:
        entries = [(k, c) for k, c in entries if c != 0]
        if entries:
            table[(i, j)] = tuple(entries)
            table[(j, i)] = tuple((k, -c) for k, c in entries)

    for i in range(nroots):
        # [x_a, x_b] for b later in the list; (j, i) filled by antisymmetry
        for j in range(i + 1, nroots):
            if j == i + npos:
                put(i, j, [(nroots + k, c) for k, c in enumerate(coroot_coords(rs, i))])
            elif (s := at.get(wt[i] + wt[j])) is not None:
                put(i, j, [(s, consts[i, j])])
        # [h_k, x_a]
        for k in range(rank):
            put(nroots + k, i, [(i, cartan[k][i])])

    # Verify the Chevalley theorem clauses that are cheap at build time:
    # [h,h] = 0 and centrality hold by omission;  magnitudes |N| = l+1 and the
    # opposite-pair sign rule were checked during construction of `consts`.
    if any(v != -consts[(i + npos) % nroots, (j + npos) % nroots]
           for (i, j), v in consts.items()):
        raise ArithCurvesError("a structure constant breaks N_{-a,-b} = -N_{a,b}")

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
    # the weights of `rootsys.RootIndex`: a sum of three stays where they are one-to-one
    rs, table = L.rs, L.table
    wt = rs.view.weight + (0,) * (L.dim - len(rs.roots))
    if any(wt[k] != wt[i] + wt[j] for (i, j), entries in table.items() for k, _ in entries):
        return False
    row: list[dict] = [{} for _ in range(L.dim)]     # row[i][j] = [b_i, b_j]
    for (i, j), entries in table.items():
        row[i][j] = entries
    live = set(wt)
    for i in range(n):
        ri = row[i]
        for j in range(i + 1, n):
            rj, wij, ij = row[j], wt[i] + wt[j], ri.get(j, ())
            for k in range(j + 1, n):
                if wij + wt[k] not in live:
                    continue
                acc: dict[int, int] = {}
                # [b_i, [b_j, b_k]] + [b_j, [b_k, b_i]] + [b_k, [b_i, b_j]]
                for ru, vw in ((ri, rj.get(k, ())), (rj, row[k].get(i, ())), (row[k], ij)):
                    for m, c in vw:
                        for p, d in ru.get(m, ()):
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
    rs, table = L.rs, L.table
    wt, at, norm = rs.view.weight, rs.view.at, rs.view.norm
    nroots, npos = len(rs.roots), len(rs.positive)

    integral = all(isinstance(v, int) for entries in table.values() for _, v in entries)

    antisymmetric = all({k: -v for k, v in entries} == dict(table.get((j, i), ()))
                        for (i, j), entries in table.items())

    magnitudes_ok = opposite_sign_ok = True
    literal = pairs = 0
    string_failures = []
    for i in range(nroots):
        for j in range(i + 1, nroots):
            s = at.get(wt[i] + wt[j])
            if s is None:
                continue
            pairs += 1
            n_ab = dict(table.get((i, j), ())).get(s, 0)
            lo, up = rs.view.string(j, i, -1), rs.view.string(j, i, 1)
            magnitudes_ok &= abs(n_ab) == lo + 1
            neg = (i + npos) % nroots, (j + npos) % nroots
            n_opp = dict(table.get(neg, ())).get((s + npos) % nroots, 0)
            opposite_sign_ok &= n_opp == -n_ab
            literal += n_opp == n_ab
            # the squared-constant identity, cross-multiplied: N^2 (b,b) = k (l+1) (s,s)
            if n_ab * n_ab * norm[j] != up * (lo + 1) * norm[s]:
                from fractions import Fraction       # a failure record only
                string_failures.append((rs.roots[i], rs.roots[j], n_ab,
                                        Fraction(up * (lo + 1) * norm[s], norm[j])))

    cartan_action_ok = all(len(entries := dict(table.get((L.h_index(k), i), ()))) <= 1
                           and entries.get(i, 0) == cartan_integer(rs, a, s)
                           for k, s in enumerate(rs.simple) for i, a in enumerate(rs.roots))

    coroot_ok = all(dict(table.get((i, i + npos), ()))
                    == {L.h_index(k): c for k, c in enumerate(coroot_coords(rs, i)) if c != 0}
                    for i in range(npos))

    gg = nroots + rs.rank
    central_ok = not any(c for (i, j), entries in table.items() if max(i, j) >= gg
                         for _, c in entries)
    return ChevalleyReport(antisymmetric=antisymmetric, integral=integral,
                           magnitudes_ok=magnitudes_ok, cartan_action_ok=cartan_action_ok,
                           coroot_ok=coroot_ok, opposite_sign_ok=opposite_sign_ok,
                           literal_paper_sign_count=literal, pair_count=pairs,
                           string_identity_failures=string_failures,
                           jacobi_ok=central_ok and _jacobi_holds(L, gg),
                           jacobi_triples=gg * (gg - 1) * (gg - 2) // 6)
