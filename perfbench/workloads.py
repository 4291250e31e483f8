"""Seeded inputs for the four benchmark workloads.

Each workload is a fixed list of CLI invocations (an operation list) built
from ``--seed``: the same seed gives the same argv lists, byte for byte.  The
program only ever sees the generated argv; the metadata next to it is what the
output checks need to recompute results apart from the program.

Generation uses only the standard library, so that the warm workloads' peak
RSS is not inflated by the checking code (sympy), which is imported later.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("cli-cold", "lie-cold", "curve-q", "curve-quadratic")
COLD = ("cli-cold", "lie-cold")

# the cold start each cold workload pays once, untimed, during set-up
COLD_START = ["rootsys", "--type", "A1"]


@dataclass
class Op:
    """One CLI invocation and how to judge its outcome.

    expect: "ok"    - exit 0 with a JSON document that is not an error object;
            "usage" - exit 2, a message on stderr and nothing on stdout (the
                      README's rule for malformed invocations).
    check:  name of the output check in ``checks.CHECKS`` ("" for none).
    feeds:  file that receives this operation's stdout, for a later ``verify``.
    """

    argv: list[str]
    check: str = ""
    expect: str = "ok"
    meta: dict = field(default_factory=dict)
    feeds: str | None = None

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: list[Op]            # untimed pass run during set-up (warm workloads)
    files: dict[str, str]       # relative path -> contents, written during set-up

    @property
    def cold(self) -> bool:
        return self.name in COLD


def _j(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def _rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _rand_rat(rng: random.Random, lo: int = -9, hi: int = 9, maxden: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, maxden))


# ---------------------------------------------------------------------------
# exact helpers used to keep generated curves non-degenerate

def _det(rows: list[list[Fraction]]) -> Fraction:
    rows = [list(r) for r in rows]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def charpoly_by_interpolation(mat) -> list[Fraction]:
    """det(xI - A), highest degree first, by evaluation at 0..n and interpolation."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    xs = list(range(n + 1))
    ys = [_det([[(x if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)])
          for x in xs]
    # Newton divided differences, then expand into monomial coefficients
    coef = list(ys)
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - k])
    poly = [Fraction(0)] * (n + 1)          # lowest degree first
    basis = [Fraction(1)]                   # prod (x - xs[j]), lowest first
    for k in range(n + 1):
        for i, b in enumerate(basis):
            poly[i] += coef[k] * b
        nxt = [Fraction(0)] * (len(basis) + 1)
        for i, b in enumerate(basis):
            nxt[i + 1] += b
            nxt[i] -= xs[k] * b
        basis = nxt
    return list(reversed(poly))


def _poly_rem(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    f = list(f)
    while len(f) >= len(g) and any(f):
        q = f[0] / g[0]
        for i in range(len(g)):
            f[i] -= q * g[i]
        f.pop(0)
    while f and f[0] == 0:
        f.pop(0)
    return f


def is_squarefree(poly: list[Fraction]) -> bool:
    """gcd(p, p') is constant, i.e. the discriminant is nonzero."""
    n = len(poly) - 1
    f, g = list(poly), [c * (n - i) for i, c in enumerate(poly[:-1])]
    while g:
        f, g = g, _poly_rem(f, g)
    return len(f) == 1


def _int_matrix(rng: random.Random, n: int, bits: int) -> list[list[int]]:
    top = 2 ** bits
    while True:
        m = [[rng.randrange(-top + 1, top) for _ in range(n)] for _ in range(n)]
        if is_squarefree(charpoly_by_interpolation(m)):
            return m


def _unimodular(rng: random.Random, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """P = L U with unit-triangular factors, and its integral inverse."""
    low = [[1 if i == j else (rng.randint(-2, 2) if j < i else 0) for j in range(n)]
           for i in range(n)]
    up = [[1 if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(n)]
          for i in range(n)]
    p = [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    # Gauss-Jordan over Q; det(P) = 1 so the inverse is integral
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(p)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    inv = [[int(x) for x in row[n:]] for row in aug]
    return p, inv


def eigenvalues_with_product(rng: random.Random, n: int, target: int) -> list[int]:
    """Distinct nonzero integers whose product is within 1/(2|l_n|) of +-target."""
    while True:
        base = target ** (1.0 / n)
        vals = [max(1, round(base * rng.uniform(0.7, 1.4))) for _ in range(n - 1)]
        vals.append(max(1, round(target / math.prod(vals))))
        signs = [rng.choice((1, -1)) for _ in range(n)]
        vals = [s * v for s, v in zip(signs, vals)]
        if len({abs(v) for v in vals}) == n:
            return vals


def split_matrix(rng: random.Random, eigenvalues: list[int]) -> list[list[int]]:
    """Integer matrix P diag(eigenvalues) P^-1 with P unimodular."""
    n = len(eigenvalues)
    p, inv = _unimodular(rng, n)
    return [[sum(p[i][k] * eigenvalues[k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


# ---------------------------------------------------------------------------
# quadratic fields: (d, name) and ring-of-integers arithmetic on (a, b) = a + b w

QUADRATIC = ((-1, "Q(i)"), (-5, "Q(sqrt(-5))"), (2, "Q(sqrt(2))"), (13, "Q(sqrt(13))"))


def _omega_poly(d: int) -> tuple[int, int]:
    return (1, (d - 1) // 4) if d % 4 == 1 else (0, d)


def _qmul(d: int, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    s, t = _omega_poly(d)
    a, b = x
    c, e = y
    # (a + b w)(c + e w) = ac + (ae + bc) w + be (s w + t)
    return (a * c + b * e * t, a * e + b * c + b * e * s)


def _qstr(x: tuple[int, int]) -> str:
    return f"{x[0]} + {x[1]}*w"


def _ring_int(rng: random.Random, bound: int) -> tuple[int, int]:
    while True:
        x = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if x != (0, 0):
            return x


def _twisted_matrix(rng, d: int, gens: list[tuple[int, int]], n: int, bound: int):
    """Entries r1 g1 + r2 g2 with r_i in O_K, so every entry lies in (g1, g2)."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            acc = (0, 0)
            for g in gens:
                r = _qmul(d, _ring_int(rng, bound), g)
                acc = (acc[0] + r[0], acc[1] + r[1])
            row.append(acc)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# workloads

def _curve_op(matrix, *, field_name="Q", twist=None, cameral=False, fibers=None,
              check="curve", meta=None, feeds=None) -> Op:
    argv = ["curve", "--matrix", _j([[str(x) for x in row] for row in matrix])]
    if field_name != "Q":
        argv += ["--field", field_name]
    if twist is not None:
        argv += ["--twist", _j(twist)]
    if cameral:
        argv.append("--cameral")
    if fibers is not None:
        argv += ["--fibers", str(fibers)]
    return Op(argv, check, meta=dict(meta or {}), feeds=feeds)


def _torus_op(type_token: str, point: list[Fraction]) -> Op:
    return Op(["chi", "--torus-point", _j([_rat(x) for x in point]), "--type", type_token],
              "chi_torus")


TORUS_DIM = {"A2": 3, "A4": 5, "B2": 2, "B3": 3, "B4": 4, "C3": 3, "C4": 4, "D4": 4,
             "G2": 2, "gl3": 3, "gl5": 5}


def cli_cold(seed: int, work: str) -> Workload:
    rng = random.Random(f"cli-cold/{seed}")
    torsor_path = os.path.join(work, "torsor.json")
    curve_out = os.path.join(work, "curve-out.json")
    list_path = os.path.join(work, "list.json")

    ops = [Op(["rootsys", "--type", "A1"], "rootsys"),
           Op(["rootsys", "--type", "A3", "--weyl"], "rootsys"),
           Op(["rootsys", "--type", "B2"], "rootsys"),
           Op(["rootsys", "--type", "G2", "--weyl"], "rootsys"),
           Op(["chevalley", "--type", "A2", "--verify"], "chevalley"),
           Op(["chevalley", "--type", "B2", "--center", "1", "--verify"], "chevalley"),
           Op(["chevalley", "--type", "G2", "--verify"], "chevalley")]
    for n in (2, 3):
        mat = [[_rand_rat(rng) for _ in range(n)] for _ in range(n)]
        ops.append(Op(["chi", "--matrix", _j([[_rat(x) for x in row] for row in mat])],
                      "chi_matrix"))
    for t in ("A2", "B2", "G2", "gl3"):
        ops.append(_torus_op(t, [_rand_rat(rng) for _ in range(TORUS_DIM[t])]))

    gens = [_qstr(_ring_int(rng, 5)), str(rng.randint(2, 9))]
    metrics = [f"{rng.uniform(0.5, 3.0):.4f}"]
    ops.append(Op(["degree", "--field", "Q(sqrt(-5))", "--ideal", _j(gens),
                   "--metrics", _j(metrics)], "degree",
                  meta={"d": -5, "gens": gens, "metrics": metrics}))

    torsor = {"field": "Q(sqrt(2))", "rank": 2,
              "ideals": [[_qstr(_ring_int(rng, 4)), str(rng.randint(2, 7))] for _ in range(2)],
              "metrics": []}
    for _ in range(2):                              # two real places
        a = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        gram = [[sum(a[k][i] * a[k][j] for k in range(2)) + (1 if i == j else 0)
                 for j in range(2)] for i in range(2)]
        torsor["metrics"].append([[str(x) for x in row] for row in gram])
    ops.append(Op(["slope", "--torsor", torsor_path, "--char", str(rng.randint(1, 3))],
                  "slope", meta={"d": 2}))

    ops.append(_curve_op(_int_matrix(rng, 2, 5), fibers=100, feeds=curve_out))
    eig = eigenvalues_with_product(rng, 3, 200)
    ops.append(_curve_op(split_matrix(rng, eig), cameral=True, fibers=60))
    ops.append(Op(["verify", "--input", curve_out], "verify"))

    # malformed invocations: the README requires exit 2, stderr only
    ops += [Op(["chi", "--matrix", "5"], expect="usage"),
            Op(["chi", "--matrix", '[["1/0"]]'], expect="usage"),
            Op(["verify", "--input", list_path], expect="usage"),
            Op(["chevalley", "--type", "A2", "--center", "-1"], expect="usage"),
            Op(["chi", "--matrix", "[]"], expect="usage")]
    files = {torsor_path: json.dumps(torsor), list_path: "[1, 2, 3]\n"}
    return Workload("cli-cold", ops, [], files)


def lie_cold(seed: int, work: str) -> Workload:
    rng = random.Random(f"lie-cold/{seed}")
    ops = [_torus_op(t, [_rand_rat(rng) for _ in range(TORUS_DIM[t])])
           for t in ("A4", "B3", "B4", "C3", "C4", "D4", "gl5")]
    # every center rank for rank 3: the median operation then falls among
    # calls that start-up dominates, which the reference tracks best
    chevalley = [(t, c) for t in ("B3", "C3", "D3") for c in (0, 1, 2)] + [
        ("B4", 1), ("C4", 0), ("D4", 2)]
    for t, center in chevalley:
        ops.append(Op(["chevalley", "--type", t, "--center", str(center), "--verify"],
                      "chevalley"))
    for t in ("B4", "C4", "D4"):
        ops.append(Op(["rootsys", "--type", t, "--weyl"], "rootsys"))
    return Workload("lie-cold", ops, [], {})


# curve-q scaling series: (n, entry bits, fiber bound)
# The coefficient-size series draws four matrices per size: the split-prime
# scan behind every call costs a geometric number of primes, so one draw per
# size would make the run's median depend on a few lucky or unlucky matrices.
SPECTRAL_Q = ([(3, bits, 1000) for bits in (4, 8, 16, 24, 32, 40) for _ in range(4)]
              + [(3, 8, bound) for bound in (100, 1000, 10_000, 100_000)]   # fiber bound
              + [(n, 12, 100_000) for n in (2, 4, 5)])                      # matrix size
# cameral series: (n, |product of the rational eigenvalues|)
CAMERAL_Q = ((2, 10 ** 6), (3, 10 ** 8), (4, 10 ** 10), (5, 10 ** 12),
             (2, 10 ** 12), (3, 10 ** 12), (4, 10 ** 12))


def curve_q(seed: int, work: str) -> Workload:
    rng = random.Random(f"curve-q/{seed}")
    ops = []
    for n, bits, bound in SPECTRAL_Q:
        ops.append(_curve_op(_int_matrix(rng, n, bits), fibers=bound,
                             meta={"bits": bits}))
    for n, product in CAMERAL_Q:
        eig = eigenvalues_with_product(rng, n, product)
        ops.append(_curve_op(split_matrix(rng, eig), cameral=True, meta={"eigenvalues": eig}))
    # a fractional twist whose denominator prime lies below the fiber bound:
    # the call should report prime 2 as skipped, not fail
    ops.append(Op(["curve", "--matrix", '[["1/2","1"],["0","0"]]', "--twist", '["1/2"]',
                   "--fibers", "10"]))
    warmup = [_curve_op(_int_matrix(rng, 2, 4), fibers=100),
              _curve_op(split_matrix(rng, [2, -3]), cameral=True)]
    return Workload("curve-q", ops, warmup, {})


def curve_quadratic(seed: int, work: str) -> Workload:
    rng = random.Random(f"curve-quadratic/{seed}")
    ops = []
    # n = 2..5 over every field: the median op then sits inside the n = 3 cluster
    plan = [(fi, n, (fi, n) in ((0, 5), (2, 2))) for fi in range(4) for n in (2, 3, 4, 5)]
    for fi, n, cameral in plan:
        d, name = QUADRATIC[fi]
        gens = [_ring_int(rng, 4), (rng.randint(2, 6), 0)]
        mat = _twisted_matrix(rng, d, gens, n, 3)
        ops.append(_curve_op([[_qstr(x) for x in row] for row in mat], field_name=name,
                             twist=[_qstr(g) for g in gens], cameral=cameral,
                             meta={"d": d}))
    for d, name in QUADRATIC:
        gens = [_qstr(_ring_int(rng, 6)), _qstr(_ring_int(rng, 6))]
        places = 2 if d > 0 else 1
        metrics = [f"{rng.uniform(0.5, 3.0):.4f}" for _ in range(places)]
        ops.append(Op(["degree", "--field", name, "--ideal", _j(gens),
                       "--metrics", _j(metrics)], "degree",
                      meta={"d": d, "gens": gens, "metrics": metrics}))
    d, name = QUADRATIC[1]
    warm_gens = [(1, 1), (2, 0)]
    warmup = [_curve_op([[_qstr(x) for x in row]
                         for row in _twisted_matrix(rng, d, warm_gens, 2, 2)],
                        field_name=name, twist=[_qstr(g) for g in warm_gens]),
              Op(["degree", "--field", name, "--ideal", '["2","1+w"]', "--metrics", '["1"]'])]
    return Workload("curve-quadratic", ops, warmup, {})


BUILDERS = {"cli-cold": cli_cold, "lie-cold": lie_cold,
            "curve-q": curve_q, "curve-quadratic": curve_quadratic}


def build(name: str, seed: int, work: str) -> Workload:
    """Generate a workload's operations and write its input files under ``work``."""
    wl = BUILDERS[name](seed, work)
    for path, text in wl.files.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return wl
