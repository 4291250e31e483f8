"""Output checks, run after the timed phase on every run.

Each check recomputes what the CLI printed apart from the program (sympy,
closed forms, or a property the method must have) and raises ``CheckFailed``
on the first disagreement.  None of them compares against stored output.
The operation's argv and generation metadata are the only inputs besides the
printed document.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction

import sympy
from sympy import QQ, Poly, Rational, sqrt, symbols
from sympy.polys.matrices import DomainMatrix

X = symbols("x")


class CheckFailed(AssertionError):
    pass


def _require(cond, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _sections(doc, wanted: dict[str, bool]) -> None:
    """Each optional section is printed exactly when the operation asks for it."""
    for key, want in wanted.items():
        _require((key in doc) == want, f"{key} is {'missing' if want else 'unasked'}")


def _arg(op, flag: str) -> str:
    return op.argv[op.argv.index(flag) + 1]


# ---------------------------------------------------------------------------
# closed forms for the supported Cartan types

def _split_type(token: str) -> tuple[str, int]:
    return token[0], int(token[1:])


def root_count(family: str, r: int) -> int:
    return {"A": r * (r + 1), "B": 2 * r * r, "C": 2 * r * r, "D": 2 * r * (r - 1),
            "G": 12}[family]


def weyl_order(family: str, r: int) -> int:
    if family == "A":
        return math.factorial(r + 1)
    if family in "BC":
        return 2 ** r * math.factorial(r)
    if family == "D":
        return 2 ** (r - 1) * math.factorial(r)
    return 12


def cartan_matrix(family: str, r: int) -> list[list[int]]:
    """a_ij = 2(a_i, a_j)/(a_j, a_j) in Bourbaki numbering."""
    if family == "G":
        return [[2, -1], [-3, 2]]          # a_1 short, a_2 long
    a = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    chain = r - 1 if family != "D" else r - 2
    for i in range(chain):
        a[i][i + 1] = a[i + 1][i] = -1
    if family == "B":
        a[r - 2][r - 1] = -2               # a_r short
    elif family == "C":
        a[r - 1][r - 2] = -2               # a_r long
    elif family == "D":
        a[r - 3][r - 1] = a[r - 1][r - 3] = -1
    return a


# ---------------------------------------------------------------------------
# exact values printed by the CLI

_ELEM = re.compile(r"^(\S+) \+ (\S+)\*w$")


def parse_elem(text: str) -> tuple[Fraction, Fraction]:
    """ "p/q" or "a + b*w", as the CLI prints and the workloads pass them, to (a, b)."""
    m = _ELEM.match(text)
    if m:
        return Fraction(m.group(1)), Fraction(m.group(2))
    return Fraction(text), Fraction(0)


def _omega(d: int):
    return (1 + sqrt(d)) / 2 if d % 4 == 1 else sqrt(d)


def _field_d(name: str) -> int:
    if name == "Q":
        return 0
    if name == "Q(i)":
        return -1
    return int(re.fullmatch(r"Q\(sqrt\((-?\d+)\)\)", name).group(1))


def _sym(d: int, ab: tuple[Fraction, Fraction]):
    a, b = ab
    expr = Rational(a.numerator, a.denominator)
    if d:
        expr += Rational(b.numerator, b.denominator) * _omega(d)
    return expr


def _covolume(vectors: list[tuple[Fraction, Fraction]]) -> Fraction:
    """Index of the Z-span of rational 2-vectors relative to Z^2 (gcd of 2x2 minors)."""
    den = math.lcm(*(x.denominator for v in vectors for x in v))
    ints = [(int(a * den), int(b * den)) for a, b in vectors]
    g = 0
    for (a, b), (c, e) in itertools.combinations(ints, 2):
        g = math.gcd(g, a * e - b * c)
    return Fraction(g, den * den)


def ideal_norm(d: int, gens: list[tuple[Fraction, Fraction]]) -> Fraction:
    """N(I) for I = sum g O_K, from the Z-basis {g, g w} of each generator's multiples."""
    if d == 0:
        den = math.lcm(*(a.denominator for a, _ in gens))
        return Fraction(math.gcd(*(int(a * den) for a, _ in gens)), den)
    s, t = (1, (d - 1) // 4) if d % 4 == 1 else (0, d)
    vecs = []
    for a, b in gens:
        vecs.append((a, b))
        vecs.append((b * t, a + b * s))       # (a + b w) w = b t + (a + b s) w
    return _covolume(vecs)


# ---------------------------------------------------------------------------
# checks by verb

def check_rootsys(op, doc) -> None:
    family, r = _split_type(doc["type"])
    count = root_count(family, r)
    _require(doc["count"] == count, f"root count {doc['count']} != {count}")
    _require(len(doc["positive"]) * 2 == count, "positive roots are not half the roots")
    _require(doc["weyl_order"] == weyl_order(family, r), "Weyl order differs from closed form")
    simple = [[Fraction(x) for x in v] for v in doc["simple"]]
    gram = [[Fraction(x) for x in row] for row in doc["gram"]]
    dots = [[sum(x * y for x, y in zip(u, v)) for v in simple] for u in simple]
    scale = gram[0][0] / dots[0][0]
    _require(all(gram[i][j] == scale * dots[i][j] for i in range(r) for j in range(r)),
             "gram is not the pairing of the printed simple roots")
    cartan = [[2 * gram[i][j] / gram[j][j] for j in range(r)] for i in range(r)]
    _require(cartan == cartan_matrix(family, r), "gram does not give the standard Cartan matrix")
    _sections(doc, {"weyl_words": "--weyl" in op.argv})
    if "--weyl" in op.argv:
        words = doc["weyl_words"]
        _require(len(words) == doc["weyl_order"], "number of Weyl words != Weyl order")
        # act on 2 rho, a regular vector: distinct elements give distinct images
        positive = [[Fraction(x) for x in v] for v in doc["positive"]]
        v0 = tuple(sum(col) for col in zip(*positive))
        images = set()
        for word in words:
            v = v0
            for i in reversed(word):
                a = simple[i]
                c = 2 * sum(x * y for x, y in zip(v, a)) / sum(x * x for x in a)
                v = tuple(x - c * y for x, y in zip(v, a))
            images.add(v)
        _require(len(images) == len(words), "Weyl words do not give distinct group elements")


def _label_root(label: str) -> tuple[int, ...] | None:
    if not label.startswith("x("):
        return None
    return tuple(int(c) for c in label[2:-1].split(","))


def check_chevalley(op, doc) -> None:
    family, r = _split_type(doc["type"])
    center = int(_arg(op, "--center")) if "--center" in op.argv else 0
    labels = doc["basis"]
    dim = len(labels)
    roots = [_label_root(lab) for lab in labels]
    root_set = {a for a in roots if a is not None}
    _require(len(root_set) == root_count(family, r), "basis does not hold every root vector")
    _require(dim == doc["dim"] == root_count(family, r) + r + center, "wrong dimension")
    table: list[list[dict[int, int]]] = [[{} for _ in range(dim)] for _ in range(dim)]
    for rec in doc["bracket"]:
        i, j = labels.index(rec["x"]), labels.index(rec["y"])
        vec = {k: c for k, c in enumerate(rec["result"]) if c}
        table[i][j] = vec
        table[j][i] = {k: -c for k, c in vec.items()}
    _require(all(isinstance(c, int) for rec in doc["bracket"] for c in rec["result"]),
             "structure constants are not integers")
    # |N_{a,b}| = p + 1, p the largest integer with b - p a a root
    for i, a in enumerate(roots):
        for j, b in enumerate(roots):
            if a is None or b is None or i == j:
                continue
            s = tuple(x + y for x, y in zip(a, b))
            if s in root_set:
                p = 0
                while tuple(y - (p + 1) * x for x, y in zip(a, b)) in root_set:
                    p += 1
                k = roots.index(s)
                _require(set(table[i][j]) == {k} and abs(table[i][j][k]) == p + 1,
                         f"[{labels[i]}, {labels[j]}] is not +-(p+1) x_(a+b)")
            elif any(x + y for x, y in zip(a, b)):
                _require(not table[i][j], f"[{labels[i]}, {labels[j]}] should vanish")

    def bracket_vec(i: int, vec: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for m, c in vec.items():
            for k, e in table[i][m].items():
                out[k] = out.get(k, 0) + c * e
        return out

    for i, j, k in itertools.combinations(range(dim), 3):
        acc: dict[int, int] = {}
        for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
            for idx, val in bracket_vec(u, table[v][w]).items():
                acc[idx] = acc.get(idx, 0) + val
        _require(not any(acc.values()), f"Jacobi fails on {labels[i]}, {labels[j]}, {labels[k]}")
    _sections(doc, {"verification": "--verify" in op.argv})
    if "--verify" in op.argv:
        ver = doc["verification"]
        _require(ver["ok"] and ver["jacobi_ok"], "printed verification is not ok")
        _require(0 < ver["jacobi_triples"], "no Jacobi triples were checked")


def _elementary(values) -> list:
    """e_1..e_n of the values, from the expanded polynomial prod (x - v)."""
    poly = Poly(sympy.prod([X - v for v in values]), X).all_coeffs()
    return [(-1) ** k * poly[k] for k in range(1, len(poly))]


def check_chi_matrix(op, doc) -> None:
    rows = json.loads(_arg(op, "--matrix"))
    mat = sympy.Matrix([[Rational(x) for x in row] for row in rows])
    coeffs = mat.charpoly(X).all_coeffs()
    want = [(-1) ** k * coeffs[k] for k in range(1, len(coeffs))]
    got = [Rational(v) for v in doc["invariants"]]
    _require(got == want, "chi invariants differ from the characteristic polynomial")


def check_chi_torus(op, doc) -> None:
    point = [Rational(x) for x in json.loads(_arg(op, "--torus-point"))]
    token = _arg(op, "--type")
    if token.startswith("gl"):
        want = _elementary(point)
    else:
        family, r = _split_type(token)
        if family == "A":
            want = _elementary(point)[1:]
        elif family in "BC":
            want = _elementary([x * x for x in point])
        elif family == "D":
            want = _elementary([x * x for x in point])[:r - 1] + [sympy.prod(point)]
        else:   # G2: the plane point c1 b1 + c2 b2 in ambient coordinates
            c1, c2 = point
            v = [c1 + c2, c2 - c1, -2 * c2]
            want = [sum(x * x for x in v), sympy.prod(v) ** 2]
    got = [Rational(v) for v in doc["invariants"]]
    _require(got == want, f"chi invariants for {token} differ from the closed form")


def _expected_degree(d: int, norm: Fraction, rhos: list[float]) -> float:
    weights = [2] if d < 0 else [1] * len(rhos)
    return -math.log(norm) - sum(e * math.log(rho) for e, rho in zip(weights, rhos))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def check_degree(op, doc) -> None:
    d = op.meta["d"]
    gens = [parse_elem(g) for g in op.meta["gens"]]
    norm = ideal_norm(d, gens)
    _require(Fraction(doc["ideal_norm"]) == norm, "ideal norm differs from the generators'")
    want = _expected_degree(d, norm, [float(m) for m in op.meta["metrics"]])
    _require(_close(float(doc["degree"]), want), "degree breaks the product formula")


def check_slope(op, doc) -> None:
    with open(_arg(op, "--torsor"), encoding="utf-8") as fh:
        spec = json.load(fh)
    d = _field_d(spec["field"])
    norm = Fraction(1)
    for gens in spec["ideals"]:
        norm *= ideal_norm(d, [parse_elem(g) for g in gens])
    dets = [float(sympy.Matrix([[Rational(x) for x in row] for row in g]).det())
            for g in spec["metrics"]]
    _require(all(_close(float(a), b) for a, b in zip(doc["gram_dets"], dets)),
             "Gram determinants differ")
    k = int(_arg(op, "--char"))
    want = k * _expected_degree(d, norm, [math.sqrt(x) for x in dets])
    _require(_close(float(doc["slope"]), want), "slope differs from k deg(det)")


def check_curve(op, doc) -> None:
    d = _field_d(_arg(op, "--field") if "--field" in op.argv else "Q")
    _require(_field_d(doc["field"]) == d, "wrong field")
    rows = json.loads(_arg(op, "--matrix"))
    n = len(rows)
    K = QQ.algebraic_field(sqrt(d)) if d else QQ
    entries = [[K.from_sympy(_sym(d, parse_elem(str(x)))) for x in row] for row in rows]
    coeffs = DomainMatrix(entries, (n, n), K).charpoly()
    poly = [K.from_sympy(_sym(d, parse_elem(c))) for c in doc["poly"]]
    _require(poly == list(coeffs), "poly differs from the characteristic polynomial")
    cpoint = [K.from_sympy(_sym(d, parse_elem(c))) for c in doc["char_point"]]
    _require(all(cpoint[k - 1] == (-1) ** k * poly[k] for k in range(1, n + 1)),
             "char_point is not (-1)^k times the coefficients")
    disc = K.from_sympy(Poly([K.to_sympy(c) for c in coeffs], X, domain=K).discriminant())
    _require(K.from_sympy(_sym(d, parse_elem(doc["disc"]))) == disc, "discriminant differs")
    degenerate = not disc and n > 1
    _require(doc["degenerate"] == degenerate, "degenerate flag is wrong")
    cameral = "--cameral" in op.argv
    _require(doc["kind"] == ("cameral" if cameral else "spectral"), "wrong curve kind")
    _require(doc["degree"] == (math.factorial(n) if cameral else n),
             "covering degree is not n or n!")
    # the rational roots of p_phi, found by sympy apart from the program
    roots = None
    if d == 0 and cameral and not degenerate:
        qpoly = Poly([K.to_sympy(c) for c in coeffs], X, domain=QQ)
        if all(f.degree() == 1 for f, _ in qpoly.factor_list()[1]):
            roots = sorted(Fraction(str(r)) for r in sympy.roots(qpoly, multiple=True))
    _sections(doc, {"covering_ok": d == 0 and not degenerate,
                    "rational_points": roots is not None,
                    "ramified": "--fibers" in op.argv})
    if "covering_ok" in doc:
        _require(doc["covering_ok"] is True, "covering-degree check failed")
    if "--fibers" in op.argv:
        bound = int(_arg(op, "--fibers"))
        _require(doc.get("fiber_bound") == bound, "fiber_bound differs from --fibers")
        dq = Fraction(doc["disc"])
        want = [p for p in sympy.primerange(2, bound)
                if dq.numerator % p == 0 or dq.denominator % p == 0]
        got = [entry["p"] for entry in doc["ramified"]]
        _require(got == want, "ramified primes are not the primes dividing the discriminant")
        ints = [int(Fraction(c)) for c in doc["poly"]]
        for entry in doc["ramified"]:
            pattern = sorted(tuple(fe) for fe in entry["pattern"])
            _require(sum(f * e for f, e in pattern) == n, f"sum e f != n at {entry['p']}")
            _, factors = Poly(ints, X, modulus=entry["p"]).factor_list()
            shape = sorted((f.degree(), e) for f, e in factors)
            _require(pattern == shape, f"fiber shape at {entry['p']} differs from sympy's")
    if roots is not None:
        cvals = [Fraction(c) for c in doc["char_point"]]
        points = [tuple(Fraction(x) for x in pt) for pt in doc["rational_points"]]
        for pt in points:
            _require([Fraction(v) for v in _elementary(pt)] == cvals, "e_k != c_k at a point")
        _require(sorted(points) == sorted(set(itertools.permutations(roots))),
                 "rational points are not every ordering of the rational roots")
        if "eigenvalues" in op.meta:
            _require(roots == sorted(op.meta["eigenvalues"]),
                     "rational roots miss the built eigenvalues")


def check_verify(op, doc) -> None:
    _require(doc.get("ok") is True and doc.get("mismatches") == [], "verify round trip not ok")


CHECKS = {"rootsys": check_rootsys, "chevalley": check_chevalley,
          "chi_matrix": check_chi_matrix, "chi_torus": check_chi_torus,
          "degree": check_degree, "slope": check_slope, "curve": check_curve,
          "verify": check_verify}


def run_check(op, stdout: str) -> None:
    """Raise CheckFailed unless ``stdout`` is a correct result for ``op``."""
    doc = json.loads(stdout)
    if op.check:
        CHECKS[op.check](op, doc)
