"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE k ... PASS/FAIL` line (visible with -s or on
failure); the assertions carry the same tolerances, so plain pytest is the
gate.
"""

import json
import math
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from arithcurves.arakelov import (FractionalIdeal, MetrizedLineBundle, NumberField,
                                  arithmetic_degree)
from arithcurves.chevalley import build_chevalley_basis, verify_chevalley
from arithcurves.charmorph import chi_torus
from arithcurves.curve import (cameral_curve, covering_degree_check, higgs_field,
                               ramified_primes, spectral_curve)
from arithcurves.finitefield import primes
from arithcurves.linalg import chi_gl
from arithcurves.cartan import ROOT_COUNT
from arithcurves.rootsys import build_root_system, vadd
from helpers import fiber_shape, ideal_power, root_string

ALL_TYPES = sorted(f"{f}{r}" for f, r in ROOT_COUNT)
QQ = NumberField(0)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {label}: PASS")


def test_01_structure_constant_integrality_and_magnitude():
    with criterion(1, "structure constants integral with |c| = l+1"):
        for token in ALL_TYPES:
            rs = build_root_system(token)
            L = build_chevalley_basis(rs)
            for entries in L.table.values():
                assert all(isinstance(c, int) for _, c in entries)
            for i, a in enumerate(rs.roots):
                for b in rs.roots[i + 1:]:
                    s = vadd(a, b)
                    if not rs.is_root(s):
                        continue
                    got = dict(L.table[(rs.index[a], rs.index[b])])[rs.index[s]]
                    lo, _ = root_string(rs, a, b)
                    assert abs(got) == lo + 1, (token, a, b)


def test_02_jacobi_identity():
    with criterion(2, "Jacobi identity exact"):
        for token in ALL_TYPES:
            rs = build_root_system(token)
            L = build_chevalley_basis(rs)
            rep = verify_chevalley(L)
            assert rep.jacobi_ok, token


def _unimodular(n, rng):
    g = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            g[i][k] += c * g[j][k]
    return g


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _mat_inv(a):
    n = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def test_03_chevalley_restriction():
    with criterion(3, "chi_gl(g D g^-1) = chi_torus(diag D) exactly, 500 per n"):
        rng = random.Random(3)
        for n in (2, 3, 4):
            for _ in range(500):
                d = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
                dm = [[d[i] if i == j else Fraction(0) for j in range(n)]
                      for i in range(n)]
                g = _unimodular(n, rng)
                conj = _mat_mul(_mat_mul(g, dm), _mat_inv(g))
                assert chi_gl(conj) == chi_torus(f"gl{n}", d)


def test_04_product_formula_and_worked_degree():
    with criterion(4, "product formula < 1e-9; worked deg = -log 2"):
        rng = random.Random(4)
        for d in (0, 2, -1, -5):
            K = NumberField(d)
            for _ in range(200):
                a = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                b = Fraction(rng.randint(-40, 40), rng.randint(1, 12)) \
                    if K.degree == 2 else 0
                x = K.element(a, b)
                if not x:
                    continue
                lhs = math.log(abs(x.norm()))
                rhs = sum(e * math.log(abs(s))
                          for e, s in zip(K.place_weights, x.embeddings()))
                assert abs(lhs - rhs) < 1e-9
        K = NumberField(-5)
        ideal = FractionalIdeal.from_elements(K, [K.element(2), K.element(1, 1)])
        bundle = MetrizedLineBundle(ideal, (1.0,))
        for section in (K.element(2), K.element(1, 1)):
            deg = arithmetic_degree(K, bundle, section=section)
            assert abs(deg + math.log(2)) < 1e-9


def test_05_lemma7_suite():
    np = pytest.importorskip("numpy")
    from lemma7 import canonical_form, verify_compatibility, witnessed_form
    with criterion(5, "Lemma-7 clauses: 100 witnessed pass, 100 generic fail"):
        rng = np.random.default_rng(5)
        for n in (2, 3):
            cd = canonical_form(n)
            passed = 0
            while passed < 100:
                g = rng.standard_normal((n, n))
                if np.linalg.cond(g) > 50:
                    continue
                rep = verify_compatibility(cd, witnessed_form(cd, g), tol=1e-9)
                assert rep.involution_ok and rep.reflection_ok
                assert rep.eigenspace_ok and rep.splitting_ok and rep.ok
                passed += 1
            for _ in range(100):
                a = rng.standard_normal((cd.dim, cd.dim))
                h = a.T @ a + 0.3 * np.eye(cd.dim)
                assert not verify_compatibility(cd, h, tol=1e-9).ok


def test_06_stabilizer_check():
    np = pytest.importorskip("numpy")
    from lemma7 import act, canonical_form
    with criterion(6, "O(n) stabilizes the canonical metric to 1e-12"):
        rng = np.random.default_rng(6)
        for n in (2, 3):
            cd = canonical_form(n)
            for _ in range(100):
                q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                moved = act(cd, q, cd.H_can)
                assert np.abs(moved - cd.H_can).max() < 1e-12
            hits = 0
            while hits < 100:
                g = rng.standard_normal((n, n))
                if np.linalg.cond(g) > 50 or np.abs(g.T @ g - np.eye(n)).max() < 1e-3:
                    continue
                moved = act(cd, g, cd.H_can)
                assert np.abs(moved - cd.H_can).max() > 1e-12
                hits += 1


def test_07_covering_degree():
    with criterion(7, "spectral fiber = n, cameral enumeration = n! (50 per n)"):
        rng = random.Random(7)
        for n in (2, 3):
            done = 0
            while done < 50:
                m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
                phi = higgs_field(QQ, m)
                C = spectral_curve(phi)
                if C.degenerate:
                    continue
                assert covering_degree_check(C)
                assert covering_degree_check(cameral_curve(phi))
                done += 1


def test_08_ramification_equivalence():
    with criterion(8, "repeated factors mod p <-> p | disc, p < 100"):
        fixtures = [higgs_field(QQ, [[0, 1], [2, 0]])]
        rng = random.Random(8)
        for n in (2, 3):
            added = 0
            while added < 10:
                m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
                phi = higgs_field(QQ, m)
                if spectral_curve(phi).degenerate:
                    continue
                fixtures.append(phi)
                added += 1
        for phi in fixtures:
            C = spectral_curve(phi)
            disc = C.disc.a
            from_disc = {p for p in primes(100)
                         if disc.numerator % p == 0 or disc.denominator % p == 0}
            from_fibers = {p for p in primes(100)
                           if any(e > 1 for _, e in fiber_shape(C, p))}
            assert from_disc == from_fibers
            assert [p for p, _ in ramified_primes(C, 100)] == sorted(from_disc)


def test_09_twisted_integrality():
    with criterion(9, "coefficient k of p_phi lies in (m^k), exact membership"):
        rng = random.Random(9)
        for m in (2, 3, 5):
            twist = FractionalIdeal.from_elements(QQ, [QQ.element(m)])
            for _ in range(100):
                n = rng.choice((2, 3))
                mat = [[m * rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
                cert = spectral_curve(higgs_field(QQ, mat, twist=twist)).certificate
                for k, v in enumerate(cert.values, start=1):
                    assert ideal_power(twist, k).contains(v)
                    assert cert.power_coords[k - 1] is not None


def test_10_cli_determinism(tmp_path):
    with criterion(10, "every CLI verb byte-identical across two runs"):
        torsor_file = tmp_path / "torsor.json"
        torsor_file.write_text(json.dumps(
            {"field": "Q(sqrt(-5))", "rank": 2,
             "ideals": [["1"], ["2", "1+w"]],
             "metrics": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}))
        chi_out = tmp_path / "chi.json"
        fixtures = [
            ["rootsys", "--type", "B3", "--weyl"],
            ["chevalley", "--type", "G2", "--verify"],
            ["chi", "--matrix", '[["0","1"],["2","0"]]'],
            ["chi", "--torus-point", '["1","2"]', "--type", "B2"],
            ["degree", "--field", "Q(sqrt(-5))", "--ideal", '["2","1+w"]',
             "--metrics", '["1"]'],
            ["slope", "--torsor", str(torsor_file), "--char", "1"],
            ["curve", "--matrix", '[["0","1"],["2","0"]]', "--fibers", "100"],
            ["curve", "--matrix", '[["1","0"],["0","2"]]', "--cameral"],
        ]
        cli = [sys.executable, "-m", "arithcurves.cli"]
        for args in fixtures:
            first = subprocess.run(cli + args, capture_output=True)
            second = subprocess.run(cli + args, capture_output=True)
            assert first.returncode == 0 and second.returncode == 0, args
            assert first.stdout == second.stdout, args
        subprocess.run(cli + ["chi", "--matrix", '[["0","1"],["2","0"]]'],
                       stdout=chi_out.open("w"), check=True)
        v1 = subprocess.run(cli + ["verify", "--input", str(chi_out)],
                            capture_output=True)
        v2 = subprocess.run(cli + ["verify", "--input", str(chi_out)],
                            capture_output=True)
        assert v1.returncode == 0 and v1.stdout == v2.stdout
