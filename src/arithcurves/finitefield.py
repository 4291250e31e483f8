"""Univariate polynomial arithmetic over F_p: factorization patterns and roots.

Polynomials are lists of ints in [0, p), lowest degree first, no trailing
zeros.  The ramification analysis only needs the shape of a factorization
(degree, multiplicity), so distinct-degree factorization suffices and no
equal-degree splitting is performed; root extraction is a direct scan, used
only at small primes: the least completely split prime of a covering-degree
check, and the least prime where a rational-root search stays squarefree.
"""

from __future__ import annotations


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def deg(f: list[int]) -> int:
    return len(f) - 1


def sub(f, g, p):
    n = max(len(f), len(g))
    return trim([((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)) % p
                 for i in range(n)])


def mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return trim(out)


def divmod_poly(f, g, p):
    g = trim([c % p for c in g])
    assert g, "division by zero polynomial"
    r = trim([c % p for c in f])
    inv = pow(g[-1], p - 2, p)
    q = [0] * max(0, len(r) - len(g) + 1)
    while len(r) >= len(g):
        c = r[-1] * inv % p
        if c:
            k = len(r) - len(g)
            q[k] = c
            for i, b in enumerate(g):
                r[k + i] = (r[k + i] - c * b) % p
        r.pop()  # leading coefficient is now zero
    return trim(q), trim(r)


def mod_poly(f, g, p):
    return divmod_poly(f, g, p)[1]


def monic(f, p):
    if not f:
        return []
    inv = pow(f[-1], p - 2, p)
    return [c * inv % p for c in f]


def gcd(f, g, p):
    f, g = trim(list(f)), trim(list(g))
    while g:
        f, g = g, mod_poly(f, g, p)
    return monic(f, p)


def derivative(f, p):
    return trim([(i * c) % p for i, c in enumerate(f)][1:])


def powmod(base, e: int, f, p):
    """base^e mod f over F_p."""
    result = [1]
    base = mod_poly(base, f, p)
    while e:
        if e & 1:
            result = mod_poly(mul(result, base, p), f, p)
        base = mod_poly(mul(base, base, p), f, p)
        e >>= 1
    return result


def squarefree_decomposition(f, p) -> list[tuple[tuple[int, ...], int]]:
    """Monic squarefree parts with multiplicities, valid in characteristic p."""
    f = monic(trim(list(f)), p)
    out: dict[tuple[int, ...], int] = {}

    def accumulate(f, mult_scale):
        if deg(f) < 1:
            return
        fp = derivative(f, p)
        if not fp:
            # f = v(x^p) = v~(x)^p since Frobenius fixes F_p
            v = [f[i] for i in range(0, len(f), p)]
            accumulate(trim(v), mult_scale * p)
            return
        c = gcd(f, fp, p)
        w = divmod_poly(f, c, p)[0]
        i = 1
        while deg(w) >= 1:
            y = gcd(w, c, p)
            z = divmod_poly(w, y, p)[0]
            if deg(z) >= 1:
                key = tuple(monic(z, p))
                out[key] = out.get(key, 0) + i * mult_scale
            w = y
            c = divmod_poly(c, y, p)[0]
            i += 1
        if deg(c) >= 1:
            v = [c[i] for i in range(0, len(c), p)]
            accumulate(trim(v), mult_scale * p)

    accumulate(f, 1)
    return sorted(out.items())


def distinct_degree_pattern(g, p) -> list[tuple[int, int]]:
    """(degree, count) pairs of the irreducible factors of squarefree monic g."""
    g = monic(trim(list(g)), p)
    out = []
    h = [0, 1]  # x, raised to successive Frobenius powers mod g
    d = 0
    while deg(g) >= 1:
        d += 1
        if deg(g) < 2 * d:
            out.append((deg(g), 1))
            break
        h = powmod(h, p, g, p)
        gd = gcd(g, sub(h, [0, 1], p), p)
        if deg(gd) >= 1:
            out.append((d, deg(gd) // d))
            g = divmod_poly(g, gd, p)[0]
            h = mod_poly(h, g, p)
    return out


def factor_pattern(f, p) -> list[tuple[int, int]]:
    """Sorted (degree, multiplicity) shape of the factorization of f mod p."""
    shape: list[tuple[int, int]] = []
    for sq, e in squarefree_decomposition(f, p):
        for d, cnt in distinct_degree_pattern(list(sq), p):
            shape.extend([(d, e)] * cnt)
    return sorted(shape)


def splits_completely(f, p) -> bool:
    """Whether monic f is a product of distinct linear factors over F_p.

    x^p - x is the product of x - a over all a in F_p, so this holds exactly
    when f divides it: one powmod, where factor_pattern runs the whole
    distinct-degree factorization.
    """
    return powmod([0, 1], p, f, p) == mod_poly([0, 1], f, p)


def is_squarefree(f, p) -> bool:
    fp = derivative(f, p)
    return bool(fp) and deg(gcd(f, fp, p)) == 0


def roots_mod_p(f, p) -> list[int]:
    """All roots in F_p by direct scan (meant for small p)."""
    out = []
    for x in range(p):
        acc = 0
        for c in reversed(f):
            acc = (acc * x + c) % p
        if acc == 0:
            out.append(x)
    return out
