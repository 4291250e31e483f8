"""Univariate polynomial arithmetic over F_p: factorization patterns and roots.

Polynomials are lists of ints in [0, p), lowest degree first, no trailing
zeros.  Every division is by a monic polynomial, so none needs an inverse.
The ramification analysis only needs the shape of a factorization (degree,
multiplicity), which one distinct-degree pass gives in every characteristic:
with the factors of degree below d removed, gcd(f, x^(p^d) - x) is the
product of the distinct irreducible factors of degree d, and dividing it out
and taking the gcd again peels their multiplicities one at a time.  No
squarefree decomposition or equal-degree splitting is performed.  Root
extraction is a direct scan, used only at small primes: the least completely
split prime of a covering-degree check, and the least prime of good reduction,
where the rational cameral points are lifted from the simple roots.
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


def monic(f, p):
    """f reduced mod p and scaled to leading coefficient 1 ([] for f = 0)."""
    f = trim([c % p for c in f])
    if not f:
        return f
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return trim(out)


def divmod_monic(f, g, p):
    """Quotient and remainder of reduced f by monic g over F_p."""
    n = deg(g)
    r = list(f)
    q = [0] * max(0, len(r) - n)
    for k in range(len(r) - n - 1, -1, -1):
        c = r[k + n]
        if c:
            q[k] = c
            for i in range(n):
                r[k + i] = (r[k + i] - c * g[i]) % p
    return trim(q), trim(r[:n])


def gcd(f, g, p):
    """Monic gcd of f and g over F_p."""
    f, g = monic(f, p), monic(g, p)
    while g:
        f, g = g, monic(divmod_monic(f, g, p)[1], p)
    return f


def powmod(base, e: int, f, p):
    """base^e mod monic f over F_p."""
    result = [1]
    base = divmod_monic(base, f, p)[1]
    while e:
        if e & 1:
            result = divmod_monic(mul(result, base, p), f, p)[1]
        base = divmod_monic(mul(base, base, p), f, p)[1]
        e >>= 1
    return result


def factor_pattern(f, p) -> list[tuple[int, int]]:
    """Sorted (degree, multiplicity) shape of the factorization of f mod p."""
    f = monic(f, p)
    shape: list[tuple[int, int]] = []
    h = [0, 1]  # x^(p^d) modulo a multiple of f
    d = 0
    while deg(f) >= 1:
        d += 1
        if deg(f) < 2 * d:  # every factor left has degree >= d: f is irreducible
            shape.append((deg(f), 1))
            break
        h = powmod(h, p, f, p)
        hx = h + [0] * (2 - len(h))
        hx[1] -= 1
        g = gcd(f, hx, p)
        e = 0
        while deg(g) >= 1:
            # g: the distinct degree-d factors of multiplicity > e
            e += 1
            f = divmod_monic(f, g, p)[0]
            rest = gcd(f, g, p)
            shape.extend([(d, e)] * ((len(g) - len(rest)) // d))
            g = rest
    return sorted(shape)


def splits_completely(f, p) -> bool:
    """Whether f is a nonzero constant times distinct linear factors over F_p.

    x^p - x is the product of x - a over all a in F_p, so this holds exactly
    when f divides it: one powmod, where factor_pattern runs the whole
    distinct-degree factorization.
    """
    f = monic(f, p)
    return powmod([0, 1], p, f, p) == divmod_monic([0, 1], f, p)[1]


def roots_mod_p(f, p) -> list[int]:
    """All roots in F_p of f mod p by direct scan (meant for small p)."""
    f = monic(f, p)
    out = []
    for x in range(p):
        acc = 0
        for c in reversed(f):
            acc = (acc * x + c) % p
        if acc == 0:
            out.append(x)
    return out
