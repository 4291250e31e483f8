"""Univariate polynomial arithmetic over F_p: factorization patterns and roots,
and the one prime sieve that every prime scan reads.

Polynomials are lists of ints in [0, p), lowest degree first, no trailing
zeros.  Every division is by a monic polynomial, so none needs an inverse, and
every reduction mod f keeps the remainder alone: no quotient is built except
where a factor is divided out.  The ramification analysis only needs the shape
of a factorization (degree, multiplicity), which one distinct-degree pass gives
in every characteristic: with the factors of degree below d removed,
gcd(f, x^(p^d) - x) is the product of the distinct irreducible factors of
degree d, and dividing it out and taking the gcd again peels their
multiplicities one at a time.  No squarefree decomposition or equal-degree
splitting is performed.  Root extraction is a direct scan, used only at small
primes: the least completely split prime of a covering-degree check, and the
least prime of good reduction, where the rational cameral points are lifted
from the simple roots.

Primes come from one odd-only sieve of Eratosthenes, a module-level bytearray
that `primes` grows, a segment at a time, only as far as an iteration goes.
`is_prime` (Miller-Rabin) checks a single given number; no library path calls it,
and the tests read it as the sieve's oracle.
"""

from __future__ import annotations

import math
from itertools import chain, compress, islice

# _SIEVE[i] == 1 exactly when 2i + 1 is prime; it covers the odd numbers below
# 2 * len(_SIEVE) and only ever grows.
_SIEVE = bytearray()
_FIRST = 256            # bytes sieved by the first growth
_SEGMENT = 1 << 16      # bytes sieved per pass, which bounds each temporary slice


def _sieve_to(size: int) -> None:
    """Extend _SIEVE to cover the odd numbers below 2 * size."""
    while len(_SIEVE) < size:
        lo = len(_SIEVE)
        hi = min(size, lo + _SEGMENT)
        _SIEVE.extend(b"\x01" * (hi - lo))
        if lo == 0:
            _SIEVE[0] = 0                       # 1 is not prime
        # a flag below hi is final once every odd prime below its square root
        # has struck it, so the primes of the new segment are read as it is sieved
        for i in range(1, (math.isqrt(2 * hi - 1) - 1) // 2 + 1):
            if _SIEVE[i]:
                q = 2 * i + 1
                j = max(q * q // 2, lo + (i - lo) % q)   # q^2, or q's first multiple past lo
                _SIEVE[j:hi:q] = bytes(len(range(j, hi, q)))


def primes(limit: int | None = None):
    """The primes below limit (every prime when limit is None), in increasing order.

    The sieve doubles when the iteration passes its end, and never past
    limit / 2 bytes, so a scan that stops early sieves little.
    """
    return chain.from_iterable(_prime_runs(limit))


def _prime_runs(limit: int | None):
    """The primes below limit as runs, one per stretch of the sieve; a run is
    produced only when the one before it is used up."""
    if limit is None or limit > 2:
        yield (2,)
    cap = math.inf if limit is None else limit // 2     # odd q < limit: q = 2i + 1, i < cap
    lo = 1
    while lo < cap:
        if lo >= len(_SIEVE):
            _sieve_to(min(max(2 * lo, _FIRST), cap))
        hi = min(len(_SIEVE), cap)
        yield compress(range(2 * lo + 1, 2 * hi, 2), islice(_SIEVE, lo, hi))
        lo = hi


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


def mul(f, g):
    """f * g with coefficients left unreduced, for `rem` to reduce."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def rem(f, g, p):
    """Remainder of f (any ints) by monic g over F_p; no quotient is built."""
    n = deg(g)
    low = g[:n]
    r = list(f)
    for k in range(len(r) - 1, n - 1, -1):
        c = r[k] % p
        if c:
            for i, b in enumerate(low, k - n):
                r[i] -= c * b
    return trim([c % p for c in r[:n]])


def quotient(f, g, p):
    """f / g over F_p, for a monic g that divides the reduced f."""
    n = deg(g)
    r = list(f)
    q = [0] * max(0, len(r) - n)
    for k in range(len(r) - n - 1, -1, -1):
        c = r[k + n]
        if c:
            q[k] = c
            for i in range(n):
                r[k + i] = (r[k + i] - c * g[i]) % p
    return trim(q)


def gcd(f, g, p):
    """Monic gcd of f and g over F_p."""
    f, g = monic(f, p), monic(g, p)
    while g:
        f, g = g, monic(rem(f, g, p), p)
    return f


def powmod(base, e: int, f, p):
    """base^e mod monic f over F_p, by square-and-multiply on remainders."""
    result = [1]
    base = rem(base, f, p)
    while e:
        if e & 1:
            result = rem(mul(result, base), f, p)
        e >>= 1
        if e:
            base = rem(mul(base, base), f, p)
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
            f = quotient(f, g, p)
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
    return powmod([0, 1], p, f, p) == rem([0, 1], f, p)


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
