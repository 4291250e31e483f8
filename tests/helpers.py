"""Test-side references shared by several test modules."""

import math

from arithcurves.arakelov import FractionalIdeal


def ideal_power(ideal, k):
    """ideal^k as k successive ideal products; the ring of integers for k = 0."""
    assert k >= 0
    out = FractionalIdeal.ring_of_integers(ideal.field)
    for _ in range(k):
        out = out * ideal
    return out


def integral_pairs(poly):
    """(g, D) for a monic poly of FieldElements (highest degree first): D the lcm of
    the coefficient denominators and g(y) = D^n p(y / D) as integer pairs, the
    arguments `curve.poly_discriminant` takes before K."""
    den = math.lcm(*(c.denominator for x in poly for c in (x.a, x.b)))
    return [(int(x.a * den ** k), int(x.b * den ** k)) for k, x in enumerate(poly)], den
