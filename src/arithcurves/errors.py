"""Exception types and input limits shared across the library."""

# The limits live here, not in the modules they guard, because the CLI parser
# enforces them and this is the library module it loads at start-up.

# Largest accepted center rank.  The dense rows of the bracket table grow with
# it; `chevalley --type B4 --center 2000 --verify` takes 0.16-0.25 s cold on one
# 2-vCPU Intel Xeon core (36 MB peak RSS) and prints 6 MB, over half of the time
# in printing.
MAX_CENTER_RANK = 2000

# Largest accepted fiber bound.  Trial division of N = |num(disc)| * den(disc) * den
# (`curve._integral_model`), not of the discriminant alone, runs to
# min(bound, sqrt(N)); at 10**7, a 5 x 5 matrix whose discriminant has a 75-digit
# prime factor takes about 1.5 s cold on one 2-vCPU Intel Xeon core.
MAX_FIBER_BOUND = 10 ** 7

# Largest accepted size n of a `curve` matrix.  The covering check over Q scans
# primes until the characteristic polynomial splits completely, about n! of
# them for a generic matrix, with one x^p = x (mod f) test each.  On one 2-vCPU
# Intel Xeon core, the worst of 120 random 6 x 6 matrices with entries in
# [-15, 15] splits first at p = 63463, and `curve` on it takes 1.9-2.4 s cold
# (`LATE_SPLIT_6X6` in tests/test_curve.py, p = 12653: 0.35-0.51 s); of three
# random 7 x 7 matrices, one splits first at p = 120977 after a 4.4 s scan.
# The entries' size is bounded by MAX_CHI_WORK, which prices the one Berkowitz run.
MAX_CURVE_N = 6

# Largest accepted size n of a `chi --matrix`.  The characteristic polynomial
# costs O(n^4) ring operations; `chi` on a 64 x 64 matrix of 6-digit integers
# takes about 1.4 s cold on one 2-vCPU Intel Xeon core, against 2.6 s at 80.
MAX_CHI_N = 64

# Largest accepted work estimate n^3 * D^log2(3) of a characteristic polynomial: n^3
# products of D-digit integers, where D is Hadamard's bound on the decimal digits of
# the coefficients of the scaled matrix's characteristic polynomial
# (linalg.coefficient_digits).  A product's cost grows faster than its digits, so
# each is priced as CPython's Karatsuba multiplication, which it uses past about 600
# digits, and a pair product a + b w, four integer products, counts four times when
# an entry has a w-part.  linalg.integral_char_poly, the one entry to Berkowitz,
# checks it for `chi`, each place of `slope` and `curve`.  On one 2-vCPU Intel Xeon
# core the slowest admitted dense matrices, with random entries at the largest size
# admitted, take: `chi` on 64 x 64 of 9-digit entries (D = 574) 1.5-1.7 s cold; 48 x
# 48 of 20 digits 0.7-1.0 s; 32 x 32 of 66 digits 0.5-0.7 s; 16 x 16 of 495 digits
# (D = 7928) 0.4-0.7 s; 8 x 8 of 3680 digits 0.5 s; `curve` on 6 x 6 over Q (scaled
# entries of 8458 digits) 0.65 s and over Q(sqrt(-5)) (3527 digits) 0.5 s.  From 16
# rows down the determinant is then too long to print.
MAX_CHI_WORK = 6_200_000_000

# Largest accepted torsor rank, checked as soon as the rank is read.  Each place's
# Gram matrix costs one Berkowitz run, which MAX_CHI_WORK bounds as it bounds `chi`.
# On one 2-vCPU Intel Xeon core, `slope` and `verify` on a rank-16 torsor with a
# dense metric of 1- and 2-digit entries take 0.09-0.16 s cold (16 MB peak RSS),
# about what `degree` takes; at the entry size MAX_CHI_WORK still admits at rank 16
# `slope` takes 0.6 s over Q (495 digits, where the determinant then fails the output
# digit limit) and 0.3-0.5 s over Q(i), whose pair entries are priced four times
# (207 digits).
MAX_TORSOR_RANK = 16

# Largest accepted |d| of a field Q(sqrt(d)).  Checking that d is squarefree
# trial-divides by every k up to the cube root of |d|; `degree` over
# Q(sqrt(d)) for a prime d just below 10^13 takes 0.09-0.15 s cold on one
# 2-vCPU Intel Xeon core, start-up included.
MAX_FIELD_D = 10 ** 13


class ArithCurvesError(Exception):
    """Base class for all library errors."""


class UnsupportedType(ArithCurvesError):
    """Cartan type outside the supported A1-A4, B2-B4, C2-C4, D3-D4, G2 list."""


class MalformedInput(ArithCurvesError):
    """Input of the wrong shape or literal syntax; a `key` attribute, if set, names its field."""


class NotARoot(ArithCurvesError):
    """A vector that was required to be a root is not one."""


class DimensionMismatch(ArithCurvesError):
    """Coordinate vectors of incompatible lengths."""


class NonSquare(ArithCurvesError):
    """A square matrix was required."""


class ZeroIdeal(ArithCurvesError):
    """The zero module is not a fractional ideal."""


class MembershipFailure(ArithCurvesError):
    """An element does not lie in the ideal it was claimed to."""


class DegenerateCurve(ArithCurvesError):
    """Fiber analysis refused: the discriminant vanishes identically."""


class UnsupportedBase(ArithCurvesError):
    """Operation restricted to base field Q."""
