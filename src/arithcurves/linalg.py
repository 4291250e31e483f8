"""Exact Gaussian elimination over any field whose elements support +, -, *,
truth testing and ``1 / x``: ``fractions.Fraction`` and quadratic
``FieldElement`` alike.

One forward-elimination routine serves both entry points.  It computes one
inverse per pivot and never normalises a row, since the discriminant of every
spectral curve runs it on a Sylvester matrix.
"""

from __future__ import annotations


def _pivots(rows: list[list], ncols: int):
    """Bring the first `ncols` columns of `rows` to row-echelon form, in place.

    Yields (column, pivot inverse, swapped) for each column in turn, after the
    entries below that column's pivot are eliminated, or (column, None, False)
    when the column has no pivot.  Entries below a pivot are left as they
    were and must not be read.
    """
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            yield c, None, False
            continue
        swapped = p != r
        if swapped:
            rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        tail = rows[r][c + 1:]
        for row in rows[r + 1:]:
            if row[c]:
                f = row[c] * inv
                row[c + 1:] = [x - f * y for x, y in zip(row[c + 1:], tail)]
        yield c, inv, swapped
        r += 1


def det(matrix):
    """Determinant of a square matrix; 1 for the empty matrix."""
    rows = [list(row) for row in matrix]
    d = 1
    for c, inv, swapped in _pivots(rows, len(rows)):
        if inv is None:
            return rows[c][c]               # the field's zero: column c has no pivot
        d = -d * rows[c][c] if swapped else d * rows[c][c]
    return d


def solve(matrix, rhs):
    """One solution x of matrix . x = rhs, or None if the system is inconsistent.

    `matrix` has one row per equation (at least one) and may be singular or
    non-square; unknowns without a pivot are set to zero.
    """
    ncols = len(matrix[0])
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    pivots = [(c, inv) for c, inv, _ in _pivots(rows, ncols) if inv is not None]
    if any(row[ncols] for row in rows[len(pivots):]):
        return None
    x = [0 * rhs[0]] * ncols
    for r in reversed(range(len(pivots))):
        c, inv = pivots[r]
        acc = rows[r][ncols]
        for c2, _ in pivots[r + 1:]:
            acc = acc - rows[r][c2] * x[c2]
        x[c] = acc * inv
    return tuple(x)
