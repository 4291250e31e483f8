"""The `chi` verb: the characteristic morphism of a rational matrix (`linalg`) or
of a torus point of a given type (`charmorph`); each path loads only its own layer."""

from __future__ import annotations

from .errors import MAX_CHI_N, MalformedInput
from .jsonutil import _get, _list, _matrix, _rational, _text, rat_str


def _chi_matrix(value, key: str) -> list[list]:
    """A rational matrix of at most MAX_CHI_N rows, refused past MAX_CHI_WORK before
    Berkowitz runs (linalg.chi_gl checks the same work bound for library callers)."""
    matrix = _matrix(value, key, _rational, None, MAX_CHI_N)
    from . import linalg
    linalg.check_chi_work(matrix)
    return matrix


def read_chi(doc: dict) -> tuple:
    if ("matrix" in doc) == ("point" in doc):
        raise MalformedInput("chi takes exactly one of a matrix and a torus point")
    if "matrix" in doc:
        return _get(doc, "matrix", _chi_matrix), None, None
    return None, _get(doc, "type", _text), _get(doc, "point", _list, _rational)


def chi_payload(matrix: list | None, type_token: str | None, point: list | None) -> dict:
    """chi of a rational matrix, or of a torus point of the given type."""
    if matrix is not None:
        from . import linalg
        vals = linalg.chi_gl(matrix)
        given = {"type": f"gl_{len(matrix)}",
                 "matrix": [[rat_str(x) for x in row] for row in matrix]}
    else:
        from . import charmorph
        vals = charmorph.chi_torus(type_token, point)
        token = charmorph.realization(type_token).token
        given = {"type": f"gl_{token[2:]}" if token.startswith("gl") else token,
                 "point": [rat_str(x) for x in point]}
    return {"kind": "chi", **given, "invariants": [rat_str(v) for v in vals]}
