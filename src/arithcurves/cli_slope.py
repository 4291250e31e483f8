"""The `slope` verb: the slope of an arithmetic torsor described by a JSON document,
whose place metrics come from Gram matrices.  `verify` reads a raw torsor here too.
numpy and `torsor` load only once the metrics are read, so a document rejected
before them does not pay for numpy."""

from __future__ import annotations

import functools

from . import arakelov
from .errors import ArithCurvesError, MalformedInput
from .jsonutil import _get, _integer, _list, _matrix, _real, _reals, real_str


def _complex(value, key: str) -> complex:
    return complex(*_reals(value, key, 2))


def _place_metrics(grams, key: str, K: arakelov.NumberField, n: int) -> tuple:
    """The metric that each place's Gram matrix witnesses, real places first."""
    import numpy as np
    from . import torsor
    r1, r2 = K.signature
    metrics = []
    for i, gram in enumerate(_list(grams, key, lambda g, _: g, r1 + r2, "Gram matrices")):
        kind = "real" if i < r1 else "complex"
        gram = np.array(_matrix(gram, key, _real if kind == "real" else _complex, n))
        if not np.isfinite(gram).all():
            raise ArithCurvesError("metric Gram matrix must be finite")
        # Cholesky reads only the lower triangle: refuse the rest rather than drop it
        # (a difference that overflows is an asymmetry too)
        with np.errstate(over="ignore"):
            asymmetry = np.abs(gram - gram.conj().T).max()
        if asymmetry > torsor.TOL * np.abs(gram).max():
            raise MalformedInput("metric Gram matrix must be "
                                 + ("symmetric" if kind == "real" else "Hermitian"))
        try:
            witness = np.linalg.cholesky(gram).conj().T
        except np.linalg.LinAlgError as exc:
            raise ArithCurvesError("metric Gram matrix must be positive definite") from exc
        metrics.append(torsor.witnessed_metric(torsor.canonical_form(n, kind), witness))
    return tuple(metrics)


def read_torsor(doc: dict) -> tuple:
    """(field, rank, ideals, place metrics) of a torsor description."""
    K = _get(doc, "field", arakelov.read_field)
    n = _get(doc, "rank", _integer)
    ideals = _get(doc, "ideals", _list, functools.partial(arakelov.read_ideal, K=K), n, "ideals")
    return K, n, tuple(ideals), _get(doc, "metrics", _place_metrics, K, n)


def read_slope(doc: dict) -> tuple:
    return *read_torsor(doc), _get(doc, "char_power", _integer)


def _emit_place_matrix(mat, kind: str):
    if kind == "real":
        return [[real_str(x) for x in row] for row in mat.tolist()]
    return [[[real_str(x.real), real_str(x.imag)] for x in row] for row in mat.tolist()]


def slope_payload(K: arakelov.NumberField, n: int, ideals: tuple, metrics: tuple,
                  k: int) -> dict:
    from . import torsor
    T = torsor.ArithmeticTorsor(field=K, rank=n, ideals=ideals, metrics=metrics)
    det_bundle = torsor.determinant_bundle(T)
    value = torsor.slope(T, k)
    return {"kind": "slope", "field": K.name, "rank": n, "char_power": k,
            "ideals": [i.hnf_strings() for i in ideals],
            "metrics": [_emit_place_matrix(m.std, m.cd.place) for m in metrics],
            "det_ideal_hnf": det_bundle.ideal.hnf_strings(),
            "gram_dets": [real_str(r * r) for r in det_bundle.metrics],
            "slope": real_str(value)}
