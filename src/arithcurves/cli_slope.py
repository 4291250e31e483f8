"""The `slope` verb: the slope of an arithmetic torsor described by a JSON document,
whose place metrics are exact Gram matrices.  `verify` reads a raw torsor here too."""

from __future__ import annotations

import functools
import operator

from . import arakelov, torsor
from .errors import MAX_TORSOR_RANK, ArithCurvesError
from .jsonutil import _get, _integer, _list, _matrix, _rational, rat_str, real_str


def _place_metrics(grams, key: str, K: arakelov.NumberField, n: int) -> tuple:
    """(Gram matrix, its determinant) per place, real places first; a complex place's
    entries are elements of Q(i), such as [re, im] pairs."""
    r1, r2 = K.signature
    metrics = []
    for i, gram in enumerate(_list(grams, key, lambda g, _: g, r1 + r2, "Gram matrices")):
        field = None if i < r1 else torsor.GAUSSIAN
        entry = functools.partial(arakelov.read_element, K=field) if field else _rational
        gram = _matrix(gram, key, entry, n)
        metrics.append((gram, torsor.gram_det(gram, field)))
    return tuple(metrics)


def read_torsor(doc: dict) -> tuple:
    """(field, rank, ideals, place metrics) of a torsor description."""
    K = _get(doc, "field", arakelov.read_field)
    n = _get(doc, "rank", _integer)
    if n < 1:
        raise ArithCurvesError(f"torsor rank {n} is below 1")
    if n > MAX_TORSOR_RANK:
        raise ArithCurvesError(f"torsor rank {n} exceeds the limit {MAX_TORSOR_RANK}")
    ideals = _get(doc, "ideals", _list, functools.partial(arakelov.read_ideal, K=K), n, "ideals")
    return K, n, tuple(ideals), _get(doc, "metrics", _place_metrics, K, n)


def read_slope(doc: dict) -> tuple:
    return *read_torsor(doc), _get(doc, "char_power", _integer)


def _entry_str(x):
    return [rat_str(x.a), rat_str(x.b)] if hasattr(x, "field") else rat_str(x)


def slope_payload(K: arakelov.NumberField, n: int, ideals: tuple, metrics: tuple,
                  k: int) -> dict:
    ideal = functools.reduce(operator.mul, ideals)
    dets = [det for _, det in metrics]
    return {"kind": "slope", "field": K.name, "rank": n, "char_power": k,
            "ideals": [i.hnf_strings() for i in ideals],
            "metrics": [[[_entry_str(x) for x in row] for row in gram] for gram, _ in metrics],
            "det_ideal_hnf": ideal.hnf_strings(),
            "gram_dets": [rat_str(d) for d in dets],
            "slope": real_str(torsor.slope(K, ideal, dets, k))}


def torsor_report(doc: dict) -> dict:
    """`verify` on a raw torsor: the reader refuses a Gram matrix that is not symmetric
    (Hermitian) or not positive definite, so the report gives each place's det G."""
    K, _, _, metrics = read_torsor(doc)
    r1, r2 = K.signature
    places = ["real"] * r1 + ["complex"] * r2
    return {"kind": "verify", "input_kind": "torsor", "ok": True,
            "reports": [{"place": place, "gram_det": rat_str(det)}
                        for place, (_, det) in zip(places, metrics)]}
