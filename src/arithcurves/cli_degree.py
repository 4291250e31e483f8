"""The `degree` verb: the arithmetic degree of a metrized line bundle over Q or a
quadratic field, with the ideal's Hermite normal form and norm."""

from __future__ import annotations

from . import arakelov
from .jsonutil import _get, _reals, rat_str, real_str


def read_degree(doc: dict) -> tuple:
    K = _get(doc, "field", arakelov.read_field)
    return K, _get(doc, "ideal_hnf", arakelov.read_ideal, K), _get(doc, "metrics", _reals)


def degree_payload(K: arakelov.NumberField, ideal: arakelov.FractionalIdeal,
                   metrics: tuple[float, ...]) -> dict:
    bundle = arakelov.MetrizedLineBundle(ideal, metrics)
    deg = arakelov.arithmetic_degree(K, bundle)
    return {"kind": "degree", "field": K.name, "ideal_hnf": ideal.hnf_strings(),
            "ideal_norm": rat_str(ideal.norm()),
            "metrics": [real_str(m) for m in metrics], "degree": real_str(deg)}
