"""The `curve` verb: the spectral or cameral curve of a twisted Higgs matrix, with its
integrality certificate, and over Q its covering check, rational cameral points and,
below a fiber bound, its ramified primes."""

from __future__ import annotations

from . import arakelov, curve
from .errors import MAX_CURVE_N
from .jsonutil import _get, _integer, _matrix, rat_str


def read_curve(doc: dict) -> tuple:
    K = _get(doc, "field", arakelov.read_field)
    return (K, _get(doc, "matrix", _matrix, lambda x, key: arakelov.read_element(x, key, K),
                    None, MAX_CURVE_N),
            _get(doc, "twist_hnf", arakelov.read_ideal, K, required=False),
            doc.get("kind") == "cameral", _get(doc, "fiber_bound", _integer, required=False))


def curve_payload(K: arakelov.NumberField, entries: list, twist, cameral: bool,
                  fiber_bound: int | None) -> dict:
    phi = curve.higgs_field(K, entries, twist=twist)
    C = curve.cameral_curve(phi) if cameral else curve.spectral_curve(phi)
    payload = {"kind": C.kind, "field": K.name, "n": C.n,
               "matrix": [[str(x) for x in row] for row in entries],
               "twist_hnf": phi.twist.hnf_strings(),
               "poly": [str(c) for c in C.poly],
               "char_point": [str(c) for c in C.certificate.values],
               "integrality": [{"power": kk, "coords": [rat_str(c) for c in coords]}
                               for kk, coords in enumerate(C.certificate.power_coords,
                                                           start=1)],
               "disc": str(C.disc), "degenerate": C.degenerate,
               "degree": C.degree}
    if K.degree == 1 and not C.degenerate:
        payload["covering_ok"] = curve.covering_degree_check(C)
        if cameral:
            pts = curve.cameral_fiber_rational(C)
            if pts is not None:
                payload["rational_points"] = [[rat_str(x) for x in p] for p in pts]
    if fiber_bound is not None:
        payload["fiber_bound"] = fiber_bound
        primes = curve.ramified_primes(C, fiber_bound)
        payload["ramified"] = [{"p": p, "pattern": [list(fe) for fe in pat]}
                               for p, pat in primes if pat is not None]
        skipped = [{"p": p, "reason": "divides a coefficient denominator: the characteristic "
                                      "polynomial has no reduction mod p"}
                   for p, pat in primes if pat is None]
        if skipped:
            payload["skipped"] = skipped
    return payload
