"""The `chevalley` verb: an integral Chevalley basis, its nonzero brackets as dense
integer rows, and optionally the verification report."""

from __future__ import annotations

from . import chevalley, rootsys
from .jsonutil import _get, _integer, _text


def read_chevalley(doc: dict) -> tuple:
    return _get(doc, "type", _text), _get(doc, "center", _integer), "verification" in doc


def chevalley_payload(type_token: str, center: int, with_verify: bool) -> dict:
    rs = rootsys.build_root_system(type_token)
    type_token = str(rs.cartan_type)
    L = chevalley.build_chevalley_basis(rs, center_rank=center)
    records = []
    for i, j in sorted(key for key in L.table if key[0] < key[1]):
        entries = dict(L.table[i, j])
        dense = [int(entries.get(k, 0)) for k in range(L.dim)]
        records.append({"x": L.label(i), "y": L.label(j), "result": dense})
    payload = {"kind": "chevalley", "type": type_token, "center": center,
               "dim": L.dim, "basis": [L.label(i) for i in range(L.dim)],
               "bracket": records}
    if with_verify:
        rep = chevalley.verify_chevalley(L)
        payload["verification"] = report = {key: getattr(rep, key) for key in (
            "ok", "antisymmetric", "integral", "magnitudes_ok", "cartan_action_ok", "coroot_ok",
            "opposite_sign_ok", "literal_paper_sign_count", "pair_count",
            "string_identity_failures", "jacobi_ok", "jacobi_triples")}
        report["string_identity_failures"] = len(rep.string_identity_failures)
    return payload
