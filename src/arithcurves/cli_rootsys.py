"""The `rootsys` verb: a root system, its positive roots and Gram matrix, and the
order (optionally the reduced words) of its Weyl group."""

from __future__ import annotations

from . import rootsys
from .jsonutil import _get, _text


def read_rootsys(doc: dict) -> tuple:
    return _get(doc, "type", _text), "weyl_words" in doc


def rootsys_payload(type_token: str, include_weyl: bool) -> dict:
    rs = rootsys.build_root_system(type_token)
    w = rootsys.weyl_group(rs)
    payload = {"kind": "rootsys", **rootsys.root_system_json(rs),
               "count": len(rs.roots), "weyl_order": len(w)}
    if include_weyl:
        payload["weyl_words"] = [list(el.word) for el in w]
    return payload
