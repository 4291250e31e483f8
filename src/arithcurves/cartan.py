"""Cartan types A1-A4, B2-B4, C2-C4, D3-D4 and G2: a family and a rank.

The characteristic morphism needs only these, so they live apart from the root
systems that `rootsys` builds on them.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import UnsupportedType

ROOT_COUNT = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 12, ("A", 4): 20,
    ("B", 2): 8, ("B", 3): 18, ("B", 4): 32,
    ("C", 2): 8, ("C", 3): 18, ("C", 4): 32,
    ("D", 3): 12, ("D", 4): 24,
    ("G", 2): 12,
}


class CartanType(NamedTuple):
    """A family and rank, ordered by (family, rank).  `parse` and
    `rootsys.build_root_system` reject a pair outside ROOT_COUNT."""
    family: str
    rank: int

    @classmethod
    def parse(cls, token: str) -> "CartanType":
        token = token.strip()
        # ASCII digits only, and few: int() rejects "²" and very long digit strings
        if (not 2 <= len(token) <= 5 or token[0].upper() not in "ABCDG"
                or not (token[1:].isascii() and token[1:].isdigit())):
            raise UnsupportedType(f"unsupported type {token!r}")
        return _supported(cls(token[0].upper(), int(token[1:])))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _supported(t: CartanType) -> CartanType:
    if t not in ROOT_COUNT:                 # a CartanType equals its (family, rank) key
        raise UnsupportedType(f"unsupported type {t.family}{t.rank}")
    return t
