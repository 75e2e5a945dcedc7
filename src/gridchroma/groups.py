"""Exact arithmetic for the two marked groups behind the tower graphs.

Both groups share the carrier set (Z_k x Z_k) x Z.  The plain group is the
direct product; the twisted group applies the coordinate swap
(a, b) -> (b, a) to the right factor's grid part once whenever the left
factor carries an odd shift.  Both are marked with the generating set

    {(s1, s2) : 0 < s1, s2 < k} x {-1, 0, +1}

which has 3(k-1)^2 elements, is closed under inversion, and excludes the
identity.  Downstream graph builders always use the edge convention
"x adjacent to y iff y = s * x for some generator s" (left multiplication
by generators); the graph automorphisms realizing vertex transitivity are
therefore right multiplications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InputError


class GroupElement(NamedTuple):
    """An element ((a, b), n): grid part mod k, integer shift part."""

    a: int
    b: int
    n: int


@dataclass(frozen=True)
class MarkedGroupSpec:
    """Grid modulus k plus the choice between plain and twisted product."""

    k: int
    twisted: bool = False

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 3:
            raise InputError(f"grid modulus must be an integer >= 3, got {self.k!r}")

    @property
    def degree(self) -> int:
        """Size of the generating set, 3(k-1)^2."""
        return 3 * (self.k - 1) ** 2

    @property
    def name(self) -> str:
        return f"{'twisted' if self.twisted else 'plain'}(k={self.k})"


def multiply(spec: MarkedGroupSpec, g: GroupElement, h: GroupElement) -> GroupElement:
    """Group product g * h.

    Plain: componentwise addition.  Twisted: the grid part of h is swapped
    iff the shift part of g is odd, then added to g's grid part; shift
    parts add.
    """
    a, b = h.a, h.b
    if spec.twisted and g.n % 2 != 0:
        a, b = b, a
    return GroupElement((g.a + a) % spec.k, (g.b + b) % spec.k, g.n + h.n)


def generators(spec: MarkedGroupSpec) -> list[GroupElement]:
    """All 3(k-1)^2 generators ((s1, s2), eps), s1 and s2 nonzero, in
    (s1, s2, eps) lexicographic order."""
    k = spec.k
    return [
        GroupElement(s1, s2, eps)
        for s1 in range(1, k)
        for s2 in range(1, k)
        for eps in (-1, 0, 1)
    ]


def untwist(g: GroupElement) -> GroupElement:
    """Swap the grid coordinates on odd shift levels; fix even levels.

    This involution carries the twisted group's Cayley adjacency onto the
    plain group's Cayley adjacency and back, so the two Cayley graphs are
    isomorphic even though the groups are not.
    """
    if g.n % 2 != 0:
        return GroupElement(g.b, g.a, g.n)
    return g
