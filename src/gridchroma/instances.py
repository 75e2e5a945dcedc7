"""Block-structured presentations of line-like locally finite graphs.

A LineInstance is an ordered list of disjoint vertex blocks with edges only
inside a block or between consecutive blocks.  Segment mode treats the
first and last blocks as stand-ins for the two ends of an idealized
bi-infinite graph; cycle mode closes block m-1 onto block 0 and models the
bi-infinite graph through its cyclic quotient.

`divides_into_two` asks whether removing a connected vertex set splits the
underlying two-ended graph into its two ends.  In segment mode this reads
off the components touching the end blocks.  In cycle mode the test runs
on a 3-fold unrolling of the cycle with the cut placed in the middle copy,
which distinguishes genuine two-sided cuts from sets whose removal leaves
the cycle connected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import InputError
from .graphs import FiniteGraph, components, is_connected_set
from .groups import MarkedGroupSpec
from .quotients import build_quotient, cayley_window

SEGMENT = "segment"
CYCLE = "cycle"


@dataclass
class LineInstance:
    """A two-ended (or cyclically closed) graph cut into consecutive blocks."""

    graph: FiniteGraph
    blocks: tuple[tuple[int, ...], ...]
    mode: str
    chi: Optional[int] = None
    _block_of: list[int] = field(init=False, repr=False)
    _unrolls: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if self.mode not in (SEGMENT, CYCLE):
            raise InputError(f"mode must be '{SEGMENT}' or '{CYCLE}', got {self.mode!r}")
        self.blocks = tuple(tuple(b) for b in self.blocks)
        m = len(self.blocks)
        if m < (3 if self.mode == CYCLE else 2):
            raise InputError(f"too few blocks ({m}) for {self.mode} mode")
        block_of = [-1] * self.graph.n
        for i, block in enumerate(self.blocks):
            if not block:
                raise InputError(f"block {i} is empty")
            for v in block:
                if not (0 <= v < self.graph.n) or block_of[v] != -1:
                    raise InputError(f"blocks must partition the vertices; saw {v} twice or out of range")
                block_of[v] = i
        if any(b == -1 for b in block_of):
            raise InputError("blocks must cover every vertex")
        self._block_of = block_of
        for u, v in self.graph.edges():
            gap = abs(block_of[u] - block_of[v])
            if self.mode == CYCLE and gap == m - 1:
                gap = 1
            if gap > 1:
                raise InputError(
                    f"edge ({u},{v}) joins blocks {block_of[u]} and {block_of[v]}, "
                    "which are not adjacent"
                )
        if len(components(self.graph)) != 1:
            raise InputError("instance graph must be connected")

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def block_of(self, v: int) -> int:
        return self._block_of[v]

    def max_block_size(self) -> int:
        return max(len(b) for b in self.blocks)

    def window_vertices(self, start: int, width: int) -> list[int]:
        """Vertices of `width` consecutive blocks starting at `start`
        (cyclically in cycle mode)."""
        m = self.block_count
        out = []
        for off in range(width):
            i = start + off
            if self.mode == CYCLE:
                i %= m
            elif i >= m:
                break
            out.extend(self.blocks[i])
        return out

    # -- 3-fold unrolling for cycle-mode cut tests -------------------------

    def _unrolled(self, rotation: int):
        """Three copies of the cycle opened between rotated blocks m-1 and 0.

        Returns (graph, left_end, right_end); vertex v of copy c sits at
        index c*n + v.  Cached per rotation.
        """
        if rotation in self._unrolls:
            return self._unrolls[rotation]
        n = self.graph.n
        m = self.block_count
        edges = []
        for u, v in self.graph.edges():
            ru = (self._block_of[u] - rotation) % m
            rv = (self._block_of[v] - rotation) % m
            if abs(ru - rv) <= 1:
                for c in range(3):
                    edges.append((c * n + u, c * n + v))
            else:
                # wrap edge: the rotated-last block joins the next copy's
                # rotated-first block
                x, y = (u, v) if ru == m - 1 else (v, u)
                for c in range(2):
                    edges.append((c * n + x, (c + 1) * n + y))
        unrolled = FiniteGraph(3 * n, edges)
        left = [v for v in range(n) if (self._block_of[v] - rotation) % m == 0]
        right = [
            2 * n + v
            for v in range(n)
            if (self._block_of[v] - rotation) % m == m - 1
        ]
        self._unrolls[rotation] = (unrolled, left, right)
        return self._unrolls[rotation]


def divides_into_two(inst: LineInstance, cut: Iterable[int]) -> bool:
    """True iff removing the connected set leaves exactly one component per
    end: one touching the left end, a different one touching the right."""
    cut_set = set(cut)
    if not cut_set:
        raise InputError("cut must be non-empty")
    for v in cut_set:
        if not (0 <= v < inst.graph.n):
            raise InputError(f"cut vertex {v} out of range")
    if not is_connected_set(inst.graph, cut_set):
        raise InputError("cut must induce a connected subgraph")

    if inst.mode == SEGMENT:
        graph = inst.graph
        removed = cut_set
        left = [v for v in inst.blocks[0]]
        right = [v for v in inst.blocks[-1]]
    else:
        m = inst.block_count
        touched = {inst.block_of(v) for v in cut_set}
        if len(touched) == m:
            return False
        start = next(
            (t + 1) % m for t in range(m)
            if t not in touched and (t + 1) % m in touched
        )
        graph, left, right = inst._unrolled(start)
        removed = {inst.graph.n + v for v in cut_set}

    remaining = set(range(graph.n)) - removed
    comps = components(graph, remaining)
    left_set = set(left) - removed
    right_set = set(right) - removed
    touching_left = [i for i, comp in enumerate(comps) if left_set & set(comp)]
    touching_right = [i for i, comp in enumerate(comps) if right_set & set(comp)]
    return (
        len(touching_left) == 1
        and len(touching_right) == 1
        and touching_left[0] != touching_right[0]
    )


# -- builders -----------------------------------------------------------------


def path_instance(m: int, mode: str = CYCLE) -> LineInstance:
    """One vertex per block; a plain path or cycle."""
    edges = [(i, i + 1) for i in range(m - 1)]
    if mode == CYCLE:
        edges.append((m - 1, 0))
        chi = 2 if m % 2 == 0 else 3
    else:
        chi = 2
    return LineInstance(
        FiniteGraph(m, edges), tuple((i,) for i in range(m)), mode, chi
    )


def ladder_instance(m: int, mode: str = CYCLE) -> LineInstance:
    """Two rails plus one rung per block; block b holds vertices 2b, 2b+1."""
    edges = []
    for b in range(m):
        edges.append((2 * b, 2 * b + 1))
        if b + 1 < m:
            edges.append((2 * b, 2 * b + 2))
            edges.append((2 * b + 1, 2 * b + 3))
    if mode == CYCLE:
        edges.append((2 * (m - 1), 0))
        edges.append((2 * (m - 1) + 1, 1))
        chi = 2 if m % 2 == 0 else 3
    else:
        chi = 2
    return LineInstance(
        FiniteGraph(2 * m, edges),
        tuple((2 * b, 2 * b + 1) for b in range(m)),
        mode,
        chi,
    )


def cayley_cycle_instance(
    spec: MarkedGroupSpec, modulus: int, chi: Optional[int] = None
) -> LineInstance:
    """The cyclic Cayley quotient presented with one block per shift level."""
    q = build_quotient(spec, modulus)
    kk = spec.k ** 2
    blocks = tuple(
        tuple(range(n * kk, (n + 1) * kk)) for n in range(modulus)
    )
    return LineInstance(q.graph, blocks, CYCLE, chi)


def cayley_segment_instance(
    spec: MarkedGroupSpec, levels: int, chi: Optional[int] = None
) -> LineInstance:
    """A Cayley window presented with one block per shift level."""
    g = cayley_window(spec, levels)
    kk = spec.k ** 2
    blocks = tuple(
        tuple(range(n * kk, (n + 1) * kk)) for n in range(levels)
    )
    return LineInstance(g, blocks, SEGMENT, chi)


# -- serialization ------------------------------------------------------------


def instance_to_json(inst: LineInstance) -> dict:
    doc = {
        "mode": inst.mode,
        "vertices": inst.graph.n,
        "edges": [list(e) for e in inst.graph.edges()],
        "blocks": [list(b) for b in inst.blocks],
    }
    if inst.chi is not None:
        doc["chi"] = inst.chi
    return doc


def instance_from_json(doc: dict) -> LineInstance:
    try:
        graph = FiniteGraph(
            int(doc["vertices"]), [(int(u), int(v)) for u, v in doc["edges"]]
        )
        blocks = tuple(tuple(int(v) for v in b) for b in doc["blocks"])
        mode = doc["mode"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed instance document: {exc}") from exc
    chi = doc.get("chi")
    # the pipeline trusts a given chi, so accept only a JSON integer
    if chi is not None and (not isinstance(chi, int) or isinstance(chi, bool)):
        raise InputError(
            f"malformed instance document: chi must be an integer, got {chi!r}"
        )
    return LineInstance(graph, blocks, mode, chi)


def load_instance(path: str) -> LineInstance:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"cannot parse {path}: {exc}") from exc
    return instance_from_json(doc)
