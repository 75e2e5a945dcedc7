"""Block-structured presentations of line-like locally finite graphs.

A LineInstance is an ordered list of disjoint vertex blocks with edges only
inside a block or between consecutive blocks.  Segment mode treats the
first and last blocks as stand-ins for the two ends of an idealized
bi-infinite graph; cycle mode closes block m-1 onto block 0 and models the
bi-infinite graph through its cyclic quotient.

`divides_into_two` asks whether removing a connected vertex set splits the
underlying two-ended graph into its two ends.  In segment mode the test
runs on the instance graph, with the first and last blocks as the ends.  In
cycle mode it runs on a 3-fold unrolling of the cycle with the cut placed
in the middle copy, which distinguishes genuine two-sided cuts from sets
whose removal leaves the cycle connected.

The test is a breadth-first search over integer neighbor bitmasks
(`graphs.reach_mask`): it grows the reach of the lowest remaining left-end
vertex and stops as soon as that reach meets the right end.  `_unrolls`
caches, per rotation, the neighbor masks, the two end masks and the block
masks of the graph the test runs on, never a graph object.  It also holds
the end reaches per rotation and block span lo..hi of the cut: the reach
of each end's lowest vertex in the blocks beyond the span on its side.
The cut misses both, so the search resumes from the left one and may stop
as soon as it meets the right one.  A cut that leaves a vertex of the
bridge mask, the vertices adjacent to both reaches, joins the two ends:
the test answers it without a search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import InputError
from .graphs import FiniteGraph, components, json_int, reach_mask, read_json, vertex_mask
from .groups import MarkedGroupSpec
from .quotients import build_quotient, cayley_window

SEGMENT = "segment"
CYCLE = "cycle"


@dataclass(frozen=True)
class LineInstance:
    """A two-ended (or cyclically closed) graph cut into consecutive blocks."""

    graph: FiniteGraph
    blocks: tuple[tuple[int, ...], ...]
    mode: str
    chi: Optional[int] = None
    _block_of: list[int] = field(init=False, repr=False, compare=False)
    _unrolls: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if self.mode not in (SEGMENT, CYCLE):
            raise InputError(f"mode must be '{SEGMENT}' or '{CYCLE}', got {self.mode!r}")
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
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
        object.__setattr__(self, "_block_of", block_of)
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

    # -- the graph the cut test runs on -----------------------------------

    def _unrolled(self, rotation: int):
        """(neighbor masks, left-end mask, right-end mask, block masks) of
        the graph the cut test runs on.  Cached per rotation.

        In segment mode that is the instance graph itself and `rotation` is
        0.  In cycle mode it is three copies of the cycle opened between
        rotated blocks m-1 and 0; vertex v of copy c sits at index c*n + v,
        and rotated block r of copy c is block c*m + r.
        """
        if rotation in self._unrolls:
            return self._unrolls[rotation]
        n = self.graph.n
        if self.mode == SEGMENT:
            masks = self.graph.neighbor_masks()
            blocks = [vertex_mask(self.graph, b) for b in self.blocks]
        else:
            m = self.block_count
            first = vertex_mask(self.graph, self.blocks[rotation])
            last = vertex_mask(self.graph, self.blocks[rotation - 1])
            copy_masks = self.graph.neighbor_masks()
            masks = []
            for c in range(3):
                for v, nbrs in enumerate(copy_masks):
                    # wrap edges: the rotated-last block joins the next
                    # copy's rotated-first block
                    if last >> v & 1:
                        across, to = nbrs & first, c + 1
                    elif first >> v & 1:
                        across, to = nbrs & last, c - 1
                    else:
                        across, to = 0, c
                    out = (nbrs ^ across) << c * n
                    if 0 <= to < 3:
                        out |= across << to * n
                    masks.append(out)
            blocks = [
                vertex_mask(self.graph, self.blocks[(rotation + r) % m]) << c * n
                for c in range(3)
                for r in range(m)
            ]
        self._unrolls[rotation] = (masks, blocks[0], blocks[-1], blocks)
        return self._unrolls[rotation]

    def _end_reaches(self, rotation: int, lo: int, hi: int):
        """(neighbor masks, left-end mask, right-end mask, pre, pre's outer
        boundary, suf, bridges) for cuts inside blocks lo..hi of the graph
        the cut test runs on.  Cached in `_unrolls` per rotation and block
        span.

        `pre` is the reach of the left end's lowest vertex inside the
        blocks before lo, `suf` that of the right end's lowest vertex
        inside the blocks after hi.  Both miss every such cut, so each lies
        in its end's component once the cut is removed.  `bridges` holds
        the vertices adjacent to both: one the cut leaves joins the ends.
        """
        key = (rotation, lo, hi)
        if key in self._unrolls:
            return self._unrolls[key]
        masks, left, right, blocks = self._unrolled(rotation)
        # the block masks are disjoint, so their sum is their union
        pre = reach_mask(masks, left & -left, sum(blocks[:lo]))
        suf = reach_mask(masks, right & -right, sum(blocks[hi + 1:]))
        # the outer boundaries of pre and suf
        near = []
        for inside in (pre, suf):
            out, rest = 0, inside
            while rest:
                low = rest & -rest
                out |= masks[low.bit_length() - 1]
                rest ^= low
            near.append(out & ~inside)
        boundary, bridges = near[0], near[0] & near[1]
        self._unrolls[key] = (masks, left, right, pre, boundary, suf, bridges)
        return self._unrolls[key]


def divides_into_two(inst: LineInstance, cut: Iterable[int]) -> bool:
    """True iff removing the connected set leaves exactly one component per
    end: one touching the left end, a different one touching the right."""
    n = inst.graph.n
    block_of = inst._block_of
    cut_mask = touched = 0
    for v in cut:
        if not isinstance(v, int) or not (0 <= v < n):
            raise InputError(f"cut vertex {v!r} out of range for {n} vertices")
        cut_mask |= 1 << v
        touched |= 1 << block_of[v]
    if not cut_mask:
        raise InputError("cut must be non-empty")
    if reach_mask(inst.graph.neighbor_masks(), cut_mask & -cut_mask, cut_mask) != cut_mask:
        raise InputError("cut must induce a connected subgraph")

    # a connected cut touches an interval of blocks (cyclically in cycle mode)
    if inst.mode == SEGMENT:
        rotation, removed = 0, cut_mask
        lo, hi = (touched & -touched).bit_length() - 1, touched.bit_length() - 1
    else:
        m = inst.block_count
        span = touched.bit_count()
        if span == m:
            return False
        # rotate the interval's first block to the front
        after_touched = (touched << 1 | touched >> (m - 1)) & ((1 << m) - 1)
        rotation = (touched & ~after_touched).bit_length() - 1
        removed = cut_mask << n
        lo, hi = m, m + span - 1
    masks, left, right, pre, boundary, suf, bridges = inst._end_reaches(rotation, lo, hi)
    if bridges & ~removed:
        return False
    remaining = ((1 << len(masks)) - 1) & ~removed
    left &= remaining
    right &= remaining
    if not left or not right:
        return False
    # the left end must lie in one component that misses the right end;
    # pre and suf lie in the components of the two ends' lowest vertices,
    # so the search resumes from pre and may stop on meeting suf ...
    seed = left & -left
    if seed & pre:
        reach = reach_mask(masks, boundary, remaining, suf | right, pre)
    else:
        reach = reach_mask(masks, seed, remaining, suf | right)
    if reach is None or left & ~reach:
        return False
    # ... and the right end in one other component
    if not right & ~suf:
        return True
    return not right & ~reach_mask(masks, right & -right, remaining)


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


def instance_from_json(doc: dict) -> LineInstance:
    try:
        graph = FiniteGraph(
            json_int(doc["vertices"], "vertices"),
            [
                (json_int(u, "edge endpoint"), json_int(v, "edge endpoint"))
                for u, v in doc["edges"]
            ],
        )
        blocks = tuple(
            tuple(json_int(v, "block vertex") for v in b) for b in doc["blocks"]
        )
        mode = doc["mode"]
        chi = doc.get("chi")
        # the pipeline trusts a given chi, so accept only a JSON integer
        if chi is not None:
            json_int(chi, "chi")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed instance document: {exc}") from exc
    return LineInstance(graph, blocks, mode, chi)


def load_instance(path: str) -> LineInstance:
    return instance_from_json(read_json(path))
