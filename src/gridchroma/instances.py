"""Block-structured presentations of line-like locally finite graphs.

A LineInstance is an ordered list of disjoint vertex blocks with edges only
inside a block or between consecutive blocks.  Segment mode treats the
first and last blocks as stand-ins for the two ends of an idealized
bi-infinite graph; cycle mode closes block m-1 onto block 0 and models the
bi-infinite graph through its cyclic quotient.

`divides_into_two` asks whether removing a connected vertex set, given as
an integer vertex bitmask, splits the underlying two-ended graph into its
two ends.  In segment mode the test runs on the instance graph, with the
first and last blocks as the ends.  In cycle mode it runs on three copies
of the cycle opened just before the cut's first block, with the cut placed
in the middle copy, which distinguishes genuine two-sided cuts from sets
whose removal leaves the cycle connected.  Those copies are a slice of one
unrolling of four copies, opened between blocks m-1 and 0.

The cut is checked connected by one `graphs.reach_mask` call, from its
lowest vertex through the cut; the blocks it touches are read off its
vertices.  The test itself is a breadth-first search over integer
neighbor bitmasks (`graphs.reach_mask` again): it grows the reach of the
lowest remaining left-end vertex and stops as soon as that reach meets
the right end.
`_unrolling` holds, from the first cut test on, the neighbor masks and the
block masks of that unrolling (of the instance graph in segment mode),
never a graph object.  `_cut_context` caches in `_contexts`, per mask of
touched blocks, everything the test needs beyond the cut.  That includes
the reach of each end's lowest vertex beyond the touched span, which the
search resumes from and may stop on, and the bridge mask: a cut that
leaves a bridge joins the two ends, so the test answers it without a
search.  The bridges of a one-block window (`LineInstance.block_bridges`)
are vertices every cut inside it must hold to divide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import InputError
from .graphs import (
    FiniteGraph, components, graph_from_json, json_int, mask_vertices, neighbors_mask, reach_mask,
    read_json, vertex_mask,
)
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
    _unrolling: tuple = field(init=False, repr=False, compare=False, default=())
    _contexts: dict = field(init=False, repr=False, compare=False, default_factory=dict)

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

    def block_bridges(self, b: int) -> int:
        """The bridges of the cuts inside block b, as a vertex bitmask:
        a cut there that leaves one does not divide the instance."""
        context = self._cut_context(1 << b)
        return context[-1] >> context[0] & self._unrolling[1][b]

    # -- the graph the cut test runs on -----------------------------------

    def _unroll(self):
        """(neighbor masks, block masks) of the graph the cut test runs on,
        stored in `_unrolling` on the first cut test.

        In segment mode that is the instance graph itself.  In cycle mode it
        is four copies of the cycle opened between blocks m-1 and 0; vertex
        v of copy c sits at index c*n + v, and block b of copy c is block
        c*m + b.
        """
        n = self.graph.n
        masks = self.graph.neighbor_masks()
        blocks = [vertex_mask(self.graph, b) for b in self.blocks]
        if self.mode == CYCLE:
            first, last = blocks[0], blocks[-1]
            # each vertex's neighbors in its own copy and the two around it,
            # at offsets n, 2n and 0: wrap edges join block m-1 to block 0
            # of the next copy
            around = []
            for v, nbrs in enumerate(masks):
                up = nbrs & first if last >> v & 1 else 0
                down = nbrs & last if first >> v & 1 else 0
                around.append((nbrs ^ up ^ down) << n | up << 2 * n | down)
            everything = (1 << 4 * n) - 1
            masks = [(a << c * n >> n) & everything for c in range(4) for a in around]
            blocks = [b << c * n for c in range(4) for b in blocks]
        object.__setattr__(self, "_unrolling", (masks, blocks))
        return masks, blocks

    def _cut_context(self, touched: int):
        """(shift, wrap, full mask, neighbor masks, left-end mask, right-end
        mask, pre, pre's outer boundary, suf, bridges) for the cuts that
        touch exactly the blocks of the mask `touched`, or False for a cycle
        cut that touches every block.  Read from `_contexts`, or computed
        and stored there on the first call per touched mask.

        The test runs on blocks start..stop-1 of the unrolling, whose
        vertices make up the full mask and whose first and last blocks are
        the ends: the instance graph in segment mode, and in cycle mode,
        for cuts whose interval of blocks starts at block r, blocks
        r..r+3m-1, three copies of the cycle opened before block r.
        Shifting a cut up by `shift` (0 or n), and its vertices in `wrap`,
        the blocks before r, by one copy more, places it in `span` blocks
        from block lo on.  `pre` is the reach of the left end's lowest
        vertex inside the blocks before lo, `suf` that of the right end's
        lowest vertex inside the blocks after the cut's.  Both miss every
        such cut, so each lies in its end's component once the cut is
        removed.  `bridges` holds the vertices adjacent to both, the
        left-end vertices adjacent to `suf` and the right-end vertices
        adjacent to `pre`: one the cut leaves joins the ends.
        """
        context = self._contexts.get(touched)
        if context is not None:
            return context
        # a connected cut touches an interval of blocks (cyclically in
        # cycle mode)
        m, span = self.block_count, touched.bit_count()
        if self.mode == SEGMENT:
            start, stop, shift, lo = 0, m, 0, (touched & -touched).bit_length() - 1
        elif span == m:
            self._contexts[touched] = False
            return False
        else:
            after_touched = (touched << 1 | touched >> (m - 1)) & ((1 << m) - 1)
            start = (touched & ~after_touched).bit_length() - 1
            stop, shift, lo = start + 3 * m, self.graph.n, start + m
        masks, blocks = self._unrolling or self._unroll()
        left, right = blocks[start], blocks[stop - 1]
        # the block masks are disjoint, so their sum is their union
        pre = reach_mask(masks, left & -left, sum(blocks[start:lo]))
        suf = reach_mask(masks, right & -right, sum(blocks[lo + span:stop]))
        # the outer boundaries of pre and suf
        boundary, far = (neighbors_mask(masks, x) & ~x for x in (pre, suf))
        # the three kinds of bridge, since the ends are disjoint
        bridges = (boundary | left) & (far | right)
        wrap, full = sum(blocks[:start]), sum(blocks[start:stop])
        context = (shift, wrap, full, masks, left, right, pre, boundary, suf, bridges)
        self._contexts[touched] = context
        return context


def divides_into_two(inst: LineInstance, cut: int) -> bool:
    """True iff removing the cut leaves exactly one component per end: one
    touching the left end, a different one touching the right.

    The cut is a vertex bitmask (bit v for vertex v, as `graphs.vertex_mask`
    builds it): a non-bool int, non-empty, within the instance's vertices
    and connected, else InputError.  Its touched blocks pick a `_cut_context`."""
    n = inst.graph.n
    if not isinstance(cut, int) or isinstance(cut, bool):
        raise InputError(f"cut must be an integer vertex bitmask, got {cut!r}")
    if cut <= 0:
        raise InputError(f"cut must be a non-empty vertex bitmask, got {cut}")
    if cut >> n:
        raise InputError(f"cut {cut:#x} has a vertex out of range for {n} vertices")
    # the cut is connected iff its lowest vertex reaches all of it
    if reach_mask(inst.graph.neighbor_masks(), cut & -cut, cut) != cut:
        raise InputError("cut must induce a connected subgraph")
    touched = 0
    for v in mask_vertices(cut):
        touched |= 1 << inst._block_of[v]

    context = inst._cut_context(touched)
    if not context:
        return False
    shift, wrap, full, masks, left, right, pre, boundary, suf, bridges = context
    removed = cut << shift
    moved = cut & wrap
    if moved:  # a cycle cut across blocks m-1 and 0: move those up a copy
        removed ^= (moved | moved << shift) << shift
    if bridges & ~removed:
        return False
    remaining = full & ~removed
    left &= remaining
    right &= remaining
    if not left or not right:
        return False
    # the left end must lie in one component that misses the right end;
    # pre and suf lie in the components of the two ends' lowest vertices,
    # so the search resumes from pre (or starts at the left seed, when a
    # segment cut in block 0 leaves pre empty) and may stop on meeting suf ...
    reach = reach_mask(masks, boundary | left & -left, remaining, suf | right, pre)
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


def _level_blocks(
    spec: MarkedGroupSpec, graph: FiniteGraph, mode: str, chi: Optional[int]
) -> LineInstance:
    """A Cayley window or quotient presented with one block per shift level."""
    kk = spec.k ** 2
    blocks = tuple(tuple(range(n, n + kk)) for n in range(0, graph.n, kk))
    return LineInstance(graph, blocks, mode, chi)


def cayley_cycle_instance(
    spec: MarkedGroupSpec, modulus: int, chi: Optional[int] = None
) -> LineInstance:
    """The cyclic Cayley quotient presented with one block per shift level."""
    return _level_blocks(spec, build_quotient(spec, modulus).graph, CYCLE, chi)


def cayley_segment_instance(
    spec: MarkedGroupSpec, levels: int, chi: Optional[int] = None
) -> LineInstance:
    """A Cayley window presented with one block per shift level."""
    return _level_blocks(spec, cayley_window(spec, levels), SEGMENT, chi)


# -- serialization ------------------------------------------------------------


def instance_from_json(doc: dict) -> LineInstance:
    graph = graph_from_json(doc)
    try:
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
