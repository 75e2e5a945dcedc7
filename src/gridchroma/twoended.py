"""Separator-scaffold coloring of two-ended line instances.

The pipeline mirrors the constructive argument it verifies:

1. walk small connected sets window by window and pick, as the walk meets
   them, cuts that split the instance into its two ends and lie at path
   distance at least 4 from every cut picked before; one mask holds the
   radius-3 ball around the picked cuts, and the walk never enters it,
   so the family is the greedy one over every window's cuts in walk order
   (maximal within them),
2. color the closed neighborhood of each kept cut exactly with the
   instance's chromatic number chi; distance >= 4 keeps those
   neighborhoods component-disjoint,
3. drop the top color class, leaving colors 1..chi-1 on the rest of the
   neighborhoods,
4. the remaining graph falls apart into pieces trapped between cuts (plus
   end pieces in segment mode); color each exactly with colors
   chi..2chi-1; pieces with equal induced adjacency are searched once
   per call.

The union is proper and uses at most 2*chi - 1 colors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .chi import Budget, Coloring, chromatic_number, find_coloring, is_proper
from .errors import InputError, InvariantViolation
from .graphs import (
    FiniteGraph,
    components,
    induced_subgraph,
    mask_vertices,
    neighbors_mask,
    reach_mask,
    vertex_mask,
)
from .instances import CYCLE, SEGMENT, LineInstance, divides_into_two

MIN_SEPARATION = 4


def connected_subsets(
    g: FiniteGraph,
    vertices: Iterable[int],
    max_size: int,
    budget: Optional[Budget] = None,
) -> list[int]:
    """Every connected subset of the given vertices with size <= max_size,
    as vertex bitmasks.

    Each subset is produced exactly once (extension enumeration rooted at
    the subset's smallest vertex), in the walk's order.  A budget with a
    time limit has its clock read every `Budget.CHECK_EVERY` subsets; the
    walk charges it no nodes.
    """
    if max_size < 1:
        raise InputError(f"size cap must be >= 1, got {max_size}")
    allowed = vertex_mask(g, vertices)
    masks = g.neighbor_masks()
    clocked = budget is not None and budget.ms is not None
    found: list[int] = []
    # an explicit stack: a recursive closure is a reference cycle, which
    # keeps every candidate alive until the next full garbage collection
    while allowed:
        root = allowed & -allowed
        allowed ^= root
        ext0 = masks[root.bit_length() - 1] & allowed
        stack = [(root, 1, ext0, root | ext0)]
        while stack:
            sub, size, ext, sub_reach = stack.pop()
            found.append(sub)
            if clocked and len(found) % Budget.CHECK_EVERY == 0:
                budget.check_clock("separator search")
            if size == max_size:
                continue
            size += 1
            while ext:
                w = ext & -ext
                ext ^= w
                fresh = masks[w.bit_length() - 1] & allowed & ~sub_reach
                stack.append((sub | w, size, ext | fresh, sub_reach | fresh))
    return found


def find_separators(
    inst: LineInstance,
    window_blocks: int,
    size_cap: int,
    budget: Optional[Budget] = None,
) -> list[frozenset[int]]:
    """A family of connected sets of size <= size_cap, each within a window
    of consecutive blocks and each dividing the instance into its two
    ends, pairwise at path distance >= MIN_SEPARATION; in selection order.

    Order: leftmost window first.  Inside a window the walk visits sorted
    vertex tuples in pre-order, which is lexicographic order: a prefix is
    extended only with window vertices above its last one.  One mask holds
    the radius-3 ball around the members selected so far.  A prefix that
    meets it is pruned, and so is one whose members cannot all be joined
    through itself plus the window vertices above its last one outside
    the ball.  In a one-block window with a vertex outside the ball, a
    prefix is also pruned when a bridge of that block
    (`LineInstance.block_bridges`) is neither in it nor among those
    vertices: each extension of it leaves that bridge, so its cut test
    fails, or meets the ball.  Wider windows, whose cuts touch varying
    blocks, are not pruned this way.  Each connected prefix is
    cut-tested, unless it lies inside the previous or the first window,
    which tested it already; a hit is selected, its radius-3 ball, grown
    as a mask one `graphs.neighbors_mask` step at a time, is ORed into the
    mask, and its extensions are not walked.  The family is the greedy
    distance-4 selection over every window's cuts in this order: a set of
    an earlier window either was selected, and now meets the ball, or
    failed its test.  So no set is tested twice.

    Each cut test spends one unit of the budget, when one is given.  A
    budget with a time limit also has its clock read every
    `Budget.CHECK_EVERY` walk steps, tested or not.  An empty list means
    no window holds a cut.
    """
    if size_cap < 1:
        raise InputError(f"size cap must be >= 1, got {size_cap}")
    if window_blocks < 1:
        raise InputError(f"window_blocks must be >= 1, got {window_blocks}")
    g = inst.graph
    masks = g.neighbor_masks()
    m = inst.block_count
    if inst.mode == CYCLE:
        starts = range(m)
        width = min(window_blocks, m - 1)
    else:
        starts = range(max(1, m - window_blocks + 1))
        width = window_blocks
    clocked = budget is not None and budget.ms is not None
    steps = ball = first = prev = 0
    out: list[frozenset[int]] = []
    for start in starts:
        window = vertex_mask(g, inst.window_vertices(start, width))
        # a one-block window's cuts share one context; one that misses
        # a bridge of it does not divide
        required = inst.block_bridges(start) if width == 1 and window & ~ball else 0
        # (prefix, its size, window vertices above its last one)
        stack = [(0, 0, window)]
        while stack:
            sub, size, above = stack.pop()
            above &= ~ball
            if sub:
                steps += 1
                if clocked and steps % Budget.CHECK_EVERY == 0:
                    budget.check_clock("separator search")
                if sub & ball or required & ~(sub | above):
                    continue
                low = sub & -sub
                if reach_mask(masks, low, sub) == sub:
                    # a set inside the previous or the first window
                    # was tested there, and failed or is in the ball
                    if sub & ~prev and sub & ~first:
                        if budget is not None:
                            budget.spend("separator search")
                        if divides_into_two(inst, sub):
                            out.append(frozenset(mask_vertices(sub)))
                            for _ in range(MIN_SEPARATION - 1):
                                sub |= neighbors_mask(masks, sub)
                            ball |= sub
                            continue
                elif sub & ~reach_mask(masks, low, sub | above):
                    continue
            if size == size_cap:
                continue
            # push the extensions highest first, so the lowest is walked first
            higher = 0
            while above:
                top = 1 << above.bit_length() - 1
                above ^= top
                stack.append((sub | top, size + 1, higher))
                higher |= top
        first = first or window
        prev = window
    return out


@dataclass
class SeparatorFamily:
    """Pairwise-far two-sided cuts, in selection order."""

    members: tuple[frozenset[int], ...]

    def to_json(self) -> dict:
        return {"members": [sorted(s) for s in self.members]}


def build_separator_family(members: list[frozenset[int]]) -> SeparatorFamily:
    """The family `find_separators` selected; InputError when it is empty."""
    if not members:
        raise InputError("no separators found; increase window or cap")
    return SeparatorFamily(tuple(members))


def check_complement_bounded(inst: LineInstance, family: SeparatorFamily) -> dict:
    """Check a family against the components outside it.

    Each component stays inside one inter-member gap: it spans fewer
    blocks than the largest gap.  Segment-mode pieces touching an end
    block are exempt (they stand in for the ends).  Each component is also
    a passage between every pair of members its boundary touches, so two
    members flanking two distinct gaps of a short cycle are joined twice;
    a member's passage degree counts that multiplicity.  The family has
    its scaffold shape when the passages form a cycle through all members
    (cycle mode, at least two) or a path (segment mode).
    """
    g = inst.graph
    m = inst.block_count
    members = family.members
    owner = {v: i for i, member in enumerate(members) for v in member}
    comps = components(g, [v for v in range(g.n) if v not in owner])
    flag = None
    if inst.mode == CYCLE and len(members) < 2:
        flag = "separator family too small to bound gaps; maximality failed upstream"
    spans = []
    sizes = []
    degrees = [0] * len(members)
    passages = 0
    for comp in comps:
        flank = {owner[w] for v in comp for w in g.adj[v] if w in owner}
        passages += len(flank) * (len(flank) - 1) // 2
        for i in flank:
            degrees[i] += len(flank) - 1
        blocks = {inst.block_of(v) for v in comp}
        if inst.mode == SEGMENT and (0 in blocks or m - 1 in blocks):
            continue
        spans.append(len(blocks))
        sizes.append(len(comp))
    if inst.mode == CYCLE:
        shape_ok = passages == len(members) >= 2 and all(d == 2 for d in degrees)
    else:
        shape_ok = passages == max(0, len(members) - 1) and all(d <= 2 for d in degrees)
    intervals = sorted(
        (min(inst.block_of(v) for v in s), max(inst.block_of(v) for v in s))
        for s in members
    )
    gaps = []
    for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
        gaps.append(lo2 - hi1)
    if inst.mode == CYCLE and len(intervals) >= 2:
        gaps.append(intervals[0][0] + m - intervals[-1][1])
    largest_gap = max(gaps) if gaps else None
    satisfied = (
        flag is None
        and (largest_gap is None or all(s < largest_gap for s in spans))
    )
    return {
        "max_component_size": max(sizes) if sizes else 0,
        "max_component_blocks": max(spans) if spans else 0,
        "largest_gap": largest_gap,
        "component_count": len(comps),
        "degrees": degrees,
        "shape_ok": shape_ok,
        "satisfied": satisfied,
        "flag": flag,
    }


@dataclass
class TwoEndedColoringResult:
    """Everything the pipeline produced, for inspection and reporting."""

    coloring: Coloring
    family: SeparatorFamily
    buffer_region: frozenset[int]
    trimmed_buffer: frozenset[int]
    chi: int
    complement_stats: dict = field(default_factory=dict)

    @property
    def colors_used(self) -> int:
        return self.coloring.used

    def to_json(self) -> dict:
        return {
            "coloring": self.coloring.to_json(),
            "family": self.family.to_json(),
            "buffer_region": sorted(self.buffer_region),
            "trimmed_buffer": sorted(self.trimmed_buffer),
            "colors_used": self.colors_used,
            "chi": self.chi,
            "complement_stats": self.complement_stats,
        }


def _color_pieces(
    g: FiniteGraph,
    pieces: list[list[int]],
    palette: int,
    offset: int,
    out: list[int],
    budget: Optional[Budget],
    what: str,
    solved: dict,
):
    """Color each piece exactly, offset into out.  `solved` maps an induced
    adjacency to its palette-coloring; a piece whose adjacency is in it is
    not searched again, and gets the colors a search would give, since
    `find_coloring` depends only on the adjacency and the palette."""
    for piece in pieces:
        sub, mapping = induced_subgraph(g, piece)
        got = solved.get(sub.adj)
        if got is None:
            got = find_coloring(sub, palette, budget=budget)
            if got is None:
                raise InputError(
                    f"{what}: a piece of {len(piece)} vertices admits no "
                    f"{palette}-coloring; the declared chromatic number is too small"
                )
            solved[sub.adj] = got
        for local, v in enumerate(mapping):
            out[v] = got.colors[local] + offset


def color_two_ended(
    inst: LineInstance,
    window_blocks: int = 1,
    size_cap: Optional[int] = None,
    budget: Optional[Budget] = None,
    chi: Optional[int] = None,
) -> TwoEndedColoringResult:
    """Run the separator pipeline; returns a proper coloring with at most
    2*chi - 1 colors.

    chi defaults to the instance's declared value, computed exactly when
    absent.  The default window of one block with cap equal to the largest
    block size finds full-block cuts on every instance in the suite; widen
    both through the parameters when a finer instance needs it.
    """
    g = inst.graph
    if chi is None:
        chi = inst.chi if inst.chi is not None else chromatic_number(g, budget=budget)
    if chi < 1:
        raise InputError(f"chromatic number must be positive, got {chi}")
    degree_bound = max(map(len, g.adj)) + 1  # colors enough for any graph
    if chi > degree_bound:
        raise InputError(f"chromatic number {chi} exceeds max degree + 1 = {degree_bound}")
    cap = size_cap if size_cap is not None else inst.max_block_size()
    family = build_separator_family(find_separators(inst, window_blocks, cap, budget))

    # members are connected and pairwise at distance >= 4, so their hulls
    # are connected, pairwise non-adjacent pieces
    masks = g.neighbor_masks()
    members = [vertex_mask(g, member) for member in family.members]
    hulls = [mask_vertices(member | neighbors_mask(masks, member)) for member in members]
    buffer_region = frozenset().union(*hulls)
    colors = [0] * g.n
    # both stages use chi colors, so they share one dict, kept for this call
    solved: dict = {}
    _color_pieces(g, hulls, chi, 0, colors, budget, "separator hull", solved)

    # the dropped top class joins the complement, which recolors it
    trimmed = frozenset(v for v in buffer_region if colors[v] != chi)
    rest_pieces = components(g, [v for v in range(g.n) if v not in trimmed])
    _color_pieces(g, rest_pieces, chi, chi - 1, colors, budget, "complement piece", solved)

    palette = 2 * chi - 1
    coloring = Coloring(tuple(colors), palette)
    if not is_proper(g, coloring):
        raise InvariantViolation("assembled coloring is not proper")
    stats = check_complement_bounded(inst, family)
    return TwoEndedColoringResult(
        coloring=coloring,
        family=family,
        buffer_region=buffer_region,
        trimmed_buffer=trimmed,
        chi=chi,
        complement_stats=stats,
    )
