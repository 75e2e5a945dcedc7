"""Separator-scaffold coloring of two-ended line instances.

The pipeline mirrors the constructive argument it verifies:

1. collect small connected cuts that split the instance into its two ends,
2. greedily keep a family of them with pairwise path distance at least 4
   (maximal within the candidate list),
3. color the closed neighborhood of each kept cut exactly with the
   instance's chromatic number chi; distance >= 4 keeps those
   neighborhoods component-disjoint,
4. drop the top color class, leaving colors 1..chi-1 on the rest of the
   neighborhoods,
5. the remaining graph falls apart into pieces trapped between cuts (plus
   end pieces in segment mode); color each exactly with colors
   chi..2chi-1.

The union is proper and uses at most 2*chi - 1 colors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .chi import Budget, Coloring, chromatic_number, find_coloring, is_proper
from .errors import InputError, InvariantViolation
from .graphs import (
    FiniteGraph,
    closed_neighborhood,
    components,
    induced_subgraph,
    set_distance,
    vertex_mask,
)
from .instances import CYCLE, SEGMENT, LineInstance, divides_into_two

MIN_SEPARATION = 4


def connected_subsets(
    g: FiniteGraph, vertices: Iterable[int], max_size: int
) -> list[frozenset[int]]:
    """Every connected subset of the given vertices with size <= max_size.

    Each subset is produced exactly once (extension enumeration rooted at
    the subset's smallest vertex); the result is sorted lexicographically.
    """
    if max_size < 1:
        raise InputError(f"max_size must be >= 1, got {max_size}")
    allowed = vertex_mask(g, vertices)
    masks = g.neighbor_masks()
    found: list[tuple[int, ...]] = []
    # an explicit stack: a recursive closure is a reference cycle, which
    # keeps every candidate alive until the next full garbage collection
    while allowed:
        root = allowed & -allowed
        allowed ^= root
        ext0 = masks[root.bit_length() - 1] & allowed
        stack = [((root.bit_length() - 1,), ext0, root | ext0)]
        while stack:
            sub, ext, sub_reach = stack.pop()
            found.append(sub)
            if len(sub) == max_size:
                continue
            while ext:
                w = ext & -ext
                ext ^= w
                v = w.bit_length() - 1
                fresh = masks[v] & allowed & ~sub_reach
                stack.append((sub + (v,), ext | fresh, sub_reach | fresh))
    # copying a set sizes a frozenset's table to its members; filling it
    # from a list grows it as a set grows: 728 bytes, not 472, at 5 to 7
    return [frozenset(set(sub)) for sub in sorted(map(sorted, found))]


def find_separators(
    inst: LineInstance,
    window_blocks: int,
    size_cap: int,
    budget: Optional[Budget] = None,
) -> list[frozenset[int]]:
    """All connected sets of size <= size_cap within any window of
    consecutive blocks that divide the instance into its two ends.

    Order: leftmost window first, lexicographic inside a window.  Each cut
    test spends one unit of the budget, when one is given.
    """
    if window_blocks < 1:
        raise InputError(f"window_blocks must be >= 1, got {window_blocks}")
    if size_cap < 1:
        raise InputError(f"size_cap must be >= 1, got {size_cap}")
    m = inst.block_count
    if inst.mode == CYCLE:
        starts = range(m)
        width = min(window_blocks, m - 1)
    else:
        starts = range(max(1, m - window_blocks + 1))
        width = window_blocks
    seen: set[frozenset[int]] = set()
    out: list[frozenset[int]] = []
    for start in starts:
        window = inst.window_vertices(start, width)
        for cand in connected_subsets(inst.graph, window, size_cap):
            if cand in seen:
                continue
            seen.add(cand)
            if budget is not None:
                budget.spend("separator search")
            if divides_into_two(inst, cand):
                out.append(cand)
    return out


@dataclass
class SeparatorFamily:
    """Pairwise-far two-sided cuts, in selection order."""

    members: tuple[frozenset[int], ...]

    def to_json(self) -> dict:
        return {"members": [sorted(s) for s in self.members]}


def build_separator_family(
    inst: LineInstance, candidates: list[frozenset[int]]
) -> SeparatorFamily:
    """Greedy left-to-right selection under the distance >= 4 rule; maximal
    within the candidate list."""
    if not candidates:
        raise InputError("no separators found; increase window or cap")
    g = inst.graph
    selected: list[frozenset[int]] = []
    for cand in candidates:
        if all(
            set_distance(g, cand, other) >= MIN_SEPARATION for other in selected
        ):
            selected.append(cand)
    return SeparatorFamily(tuple(selected))


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
    colors_used: int
    chi: int
    complement_stats: dict = field(default_factory=dict)

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
):
    for piece in pieces:
        sub, mapping = induced_subgraph(g, piece)
        got = find_coloring(sub, palette, budget=budget)
        if got is None:
            raise InputError(
                f"{what}: a piece of {len(piece)} vertices admits no "
                f"{palette}-coloring; the declared chromatic number is too small"
            )
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
    cap = size_cap if size_cap is not None else inst.max_block_size()
    family = build_separator_family(
        inst, find_separators(inst, window_blocks, cap, budget)
    )

    hulls = [closed_neighborhood(g, member) for member in family.members]
    buffer_region = set().union(*hulls)
    colors = [0] * g.n

    pieces = components(g, buffer_region)
    for piece in pieces:
        piece_set = set(piece)
        if not any(piece_set <= hull for hull in hulls):
            raise InvariantViolation(
                "a buffer component spans more than one separator hull; "
                "the distance-4 rule was violated upstream"
            )
    _color_pieces(g, pieces, chi, 0, colors, budget, "separator hull")

    trimmed = frozenset(v for v in buffer_region if colors[v] != chi)
    rest = [v for v in range(g.n) if v not in trimmed]
    rest_pieces = components(g, rest)
    # wipe stale colors on the dropped class, then recolor the complement
    for v in buffer_region - trimmed:
        colors[v] = 0
    _color_pieces(g, rest_pieces, chi, chi - 1, colors, budget, "complement piece")

    palette = 2 * chi - 1
    coloring = Coloring(tuple(colors), palette)
    if not is_proper(g, coloring):
        raise InvariantViolation("assembled coloring is not proper")
    stats = check_complement_bounded(inst, family)
    return TwoEndedColoringResult(
        coloring=coloring,
        family=family,
        buffer_region=frozenset(buffer_region),
        trimmed_buffer=trimmed,
        colors_used=len(set(colors)),
        chi=chi,
        complement_stats=stats,
    )
