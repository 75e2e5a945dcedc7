"""Spare-color propagation on anchored towers of grid layers.

A tower is a run of grid layers inside the plain group's Cayley graph
(a segment of levels, or a cyclic closure).  Anchor layers are pinned to
the coordinate coloring shifted by the anchor's grid offset: column u gets
color ((u - a0) mod k) + 1, using colors 1..k and leaving k+1 spare.

Between consecutive anchors the coloring walks from one anchor map to the
next through single-column recolorings: each step repaints exactly one
column with the color the previous layer left unused.  Layer-to-layer
properness is automatic for such steps, because cross edges join distinct
columns and two different columns of consecutive layers can only clash if
a color moved columns without passing through the spare.  Anchor gaps
must exceed 3k, which leaves room for any schedule this module emits (the
rotation needs at most 3k/2 steps).

The coloring is checked, not trusted, on the 2k-vertex column graph of
two adjacent levels (see `color_tower`); the tower graph is built only
for the witness search and on request.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import Optional

from . import chi
from .chi import Budget, Coloring, find_coloring, is_proper
from .errors import InputError, InvariantViolation
from .graphs import FiniteGraph, json_int, read_json
from .grid import cell, column_graph, refuse_oversized
from .groups import MarkedGroupSpec
from .instances import CYCLE, SEGMENT
from .quotients import build_quotient, cayley_window

OrbitMap = tuple[int, ...]  # column -> color, injective, one spare color


@dataclass(frozen=True)
class AnchoredTower:
    """Anchor positions and grid offsets over a layer range.

    anchors: ordered (position, (a0, b0)) pairs; the offset is the grid
    location of the anchor point, so the column shift across a gap is the
    difference of consecutive a0 values.  Every gap (including the wrap
    gap in cycle mode) must exceed 3k layers.  k, extent, positions and
    offsets must be integers: a float or a bool is an InputError, never
    truncated.
    """

    k: int
    extent: int
    mode: str
    anchors: tuple[tuple[int, tuple[int, int]], ...]

    def __post_init__(self):
        for pos, (a0, b0) in self.anchors:
            json_int(pos, "anchor position")
            json_int(a0, "anchor offset")
            json_int(b0, "anchor offset")
        json_int(self.k, "k")
        json_int(self.extent, "extent")
        if self.k < 3:
            raise InputError(f"k must be >= 3, got {self.k}")
        if self.mode not in (SEGMENT, CYCLE):
            raise InputError(f"mode must be '{SEGMENT}' or '{CYCLE}'")
        if not self.anchors:
            raise InputError("a tower needs at least one anchor")
        object.__setattr__(
            self,
            "anchors",
            tuple(
                (pos, (a0 % self.k, b0 % self.k))
                for pos, (a0, b0) in self.anchors
            ),
        )
        positions = [pos for pos, _ in self.anchors]
        if positions != sorted(positions) or len(set(positions)) != len(positions):
            raise InputError("anchor positions must be strictly increasing")
        if positions[0] < 0 or positions[-1] >= self.extent:
            raise InputError("anchor positions must lie within the extent")
        floor = 3 * self.k
        for (p1, _), (p2, _) in zip(self.anchors, self.anchors[1:]):
            if p2 - p1 <= floor:
                raise InputError(
                    f"anchor gap {p2 - p1} must exceed 3k = {floor}"
                )
        if self.mode == CYCLE:
            wrap = positions[0] + self.extent - positions[-1]
            if wrap <= floor:
                raise InputError(
                    f"wrap-around anchor gap {wrap} must exceed 3k = {floor}"
                )


def anchor_coloring(k: int, column_offset: int = 0) -> OrbitMap:
    """The coordinate coloring of one layer: column u -> ((u - a0) mod k) + 1.

    Uses colors 1..k; the spare color k+1 never appears.
    """
    if k < 3:
        raise InputError(f"k must be >= 3, got {k}")
    return tuple(((u - column_offset) % k) + 1 for u in range(k))


def spare_color(k: int, orbit_map: OrbitMap) -> int:
    """The single color of 1..k+1 the map does not use."""
    used = set(orbit_map)
    if len(orbit_map) != k or len(used) != k:
        raise InputError("orbit map must be injective on the k columns")
    missing = set(range(1, k + 2)) - used
    if len(missing) != 1:
        raise InputError("orbit map must use colors within 1..k+1")
    return missing.pop()


def transfer_schedule(
    k: int, source: OrbitMap, target: OrbitMap
) -> list[OrbitMap]:
    """Single-column steps carrying the source map onto the target map.

    Both maps must be injective and spare-free (color k+1 unused).  Each
    returned state differs from its predecessor on exactly one column, the
    new color is the predecessor's unused color, and the final state equals
    the target.  The length never exceeds 3k (a color cycle of length L
    costs L+1 steps, totalling at most 3k/2).
    """
    for name, m in (("source", source), ("target", target)):
        if spare_color(k, m) != k + 1:
            raise InputError(f"{name} map must leave color {k + 1} unused")
    cur = list(source)
    schedule: list[OrbitMap] = []
    limit = 3 * k
    while tuple(cur) != tuple(target):
        spare = (k + 1) * (k + 2) // 2 - sum(cur)
        if spare == k + 1:
            column = next(u for u in range(k) if cur[u] != target[u])
        else:
            column = target.index(spare)
        cur[column] = spare
        schedule.append(tuple(cur))
        if len(schedule) > limit:
            raise InvariantViolation(
                f"transfer schedule exceeded {limit} steps"
            )
    return schedule


@dataclass
class TowerColoring:
    """The per-layer column maps of a tower and the coloring they give:
    cell (a, b) of level n, vertex n*k^2 + a*k + b, takes color
    orbit_maps[n][a]."""

    tower: AnchoredTower
    coloring: Coloring
    orbit_maps: list[OrbitMap]

    @property
    def colors_used(self) -> int:
        # each map's colors fill k cells of its level: no rescan of the coloring
        return len(set().union(*self.orbit_maps))

    @cached_property
    def graph(self) -> FiniteGraph:
        """The tower graph, built on first read; `color_tower` checks the
        coloring without it."""
        return tower_graph(self.tower)

    def to_json(self) -> dict:
        return {
            "tower": tower_to_json(self.tower),
            "coloring": self.coloring.to_json(),
            "labels": [list(cell(self.tower.k, v)) for v in range(len(self.coloring.colors))],
            "colors_used": self.colors_used,
        }


def tower_graph(tower: AnchoredTower) -> FiniteGraph:
    """The plain-group layer graph the tower colors."""
    spec = MarkedGroupSpec(tower.k)
    if tower.mode == CYCLE:
        return build_quotient(spec, tower.extent).graph
    return cayley_window(spec, tower.extent)


@lru_cache(maxsize=32)
def _spare_steps(columns: FiniteGraph) -> tuple[bool, ...]:
    """The verdicts of `is_proper` on a column graph for the identity map
    1..k on the lower level paired with, on the upper level, the identity
    with column u recolored k+1 (entry u), or the identity itself (entry
    k).  `column_graph` memoizes its graph per spec and group law (product
    and generators), so this table is proven once per k and law.  It runs
    `chi.is_proper`, so it never holds a verdict of a replaced
    `towers.is_proper`.

    A pair of maps injective into 1..k+1 that differ in at most one
    column is one of these k+1 pairs up to a renaming of the colors,
    which keeps properness: the renaming sends the lower map to the
    identity and its spare color to k+1, and an injective upper map that
    differs from it only at column u holds that spare there.
    """
    k = columns.n // 2
    identity = tuple(range(1, k + 1))
    uppers = [identity[:u] + (k + 1,) + identity[u + 1 :] for u in range(k)] + [identity]
    return tuple(chi.is_proper(columns, Coloring(identity + upper, k + 1)) for upper in uppers)


def color_tower(tower: AnchoredTower) -> TowerColoring:
    """Color the whole tower with at most k+1 colors.

    Anchor layers take their shifted coordinate coloring; each gap runs
    the transfer schedule and then repeats the target map until the next
    anchor.  Layers outside the anchor range (segment mode) copy the
    nearest anchor.  An oversized tower is refused, as `layer_graph`
    refuses its graph, before the maps are built.

    The result is checked proper without the tower graph: a cell's color
    depends only on its layer's map and its column, so each distinct pair
    of consecutive maps, the wrap pair included in cycle mode, is checked
    on `grid.column_graph`.  A pair of injective maps into 1..k+1 that
    differ in at most one column reads its verdict from `_spare_steps`;
    any other pair runs `is_proper`.  A one-level segment pairs its map
    with itself, a stricter check that an injective map passes, since
    cross edges join distinct columns.
    """
    k = tower.k
    spec = MarkedGroupSpec(k)
    refuse_oversized(spec, tower.extent)
    first_pos, (first_a0, _) = tower.anchors[0]
    maps = [anchor_coloring(k, first_a0)] * (first_pos + 1)
    gaps = [
        (pos_b - pos_a, a0_b)
        for (pos_a, _), (pos_b, (a0_b, _)) in zip(tower.anchors, tower.anchors[1:])
    ]
    if tower.mode == CYCLE:  # the wrap gap, from the last anchor round to the first
        gaps.append((first_pos + tower.extent - tower.anchors[-1][0], first_a0))
    for gap, a0 in gaps:
        # AnchoredTower keeps every gap above 3k, the schedule's longest
        target = anchor_coloring(k, a0)
        schedule = transfer_schedule(k, maps[-1], target)
        maps += schedule + [target] * (gap - len(schedule))
    if tower.mode == CYCLE:  # the wrap gap's layers past the extent are the front
        maps = maps[tower.extent :] + maps[first_pos + 1 : tower.extent]
    else:
        maps += [maps[-1]] * (tower.extent - len(maps))

    # vertex n*k^2 + a*k + b takes maps[n][a]: one k-fold tuple per distinct map
    layers = {m: tuple(c for c in m for _ in range(k)) for m in set(maps)}
    coloring = Coloring(tuple(chain.from_iterable(map(layers.__getitem__, maps))), k + 1)
    pairs = set(zip(maps, maps[1:] or maps))
    if tower.mode == CYCLE:
        pairs.add((maps[-1], maps[0]))
    columns = column_graph(spec)
    steps = _spare_steps(columns)
    palette = set(range(1, k + 2))
    injective = {m for m in layers if len(m) == len(set(m) & palette) == k}
    for lo, hi in pairs:
        moved = [u for u, (x, y) in enumerate(zip(lo, hi)) if x != y]
        if len(moved) <= 1 and lo in injective and hi in injective:
            proper = steps[moved[0] if moved else k]
        else:
            proper = is_proper(columns, Coloring(lo + hi, k + 1))
        if not proper:
            raise InvariantViolation("tower coloring came out improper")
    return TowerColoring(tower, coloring, maps)


def witness_k_insufficient(
    k: int, tower: AnchoredTower, budget: Optional[Budget] = None
) -> bool:
    """True iff no k-coloring of the gap graph extends both pinned anchor
    layers (exhaustive search).  Requires a single-gap segment tower."""
    if tower.mode != SEGMENT or len(tower.anchors) != 2:
        raise InputError("witness check needs a segment tower with two anchors")
    if tower.k != k:
        raise InputError("tower modulus disagrees with k")
    graph = tower_graph(tower)
    constraints = {}
    for pos, (a0, _) in tower.anchors:
        layer_map = anchor_coloring(k, a0)
        for a in range(k):
            for b in range(k):  # cell (a, b) of layer pos
                constraints[pos * k * k + a * k + b] = layer_map[a]
    return find_coloring(graph, k, constraints, budget=budget) is None


def random_tower(
    k: int, rng: random.Random, mode: str = SEGMENT, zero_offsets: bool = False
) -> AnchoredTower:
    """A seeded random tower with valid gaps; for tests and demo runs."""
    floor = 3 * k
    count = rng.choice((2, 3))
    gaps = [floor + 1 + rng.randrange(6) for _ in range(count)]
    positions = [0]
    for gap in gaps[: count - 1]:
        positions.append(positions[-1] + gap)
    if mode == CYCLE:
        extent = positions[-1] + gaps[-1]
    else:
        extent = positions[-1] + 1 + rng.randrange(3)
    offset = (0, 0) if zero_offsets else None
    anchors = tuple(
        (
            pos,
            offset if offset is not None else (rng.randrange(k), rng.randrange(k)),
        )
        for pos in positions
    )
    return AnchoredTower(k, extent, mode, anchors)


# -- serialization ------------------------------------------------------------


def tower_to_json(tower: AnchoredTower) -> dict:
    return {
        "k": tower.k,
        "extent": tower.extent,
        "mode": tower.mode,
        "anchors": [
            {"position": pos, "offset": list(off)} for pos, off in tower.anchors
        ],
    }


def _json_offset(value) -> tuple:
    """An anchor offset of a JSON document: a list of exactly two entries,
    which `AnchoredTower` checks are integers."""
    if not isinstance(value, list) or len(value) != 2:
        raise InputError(f"anchor offset must be a list of two integers, got {value!r}")
    return tuple(value)


def tower_from_json(doc: dict) -> AnchoredTower:
    try:
        anchors = tuple((a["position"], _json_offset(a["offset"])) for a in doc["anchors"])
        return AnchoredTower(doc["k"], doc["extent"], doc["mode"], anchors)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise InputError(f"malformed tower document: {exc}") from exc


def load_tower(path: str) -> AnchoredTower:
    return tower_from_json(read_json(path))
