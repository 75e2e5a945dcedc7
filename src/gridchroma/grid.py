"""The complete-difference grid graph on Z_k x Z_k and its coloring laws.

Vertices are the k^2 cells (a, b); two cells are adjacent exactly when
they differ in both coordinates, giving a (k-1)^2-regular graph.  A row
fixes b (first coordinate sweeps); a column fixes a.  Independent sets of
size >= 2 live entirely inside one row or one column, which splits every
proper (2k-2)-coloring into exactly one of two camps:

  horizontal: every row contains a color set of size >= 2 inside it,
  vertical:   every column contains a color set of size >= 2 inside it.

Note the coloring that sends (a, b) to a has full columns as color sets
and is therefore vertical under this convention.

The module also holds the one builder of the tower graphs: left
multiplication by a generator draws the same edges on every level, so
windows, cyclic quotients and the two-orbit graph (two adjacent grid
layers, plain or twisted) are all tiled from one set of per-cell neighbor
templates, as is the column graph the tower colorer is checked on.  It
provides exhaustive verifiers for the dichotomy, the
orientation-propagation law across layers, and the rigidity of
k-colorings.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Optional

from .chi import Budget, Coloring, enumerate_colorings, find_coloring, is_proper
from .errors import InputError, InvariantViolation, StopEnumeration, UndecidedError
from .graphs import FiniteGraph, mask_vertices, refuse_above_cap
from .groups import GroupElement, MarkedGroupSpec, generators, multiply

HORIZONTAL = "horizontal"
VERTICAL = "vertical"


def cell(k: int, v: int) -> tuple[int, int, int]:
    """The cell (a, b, n) of vertex v = n*k^2 + a*k + b: the numbering of
    every graph built here, level n = 0 for the grid graph."""
    n, ab = divmod(v, k * k)
    a, b = divmod(ab, k)
    return a, b, n


def grid_graph(k: int) -> FiniteGraph:
    """Build the complete-difference graph on the k x k grid; cell (a, b)
    is vertex a*k+b (see `cell`).  Refuses, before building, a k whose
    k^2(k-1)^2/2 edges exceed graphs.MAX_LAYER_GRAPH_EDGES."""
    MarkedGroupSpec(k)  # refuses a k that is not an integer >= 3
    refuse_above_cap(f"the grid graph at k={k} needs about", k * k * (k - 1) ** 2 // 2)
    return FiniteGraph._from_sorted_adjacency(_grid_adjacency(k))


def _grid_adjacency(k: int) -> tuple[tuple[int, ...], ...]:
    """Per cell a*k+b, the sorted cells that differ from it in both
    coordinates: the grid graph's adjacency, read off its definition."""
    return tuple(
        tuple(a2 * k + b2 for a2 in range(k) if a2 != a for b2 in range(k) if b2 != b)
        for a in range(k)
        for b in range(k)
    )


def _line_cells(k: int) -> tuple[tuple[int, ...], ...]:
    """The grid's 2k lines, each a tuple of cells in vertex order: the k
    rows (b = 0..k-1), then the k columns (a = 0..k-1)."""
    kk = k * k
    return tuple(tuple(range(b, kk, k)) for b in range(k)) + tuple(
        tuple(range(a * k, a * k + k)) for a in range(k)
    )


@lru_cache(maxsize=None)
def _lines(k: int) -> tuple[tuple[itemgetter, ...], tuple[itemgetter, ...]]:
    """Getters of each row's and each column's cells from a flat grid tuple."""
    getters = tuple(itemgetter(*line) for line in _line_cells(k))
    return getters[:k], getters[k:]


def _mask_flags(k: int, distinct: int) -> tuple[bool, bool]:
    """(horizontal?, vertical?) read off the bitmask of the pairwise
    distinct lines that `enumerate_colorings` reports for the lines
    `_line_cells(k)`: a family is marked when none of its lines is
    distinct, as `_orientation_flags` marks it."""
    return not distinct & ((1 << k) - 1), not distinct >> k


def _orientation_flags(k: int, cols: tuple[int, ...]) -> tuple[bool, bool]:
    """(horizontal?, vertical?) for a proper grid coloring given as a flat
    tuple indexed by a*k+b: a row (column) is marked when a color repeats
    in it, which assumes properness, since a class of two or more cells
    then lies inside one row or one column."""
    flags = []
    for lines in _lines(k):
        for line in lines:
            if len(set(line(cols))) == k:
                flags.append(False)
                break
        else:
            flags.append(True)
    return flags[0], flags[1]


# -- the two-orbit graph ------------------------------------------------------


def two_orbit_graph(k: int, twisted: bool) -> FiniteGraph:
    """Two adjacent grid layers of a tower; cell (a, b) on level n is
    vertex n*k^2 + a*k + b.  Cross edges come from the group product, so
    the twisted case needs no hand-coded offsets."""
    return layer_graph(MarkedGroupSpec(k, twisted=twisted), 2)


# -- the level-template builder -----------------------------------------------

UNIT_SHIFT = GroupElement(0, 0, 1)

@lru_cache(maxsize=32)
def _templates(spec: MarkedGroupSpec, product, gens) -> tuple:
    """The per-cell neighbor templates of the tower graphs: (same, cross,
    same masks, cross masks, inner masks).  Per cell a*k+b, `same` and
    `cross` hold the sorted cells it is joined to on its own level and on
    each adjacent level, the masks hold them as bits of a level's block,
    and the inner mask lays cross, same and cross on levels n-1, n, n+1.

    All are read off the group product at level 0, each edge entered at
    both of its cells.  Four invariants are checked, not assumed.  For
    every generator, the edges computed at level 1 must be those of level
    0 moved up a level (left multiplication commutes with the right unit
    shift); the product sees a level only through its parity, so the
    templates then hold on every level and descend to every cyclic
    quotient.  `same` must be the grid graph's adjacency.  Every cell must
    have (k-1)^2 neighbors on the level above.  And the level above must
    join each cell to the cells the level below does (the generators are
    closed under inverses), so one `cross` serves, and a cell whose three
    levels are distinct (inside a window, or anywhere in a quotient) has
    the 3(k-1)^2 neighbors of its generators.

    The bounded memo (hence the tuples) is keyed on the spec, the product
    and the generators, so a replaced or restored `grid.multiply` or
    `grid.generators` is followed.
    """
    k = spec.k
    kk = k * k
    same, above, below = ([set() for _ in range(kk)] for _ in range(3))
    # the templates of the edge's two ends when y0 = s*x0 lies on x0's
    # level, the level above, or else the level below
    sides = {0: (same, same), 1: (above, below)}
    for s in gens(spec):
        for a in range(k):
            for b in range(k):
                x0 = GroupElement(a, b, 0)
                y0 = product(spec, s, x0)
                y1 = product(spec, s, product(spec, x0, UNIT_SHIFT))
                if y1 != product(spec, y0, UNIT_SHIFT):
                    raise InvariantViolation(
                        "right shift action does not commute with "
                        f"generator {s} at {x0}"
                    )
                near, far = sides.get(y0.n, (below, above))
                u, v = a * k + b, y0.a * k + y0.b
                near[u].add(v)
                far[v].add(u)
    same, above, below = (tuple(tuple(sorted(c)) for c in side) for side in (same, above, below))
    if same != _grid_adjacency(k):
        raise InvariantViolation("tower layer is not a copy of the grid graph")
    for c, nbrs in enumerate(above):
        if len(nbrs) != (k - 1) ** 2:
            raise InvariantViolation(
                f"cell {divmod(c, k)} has {len(nbrs)} neighbors on the level above, expected {(k - 1) ** 2}"
            )
    if above != below:
        c = next(c for c in range(kk) if above[c] != below[c])
        raise InvariantViolation(
            f"cell {divmod(c, k)} has other neighbors on the level above than on the level below"
        )
    same_masks, cross_masks = (tuple(sum(1 << d for d in nbrs) for nbrs in side) for side in (same, above))
    inner = tuple(x | s << kk | x << 2 * kk for s, x in zip(same_masks, cross_masks))
    return same, above, same_masks, cross_masks, inner


@lru_cache(maxsize=64)
def _cell_getters(spec: MarkedGroupSpec, product, gens, order: tuple[int, ...]) -> tuple:
    """Per cell a*k+b, the getter of its neighbors from a level's window.

    The window lists the vertices of the level's neighboring levels, one
    block of k^2 per level in order of its first vertex; `order` names the
    template (0 same, 1 cross) of each block.  `_templates` gives a cell
    (k-1)^2 >= 4 neighbors per side, so every getter returns a tuple.
    Keyed, like `_templates`, on the product and the generators.
    """
    sides = _templates(spec, product, gens)
    kk = spec.k ** 2
    return tuple(
        itemgetter(*[i * kk + v for i, side in enumerate(order) for v in sides[side][c]])
        for c in range(kk)
    )


def _end_blocks(n: int, levels: int, cyclic: bool) -> list[tuple[int, int]]:
    """The (level, side) blocks of level n of a build on `levels` levels,
    sorted by level: n itself with side 0 (same), and each adjacent level
    the build has with side 1 (cross), mod levels when cyclic."""
    blocks = [(n, 0)]
    for m in (n - 1, n + 1):
        if cyclic or 0 <= m < levels:
            blocks.append((m % levels, 1))
    return sorted(blocks)


def _tiled_masks(spec: MarkedGroupSpec, product, gens, levels: int, cyclic: bool) -> list[int]:
    """The neighbor bitmasks of `layer_graph(spec, levels, cyclic)` under
    `product` and `gens`: cell c of level n has its same mask on block n
    and its cross mask on each adjacent level's block (`_end_blocks`), and
    an inner level is its cells' inner masks (`_templates`) shifted once."""
    kk = spec.k ** 2
    *sides, inner = _templates(spec, product, gens)[2:]
    masks: list[int] = []
    for n in range(levels):
        if 0 < n < levels - 1:
            shift = (n - 1) * kk
            masks += [m << shift for m in inner]
            continue
        level = [0] * kk
        for block, side in _end_blocks(n, levels, cyclic):
            level = [m | d << block * kk for m, d in zip(level, sides[side])]
        masks += level
    return masks


@lru_cache(maxsize=32)
def _column_graph(spec: MarkedGroupSpec, product, gens) -> FiniteGraph:
    """Two adjacent levels with each column contracted to one vertex:
    column a of the lower level is vertex a, of the upper level k+a.

    Its edges are the `same` edges inside each level and the `cross` edges
    between the levels, read off `_templates`.  A coloring constant on
    each column of two adjacent levels is proper on them iff the lower
    colors followed by the upper ones are proper here.  Keyed, like
    `_templates`, on the product and the generators.
    """
    k = spec.k
    same, cross = _templates(spec, product, gens)[:2]
    edges = [(c // k + lift, d // k + lift) for c in range(k * k) for d in same[c] for lift in (0, k)]
    edges += [(c // k, k + d // k) for c in range(k * k) for d in cross[c]]
    return FiniteGraph(2 * k, edges)


def column_graph(spec: MarkedGroupSpec) -> FiniteGraph:
    """The 2k-vertex column graph of two adjacent levels under the current
    `grid.multiply` and `grid.generators` (see `_column_graph`)."""
    return _column_graph(spec, multiply, generators)


def refuse_oversized(spec: MarkedGroupSpec, levels: int) -> None:
    """InputError when a build on `levels` levels, estimated at levels*k^2
    times half the degree 3(k-1)^2 edges, exceeds
    graphs.MAX_LAYER_GRAPH_EDGES."""
    refuse_above_cap(f"{spec.name} on {levels} levels needs about", levels * spec.k**2 * spec.degree // 2)


def layer_graph(spec: MarkedGroupSpec, levels: int, cyclic: bool = False) -> FiniteGraph:
    """The Cayley graph on shift levels 0..levels-1, tiled from the layer
    templates.

    Open (a window), edges leaving the level range are dropped; cyclic
    (the quotient by the shift-by-levels element), the last level also
    joins level 0.  Vertex (a, b, n) is n*k^2 + a*k + b (see `cell`).
    Needs levels >= 1, and levels >= 3 when cyclic (fewer levels would
    fold the two cross directions onto one level).  Refuses an oversized
    build (`refuse_oversized`) before it allocates anything.

    Each level's window joins the slices of one shared vertex list that
    its neighboring levels cover, in order of their first vertex, and each
    cell's neighbor tuple is its cached getter applied to that window
    (`_cell_getters`).  The templates are sorted, so the tuples come out
    sorted, with no edge list and no per-vertex sort, and they all hold
    the one list's int objects.  An inner level's window is the single
    slice of levels n-1..n+1, the same in both modes.  Its neighbor
    bitmasks are tiled from the same templates, under the group law it was
    built with, on the first `neighbor_masks` call (`_tiled_masks`).
    """
    if cyclic and levels < 3:
        raise InputError(f"a quotient needs at least 3 levels, got {levels}")
    if levels < 1:
        raise InputError(f"a window needs at least one level, got {levels}")
    k = spec.k
    kk = k * k
    refuse_oversized(spec, levels)
    law = (multiply, generators)
    vertices = list(range(levels * kk))
    inner = _cell_getters(spec, *law, (1, 0, 1))  # cross, same, cross
    adj: list[tuple[int, ...]] = []
    for n in range(levels):
        if 0 < n < levels - 1:
            window, getters = vertices[(n - 1) * kk : (n + 2) * kk], inner
        else:
            blocks = _end_blocks(n, levels, cyclic)
            window = [v for m, _ in blocks for v in vertices[m * kk : (m + 1) * kk]]
            getters = _cell_getters(spec, *law, tuple(side for _, side in blocks))
        adj += [get(window) for get in getters]
    return FiniteGraph._from_sorted_adjacency(
        adj, lambda: _tiled_masks(spec, *law, levels, cyclic)
    )


# -- verification reports -----------------------------------------------------


@dataclass
class VerificationReport:
    """Outcome of an exhaustive coloring check."""

    name: str
    params: dict
    count: int = 0
    violations: list = field(default_factory=list)
    undecided: bool = False
    notes: list = field(default_factory=list)

    MAX_RECORDED = 10

    @property
    def ok(self) -> bool:
        return not self.violations and not self.undecided

    def record_violation(self, item):
        if len(self.violations) < self.MAX_RECORDED:
            self.violations.append(item)
        else:
            self.violations.append("... further violations suppressed")
            raise StopEnumeration

    def to_json(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def verify_dichotomy(
    k: int,
    budget: Optional[Budget] = None,
    canonical: Optional[bool] = None,
) -> VerificationReport:
    """Check every proper (2k-2)-coloring of the grid graph lands on exactly
    one side of the horizontal/vertical split.

    For k=3 the full unpruned enumeration runs by default.  For larger k,
    enumeration is reduced to one representative per color permutation
    (sound: both branch predicates are invariant under recoloring), and a
    budget turns an unfinished run into an explicit undecided report.
    Each coloring's flags are read off the enumeration's mask of distinct
    lines (`_mask_flags`).
    """
    palette = 2 * k - 2
    if canonical is None:
        canonical = k > 3
    report = VerificationReport(
        "dichotomy", {"k": k, "palette": palette, "canonical": canonical}
    )

    rows = (1 << k) - 1

    def visit(cols: tuple[int, ...], distinct: int):
        # `_mask_flags`, inlined: this runs once per coloring
        horiz, vert = not distinct & rows, not distinct >> k
        if horiz == vert:
            report.record_violation(
                {"coloring": list(cols), "horizontal": horiz, "vertical": vert}
            )

    try:
        report.count = enumerate_colorings(
            grid_graph(k), palette, visit, canonical=canonical, lines=_line_cells(k), budget=budget
        )
    except UndecidedError as exc:
        # a budget stop keeps the colorings visited as the lower bound
        report.count = exc.lower
        report.undecided = True
    return report


def _propagation_fault(k: int, cols: tuple[int, ...], twisted: bool) -> Optional[dict]:
    """The violation a two-layer coloring `cols` (layer 0, then layer 1)
    records, or None: plain layers must share an orientation, twisted
    layers must swap it, as each layer's `_orientation_flags` read."""
    (h0, v0), (h1, v1) = _orientation_flags(k, cols[: k * k]), _orientation_flags(k, cols[k * k :])
    if h0 == v0 or h1 == v1:
        return {"coloring": list(cols), "reason": "layer escaped the dichotomy"}
    if (h0 != h1) != twisted:
        return {
            "coloring": list(cols),
            "layer0": HORIZONTAL if h0 else VERTICAL,
            "layer1": HORIZONTAL if h1 else VERTICAL,
        }
    return None


def verify_invariance(
    k: int,
    twisted: bool,
    budget: Optional[Budget] = None,
) -> VerificationReport:
    """Check orientation propagation across adjacent tower layers: in every
    proper (2k-2)-coloring of the two-orbit graph, plain layers must share
    an orientation and twisted layers must swap it.

    At k=3 every such coloring is checked and counted, as a pair of grid
    colorings (`_join_layers`).  Above k=3 the count is the 2k^2 cases
    `_refute_cases` refutes.  No layer escapes the dichotomy: an
    all-distinct row and column hold 2k-1 colors (off their crossing, a
    row cell and a column cell are adjacent), and a repeat in every line
    takes 2k classes, as a class of two or more cells lies in one line
    (`_templates` checks `same` against the grid).  So a violation is an
    all-distinct line on each layer, of different families when plain, of
    one family twisted, and each case is the graph with such a pair of
    lines made cliques.
    """
    graph = two_orbit_graph(k, twisted)
    params = {"k": k, "twisted": twisted, "palette": 2 * k - 2}
    if k == 3:
        report = VerificationReport("invariance", {**params, "canonical": False})
        return _join_layers(report, k, twisted, graph, budget)
    report = VerificationReport("invariance", {**params, "cases": 2 * k * k})
    kk = k * k
    families = _lines(k)
    cases = (
        (_with_cliques(graph, (line0(range(kk)), line1(range(kk, 2 * kk)))), None)
        for f in (0, 1)
        for line0 in families[f]
        for line1 in families[f if twisted else 1 - f]
    )
    report.count = _refute_cases(
        report, cases, 2 * k - 2, lambda cols: _propagation_fault(k, cols, twisted), budget
    )
    return report


def _with_cliques(graph: FiniteGraph, lines) -> FiniteGraph:
    """`graph` with each of the vertex sets `lines` made a clique."""
    adj, masks = list(graph.adj), list(graph.neighbor_masks())
    for line in lines:
        for v in line:
            masks[v] |= sum(1 << w for w in line if w != v)
            adj[v] = tuple(mask_vertices(masks[v]))
    return FiniteGraph._from_sorted_adjacency(adj, lambda: masks)


def _refute_cases(report: VerificationReport, cases, palette: int, fault, budget: Optional[Budget]) -> int:
    """The number of `(graph, pins)` cases refuted: `find_coloring(graph,
    palette, pins)` returns None.  A coloring a case finds is recorded in
    `report` as `fault(colors)`, up to the violation cap, which ends the
    run; a budget stop, read before each case, leaves `report` undecided
    with the cases refuted so far."""
    refuted = 0
    try:
        for graph, pins in cases:
            if budget is not None:
                budget.check_clock(f"verify_{report.name}")
            found = find_coloring(graph, palette, pins, budget=budget)
            if found is None:
                refuted += 1
            else:
                report.record_violation(fault(found.colors))
    except StopEnumeration:
        pass
    except UndecidedError:
        report.undecided = True
    return refuted


def _join_layers(
    report: VerificationReport, k: int, twisted: bool, graph: FiniteGraph, budget: Optional[Budget]
) -> VerificationReport:
    """Fill in the full k=3 invariance report: a two-layer coloring is a
    pair of grid colorings that no cross edge of `graph` forbids.

    The grid's colorings are enumerated once, in lexicographic order, each
    with its orientation flags read off the enumeration's mask of distinct
    lines (`_mask_flags`), and layer i is bit i of every bitset below.
    clash[y][c] holds the layers that put color c on a cross neighbor of
    lower cell y, so a lower layer `lo` pairs with the layers outside
    every clash[y][lo[y]].  Taking the lower layers in order and each
    one's pairs in ascending bit order is the two-orbit graph's
    lexicographic order, so the count, the violations and the pair the
    violation cap stops on are a walk's.  Each lower layer spends one
    budget node; a budget stop leaves the report undecided with the pairs
    counted so far (none inside the grid enumeration).
    """
    kk = k * k
    palette = 2 * k - 2
    layers: list[tuple[int, ...]] = []
    flags: list[tuple[bool, bool]] = []

    def keep(cols: tuple[int, ...], distinct: int):
        layers.append(cols)
        flags.append(_mask_flags(k, distinct))

    try:
        enumerate_colorings(grid_graph(k), palette, keep, lines=_line_cells(k), budget=budget)
    except UndecidedError:
        report.undecided = True
        return report
    every = (1 << len(layers)) - 1
    horiz = sum(1 << i for i, (h, _) in enumerate(flags) if h)
    escaped = sum(1 << i for i, (h, v) in enumerate(flags) if h == v)
    # has[z][c]: the layers that put color c on cell z; z's colors, last
    # layer first, read as a binary numeral with a 1 wherever c stands
    digits = [b"0" * c + b"1" + b"0" * (255 - c) for c in range(palette + 1)]
    has = [
        [int(colors.translate(d), 2) for d in digits]
        for colors in (bytes(column[::-1]) for column in zip(*layers))
    ]
    clash = [[0] * (palette + 1) for _ in range(kk)]
    for y in range(kk):
        for w in graph.adj[y]:
            if w >= kk:
                clash[y] = [a | b for a, b in zip(clash[y], has[w - kk])]
    count = 0
    try:
        for i, lo in enumerate(layers):
            if budget is not None:
                budget.spend("verify_invariance")
            banned = 0
            for row, c in zip(clash, lo):
                banned |= row[c]
            ok = every & ~banned
            h0, v0 = flags[i]
            if h0 == v0:
                bad = ok
            else:
                # an upper layer must be horizontal exactly when lo is,
                # in the plain group, and exactly when lo is not, twisted
                bad = ok & (escaped | (horiz if h0 == twisted else every & ~horiz))
            while bad:
                low = bad & -bad
                bad ^= low
                j = low.bit_length() - 1
                report.record_violation(_propagation_fault(k, lo + layers[j], twisted))
            count += ok.bit_count()
    except StopEnumeration:
        count += (ok & ((low << 1) - 1)).bit_count()
    except UndecidedError:
        report.undecided = True
    report.count = count
    return report


def verify_rigidity(k: int, budget: Optional[Budget] = None) -> VerificationReport:
    """Check that every proper k-coloring of the plain two-orbit graph is a
    coordinate projection, with the same projection on both layers.

    In particular the color pattern of layer 1 equals that of layer 0, the
    finite form of "shifting one layer up never changes the color".

    Every class of a k-coloring of a layer is a full line: a class of two
    or more cells lies in one line (`_templates` checks `same` against the
    grid), so it holds at most k cells, and k classes must cover the k^2
    cells.  A row class and a column class would meet, so each layer is a
    projection, with every line of one family all-distinct.  And a
    coloring whose layers differ at a cell can be relabelled so that the
    cell reads 1 below and 2 above.  So rigidity holds iff `_refute_cases`
    refutes 2k^2+2 cases: for each family f, its lines made cliques on
    layer 0 and the other family's on layer 1 (the layers' projections
    differ); and for each f and cell c, f's lines made cliques on both
    layers with c pinned to 1 below and 2 above (they differ at c).

    The count is the colorings.  Once every case is refuted, each is a
    relabelling of an identity projection that is equal on both layers,
    so there are k! per such projection that `is_proper` accepts (2k! in
    all).  It stays 0 unless every case is refuted.  A coloring a case
    finds is a violation, recorded with each layer's projection axis.
    """
    graph = two_orbit_graph(k, twisted=False)
    kk = k * k
    report = VerificationReport("rigidity", {"k": k, "palette": k})
    families = _lines(k)
    rows, columns = families

    def cliques(f0: int, f1: int) -> FiniteGraph:
        """`graph` with the lines of family f0 cliques on layer 0, of f1 on layer 1."""
        lines = [line(range(kk)) for line in families[f0]]
        return _with_cliques(graph, lines + [line(range(kk, 2 * kk)) for line in families[f1]])

    def cases():
        for f in (0, 1):
            yield cliques(f, 1 - f), None
        for f in (0, 1):
            case = cliques(f, f)
            for c in range(kk):
                yield case, {c: 1, kk + c: 2}

    def projection_axis(layer: tuple[int, ...]) -> Optional[str]:
        for axis, lines in (("a", columns), ("b", rows)):
            if all(len(set(line(layer))) == 1 for line in lines):
                return axis
        return None

    def fault(cols: tuple[int, ...]) -> dict:
        axes = projection_axis(cols[:kk]), projection_axis(cols[kk:])
        return {"coloring": list(cols), "layer0_axis": axes[0], "layer1_axis": axes[1]}

    if _refute_cases(report, cases(), k, fault, budget) == 2 * kk + 2:
        identities = (tuple(c // k + 1 for c in range(kk)), tuple(c % k + 1 for c in range(kk)))
        proper = sum(is_proper(graph, Coloring(p + p, k)) for p in identities)
        report.count = math.factorial(k) * proper
    return report
