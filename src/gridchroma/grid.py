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
layers, plain or twisted) are all tiled from one layer template and one
cross-edge template.  It provides exhaustive verifiers for the dichotomy,
the orientation-propagation law across layers, and the rigidity of
k-colorings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Optional

from .chi import Budget, enumerate_colorings
from .errors import InputError, InvariantViolation, StopEnumeration, UndecidedError
from .graphs import FiniteGraph
from .groups import GroupElement, MarkedGroupSpec, generator_element, generators, multiply

HORIZONTAL = "horizontal"
VERTICAL = "vertical"

# The most layer tuples `verify_invariance` memoizes flags for: at k=3 a
# layer takes at most 1,056 colorings; from k=4 on nearly every lookup of
# the second layer misses, and an unbounded memo grew to 776 MB at k=5.
FLAG_MEMO_CAP = 1 << 16


def grid_graph(k: int) -> FiniteGraph:
    """Build the complete-difference graph on the k x k grid; cell (a, b)
    is vertex a*k+b and carries that label.  Refuses, before building, a k
    whose k^2(k-1)^2/2 edges exceed MAX_LAYER_GRAPH_EDGES."""
    if k < 3:
        raise InputError(f"grid modulus must be >= 3, got {k}")
    _refuse_above_cap(f"the grid graph at k={k}", k * k * (k - 1) ** 2 // 2)
    labels = [(a, b) for a in range(k) for b in range(k)]
    return FiniteGraph(k * k, _grid_edges(k), labels)


def _grid_edges(k: int) -> list[tuple[int, int]]:
    """The grid graph's edges (u, v), u < v, on cells u = a*k+b."""
    edges = []
    for a in range(k):
        for b in range(k):
            u = a * k + b
            for a2 in range(a + 1, k):
                for b2 in range(k):
                    if b2 != b:
                        edges.append((u, a2 * k + b2))
    return edges


@lru_cache(maxsize=None)
def _lines(k: int) -> tuple[tuple[itemgetter, ...], tuple[itemgetter, ...]]:
    """Getters of each row's and each column's cells from a flat grid tuple."""
    kk = k * k
    rows = tuple(itemgetter(*range(b, kk, k)) for b in range(k))
    columns = tuple(itemgetter(*range(a * k, a * k + k)) for a in range(k))
    return rows, columns


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

# The most edges `layer_graph` or `grid_graph` will build: about 2 GB of
# adjacency sets and tuples.  The largest builds in the tests and the
# benchmark, k=5 towers, stay under 40,000 edges; `cayley --k 50 --M 1000`
# would ask for about 9*10^9, the grid at k=150 for about 2.5*10^8.
MAX_LAYER_GRAPH_EDGES = 10_000_000


def _refuse_above_cap(what: str, edges: int) -> None:
    """InputError when a build of about `edges` edges exceeds the cap."""
    if edges > MAX_LAYER_GRAPH_EDGES:
        raise InputError(
            f"{what} needs about {edges:,} edges, "
            f"more than the cap of {MAX_LAYER_GRAPH_EDGES:,}"
        )


@lru_cache(maxsize=32)
def _templates(spec: MarkedGroupSpec, product) -> tuple:
    """The edge templates of the tower graphs, as pairs of cell indices
    a*k+b, and the per-cell neighbor tuples: (intra, cross, cells).

    intra holds the pairs (u, v), u < v, of cells joined inside one layer;
    cross holds the pairs (u, v) joining cell u on level n to cell v on
    level n+1; cells holds, per cell, the sorted neighbor tuples on the
    same level, the level above and the level below.  All are read off the
    group product at level 0.  Two invariants are checked, not assumed.
    For every generator, the edges computed at level 1 must be those of
    level 0 moved up a level (left multiplication commutes with the right
    unit shift); the product sees a level only through its parity, so the
    templates then hold on every level and descend to every cyclic
    quotient.  And the intra template must be the grid graph.

    The bounded memo (hence the frozensets) is keyed on the product as well
    as the spec, so a replaced `grid.multiply` is derived and checked afresh.
    """
    k = spec.k
    intra: set[tuple[int, int]] = set()
    cross: set[tuple[int, int]] = set()
    for gen in generators(spec):
        s = generator_element(gen)
        for a in range(k):
            for b in range(k):
                x0 = GroupElement(a, b, 0)
                y0 = product(spec, s, x0)
                y1 = product(spec, s, product(spec, x0, UNIT_SHIFT))
                if y1 != product(spec, y0, UNIT_SHIFT):
                    raise InvariantViolation(
                        "right shift action does not commute with "
                        f"generator {gen} at {x0}"
                    )
                u, v = a * k + b, y0.a * k + y0.b
                if y0.n == 0:
                    intra.add((u, v) if u < v else (v, u))
                elif y0.n == 1:
                    cross.add((u, v))
                else:  # y0 lies one level below x0, so x0 lies one above y0
                    cross.add((v, u))
    if intra != set(_grid_edges(k)):
        raise InvariantViolation("tower layer is not a copy of the grid graph")
    same: list[list[int]] = [[] for _ in range(k * k)]
    above: list[list[int]] = [[] for _ in range(k * k)]
    below: list[list[int]] = [[] for _ in range(k * k)]
    for u, v in intra:
        same[u].append(v)
        same[v].append(u)
    for u, v in cross:
        above[u].append(v)
        below[v].append(u)
    cells = tuple(
        tuple(tuple(sorted(nbrs)) for nbrs in per_cell)
        for per_cell in (same, above, below)
    )
    return frozenset(intra), frozenset(cross), cells


def layer_graph(spec: MarkedGroupSpec, levels: int, cyclic: bool = False) -> FiniteGraph:
    """The Cayley graph on shift levels 0..levels-1, tiled from the layer
    templates.

    Open (a window), edges leaving the level range are dropped; cyclic
    (the quotient by the shift-by-levels element), the last level also
    joins level 0.  Vertex (a, b, n) is n*k^2 + a*k + b and carries that
    label.  Needs levels >= 1, and levels >= 3 when cyclic (fewer levels
    would fold the two cross directions onto one level).  Refuses any
    build whose edge count, estimated as levels*k^2 times half the degree
    3(k-1)^2, exceeds MAX_LAYER_GRAPH_EDGES, before it allocates anything.

    A vertex's neighbors are the sorted per-cell neighbor tuples of the
    templates, one block per neighboring level, each shifted by its
    level's first vertex; the blocks go in order of that vertex, so the
    tuple comes out sorted with no edge list and no per-vertex sort.
    """
    least = 3 if cyclic else 1
    if levels < least:
        raise InputError(f"layer graph needs at least {least} levels, got {levels}")
    _refuse_above_cap(f"{spec.name} on {levels} levels", levels * spec.k ** 2 * spec.degree // 2)
    _, _, (same, above, below) = _templates(spec, multiply)
    k = spec.k
    kk = k * k
    adj: list[tuple[int, ...]] = []
    for n in range(levels):
        blocks = [(n * kk, same)]
        if cyclic or n + 1 < levels:
            blocks.append(((n + 1) % levels * kk, above))
        if cyclic or n > 0:
            blocks.append(((n - 1) % levels * kk, below))
        blocks.sort(key=lambda block: block[0])
        adj += [
            tuple([base + v for base, cells in blocks for v in cells[c]])
            for c in range(kk)
        ]
    labels = [(a, b, n) for n in range(levels) for a in range(k) for b in range(k)]
    return FiniteGraph._from_sorted_adjacency(adj, labels)


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
        return {
            "name": self.name,
            "params": self.params,
            "count": self.count,
            "violations": self.violations,
            "undecided": self.undecided,
            "notes": self.notes,
            "ok": self.ok,
        }


def _enumerate_into(
    report: VerificationReport,
    graph: FiniteGraph,
    palette: int,
    visit,
    budget: Optional[Budget],
    canonical: bool = False,
) -> VerificationReport:
    """Run the enumeration behind a verifier and fill in its report.

    The count is the colorings visited, also when the run stops early: at
    the violation cap, or when the budget runs out, which leaves the report
    undecided and the count in the UndecidedError as its lower bound.
    """
    try:
        report.count = enumerate_colorings(
            graph, palette, visit, canonical=canonical, budget=budget
        )
    except UndecidedError as exc:
        report.count = exc.lower
        report.undecided = True
    return report


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
    """
    if k < 3:
        raise InputError(f"k must be >= 3, got {k}")
    palette = 2 * k - 2
    if canonical is None:
        canonical = k > 3
    report = VerificationReport(
        "dichotomy", {"k": k, "palette": palette, "canonical": canonical}
    )

    def visit(cols: tuple[int, ...]):
        horiz, vert = _orientation_flags(k, cols)
        if horiz == vert:
            report.record_violation(
                {"coloring": list(cols), "horizontal": horiz, "vertical": vert}
            )

    return _enumerate_into(report, grid_graph(k), palette, visit, budget, canonical)


def verify_invariance(
    k: int,
    twisted: bool,
    budget: Optional[Budget] = None,
) -> VerificationReport:
    """Check orientation propagation across adjacent tower layers.

    Enumerates every proper (2k-2)-coloring of the two-orbit graph; plain
    layers must share an orientation, twisted layers must swap it.  A layer
    takes far fewer distinct colorings than the pair does, so the flags of
    each layer tuple are memoized; the memo is emptied when a miss finds it
    holding FLAG_MEMO_CAP tuples, which at k=3 it never does.
    """
    if k < 3:
        raise InputError(f"k must be >= 3, got {k}")
    palette = 2 * k - 2
    graph = two_orbit_graph(k, twisted)
    kk = k * k
    want_equal = not twisted
    report = VerificationReport(
        "invariance", {"k": k, "twisted": twisted, "palette": palette}
    )

    flags: dict[tuple[int, ...], tuple[bool, bool]] = {}

    def miss(layer: tuple[int, ...]) -> tuple[bool, bool]:
        if len(flags) >= FLAG_MEMO_CAP:
            flags.clear()
        got = flags[layer] = _orientation_flags(k, layer)
        return got

    def visit(cols: tuple[int, ...]):
        lo, hi = cols[:kk], cols[kk:]
        h0, v0 = flags.get(lo) or miss(lo)
        h1, v1 = flags.get(hi) or miss(hi)
        if h0 == v0 or h1 == v1:
            report.record_violation(
                {"coloring": list(cols), "reason": "layer escaped the dichotomy"}
            )
            return
        if (h0 == h1) != want_equal:
            report.record_violation(
                {
                    "coloring": list(cols),
                    "layer0": HORIZONTAL if h0 else VERTICAL,
                    "layer1": HORIZONTAL if h1 else VERTICAL,
                }
            )

    return _enumerate_into(report, graph, palette, visit, budget)


def verify_rigidity(
    k: int,
    budget: Optional[Budget] = None,
) -> VerificationReport:
    """Check that every proper k-coloring of the plain two-orbit graph is a
    coordinate projection, with the same projection on both layers.

    In particular the color pattern of layer 1 equals that of layer 0, the
    finite form of "shifting one layer up never changes the color".
    """
    if k < 3:
        raise InputError(f"k must be >= 3, got {k}")
    graph = two_orbit_graph(k, twisted=False)
    kk = k * k
    report = VerificationReport("rigidity", {"k": k, "palette": k})

    rows, columns = _lines(k)

    def projection_axis(layer: tuple[int, ...]) -> Optional[str]:
        for axis, lines in (("a", columns), ("b", rows)):
            if all(len(set(line(layer))) == 1 for line in lines):
                return axis
        return None

    def visit(cols: tuple[int, ...]):
        lo, hi = cols[:kk], cols[kk:]
        axis0, axis1 = projection_axis(lo), projection_axis(hi)
        if axis0 is None or axis1 is None or axis0 != axis1 or lo != hi:
            report.record_violation(
                {"coloring": list(cols), "layer0_axis": axis0, "layer1_axis": axis1}
            )

    return _enumerate_into(report, graph, k, visit, budget)
