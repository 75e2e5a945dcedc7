"""Exact proper-coloring search: decision, optimization, and enumeration.

Three entry points share one philosophy: never report a value that was not
proven.  `find_coloring` is a complete backtracking decision procedure,
`chromatic_number` wraps it in an ascending bound loop, and
`enumerate_colorings` walks every proper coloring in lexicographic order.
Searches accept an optional Budget; running out raises UndecidedError with
whatever bounds were established, never a guess.

Colors are 1-based throughout (palette p means colors 1..p).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import InputError, StopEnumeration, UndecidedError
from .graphs import FiniteGraph


@dataclass(frozen=True)
class Coloring:
    """A total assignment vertex -> color in {1..palette}."""

    colors: tuple[int, ...]
    palette: int

    def __post_init__(self):
        if self.colors and not (1 <= min(self.colors) and max(self.colors) <= self.palette):
            raise InputError("color out of palette range")

    @property
    def used(self) -> int:
        return len(set(self.colors))

    def to_json(self) -> dict:
        return {"palette": self.palette, "colors": list(self.colors)}


def is_proper(g: FiniteGraph, coloring: Coloring) -> bool:
    """True iff no edge of g is monochromatic under the coloring.

    Each edge is checked once, from its lower end: a vertex's neighbor
    tuple is sorted, so the walk down it stops at the first neighbor below
    the vertex.
    """
    cols = coloring.colors
    if len(cols) != g.n:
        raise InputError(
            f"coloring covers {len(cols)} vertices, graph has {g.n}"
        )
    for u, nbrs in enumerate(g.adj):
        cu = cols[u]
        for v in reversed(nbrs):
            if v < u:
                break
            if cols[v] == cu:
                return False
    return True


class Budget:
    """Search budget: wall-clock milliseconds and/or a node cap.

    Node counting is deterministic; the millisecond limit is checked every
    few thousand nodes so light runs never pay for a clock read.  Searches
    charge nodes ahead (`_run`): no caller may share a budget with a search
    that is still running.
    """

    CHECK_EVERY = 4096

    def __init__(self, ms: Optional[float] = None, max_nodes: Optional[int] = None):
        if ms is not None and not (isinstance(ms, (int, float)) and 0 <= ms < math.inf):
            raise InputError(f"budget must be a finite, nonnegative number of ms, got {ms!r}")
        if max_nodes is not None and (type(max_nodes) is not int or max_nodes < 0):
            raise InputError(f"node budget must be a nonnegative int, got {max_nodes!r}")
        self.ms = ms
        self.max_nodes = max_nodes
        self.nodes = 0
        self._deadline = time.monotonic() + ms / 1000.0 if ms is not None else None

    def spend(self, what: str = "search"):
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise UndecidedError(f"{what}: node budget exhausted")
        if self._deadline is not None and self.nodes % self.CHECK_EVERY == 0:
            self.check_clock(what)

    def check_clock(self, what: str = "search"):
        """Raise once the time limit has passed; charges no node."""
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise UndecidedError(f"{what}: time budget exhausted")

    def share(self, parts: int) -> "Budget":
        """A fresh time budget of 1/parts of the time left before this
        one's deadline, or of 0 ms once it has passed; unlimited when this
        one has no time limit."""
        if self._deadline is None:
            return Budget()
        return Budget(ms=max(0.0, 1000 * (self._deadline - time.monotonic()) / parts))

    def _run(self, what: str, lower: Optional[int] = None) -> int:
        """Spend a node (an UndecidedError carries `lower`), then charge and
        return the longest run of further nodes that reaches neither
        `max_nodes` nor a clock read; the caller gives back what is left."""
        try:
            self.spend(what)
        except UndecidedError as exc:
            exc.lower = lower
            raise
        run = self.CHECK_EVERY - 1 - self.nodes % self.CHECK_EVERY
        if self.max_nodes is not None:
            run = min(run, self.max_nodes - self.nodes)
        self.nodes += run
        return run


def _degree_classes(g: FiniteGraph) -> list[int]:
    """The vertices of each degree as bitmasks, highest degree first; empty
    when the graph is regular.  DSATUR breaks its last ties among tight
    vertices by this static degree, where Brelaz (1979) compares degrees
    in the uncolored subgraph."""
    degrees = list(map(len, g.adj))
    if not degrees or min(degrees) == max(degrees):
        return []
    by_degree: dict[int, int] = {}
    for v, d in enumerate(degrees):
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    return [by_degree[d] for d in sorted(by_degree, reverse=True)]


def _shift_saturation(level: list[int], newly: int, s: int, step: int):
    """Move the vertices of `newly` one saturation level up (step 1, none
    above level s) or down (step -1, s = 1, none on level 0), in place."""
    while newly:
        x = level[s] & newly
        if x:
            level[s] ^= x
            level[s + step] |= x
            newly ^= x
        s -= step


# -- enumeration -------------------------------------------------------------

# How far back, in vertex order, an earlier neighbor counts as near: the
# enumeration reads a near neighbor's color at every node, and folds a far
# one's once per subtree (see `enumerate_colorings`).
_NEAR = 6


def enumerate_colorings(
    g: FiniteGraph,
    palette: int,
    visitor: Optional[Callable[..., None]] = None,
    *,
    canonical: bool = False,
    lines: Optional[Sequence[tuple[int, ...]]] = None,
    budget: Optional[Budget] = None,
) -> int:
    """Visit every proper coloring with the given palette available.

    Colors may go unused.  Enumeration assigns vertices 0..n-1 in order and
    colors in ascending order, so the visit sequence is deterministic and
    lexicographic.  Returns the total count, or the count so far when the
    visitor raises StopEnumeration.

    canonical restricts each vertex to used colors plus the single lowest
    unused one, enumerating exactly one representative per
    color-permutation class.

    The walk keeps an explicit stack (one mask of colors still to try per
    depth), so its depth is not bounded by the interpreter's recursion
    limit; the last vertex's colors are walked in one loop, a leaf each.
    A vertex's earlier neighbors split at `_NEAR` indices back.  The near
    ones are read at the vertex's own depth.  The far ones are all colored
    `_NEAR` levels higher up, so the node at depth j folds the colors of
    vertex j+_NEAR's far neighbors into that vertex's banned mask once,
    for every node below it to read: where the tree widens with depth,
    most neighbors are read once per subtree, not once per node.  Each
    search node, leaves included, spends one budget unit, charged in
    runs; when the budget runs out, the UndecidedError raised carries the
    count of colorings visited so far as its lower bound.

    lines, when given, is a sequence of nonempty tuples of distinct
    vertices, and the visitor takes a second argument: the bitmask of the
    lines (bit i for lines[i]) whose colors are pairwise distinct.  Each
    color the next-to-last vertex of a line takes folds the colors of all
    but its last vertex into one mask, -1 when one repeats, for the whole
    subtree below, as far neighbors are folded; each color the last
    vertex then takes marks the line distinct iff it is not in that mask.
    Only the vertices where a line ends carry the bitmask down, each from
    the line end before it; a vertex that ends or folds no line costs
    one list read.  The tree, the visit order, the count and the budget
    charges are those of the call without lines.
    """
    if palette < 1:
        raise InputError(f"palette must be >= 1, got {palette}")
    n = g.n
    if lines and any(not line or len(set(line)) < len(line) or min(line) < 0 or max(line) >= n for line in lines):
        raise InputError("lines must be nonempty tuples of distinct vertices of the graph")
    if n == 0:
        if visitor is not None:
            try:
                visitor(()) if lines is None else visitor((), 0)
            except StopEnumeration:
                pass
        return 1
    near = [tuple(w for w in g.adj[v] if v - _NEAR <= w < v) for v in range(n)]
    # ahead[j]: the far earlier neighbors of vertex j+_NEAR, all colored at depth j
    ahead = [
        tuple(w for w in g.adj[j + _NEAR] if w < j) if j + _NEAR < n else () for j in range(n)
    ]
    farban = [0] * n
    # Per vertex j: folds[j] holds (i, pre) for the lines i whose vertices
    # but the last, pre, end at j; ends[j] holds (1 << i, i) for the lines
    # i that end at j; back[j] is the last line end before j, or -1, whose
    # slot in `seen` stays 0.
    folds: list[list] = [[] for _ in range(n)]
    ends: list[list] = [[] for _ in range(n)]
    for i, line in enumerate(lines or ()):
        *pre, end = sorted(line)
        if pre:
            folds[pre[-1]].append((i, tuple(pre)))
        ends[end].append((1 << i, i))
    marked = [bool(f or e) for f, e in zip(folds, ends)]
    back = [-1] * n
    for j in range(1, n):
        back[j] = j - 1 if ends[j - 1] else back[j - 1]
    folded = [0] * len(lines or ())  # per line, its pre's colors, or -1
    seen = [0] * (n + 1)  # per line end, the distinct lines so far
    full = (1 << (palette + 1)) - 2
    color_of = {1 << c: c for c in range(1, palette + 1)}
    # caps[d]: the colors vertex d may take at all.  Canonically that is
    # 1..max_used+1, grown as each vertex is colored.
    caps = [full] * n
    if canonical:
        caps[0] = 0b10
    assign = [0] * n
    bits = [0] * n
    todo = [0] * n
    count = 0
    d = 0
    last = n - 1
    run = -1 if budget is None else 0  # nodes charged ahead; -1 never runs out
    try:
        while True:
            if run:
                run -= 1
            else:
                run = budget._run("enumerate_colorings", count)
            fold = ahead[d]
            if fold:
                banned = 0
                for w in fold:
                    banned |= bits[w]
                farban[d + _NEAR] = banned
            banned = farban[d]
            for w in near[d]:
                banned |= bits[w]
            free = caps[d] & ~banned
            if d == last:
                # one leaf per free color of the last vertex
                above = seen[back[d]]
                while free:
                    if run:
                        run -= 1
                    else:
                        run = budget._run("enumerate_colorings", count)
                    bit = free & -free
                    free ^= bit
                    assign[d] = color_of[bit]
                    count += 1
                    if visitor is not None:
                        try:
                            if lines is None:
                                visitor(tuple(assign))
                            else:
                                distinct = above
                                for lbit, i in ends[d]:
                                    if not folded[i] & bit:
                                        distinct |= lbit
                                visitor(tuple(assign), distinct)
                        except StopEnumeration:
                            return count
            while not free:
                if d == 0:
                    return count
                d -= 1
                free = todo[d]
            bit = free & -free
            todo[d] = free ^ bit
            bits[d] = bit
            assign[d] = color_of[bit]
            if marked[d]:
                distinct = seen[back[d]]
                for lbit, i in ends[d]:
                    if not folded[i] & bit:
                        distinct |= lbit
                seen[d] = distinct
                for i, pre in folds[d]:
                    mask = 0
                    for w in pre:
                        mask |= bits[w]
                    folded[i] = mask if mask.bit_count() == len(pre) else -1
            d += 1
            if canonical:
                caps[d] = (caps[d - 1] | bit << 1) & full
    finally:
        if run > 0:
            budget.nodes -= run


# -- decision search ---------------------------------------------------------


def find_coloring(
    g: FiniteGraph,
    palette: int,
    constraints: Optional[dict[int, int]] = None,
    *,
    budget: Optional[Budget] = None,
) -> Optional[Coloring]:
    """A proper coloring extending the constraints, or None if none exists.

    Complete search: a None answer is a proof of non-existence (subject to
    the budget; running out raises UndecidedError).  Vertex selection is
    DSATUR: highest saturation (colors banned on it), then tight vertices
    (no two colored neighbors share a color), then highest degree, then
    lowest index, so results are deterministic.  A tight vertex of
    saturation s has exactly s colored neighbors, the fewest possible, so
    on a regular graph preferring it is Brelaz's (1979) rule of the most
    uncolored neighbors whenever the top level holds one.  Colors are
    tried in ascending order, and only the lowest color that neither a pin
    nor the search has used yet is ever introduced: colors no pin uses are
    interchangeable.

    The state is vertex bitmasks: per color, the uncolored vertices that
    have it banned; per saturation level, those with that many colors
    banned.  Coloring v with c moves the neighbors that lacked c up one
    level, and c is rejected when one would reach level `palette`; the
    neighbors that already had c banned stop being tight.  The pick is the
    lowest vertex of the top level's tight vertices (all of the level when
    none is tight) in their highest degree class.  The walk keeps an
    explicit stack, so the recursion limit does not bound its depth.  A
    frame holds the neighbors its color banned and those it made not
    tight, shifted down to its vertex's lowest neighbor; a backtrack
    unbans the first and moves them back down a level in place, and makes
    the second tight again.  With more colors than the largest degree no
    frame is kept.  Each search node spends one budget unit, charged in
    node runs.
    """
    if palette < 1:
        raise InputError(f"palette must be >= 1, got {palette}")
    n = g.n
    if n == 0:
        return Coloring((), palette)
    constraints = constraints or {}
    for v, c in constraints.items():
        if not (0 <= v < n):
            raise InputError(f"constrained vertex {v} out of range")
        if not (1 <= c <= palette):
            raise InputError(f"constraint color {c} outside palette {palette}")
    return _dsatur(g, palette, constraints, budget)


def _dsatur(
    g: FiniteGraph, palette: int, constraints: dict[int, int], budget: Optional[Budget]
) -> Optional[Coloring]:
    """The search behind `find_coloring`, which checks its arguments."""
    n = g.n
    # seed pinned vertices first; a contradiction among them is final
    adj = g.neighbor_masks()
    assign = [0] * n
    ban = [0] * (palette + 1)
    uncolored = (1 << n) - 1
    used = 0
    # tight, read on uncolored vertices: no two colored neighbors share a color
    tight = uncolored
    for v, c in sorted(constraints.items()):
        if ban[c] >> v & 1:
            return None
        assign[v] = c
        used |= 1 << c
        uncolored ^= 1 << v
        tight &= ~(adj[v] & ban[c])
        ban[c] |= adj[v]
    level = [uncolored] + [0] * palette
    for banned in ban:
        _shift_saturation(level, banned & uncolored, palette - 1, 1)

    full = (1 << (palette + 1)) - 2
    dead = palette - 1
    classes = _degree_classes(g)
    low = [nbrs[0] if nbrs else 0 for nbrs in g.adj]  # adjacency is sorted
    # one frame per colored vertex: what it needs to undo its color and
    # try the next one; none when no vertex can run out of colors
    stack: list[tuple] = []
    keep = palette <= max(map(len, g.adj), default=0)
    s = palette
    run = -1 if budget is None else 0  # nodes charged ahead; -1 never runs out
    try:
        while True:
            if run:
                run -= 1
            else:
                run = budget._run("find_coloring")
            if not uncolored:
                return Coloring(tuple(assign), palette)
            while not level[s]:
                s -= 1
            pick = level[s]
            if pick & tight:
                pick &= tight
            for same_degree in classes:
                if pick & same_degree:
                    pick &= same_degree
                    break
            vbit = pick & -pick
            level[s] ^= vbit
            uncolored ^= vbit
            v = vbit.bit_length() - 1
            nbrs = adj[v]
            spare = ~used & full
            todo = used | spare & -spare
            # try the next color of v, backtracking while none is left
            while True:
                while todo:
                    bit = todo & -todo
                    todo ^= bit
                    c = bit.bit_length() - 1
                    banned = ban[c]
                    if banned & vbit:
                        continue
                    newly = nbrs & uncolored & ~banned
                    if not newly & level[dead]:
                        break
                else:
                    if not stack:
                        return None
                    uncolored |= vbit
                    level[s] |= vbit
                    v, s, todo, used, c, newly, lost = stack.pop()
                    vbit = 1 << v
                    nbrs = adj[v]
                    newly <<= low[v]
                    ban[c] ^= newly
                    tight |= lost << low[v]
                    _shift_saturation(level, newly, 1, -1)
                    continue
                break
            lost = tight & nbrs & banned
            tight ^= lost
            if keep:
                stack.append((v, s, todo, used, c, newly >> low[v], lost >> low[v]))
            assign[v] = c
            used |= bit
            ban[c] = banned | newly
            _shift_saturation(level, newly, s, 1)
            s += 1
    finally:
        if run > 0:
            budget.nodes -= run


# -- bounds and the chromatic number ------------------------------------------


def greedy_clique(g: FiniteGraph) -> list[int]:
    """A maximal clique found greedily from high-degree seeds (lower bound).

    Vertices are taken by highest degree, then lowest index.  From each of
    the first 24, the clique grows by the first vertex in that order that
    is adjacent to all its members; only those common neighbors are
    walked, one degree class at a time."""
    masks = g.neighbor_masks()
    classes = _degree_classes(g) or [(1 << g.n) - 1]
    seeds: list[int] = []
    for cls in classes:
        while cls and len(seeds) < 24:
            bit = cls & -cls
            seeds.append(bit.bit_length() - 1)
            cls ^= bit
    best: list[int] = []
    for seed in seeds:
        clique = [seed]
        inter = masks[seed]
        for cls in classes:
            cand = inter & cls
            while cand:
                v = (cand & -cand).bit_length() - 1
                clique.append(v)
                inter &= masks[v]
                cand &= inter
        if len(clique) > len(best):
            best = clique
    return sorted(best)


def dsatur_greedy(g: FiniteGraph) -> Coloring:
    """Greedy saturation-order coloring; an upper-bound witness: the search
    with one color more than the largest degree, which cannot backtrack,
    so each vertex takes its lowest free color."""
    found = _dsatur(g, max(map(len, g.adj), default=0) + 1, {}, None)
    return Coloring(found.colors, max(found.colors, default=1))


@dataclass
class ChiResult:
    """Outcome of a chromatic-number computation: proven bounds, witness."""

    lower: int
    upper: int
    witness: Optional[Coloring]
    undecided: bool
    nodes: int = 0

    @property
    def value(self) -> Optional[int]:
        return self.lower if not self.undecided and self.lower == self.upper else None


def chromatic_info(g: FiniteGraph, budget: Optional[Budget] = None) -> ChiResult:
    """Exact chromatic number with proven bounds; tri-state under budget."""
    if g.n == 0:
        raise InputError("chromatic number of the empty graph is undefined")
    if g.edge_count == 0:
        cols = Coloring((1,) * g.n, 1)
        return ChiResult(1, 1, cols, False)
    lower = max(2, len(greedy_clique(g)))
    witness = dsatur_greedy(g)
    upper = witness.palette
    budget = budget or Budget()
    try:
        p = lower
        while p < upper:
            found = find_coloring(g, p, budget=budget)
            if found is not None:
                witness, upper = found, p
                break
            lower = p + 1
            p += 1
    except UndecidedError:
        return ChiResult(lower, upper, witness, True, budget.nodes)
    return ChiResult(lower, upper, witness, False, budget.nodes)


def chromatic_number(g: FiniteGraph, budget: Optional[Budget] = None) -> int:
    """Exact chromatic number; raises UndecidedError if the budget runs out."""
    result = chromatic_info(g, budget)
    if result.undecided:
        raise UndecidedError(
            f"chromatic number undecided at budget: in [{result.lower}, {result.upper}]",
            lower=result.lower,
            upper=result.upper,
        )
    assert result.value is not None
    return result.value
