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

import time
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import InputError, UndecidedError
from .graphs import FiniteGraph


@dataclass(frozen=True)
class Coloring:
    """A total assignment vertex -> color in {1..palette}."""

    colors: tuple[int, ...]
    palette: int

    def __post_init__(self):
        if any(not (1 <= c <= self.palette) for c in self.colors):
            raise InputError("color out of palette range")

    @property
    def used(self) -> int:
        return len(set(self.colors))

    def to_json(self) -> dict:
        return {"palette": self.palette, "colors": list(self.colors)}


def is_proper(g: FiniteGraph, coloring: Coloring) -> bool:
    """True iff no edge of g is monochromatic under the coloring."""
    cols = coloring.colors
    if len(cols) != g.n:
        raise InputError(
            f"coloring covers {len(cols)} vertices, graph has {g.n}"
        )
    for u in range(g.n):
        cu = cols[u]
        for v in g.adj[u]:
            if v > u and cols[v] == cu:
                return False
    return True


class Budget:
    """Search budget: wall-clock milliseconds and/or a node cap.

    Node counting is deterministic; the millisecond limit is checked every
    few thousand nodes so light runs never pay for a clock read.
    """

    CHECK_EVERY = 4096

    def __init__(self, ms: Optional[float] = None, max_nodes: Optional[int] = None):
        self.ms = ms
        self.max_nodes = max_nodes
        self.nodes = 0
        self._deadline = time.monotonic() + ms / 1000.0 if ms is not None else None

    def spend(self, what: str = "search"):
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise UndecidedError(f"{what}: node budget exhausted")
        if self._deadline is not None and self.nodes % self.CHECK_EVERY == 0:
            if time.monotonic() > self._deadline:
                raise UndecidedError(f"{what}: time budget exhausted")


def _dsatur_keys(g: FiniteGraph, assign: list[int], banned: list[int]) -> tuple[list[int], int]:
    """One integer per vertex ordering the DSATUR choice (Brelaz 1979):
    highest saturation (number of colors banned on it), then highest
    degree, then lowest index.  The key is saturation*step + degree*n +
    (n-1-v), so the pick is `key.index(max(key))`; a colored vertex holds
    -1.  Returns the keys and step, the amount a key gains with each newly
    banned color."""
    n = g.n
    degrees = [len(a) for a in g.adj]
    step = (max(degrees, default=0) + 1) * n
    key = [
        -1 if assign[v] else banned[v].bit_count() * step + degrees[v] * n + n - 1 - v
        for v in range(n)
    ]
    return key, step


# -- enumeration -------------------------------------------------------------


def enumerate_colorings(
    g: FiniteGraph,
    palette: int,
    visitor: Optional[Callable[[tuple[int, ...]], None]] = None,
    *,
    base_forbidden: Optional[list[int]] = None,
    canonical: bool = False,
    budget: Optional[Budget] = None,
) -> int:
    """Visit every proper coloring with the given palette available.

    Colors may go unused.  Enumeration assigns vertices 0..n-1 in order and
    colors in ascending order, so the visit sequence is deterministic and
    lexicographic.  Returns the total count.

    base_forbidden gives a per-vertex bitmask of disallowed colors (bit c =
    color c), useful for enumerating extensions of an already-colored
    neighborhood.  canonical restricts each vertex to used colors plus the
    single lowest unused one, enumerating exactly one representative per
    color-permutation class.

    The walk keeps an explicit stack (one mask of colors still to try per
    depth), so its depth is not bounded by the interpreter's recursion
    limit.  Each search node, leaves included, spends one budget unit;
    when the budget runs out, the UndecidedError raised carries the count
    of colorings visited so far as its lower bound.
    """
    if palette < 1:
        raise InputError(f"palette must be >= 1, got {palette}")
    n = g.n
    if n == 0:
        if visitor is not None:
            visitor(())
        return 1
    forb = list(base_forbidden) if base_forbidden is not None else [0] * n
    if len(forb) != n:
        raise InputError("base_forbidden must cover every vertex")
    earlier = [tuple(w for w in g.adj[v] if w < v) for v in range(n)]
    full = (1 << (palette + 1)) - 2
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
    while True:
        if budget is not None:
            try:
                budget.spend("enumerate_colorings")
            except UndecidedError as exc:
                exc.lower = count
                raise
        if d < n:
            banned = forb[d]
            for w in earlier[d]:
                banned |= bits[w]
            todo[d] = caps[d] & ~banned
        else:
            count += 1
            if visitor is not None:
                visitor(tuple(assign))
            d = n - 1
        while not todo[d]:
            if d == 0:
                return count
            d -= 1
        bit = todo[d] & -todo[d]
        todo[d] ^= bit
        bits[d] = bit
        assign[d] = bit.bit_length() - 1
        d += 1
        if canonical and d < n:
            caps[d] = (caps[d - 1] | bit << 1) & full


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
    saturation-first with degree and index tie-breaks, so results are
    deterministic.  When no constraints are given, color symmetry is broken
    by only ever introducing the lowest unused color.

    The walk keeps an explicit stack, one frame per colored vertex, so its
    depth is not bounded by the interpreter's recursion limit.  Each search
    node spends one budget unit.
    """
    if palette < 1:
        raise InputError(f"palette must be >= 1, got {palette}")
    n = g.n
    if n == 0:
        return Coloring((), palette)
    constraints = constraints or {}
    full = 0
    for c in range(1, palette + 1):
        full |= 1 << c
    banned = [0] * n
    assign = [0] * n
    symmetry_break = not constraints

    for v, c in constraints.items():
        if not (0 <= v < n):
            raise InputError(f"constrained vertex {v} out of range")
        if not (1 <= c <= palette):
            raise InputError(f"constraint color {c} outside palette {palette}")

    # seed pinned vertices first; a contradiction among them is final
    used_mask = 0
    unassigned = n
    for v, c in sorted(constraints.items()):
        bit = 1 << c
        if banned[v] & bit:
            return None
        assign[v] = c
        used_mask |= bit
        unassigned -= 1
        for w in g.adj[v]:
            if not assign[w]:
                banned[w] |= bit

    key, step = _dsatur_keys(g, assign, banned)
    adj = g.adj
    # Per depth: the vertex, the colors still to try, the used-color mask
    # before it was colored, its key, and the neighbors that gained its
    # current color.
    verts = [0] * unassigned
    todo = [0] * unassigned
    useds = [0] * unassigned
    keys = [0] * unassigned
    touched: list[list[int]] = [[] for _ in range(unassigned)]
    used = used_mask
    d = 0
    while True:
        if budget is not None:
            budget.spend("find_coloring")
        if d == unassigned:
            return Coloring(tuple(assign), palette)
        v = key.index(max(key))
        allowed = full & ~banned[v]
        if symmetry_break:
            lowest_unused = (~used) & full
            lowest_unused &= -lowest_unused
            allowed &= used | lowest_unused
        verts[d], todo[d], useds[d], keys[d] = v, allowed, used, key[v]
        key[v] = -1
        # try the next color at depth d, backtracking while none is left
        while True:
            allowed = todo[d]
            if allowed:
                bit = allowed & -allowed
                todo[d] = allowed ^ bit
                assign[v] = bit.bit_length() - 1
                grown = touched[d] = []
                dead = False
                for w in adj[v]:
                    if not assign[w] and not banned[w] & bit:
                        banned[w] |= bit
                        key[w] += step
                        grown.append(w)
                        if banned[w] == full:
                            dead = True
                            break
                if not dead:
                    used = useds[d] | bit
                    d += 1
                    break
            else:
                assign[v] = 0
                key[v] = keys[d]
                if d == 0:
                    return None
                d -= 1
                v = verts[d]
                bit = 1 << assign[v]
            for w in touched[d]:
                banned[w] ^= bit
                key[w] -= step


# -- bounds and the chromatic number ------------------------------------------


def greedy_clique(g: FiniteGraph) -> list[int]:
    """A maximal clique found greedily from high-degree seeds (lower bound)."""
    masks = g.neighbor_masks()
    order = sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))
    best: list[int] = []
    for seed in order[:24]:
        clique = [seed]
        inter = masks[seed]
        for v in order:
            if inter >> v & 1:
                clique.append(v)
                inter &= masks[v]
        if len(clique) > len(best):
            best = clique
    return sorted(best)


def dsatur_greedy(g: FiniteGraph) -> Coloring:
    """Greedy saturation-order coloring; an upper-bound witness."""
    n = g.n
    assign = [0] * n
    banned = [0] * n
    key, step = _dsatur_keys(g, assign, banned)
    top = 1
    for _ in range(n):
        best = key.index(max(key))
        key[best] = -1
        c = 1
        while banned[best] >> c & 1:
            c += 1
        assign[best] = c
        top = max(top, c)
        bit = 1 << c
        for w in g.adj[best]:
            if not banned[w] & bit:
                banned[w] |= bit
                if not assign[w]:
                    key[w] += step
    return Coloring(tuple(assign), top)


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
