"""Graph predicates, set-based references for the bitmask traversals,
grid-shape classifiers, the coordinate colorings of the grid, a reference
graph builder, the key-list DSATUR solver and an instance serializer the
test suites use as oracles.

Nothing in the package needs them, so they live with the tests.
"""

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

from gridchroma.chi import Budget, Coloring, is_proper
from gridchroma.errors import InputError, InvariantViolation
from gridchroma.graphs import FiniteGraph, components
from gridchroma import grid
from gridchroma.grid import HORIZONTAL, VERTICAL, _orientation_flags, grid_graph
from gridchroma.instances import LineInstance

SINGLETON = "singleton"
NOT_INDEPENDENT = "not-independent"


def is_regular(g: FiniteGraph, d: int) -> bool:
    """True iff every vertex has exactly d neighbors."""
    return all(len(a) == d for a in g.adj)


def is_independent(g: FiniteGraph, vertices) -> bool:
    """True iff no edge joins two members of the set."""
    vs = set(vertices)
    return not any(w in vs for v in vs for w in g.adj[v])


def is_connected_set(g: FiniteGraph, vertices) -> bool:
    """True iff the set is non-empty and induces a connected subgraph."""
    vs = set(vertices)
    return bool(vs) and len(components(g, vs)) == 1


def set_based_connected_subsets(g: FiniteGraph, vertices, max_size: int):
    """Every connected subset of the given vertices with size <= max_size,
    sorted lexicographically: the extension walk over Python sets that the
    bitmask enumeration must agree with, list for list."""
    allowed = set(vertices)
    out = []
    for root in sorted(allowed):
        ext0 = sorted(u for u in g.adj[root] if u > root and u in allowed)
        stack = [({root}, ext0, {root} | set(ext0))]
        while stack:
            sub, ext, sub_reach = stack.pop()
            out.append(frozenset(sub))
            if len(sub) == max_size:
                continue
            while ext:
                w = ext.pop(0)
                fresh = [
                    u
                    for u in g.adj[w]
                    if u > root and u in allowed and u not in sub_reach
                ]
                stack.append(
                    (sub | {w}, ext + sorted(fresh), sub_reach | {w} | set(fresh))
                )
    return sorted(out, key=lambda s: tuple(sorted(s)))


def _check_vertex(g: FiniteGraph, v):
    if not isinstance(v, int) or not (0 <= v < g.n):
        raise InputError(f"vertex {v!r} out of range for {g.n} vertices")


def set_based_set_distance(g: FiniteGraph, a, b) -> float:
    """Minimum path distance over pairs in A x B, INF when disconnected:
    the multi-source breadth-first search over Python sets and a deque
    that the bitmask layer walk must agree with."""
    a_set = set(a)
    b_set = set(b)
    if not a_set or not b_set:
        raise InputError("set_distance requires non-empty vertex sets")
    for v in a_set | b_set:
        _check_vertex(g, v)
    if a_set & b_set:
        return 0
    seen = set(a_set)
    frontier = deque((v, 0) for v in sorted(a_set))
    while frontier:
        x, d = frontier.popleft()
        for w in g.adj[x]:
            if w in b_set:
                return d + 1
            if w not in seen:
                seen.add(w)
                frontier.append((w, d + 1))
    return math.inf


def set_based_components(g: FiniteGraph, restrict_to=None) -> list[list[int]]:
    """Connected components of the induced subgraph as sorted lists,
    ordered by smallest vertex: the breadth-first search over Python sets
    and a deque that the bitmask reach must agree with."""
    if restrict_to is None:
        allowed = None
        universe = range(g.n)
    else:
        allowed = set(restrict_to)
        for v in allowed:
            _check_vertex(g, v)
        universe = sorted(allowed)
    seen: set[int] = set()
    out: list[list[int]] = []
    for start in universe:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for w in g.adj[x]:
                if w in seen or (allowed is not None and w not in allowed):
                    continue
                seen.add(w)
                comp.append(w)
                queue.append(w)
        out.append(sorted(comp))
    return out


def edge_list_layer_graph(spec, levels: int, cyclic: bool = False) -> FiniteGraph:
    """A tower graph from its edge list: each level's copy of the intra
    template and, to the level above (wrapping when cyclic), of the cross
    template, handed to the edge-list constructor."""
    intra, cross, _ = grid._templates(spec, grid.multiply)
    k = spec.k
    kk = k * k
    edges = []
    for n in range(levels):
        base = n * kk
        edges.extend((base + u, base + v) for u, v in intra)
        if cyclic or n + 1 < levels:
            up = (n + 1) % levels * kk
            edges.extend((base + u, up + v) for u, v in cross)
    labels = [(a, b, n) for n in range(levels) for a in range(k) for b in range(k)]
    return FiniteGraph(levels * kk, edges, labels)


@dataclass(frozen=True)
class Classification:
    """Shape of an independent set: singleton, horizontal(b), vertical(a)."""

    kind: str
    index: Optional[int] = None


def classify_independent_set(k: int, vertices) -> Classification:
    """Classify a non-empty set of cells a*k+b of the k x k grid graph.

    Size >= 2 independent sets always sit inside exactly one row or one
    column; the classification carries the witnessing index.
    """
    vs = sorted(set(vertices))
    if not vs:
        raise InputError("cannot classify the empty set")
    cells = [divmod(v, k) for v in vs]
    for i, (a, b) in enumerate(cells):
        for a2, b2 in cells[i + 1 :]:
            if a != a2 and b != b2:
                return Classification(NOT_INDEPENDENT)
    if len(vs) == 1:
        return Classification(SINGLETON)
    a_values = {a for a, _ in cells}
    b_values = {b for _, b in cells}
    if len(b_values) == 1:
        return Classification(HORIZONTAL, b_values.pop())
    if len(a_values) == 1:
        return Classification(VERTICAL, a_values.pop())
    raise InvariantViolation(
        "independent set of size >= 2 confined to neither a row nor a column"
    )


def projection_coloring(k: int, axis: str, palette: Optional[int] = None) -> Coloring:
    """The k-coloring of the k x k grid by one coordinate (axis 'a' or 'b'),
    cell a*k+b colored a+1 or b+1; the palette may be padded above k."""
    cols = tuple((a if axis == "a" else b) + 1 for a in range(k) for b in range(k))
    return Coloring(cols, palette or k)


def orientation(k: int, coloring: Coloring) -> str:
    """Which side of the coloring dichotomy a proper (2k-2)-coloring of the
    k x k grid graph is on."""
    if coloring.palette != 2 * k - 2:
        raise InputError(
            f"orientation is defined for palette {2 * k - 2}, got {coloring.palette}"
        )
    if not is_proper(grid_graph(k), coloring):
        raise InputError("orientation requires a proper coloring")
    horiz, vert = _orientation_flags(k, coloring.colors)
    if horiz == vert:
        raise InvariantViolation(
            f"coloring dichotomy failed: horizontal={horiz}, vertical={vert}"
        )
    return HORIZONTAL if horiz else VERTICAL


def instance_to_json(inst: LineInstance) -> dict:
    """The instance document `instances.load_instance` reads."""
    doc = {
        "mode": inst.mode,
        "vertices": inst.graph.n,
        "edges": [list(e) for e in inst.graph.edges()],
        "blocks": [list(b) for b in inst.blocks],
    }
    if inst.chi is not None:
        doc["chi"] = inst.chi
    return doc


# -- the key-list DSATUR solver ------------------------------------------------
#
# The solver as it stood before its state moved to saturation-level bitmasks:
# one integer key per vertex, picked by `key.index(max(key))`, and one banned
# color mask per vertex updated neighbor by neighbor.  Unpinned, the bitmask
# search must match it witness for witness and node for node.  Pinned, it
# breaks no color symmetry, so it may only spend more nodes.


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


def key_list_find_coloring(
    g: FiniteGraph,
    palette: int,
    constraints: Optional[dict[int, int]] = None,
    budget: Optional[Budget] = None,
) -> Optional[Coloring]:
    """A proper coloring extending the constraints, or None; color symmetry
    is broken only when no vertex is pinned."""
    n = g.n
    if n == 0:
        return Coloring((), palette)
    constraints = constraints or {}
    full = (1 << (palette + 1)) - 2
    banned = [0] * n
    assign = [0] * n
    symmetry_break = not constraints
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


def key_list_dsatur_greedy(g: FiniteGraph) -> Coloring:
    """Greedy saturation-order coloring over the key list."""
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
