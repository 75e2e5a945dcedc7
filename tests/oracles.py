"""Graph predicates, the two-sided properness scan, set-based references
for the bitmask traversals and the separator search, grid-shape
classifiers, the coordinate colorings of the grid, a reference graph
builder, a two-layer walk of the invariance check, the key-list DSATUR solver, the full-scan greedy clique, a
recursive reference enumerator of proper colorings, seeded
random line instances and an instance serializer the test suites use as
oracles.

Nothing in the package needs them, so they live with the tests.
"""

import functools
import itertools
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Optional

from gridchroma.chi import Budget, Coloring, enumerate_colorings, is_proper
from gridchroma.errors import InputError, InvariantViolation
from gridchroma.graphs import FiniteGraph, components, mask_vertices
from gridchroma import grid
from gridchroma.grid import HORIZONTAL, VERTICAL, _orientation_flags, grid_graph
from gridchroma.groups import GroupElement
from gridchroma.instances import CYCLE, SEGMENT, LineInstance

SINGLETON = "singleton"
NOT_INDEPENDENT = "not-independent"


def edge_scan_is_proper(g: FiniteGraph, coloring: Coloring) -> bool:
    """True iff no edge is monochromatic: the two-sided scan that visits
    every edge from both of its ends and checks it from the lower one,
    which `is_proper`'s one-sided walk must agree with."""
    cols = coloring.colors
    if len(cols) != g.n:
        raise InputError(f"coloring covers {len(cols)} vertices, graph has {g.n}")
    for u in range(g.n):
        cu = cols[u]
        for v in g.adj[u]:
            if v > u and cols[v] == cu:
                return False
    return True


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


def distinct_vertex_sets(masks) -> set[frozenset[int]]:
    """The vertex sets of the given bitmasks, which must all differ."""
    out = {frozenset(mask_vertices(mask)) for mask in masks}
    assert len(out) == len(masks), "a vertex set is listed twice"
    return out


@functools.lru_cache(maxsize=256)
def _three_copies(inst: LineInstance, rot: int):
    """(graph, left end, right end) of three copies of a cycle instance
    opened just before block rot: vertex v of copy c is c*n + v, and the
    ends are block rot of copy 0 and block rot-1 of copy 2.  Built from the
    edge list, once per instance and rotation."""
    g, n, m = inst.graph, inst.graph.n, inst.block_count
    edges = []
    for u, v in g.edges():
        ru = (inst.block_of(u) - rot) % m
        rv = (inst.block_of(v) - rot) % m
        if abs(ru - rv) <= 1:
            edges += [(c * n + u, c * n + v) for c in range(3)]
        else:
            x, y = (u, v) if ru == m - 1 else (v, u)
            edges += [(c * n + x, (c + 1) * n + y) for c in range(2)]
    left = frozenset(v for v in range(n) if (inst.block_of(v) - rot) % m == 0)
    right = frozenset(2 * n + v for v in range(n) if (inst.block_of(v) - rot) % m == m - 1)
    return FiniteGraph(3 * n, edges), left, right


def set_based_divides_into_two(inst, cut):
    """The cut test as a set-based component search on an explicitly built
    unrolled graph: the reference the bitmask test must agree with."""
    cut_set = set(cut)
    g, n, m = inst.graph, inst.graph.n, inst.block_count
    if inst.mode == SEGMENT:
        graph, removed = g, cut_set
        left, right = set(inst.blocks[0]), set(inst.blocks[-1])
    else:
        touched = {inst.block_of(v) for v in cut_set}
        if len(touched) == m:
            return False
        rot = next(
            (t + 1) % m for t in range(m)
            if t not in touched and (t + 1) % m in touched
        )
        graph, left, right = _three_copies(inst, rot)
        removed = {n + v for v in cut_set}
    comps = components(graph, set(range(graph.n)) - removed)
    touching_left = [i for i, c in enumerate(comps) if (left - removed) & set(c)]
    touching_right = [i for i, c in enumerate(comps) if (right - removed) & set(c)]
    return (
        len(touching_left) == 1
        and len(touching_right) == 1
        and touching_left != touching_right
    )


def random_line_instance(seed, mode):
    """A connected instance with blocks of 1..3 vertices and random edges
    inside and between consecutive blocks."""
    rng = random.Random(seed)
    while True:
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(4, 6))]
        starts = list(itertools.accumulate([0] + sizes))
        blocks = tuple(tuple(range(starts[i], starts[i + 1])) for i in range(len(sizes)))
        pairs = [(i, i) for i in range(len(blocks))]
        pairs += [(i, i + 1) for i in range(len(blocks) - 1)]
        if mode == CYCLE:
            pairs.append((len(blocks) - 1, 0))
        edges = {
            (min(u, v), max(u, v))
            for i, j in pairs
            for u in blocks[i]
            for v in blocks[j]
            if u != v and rng.random() < 0.5
        }
        g = FiniteGraph(starts[-1], edges)
        if len(components(g)) == 1:
            return LineInstance(g, blocks, mode)


def triangle_gap_instance() -> LineInstance:
    """A 13-block path segment whose block 3 also holds a triangle on its
    vertex 3, declared 2-chromatic.  Its separators [1], [5] and [9] have
    2-colorable hulls, and the triangle falls in the complement piece
    between the first two."""
    edges = [(i, i + 1) for i in range(12)] + [(3, 13), (3, 14), (13, 14)]
    blocks = tuple((3, 13, 14) if i == 3 else (i,) for i in range(13))
    return LineInstance(FiniteGraph(15, edges), blocks, SEGMENT, 2)


def separator_windows(inst: LineInstance, window_blocks: int):
    """The vertex lists of the separator search's windows, leftmost first."""
    m = inst.block_count
    if inst.mode == CYCLE:
        starts = range(m)
        width = min(window_blocks, m - 1)
    else:
        starts = range(max(1, m - window_blocks + 1))
        width = window_blocks
    return [inst.window_vertices(start, width) for start in starts]


def set_based_find_separators(
    inst: LineInstance, window_blocks: int, size_cap: int
) -> list[frozenset[int]]:
    """The eager separator search over Python sets: each window's connected
    subsets in lexicographic order, a set of the frozensets already tested
    across overlapping windows, and the set-based cut test.  Of the cuts it
    finds, in that order, it keeps each at path distance >= 4 from every
    cut kept before it: the family the lazy bitmask search must select."""
    seen: set[frozenset[int]] = set()
    out = []
    for window in separator_windows(inst, window_blocks):
        for cand in set_based_connected_subsets(inst.graph, window, size_cap):
            if cand in seen:
                continue
            seen.add(cand)
            if set_based_divides_into_two(inst, cand) and all(
                set_based_set_distance(inst.graph, cand, member) >= 4 for member in out
            ):
                out.append(cand)
    return out


def set_based_separator_family(
    inst: LineInstance, window_blocks: int, size_cap: int
) -> list[frozenset[int]]:
    """The family `set_based_find_separators` keeps, found without
    cut-testing a candidate it would drop: each window's connected subsets
    in lexicographic order, the ones at path distance >= 4 from every
    member kept before them set-based cut-tested, and each hit kept.  A
    long cycle makes the full search too slow for a test run, since it
    cut-tests every candidate."""
    g = inst.graph
    out, near = [], set()
    for window in separator_windows(inst, window_blocks):
        for cand in set_based_connected_subsets(g, window, size_cap):
            if not cand & near and set_based_divides_into_two(inst, cand):
                out.append(cand)
                # the vertices at distance <= 3 from the new member
                ball = set(cand)
                for _ in range(3):
                    ball |= {w for v in ball for w in g.adj[v]}
                near |= ball
    return out


def hit_free_walk(inst: LineInstance, window_blocks: int, size_cap: int) -> list[bool]:
    """The steps of the separator search's walk on a search that finds no
    cut, in order: per window, each sorted tuple of its vertices of size
    1..size_cap whose prefix without its last vertex, when there is one,
    can be joined through itself plus the window vertices above that
    prefix's last one.  Each step is True when its tuple is connected and
    lies in no earlier window, so cut-tested."""
    g = inst.graph

    def joinable(prefix, window):
        allowed = set(prefix) | {v for v in window if v > prefix[-1]}
        reach, todo = {prefix[0]}, [prefix[0]]
        while todo:
            for w in g.adj[todo.pop()]:
                if w in allowed and w not in reach:
                    reach.add(w)
                    todo.append(w)
        return reach >= set(prefix)

    steps = []
    earlier: list[set[int]] = []
    for window in separator_windows(inst, window_blocks):
        tuples = sorted(
            t
            for size in range(1, size_cap + 1)
            for t in itertools.combinations(sorted(window), size)
        )
        steps.extend(
            is_connected_set(g, t) and not any(before >= set(t) for before in earlier)
            for t in tuples
            if len(t) == 1 or joinable(t[:-1], window)
        )
        earlier.append(set(window))
    return steps


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
    pairs and, to the level above (wrapping when cyclic), of the cross
    pairs, handed to the edge-list constructor.  The pairs are read off
    `grid.generators` and `grid.multiply` at level 0, not taken from
    `grid._templates`."""
    k = spec.k
    kk = k * k
    intra, cross = set(), set()
    for s in grid.generators(spec):
        for a in range(k):
            for b in range(k):
                y = grid.multiply(spec, s, GroupElement(a, b, 0))
                u, v = a * k + b, y.a * k + y.b
                if y.n == 0:
                    intra.add((u, v))
                elif y.n == 1:
                    cross.add((u, v))
                else:  # y lies one level below, so the cell lies one above y
                    cross.add((v, u))
    edges = []
    for n in range(levels):
        base = n * kk
        edges.extend((base + u, base + v) for u, v in intra)
        if cyclic or n + 1 < levels:
            up = (n + 1) % levels * kk
            edges.extend((base + u, up + v) for u, v in cross)
    return FiniteGraph(levels * kk, edges)


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


def distinct_lines(lines, cols) -> int:
    """The bitmask of the lines (bit i for lines[i]) whose colors under
    `cols` are pairwise distinct, by a set per line: the mask
    `enumerate_colorings` reports for `lines`."""
    return sum(1 << i for i, line in enumerate(lines) if len({cols[v] for v in line}) == len(line))


def walked_invariance(k: int, twisted: bool) -> "grid.VerificationReport":
    """The full invariance report by a walk over every proper (2k-2)-
    coloring of the two-orbit graph, one visit each: a pair's layers are
    classified by `grid._orientation_flags` as it stands at call time, so
    a replaced one is followed."""
    report = grid.VerificationReport(
        "invariance", {"k": k, "twisted": twisted, "palette": 2 * k - 2, "canonical": False}
    )
    kk = k * k

    def visit(cols: tuple[int, ...]):
        h0, v0 = grid._orientation_flags(k, cols[:kk])
        h1, v1 = grid._orientation_flags(k, cols[kk:])
        if h0 == v0 or h1 == v1:
            report.record_violation({"coloring": list(cols), "reason": "layer escaped the dichotomy"})
        elif (h0 == h1) == twisted:
            report.record_violation(
                {
                    "coloring": list(cols),
                    "layer0": HORIZONTAL if h0 else VERTICAL,
                    "layer1": HORIZONTAL if h1 else VERTICAL,
                }
            )

    report.count = enumerate_colorings(grid.two_orbit_graph(k, twisted), 2 * k - 2, visit)
    return report


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
# one integer key per vertex, and one banned color mask per vertex updated
# neighbor by neighbor.  Each pick recounts the colored neighbors of every
# uncolored vertex to rank the tight ones.  Unpinned, the bitmask search must
# match it witness for witness and node for node.  Pinned, it breaks no color
# symmetry, so it may only spend more nodes.


def _dsatur_keys(g: FiniteGraph, assign: list[int], banned: list[int]) -> tuple[list[int], int]:
    """One integer per vertex ordering the DSATUR choice by highest
    saturation (number of colors banned on it), then highest degree, then
    lowest index: saturation*step + degree*n + (n-1-v); a colored vertex
    holds -1.  Returns the keys and step, the amount a key gains with each
    newly banned color; `_pick` adds half a step to tight vertices."""
    n = g.n
    degrees = [len(a) for a in g.adj]
    step = 2 * (max(degrees, default=0) + 1) * n
    key = [
        -1 if assign[v] else banned[v].bit_count() * step + degrees[v] * n + n - 1 - v
        for v in range(n)
    ]
    return key, step


def _pick(g: FiniteGraph, assign: list[int], banned: list[int], key: list[int], step: int) -> int:
    """The uncolored vertex of highest key, where a tight vertex (as many
    colored neighbors as banned colors: no two share a color) gains half a
    step, so tightness ranks below saturation and above degree.  The
    colored neighbors are recounted at every pick."""

    def rank(v):
        if key[v] < 0:
            return -1
        colored = sum(1 for w in g.adj[v] if assign[w])
        return key[v] + (colored == banned[v].bit_count()) * (step // 2)

    return max(range(g.n), key=rank)


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
        v = _pick(g, assign, banned, key, step)
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
        best = _pick(g, assign, banned, key, step)
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


def scan_greedy_clique(g: FiniteGraph) -> list[int]:
    """The greedy clique by a full scan: every vertex, in order of highest
    degree then lowest index, is tested against the common neighbors of
    the clique so far, from each of the first 24 as a seed."""
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


def recursive_enumeration(
    g: FiniteGraph,
    palette: int,
    canonical: bool = False,
    max_nodes: Optional[int] = None,
) -> tuple[list[tuple[int, ...]], int, bool]:
    """The colorings `enumerate_colorings` visits, by plain recursion over
    color sets: (the colorings in visit order, the nodes spent, whether the
    node limit stopped the walk).

    A node is spent on every partial coloring of vertices 0..d-1 reached,
    the empty one included, for d < n, and on every complete coloring,
    just before it is visited; the walk stops at the node past
    `max_nodes`.  A vertex takes, in ascending order, the colors of
    1..palette that no earlier neighbor holds, and canonically none above
    one past the largest color so far.  Needs at least one vertex."""
    n = g.n
    earlier = [{w for w in g.adj[v] if w < v} for v in range(n)]
    seen: list[tuple[int, ...]] = []
    nodes = 0

    class Stop(Exception):
        pass

    def spend():
        nonlocal nodes
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise Stop

    def extend(cols: tuple[int, ...]):
        spend()
        v = len(cols)
        taken = {cols[w] for w in earlier[v]}
        top = max(cols, default=0) + 1 if canonical else palette
        for c in range(1, min(top, palette) + 1):
            if c in taken:
                continue
            if v == n - 1:
                spend()
                seen.append(cols + (c,))
            else:
                extend(cols + (c,))

    try:
        extend(())
    except Stop:
        return seen, nodes, True
    return seen, nodes, False
