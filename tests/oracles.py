"""Graph predicates, grid-shape classifiers and a reference graph builder
the test suites use as oracles.

Nothing in the package needs them, so they live with the tests.
"""

from dataclasses import dataclass
from typing import Optional

from gridchroma.chi import Coloring, is_proper
from gridchroma.errors import InputError, InvariantViolation
from gridchroma.graphs import FiniteGraph, components
from gridchroma.grid import HORIZONTAL, VERTICAL, _orientation_flags, grid_graph, layer_templates

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


def edge_list_layer_graph(spec, levels: int, cyclic: bool = False) -> FiniteGraph:
    """A tower graph from its edge list: each level's copy of the intra
    template and, to the level above (wrapping when cyclic), of the cross
    template, handed to the edge-list constructor."""
    intra, cross = layer_templates(spec)
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
