"""Finite graph substrate: adjacency storage, distances, components.

Graphs are immutable after construction.  Vertices are the integers
0..n-1; adjacency is kept as sorted tuples (the instances here are
12-to-27-regular but can run to thousands of vertices, so lists beat
matrices).  Vertices carry no labels: `grid.cell` turns the index of a
built graph's vertex into its cell where a message or an export needs it.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import InputError

INF = math.inf

# The most edges a builder will build (about 2 GB of adjacency sets and
# tuples), and the most vertices a graph file may declare.  k=5 towers, the
# largest builds in the tests and the benchmark, stay under 40,000 edges;
# `cayley --k 50 --M 1000` would ask for about 9*10^9, the k=150 grid 2.5*10^8.
MAX_LAYER_GRAPH_EDGES = 10_000_000


def refuse_above_cap(what: str, count: int, unit: str = "edges") -> None:
    """InputError, before anything is allocated, when `what` counts more
    edges to build, or vertices declared, than MAX_LAYER_GRAPH_EDGES."""
    if count > MAX_LAYER_GRAPH_EDGES:
        raise InputError(f"{what} {count:,} {unit}, more than the cap of {MAX_LAYER_GRAPH_EDGES:,}")


class FiniteGraph:
    """Undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "adj", "_masks", "_mask_source")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        neighbor_sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for {n} vertices")
            if u == v:
                raise InputError(f"loop at vertex {u} not allowed")
            neighbor_sets[u].add(v)
            neighbor_sets[v].add(u)
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in neighbor_sets
        )
        self._masks: Optional[list[int]] = None
        self._mask_source: Optional[Callable[[], list[int]]] = None

    @classmethod
    def _from_sorted_adjacency(
        cls,
        adj: Sequence[tuple[int, ...]],
        masks: Optional[Callable[[], list[int]]] = None,
    ) -> FiniteGraph:
        """A graph from finished neighbor tuples, trusted as given: each
        sorted, loop-free, in range and symmetric.  For builders that
        produce them that way, skipping the edge list and its sets.

        `masks`, when given, computes the neighbor bitmasks of the same
        adjacency; the first `neighbor_masks` call runs it in place of one
        OR per edge, and a graph never searched never runs it."""
        g = cls.__new__(cls)
        g.n = len(adj)
        g.adj = tuple(adj)
        g._masks = None
        g._mask_source = masks
        return g

    # -- basic queries ----------------------------------------------------

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def neighbor_masks(self) -> list[int]:
        """Per-vertex adjacency bitmasks, built lazily, cached: by the
        builder's own recipe when it gave one, else one OR per edge."""
        if self._masks is None and self._mask_source is not None:
            self._masks = self._mask_source()
        if self._masks is None:
            masks = []
            for nbrs in self.adj:
                m = 0
                for w in nbrs:
                    m |= 1 << w
                masks.append(m)
            self._masks = masks
        return self._masks

    def __repr__(self):
        return f"FiniteGraph(n={self.n}, edges={self.edge_count})"


# -- distances and components ---------------------------------------------


def set_distance(g: FiniteGraph, a: Iterable[int], b: Iterable[int]) -> float:
    """Minimum path distance over pairs in A x B; INF when disconnected."""
    a_mask, b_mask = vertex_mask(g, a), vertex_mask(g, b)
    if not a_mask or not b_mask:
        raise InputError("set_distance requires non-empty vertex sets")
    # grow the ball around A one layer at a time until it meets B
    masks = g.neighbor_masks()
    ball = frontier = a_mask
    d = 0
    while frontier:
        if frontier & b_mask:
            return d
        frontier = neighbors_mask(masks, frontier) & ~ball
        ball |= frontier
        d += 1
    return INF


def components(
    g: FiniteGraph, restrict_to: Optional[Iterable[int]] = None
) -> list[list[int]]:
    """Connected components of the induced subgraph, as sorted lists.

    Components are ordered by their smallest vertex; with no restriction
    the whole vertex set is used.
    """
    allowed = (1 << g.n) - 1 if restrict_to is None else vertex_mask(g, restrict_to)
    masks = g.neighbor_masks()
    out: list[list[int]] = []
    while allowed:
        comp = reach_mask(masks, allowed & -allowed, allowed)
        allowed ^= comp
        out.append(mask_vertices(comp))
    return out


def vertex_mask(g: FiniteGraph, vertices: Iterable[int]) -> int:
    """The bitmask of the given vertices; InputError on any that is not a
    vertex of g."""
    out = 0
    for v in vertices:
        if not isinstance(v, int) or not (0 <= v < g.n):
            raise InputError(f"vertex {v!r} out of range for {g.n} vertices")
        out |= 1 << v
    return out


def mask_vertices(mask: int) -> list[int]:
    """The vertices of a bitmask, ascending: the inverse of `vertex_mask`."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def neighbors_mask(masks: Sequence[int], mask: int) -> int:
    """The union of the neighbor bitmasks of the vertices in `mask`."""
    out = 0
    while mask:
        low = mask & -mask
        out |= masks[low.bit_length() - 1]
        mask ^= low
    return out


def reach_mask(
    masks: Sequence[int], seed: int, allowed: int, stop: int = 0, reached: int = 0
) -> Optional[int]:
    """Bitmask of the vertices of `allowed` reachable from the seed bits
    through `allowed`, given per-vertex neighbor bitmasks.

    `reached` is a set already searched: it joins the reach without being
    expanded, so the seed bits must include every vertex of `allowed`
    outside it that it touches, and it must miss `stop`.  Returns None as
    soon as the reach meets `stop`, before it is complete.
    """
    frontier = seed & allowed & ~reached
    reach = frontier | reached
    unseen = allowed & ~reach
    while frontier:
        if frontier & stop:
            return None
        # `neighbors_mask` inline: a call per step here slows every cut test
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & unseen
        unseen ^= frontier
        reach |= frontier
    return reach


def induced_subgraph(
    g: FiniteGraph, vertices: Iterable[int]
) -> tuple[FiniteGraph, list[int]]:
    """Induced subgraph plus the list mapping new indices to old vertices."""
    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    # index is increasing on the sorted keep, so each tuple comes out
    # sorted; each is built from a list, since a generator per vertex
    # raised the two-ended colorer's peak RSS
    adj = [tuple([index[w] for w in g.adj[v] if w in index]) for v in keep]
    return FiniteGraph._from_sorted_adjacency(adj), keep


# -- serialization ----------------------------------------------------------


def json_int(value, what: str) -> int:
    """An integer field of a JSON document: a JSON integer, never a bool
    or a float, else InputError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def graph_to_json(g: FiniteGraph) -> dict:
    """JSON form: {"vertices": N, "edges": [[u,v],...]}."""
    return {"vertices": g.n, "edges": [list(e) for e in g.edges()]}


def graph_from_json(doc: dict) -> FiniteGraph:
    """The graph of a JSON document; a "labels" list is checked and dropped."""
    try:
        n = json_int(doc["vertices"], "vertices")
        edges = [
            (json_int(u, "edge endpoint"), json_int(v, "edge endpoint"))
            for u, v in doc["edges"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed graph document: {exc}") from exc
    labels = doc.get("labels")
    if labels is not None and not (isinstance(labels, list) and len(labels) == n):
        raise InputError("malformed graph document: labels must list one entry per vertex")
    refuse_above_cap("the graph declares", n, "vertices")
    return FiniteGraph(n, edges)


def graph_to_dimacs(g: FiniteGraph, comment: str = "") -> str:
    """DIMACS .col text: "p edge N M" header then 1-based "e u v" lines."""
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    lines.append(f"p edge {g.n} {g.edge_count}")
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def graph_from_dimacs(text: str) -> FiniteGraph:
    n = None
    edges = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) < 4 or parts[1] != "edge":
                raise InputError(f"bad DIMACS header: {line!r}")
            try:
                n = int(parts[2])
            except ValueError as exc:
                raise InputError(f"bad DIMACS header: {line!r}") from exc
            refuse_above_cap("the graph declares", n, "vertices")
        elif parts[0] == "e":
            if n is None:
                raise InputError("DIMACS edge line before header")
            try:
                edges.append((int(parts[1]) - 1, int(parts[2]) - 1))
            except (ValueError, IndexError) as exc:
                raise InputError(f"bad DIMACS edge line: {line!r}") from exc
    if n is None:
        raise InputError("missing DIMACS 'p edge' header")
    return FiniteGraph(n, edges)


def _read_text(path: str) -> str:
    """The text of a UTF-8 input file; other bytes are an InputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot decode {path} as UTF-8: {exc}") from exc


def read_json(path: str):
    """The document in a JSON file; text that does not parse, or nests
    too deep for the parser, is an InputError."""
    try:
        return json.loads(_read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"cannot parse {path}: {exc}") from exc


def load_graph(path: str) -> FiniteGraph:
    """Load a graph from a .json or DIMACS .col file, picked by extension."""
    if path.endswith((".col", ".dimacs")):
        return graph_from_dimacs(_read_text(path))
    return graph_from_json(read_json(path))
