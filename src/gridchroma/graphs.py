"""Finite graph substrate: adjacency storage, distances, components.

Graphs are immutable after construction.  Vertices are the integers
0..n-1; adjacency is kept as sorted tuples (the instances here are
12-to-27-regular but can run to thousands of vertices, so lists beat
matrices).  Optional labels attach arbitrary payloads (grid coordinates,
group elements) to vertices.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Iterator, Optional, Sequence

from .errors import InputError

INF = math.inf


class FiniteGraph:
    """Undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "adj", "labels", "_masks")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Optional[Sequence] = None,
    ):
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
        if labels is not None and len(labels) != n:
            raise InputError("labels must cover every vertex")
        self.labels = tuple(labels) if labels is not None else None
        self._masks: Optional[list[int]] = None

    @classmethod
    def _from_sorted_adjacency(
        cls, adj: Sequence[tuple[int, ...]], labels: Sequence
    ) -> FiniteGraph:
        """A graph from finished neighbor tuples, trusted as given: each
        sorted, loop-free, in range and symmetric.  For builders that
        produce them that way, skipping the edge list and its sets."""
        g = cls.__new__(cls)
        g.n = len(adj)
        g.adj = tuple(adj)
        g.labels = tuple(labels)
        g._masks = None
        return g

    # -- basic queries ----------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def neighbor_masks(self) -> list[int]:
        """Per-vertex adjacency bitmasks, built lazily, cached."""
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
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & ~ball
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
        members = []
        while comp:
            low = comp & -comp
            members.append(low.bit_length() - 1)
            comp ^= low
        out.append(members)
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
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & unseen
        unseen ^= frontier
        reach |= frontier
    return reach


def closed_neighborhood(g: FiniteGraph, vertices: Iterable[int]) -> set[int]:
    """The set together with every vertex adjacent to it."""
    out = set(vertices)
    for v in list(out):
        out.update(g.adj[v])
    return out


def induced_subgraph(
    g: FiniteGraph, vertices: Iterable[int]
) -> tuple[FiniteGraph, list[int]]:
    """Induced subgraph plus the list mapping new indices to old vertices."""
    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    edges = [
        (index[u], index[v])
        for u in keep
        for v in g.adj[u]
        if u < v and v in index
    ]
    labels = [g.labels[v] for v in keep] if g.labels is not None else None
    return FiniteGraph(len(keep), edges, labels), keep


# -- serialization ----------------------------------------------------------


def json_int(value, what: str) -> int:
    """An integer field of a JSON document: a JSON integer, never a bool
    or a float, else InputError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def graph_to_json(g: FiniteGraph) -> dict:
    """JSON form: {"vertices": N, "edges": [[u,v],...], "labels": [...]}."""
    doc = {"vertices": g.n, "edges": [list(e) for e in g.edges()]}
    if g.labels is not None:
        doc["labels"] = [list(l) if isinstance(l, tuple) else l for l in g.labels]
    return doc


def graph_from_json(doc: dict) -> FiniteGraph:
    try:
        n = json_int(doc["vertices"], "vertices")
        edges = [
            (json_int(u, "edge endpoint"), json_int(v, "edge endpoint"))
            for u, v in doc["edges"]
        ]
        labels = doc.get("labels")
        if labels is not None:
            labels = [tuple(l) if isinstance(l, list) else l for l in labels]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed graph document: {exc}") from exc
    return FiniteGraph(n, edges, labels)


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


def read_json(path: str):
    """The document in a JSON file; text that does not parse is an
    InputError."""
    with open(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"cannot parse {path}: {exc}") from exc


def load_graph(path: str) -> FiniteGraph:
    """Load a graph from a .json or DIMACS .col file, picked by extension."""
    if path.endswith((".col", ".dimacs")):
        with open(path) as fh:
            return graph_from_dimacs(fh.read())
    return graph_from_json(read_json(path))
