"""Graph predicates the test suites use as oracles.

Nothing in the package needs them, so they live with the tests.
"""

from gridchroma.graphs import FiniteGraph, components


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
