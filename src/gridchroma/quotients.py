"""Finite forms of the Cayley graphs: windows and cyclic quotients.

A window keeps the shift coordinate in a range 0..levels-1 and drops edges
leaving it.  A quotient reduces the shift coordinate modulo M >= 3, which
is induced by the right action of the shift-by-M element: right and left
multiplications commute, so left generator edges descend to the cosets.
Both are tiled by `grid.layer_graph` from per-cell neighbor templates,
and the commutation is checked on the templates, once per generator when
the templates of a group are first derived, rather than assumed.  The
quotient has k^2 * M vertices and is 3(k-1)^2-regular: the templates are
checked to give every cell (k-1)^2 neighbors on each of its three levels,
which are distinct for M >= 3.

Quotients of the plain group stay k-chromatic.  Quotients of the twisted
group collapse onto the plain ones for even M (swap grid coordinates on
odd levels), but for odd M the layer orientations would have to alternate
around an odd cycle, forcing the chromatic number up to 2k-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .chi import Budget, ChiResult, chromatic_info, find_coloring
from .errors import InputError, UndecidedError
from .graphs import FiniteGraph
from .grid import VerificationReport, cell, layer_graph
from .groups import GroupElement, MarkedGroupSpec, untwist


def cayley_window(spec: MarkedGroupSpec, levels: int) -> FiniteGraph:
    """The Cayley graph restricted to shift levels 0..levels-1, levels >= 1."""
    return layer_graph(spec, levels)


@dataclass(frozen=True)
class QuotientGraph:
    """Cayley graph with the shift coordinate reduced modulo M."""

    graph: FiniteGraph


def build_quotient(spec: MarkedGroupSpec, modulus: int) -> QuotientGraph:
    """Build the quotient for M >= 3 (smaller M collapses the two cross
    directions onto each other)."""
    return QuotientGraph(layer_graph(spec, modulus, cyclic=True))


def quotient_chi(
    spec: MarkedGroupSpec,
    modulus: int,
    budget: Optional[Budget] = None,
) -> ChiResult:
    """Exact chromatic number of the quotient; tri-state under budget."""
    q = build_quotient(spec, modulus)
    return chromatic_info(q.graph, budget=budget)


def verify_alternation_obstruction(
    k: int,
    modulus: int,
    budget: Optional[Budget] = None,
) -> VerificationReport:
    """Confirm the odd-modulus twisted quotient has no (2k-2)-coloring.

    Two independent routes are reported: exhaustive search proves no proper
    (2k-2)-coloring exists, and the structural parity argument explains
    why; any such coloring would orient each layer, consecutive layers of
    the twisted quotient must swap orientation, and an odd cycle of layers
    cannot 2-color its orientations (chi of an odd cycle is 3).
    """
    if modulus % 2 == 0:
        raise InputError(
            f"alternation obstruction applies to odd moduli, got {modulus}"
        )
    palette = 2 * k - 2
    report = VerificationReport(
        "alternation", {"k": k, "modulus": modulus, "palette": palette}
    )
    q = build_quotient(MarkedGroupSpec(k, twisted=True), modulus)
    try:
        found = find_coloring(q.graph, palette, budget=budget)
    except UndecidedError:
        report.undecided = True
        return report
    if found is not None:
        report.record_violation(
            {"coloring": list(found.colors), "reason": "unexpected proper coloring"}
        )
        return report
    report.notes.append(
        f"search: no proper {palette}-coloring of the {q.graph.n}-vertex quotient"
    )
    report.notes.append(
        "parity: layer orientations would alternate across every twisted "
        f"layer boundary, but a {modulus}-cycle admits no proper 2-coloring "
        "(its chromatic number is 3)"
    )
    report.count = 1
    return report


def verify_even_quotient_isomorphism(k: int, modulus: int) -> VerificationReport:
    """Check the coordinate-swap-on-odd-levels map is a graph isomorphism
    between the twisted and plain quotients (even modulus keeps level
    parity well defined)."""
    if modulus % 2 != 0:
        raise InputError(
            f"the swap map needs an even modulus to be well defined, got {modulus}"
        )
    plain = build_quotient(MarkedGroupSpec(k), modulus)
    twisted = build_quotient(MarkedGroupSpec(k, twisted=True), modulus)
    report = VerificationReport(
        "even-quotient-isomorphism", {"k": k, "modulus": modulus}
    )

    vertex = {cell(k, v): v for v in range(plain.graph.n)}

    def image(v: int) -> int:
        return vertex[untwist(GroupElement(*cell(k, v)))]

    mapped = {tuple(sorted((image(u), image(v)))) for u, v in twisted.graph.edges()}
    plain_edges = {tuple(sorted(e)) for e in plain.graph.edges()}
    if mapped != plain_edges:
        missing = sorted(plain_edges - mapped)[:5]
        extra = sorted(mapped - plain_edges)[:5]
        report.record_violation({"missing": missing, "extra": extra})
        return report
    # both quotients have k^2*M vertices, each with the 3(k-1)^2 neighbors
    # their checked templates give it, so the twisted edges number
    # len(plain_edges) too, and the map is a bijection onto them
    report.count = len(mapped)
    report.notes.append(
        f"swap map carries all {len(mapped)} twisted edges onto the plain "
        "edge set bijectively"
    )
    return report
