"""Acceptance suite: the claims table of `gridchroma report`, pinned at k=3.

Each test runs rows of `gridchroma.cli.CLAIMS`, the same functions the
report prints, and checks that each is proven (outcome True) with its
pinned value inside its runtime ceiling.  Run with
`pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
claim.  Tolerances are exact integers throughout.
"""

import itertools
import random
import time

from gridchroma.chi import chromatic_number, enumerate_colorings
from gridchroma.cli import CLAIMS, STATUS
from gridchroma.graphs import FiniteGraph, vertex_mask
from gridchroma.grid import grid_graph
from gridchroma.groups import MarkedGroupSpec
from gridchroma.instances import CYCLE, cayley_cycle_instance, divides_into_two, path_instance
from gridchroma.twoended import build_separator_family, check_complement_bounded, find_separators

TOWERS = "tower palette <= k+1 over seeded towers"

# claim name -> its value at k=3, in table order (the tower row, pinned by
# its own test, sits between the witness rows and the search rows)
PINNED = {
    "grid chi == k": 3,
    "plain quotient chi == k (M=3)": 3,
    "even collapse (M=4): twisted chi == k and swap map is an isomorphism": {"twisted_chi": 3, "edges_checked": 216},
    "two-ended colorer within 2*chi-1": {
        "path cycle": {"colors": 3, "bound": 3},
        "ladder cycle": {"colors": 3, "bound": 3},
        "plain cayley cycle": {"colors": 5, "bound": 5},
        "twisted cayley cycle": {"colors": 5, "bound": 5},
    },
    "dichotomy: zero violations": {"colorings": 1056},  # the 4^9 raw scan
    "invariance: plain equal / twisted opposite": {"plain": 12288, "twisted": 12288},
    "rigidity: projections only": {"colorings": 12},
    "twisted odd quotient chi >= 2k-1 (M=3)": 5,
    "alternation obstruction (M in {3,5})": {m: {"ok": True, "undecided": False} for m in (3, 5)},
}


def _run(name, k=3, rng=None, towers=0):
    """Run one claim unbudgeted; print its row and return its outcome and value."""
    start = time.monotonic()
    outcome, value = dict(CLAIMS)[name](k, None, rng or random.Random(0), towers)
    elapsed = time.monotonic() - start
    print(f"[{STATUS[outcome]}] {name} k={k}: {value} ({elapsed:.1f}s)")
    return outcome, value


def _accept(limit_s, *names):
    """A test proving the named claims at k=3 with their pinned values,
    all within limit_s seconds."""

    def test():
        start = time.monotonic()
        for name in names:
            outcome, value = _run(name)
            assert outcome is True, name
            assert value == PINNED[name], name
        assert time.monotonic() - start < limit_s, f"{names} overran {limit_s}s"

    return test


test_grid_chi = _accept(10, "grid chi == k")
test_criterion_1_dichotomy = _accept(10, "dichotomy: zero violations")
test_criterion_2_invariance = _accept(120, "invariance: plain equal / twisted opposite")
test_criterion_3_rigidity = _accept(60, "rigidity: projections only")
test_criterion_4_separation = _accept(
    300,
    "plain quotient chi == k (M=3)",
    "twisted odd quotient chi >= 2k-1 (M=3)",
    "alternation obstruction (M in {3,5})",
)
test_criterion_5_even_collapse = _accept(
    60, "even collapse (M=4): twisted chi == k and swap map is an isomorphism"
)
test_criterion_6_two_ended = _accept(60, "two-ended colorer within 2*chi-1")


def test_criterion_7_towers():
    """100 seeded towers per k in {3,4,5}; the k=3 row adds the witness checks."""
    start = time.monotonic()
    for k in (3, 4, 5):
        outcome, value = _run(TOWERS, k, random.Random(7000 + k), 100)
        assert outcome is True, k
        assert value["towers"] == 100
        assert value["zero_offset"] > 0  # the seed reaches the zero-offset branch
        assert value["witness_checked"] == (k == 3)
    assert time.monotonic() - start < 300


def test_every_claim_is_accepted():
    pinned = list(PINNED)
    assert [name for name, _ in CLAIMS] == [*pinned[:4], TOWERS, *pinned[4:]]


def test_criterion_8_oracle_consistency():
    """Oracle consistency: chi equals the least non-empty palette."""
    small_suite = {
        "path cycle C12": path_instance(12, CYCLE).graph,
        "odd cycle C9": FiniteGraph(9, [(i, (i + 1) % 9) for i in range(9)]),
        "K4": FiniteGraph(4, list(itertools.combinations(range(4), 2))),
        "grid k=3": grid_graph(3),
        "path P5": FiniteGraph(5, [(i, i + 1) for i in range(4)]),
        "single edge": FiniteGraph(2, [(0, 1)]),
        "triangle": FiniteGraph(3, [(0, 1), (1, 2), (0, 2)]),
        "two disjoint edges": FiniteGraph(4, [(0, 1), (2, 3)]),
    }
    for name, graph in small_suite.items():
        assert graph.n <= 12
        chi = chromatic_number(graph)
        assert enumerate_colorings(graph, chi) > 0, name
        if chi > 1:
            assert enumerate_colorings(graph, chi - 1) == 0, name


def test_separator_examples_match_greedy_trace():
    """Supporting check: the documented scaffold shapes on the suite."""
    inst = cayley_cycle_instance(MarkedGroupSpec(3), 12, chi=3)
    family = build_separator_family(find_separators(inst, 1, 9))
    starts = [min(inst.block_of(v) for v in s) for s in family.members]
    assert starts == [0, 4, 8]
    assert all(divides_into_two(inst, vertex_mask(inst.graph, s)) for s in family.members)
    bound = check_complement_bounded(inst, family)
    assert bound["shape_ok"] and bound["degrees"] == [2, 2, 2]
    assert bound["satisfied"] and bound["max_component_blocks"] == 3
