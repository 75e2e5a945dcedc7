import gc
import itertools
import math
import random
import sys
import time
import tracemalloc

import pytest

import gridchroma.chi as chi
from gridchroma.chi import (
    Budget,
    Coloring,
    chromatic_info,
    chromatic_number,
    dsatur_greedy,
    enumerate_colorings,
    find_coloring,
    greedy_clique,
    is_proper,
)
from gridchroma.errors import InputError, StopEnumeration, UndecidedError
from gridchroma.graphs import FiniteGraph
from gridchroma.grid import _line_cells, grid_graph, layer_graph, two_orbit_graph
from gridchroma.groups import MarkedGroupSpec
from gridchroma.quotients import build_quotient
from oracles import (
    distinct_lines,
    edge_scan_is_proper,
    key_list_dsatur_greedy,
    key_list_find_coloring,
    recursive_enumeration,
    scan_greedy_clique,
)


def cycle_graph(n):
    return FiniteGraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return FiniteGraph(n, list(itertools.combinations(range(n), 2)))


def path_graph(n):
    return FiniteGraph(n, [(i, i + 1) for i in range(n - 1)])


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return FiniteGraph(n, edges)


def brute_force_chi(g):
    """Raw scan over all palette^n maps; the independent oracle."""
    for palette in range(1, g.n + 1):
        for assignment in itertools.product(range(1, palette + 1), repeat=g.n):
            if all(assignment[u] != assignment[v] for u, v in g.edges()):
                return palette
    return g.n


def brute_force_colorings(g, palette, canonical=False):
    """Every proper assignment, in lexicographic order, by a raw scan over
    all palette^n maps; the independent oracle for enumeration."""
    edges = list(g.edges())
    out = []
    for cols in itertools.product(range(1, palette + 1), repeat=g.n):
        if any(cols[u] == cols[v] for u, v in edges):
            continue
        if canonical and any(c > max(cols[:v], default=0) + 1 for v, c in enumerate(cols)):
            continue
        out.append(cols)
    return out


class TestIsProper:
    def test_injective_coloring_proper(self):
        g = cycle_graph(5)
        assert is_proper(g, Coloring(tuple(range(1, 6)), 5))

    def test_constant_on_edge_improper(self):
        g = FiniteGraph(2, [(0, 1)])
        assert not is_proper(g, Coloring((1, 1), 1))

    def test_partial_assignment_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(InputError):
            is_proper(g, Coloring((1, 2, 1), 2))

    def test_color_out_of_palette_rejected(self):
        with pytest.raises(InputError):
            Coloring((1, 3), 2)

    @pytest.mark.parametrize("colors", [(0, 1), (2, -1, 1), (2, 1, 3)], ids=str)
    def test_colors_below_or_above_the_palette_rejected(self, colors):
        with pytest.raises(InputError, match="color out of palette range"):
            Coloring(colors, 2)

    def test_empty_coloring_accepted(self):
        assert Coloring((), 2).used == 0

    # the one-sided walk checks each edge from its lower end only; the
    # two-sided scan visits it from both
    def test_agrees_with_edge_scan_on_random_graphs(self):
        rng = random.Random(20)
        seen = set()
        for trial in range(300):
            n = trial % 13
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
            if n > 2 and trial % 3 == 0:  # a top vertex with only lower neighbors
                edges = [(u, v) for u, v in edges if v != n - 1] + [(0, n - 1), (n - 2, n - 1)]
            g = FiniteGraph(n, edges)
            palette = rng.randint(1, 4)
            coloring = Coloring(tuple(rng.randint(1, palette) for _ in range(n)), palette)
            got = is_proper(g, coloring)
            assert got == edge_scan_is_proper(g, coloring)
            seen.add((n == 0, got))
        assert {(True, True), (False, True), (False, False)} <= seen

    def test_agrees_with_edge_scan_when_only_an_edge_to_a_lower_vertex_clashes(self):
        # vertices 1 and 3 are isolated; vertex 4's neighbors all lie below it
        g = FiniteGraph(5, [(0, 4), (2, 4)])
        for cols, want in (((1, 1, 2, 2, 3), True), ((1, 1, 2, 2, 2), False), ((3, 1, 2, 1, 3), False)):
            coloring = Coloring(cols, 3)
            assert is_proper(g, coloring) == edge_scan_is_proper(g, coloring) == want

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
    def test_agrees_with_edge_scan_on_windows_and_quotients(self, k, twisted):
        spec = MarkedGroupSpec(k, twisted=twisted)
        rng = random.Random(k * 2 + twisted)
        for g in (layer_graph(spec, 4), build_quotient(spec, 3).graph, build_quotient(spec, 4).graph):
            coloring = dsatur_greedy(g)
            assert is_proper(g, coloring) and edge_scan_is_proper(g, coloring)
            for v in (0, g.n - 1, rng.randrange(g.n)):
                for c in range(1, coloring.palette + 1):
                    cols = list(coloring.colors)
                    cols[v] = c
                    recolored = Coloring(tuple(cols), coloring.palette)
                    want = all(c != cols[w] for w in g.adj[v])
                    assert is_proper(g, recolored) == edge_scan_is_proper(g, recolored) == want


class TestEnumerate:
    def test_single_vertex_two_colors(self):
        assert enumerate_colorings(FiniteGraph(1, []), 2) == 2

    def test_single_edge_two_colors(self):
        assert enumerate_colorings(FiniteGraph(2, [(0, 1)]), 2) == 2

    def test_triangle_three_colors(self):
        assert enumerate_colorings(complete_graph(3), 3) == 6

    def test_every_visited_coloring_proper(self):
        g = random_graph(7, 0.4, seed=11)
        seen = []
        enumerate_colorings(g, 3, seen.append)
        for cols in seen:
            assert is_proper(g, Coloring(cols, 3))

    def test_visitor_may_stop_on_the_empty_graph(self):
        def stop(cols):
            raise StopEnumeration

        assert enumerate_colorings(FiniteGraph(0, []), 2, stop) == 1

    def test_deterministic_lexicographic_order(self):
        g = path_graph(3)
        seen = []
        enumerate_colorings(g, 2, seen.append)
        assert seen == [(1, 2, 1), (2, 1, 2)]

    def test_canonical_counts_color_classes_once(self):
        g = complete_graph(3)
        assert enumerate_colorings(g, 3, canonical=True) == 1

    def test_count_matches_chromatic_polynomial_of_cycle(self):
        # P(C_n, q) = (q-1)^n + (-1)^n (q-1)
        g = cycle_graph(6)
        assert enumerate_colorings(g, 2) == 2
        assert enumerate_colorings(g, 3) == 2 ** 6 + 2

    @pytest.mark.parametrize("seed", range(16))
    def test_deletion_contraction(self, seed):
        # P(G) = P(G-e) - P(G/e) for a random edge e, at palettes 1..4
        rng = random.Random(seed)
        g = random_graph(rng.randint(2, 8), rng.uniform(0.2, 0.7), seed)
        edges = list(g.edges())
        if not edges:
            edges = [(0, 1)]
            g = FiniteGraph(g.n, edges)
        u, v = rng.choice(edges)
        deleted = FiniteGraph(g.n, [e for e in edges if e != (u, v)])
        # v merges into u; the vertices above v move down one place
        merge = [u if w == v else w - (w > v) for w in range(g.n)]
        contracted = FiniteGraph(
            g.n - 1, {(merge[a], merge[b]) for a, b in edges if {a, b} != {u, v}}
        )
        for palette in range(1, 5):
            assert enumerate_colorings(g, palette) == (
                enumerate_colorings(deleted, palette)
                - enumerate_colorings(contracted, palette)
            )

    def test_matches_brute_force_sequence(self):
        rng = random.Random(7)
        for trial in range(24):
            n = trial % 9
            g = random_graph(n, rng.choice((0.2, 0.4, 0.6)), seed=trial)
            for palette in range(1, 5):
                for options in ({}, {"canonical": True}):
                    seen = []
                    count = enumerate_colorings(g, palette, seen.append, **options)
                    want = brute_force_colorings(g, palette, **options)
                    assert seen == want, (trial, palette, options)
                    assert count == len(want)

    def test_matches_recursive_reference_past_the_near_window(self):
        # on 12 to 24 vertices with shuffled labels most earlier neighbors
        # lie past the near window, some inside it
        rng = random.Random(31)
        outcomes = set()
        for trial in range(80):
            n = rng.randint(12, 24)
            labels = rng.sample(range(n), n)
            p = rng.choice((0.15, 0.3, 0.5))
            edges = [
                (labels[u], labels[v]) for u in range(n) for v in range(u + 1, n) if rng.random() < p
            ]
            g = FiniteGraph(n, edges)
            palette = rng.randint(1, 5)
            options = {"canonical": rng.random() < 0.5}
            limit = rng.choice((10, 300, 3000, 20000))
            want, nodes, stopped = recursive_enumeration(g, palette, max_nodes=limit, **options)
            budget = Budget(max_nodes=limit)
            count, seen = budgeted_enumeration(g, palette, budget, options)
            assert (seen, budget.nodes) == (want, nodes), (trial, options, limit)
            assert count == (None if stopped else len(want))
            if not stopped:
                seen = []
                assert enumerate_colorings(g, palette, seen.append, **options) == len(want)
                assert seen == want
            outcomes.add((stopped, len(want) > 0))
        assert outcomes == {(False, False), (False, True), (True, False), (True, True)}

    def test_line_mask_matches_per_line_oracle(self):
        # random overlapping line systems, sizes 1 and 2 among them; every
        # visited coloring's mask must be the brute-force one, and the
        # visits, the count and the nodes those of the call without lines,
        # also under visitor stops and node-budget stops on a leaf
        rng = random.Random(38)
        leaf_stops = 0
        for trial in range(40):
            n = rng.randint(1, 9)
            g = random_graph(n, rng.choice((0.3, 0.5, 0.7)), seed=1000 + trial)
            lines = [tuple(rng.sample(range(n), rng.randint(1, min(n, 4)))) for _ in range(rng.randint(1, 7))]
            for palette in range(1, 6):
                for canonical in (False, True):
                    plain, plain_budget = [], Budget()
                    count = enumerate_colorings(g, palette, plain.append, canonical=canonical, budget=plain_budget)
                    if count > 2500:
                        continue
                    visits, budget = [], Budget()

                    def visit(cols, distinct):
                        visits.append((cols, distinct))

                    got = enumerate_colorings(g, palette, visit, canonical=canonical, lines=lines, budget=budget)
                    assert (got, budget.nodes) == (count, plain_budget.nodes), (trial, palette, canonical)
                    assert [cols for cols, _ in visits] == plain
                    assert all(distinct == distinct_lines(lines, cols) for cols, distinct in visits)
                    for j in rng.sample(range(1, count + 1), min(count, 3)):
                        # a visitor stop at the j-th leaf leaves the node
                        # count at that leaf, so one node less stops the
                        # budget on it, inside the last vertex's leaf loop
                        stopped = Budget()

                        def stop(cols, distinct):
                            assert distinct == distinct_lines(lines, cols)
                            if cols == plain[j - 1]:
                                raise StopEnumeration

                        assert enumerate_colorings(g, palette, stop, canonical=canonical, lines=lines, budget=stopped) == j
                        for limit, leaves in ((stopped.nodes - 1, j - 1), (rng.randrange(plain_budget.nodes), None)):
                            runs = []
                            for options in ({}, {"lines": lines}):
                                seen, limited = [], Budget(max_nodes=limit)
                                with pytest.raises(UndecidedError) as exc:
                                    enumerate_colorings(
                                        g, palette, lambda *args: seen.append(args), canonical=canonical,
                                        budget=limited, **options,
                                    )
                                runs.append(([args[0] for args in seen], exc.value.lower, limited.nodes))
                                if options:
                                    assert all(distinct == distinct_lines(lines, cols) for cols, distinct in seen)
                            assert runs[0] == runs[1]
                            assert runs[0][2] == limit + 1
                            if leaves is not None:
                                assert runs[0][:2] == (plain[:leaves], leaves)
                        leaf_stops += 1
        assert leaf_stops > 100

    def test_line_validation(self):
        g = path_graph(3)
        for lines in ([()], [(0, 0)], [(0, 3)], [(-1, 1)]):
            with pytest.raises(InputError):
                enumerate_colorings(g, 2, lines=lines)
        seen = []
        assert enumerate_colorings(FiniteGraph(0, []), 1, lambda *args: seen.append(args), lines=[]) == 1
        assert seen == [((), 0)]

    @pytest.mark.parametrize(
        "k, palette, canonical, count, nodes",
        [(3, 4, False, 1056, 3997), (4, 6, True, 3826, 18488)],
    )
    def test_grid_pass_node_counts_with_and_without_lines(self, k, palette, canonical, count, nodes):
        lines = _line_cells(k)
        for options in ({}, {"lines": lines}):
            budget = Budget()
            got = enumerate_colorings(grid_graph(k), palette, canonical=canonical, budget=budget, **options)
            assert (got, budget.nodes) == (count, nodes), options
        masks, budget = [], Budget()

        def visit(cols, distinct):
            masks.append(distinct == distinct_lines(lines, cols))

        assert enumerate_colorings(grid_graph(k), palette, visit, canonical=canonical, lines=lines, budget=budget) == count
        assert budget.nodes == nodes and all(masks) and len(masks) == count

    @pytest.mark.parametrize(
        "name, graph, palette, canonical, count, nodes",
        [
            ("dichotomy k=3", lambda: grid_graph(3), 4, False, 1056, 3997),
            ("invariance k=3 plain", lambda: two_orbit_graph(3, False), 4, False, 12288, 59293),
            ("invariance k=3 twisted", lambda: two_orbit_graph(3, True), 4, False, 12288, 59293),
            ("rigidity k=3", lambda: two_orbit_graph(3, False), 3, False, 12, 352),
            ("dichotomy k=4 canonical", lambda: grid_graph(4), 6, True, 3826, 18488),
            ("rigidity k=4", lambda: two_orbit_graph(4, False), 4, False, 48, 10649),
        ],
    )
    def test_verifier_graph_node_counts(self, name, graph, palette, canonical, count, nodes):
        budget = Budget()
        got = enumerate_colorings(graph(), palette, canonical=canonical, budget=budget)
        assert (got, budget.nodes) == (count, nodes), name

    def test_long_path_leaves_recursion_limit_alone(self):
        before = sys.getrecursionlimit()
        assert enumerate_colorings(path_graph(5000), 2) == 2
        assert sys.getrecursionlimit() == before


def twisted_quotient(k, modulus):
    return build_quotient(MarkedGroupSpec(k, twisted=True), modulus).graph


class TestFindColoring:
    def test_long_path_restores_recursion_limit(self, monkeypatch):
        before = sys.getrecursionlimit()

        def refuse(limit):
            raise AssertionError("find_coloring changed the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        assert find_coloring(path_graph(5000), 2) is not None
        assert sys.getrecursionlimit() == before

    @pytest.mark.parametrize(
        "k, modulus, palette, nodes, witness",
        [
            (3, 5, 3, 52, None),
            (3, 5, 4, 2283, None),
            (3, 5, 5, 46, "111222333123123123111222333123423523145125143"),
            (3, 3, 4, 120, None),
            (3, 3, 5, 28, "111222333123423523145125143"),
            (4, 3, 5, 345, None),
            (4, 3, 6, 1991, None),
            (4, 3, 7, 49, "111122223333444412345234623472341567126715371564"),
        ],
    )
    def test_twisted_quotient_node_counts_and_witnesses(self, k, modulus, palette, nodes, witness):
        # the DSATUR order fixes the search tree: these are its exact sizes
        g = twisted_quotient(k, modulus)
        budget = Budget()
        got = find_coloring(g, palette, budget=budget)
        assert budget.nodes == nodes
        if witness is None:
            assert got is None
        else:
            assert "".join(map(str, got.colors)) == witness
            assert is_proper(g, got)

    @pytest.mark.parametrize("k, modulus, palette, nodes", [(3, 5, 4, 2282), (4, 3, 6, 1990)])
    def test_pins_keep_the_unpinned_colors_interchangeable(self, k, modulus, palette, nodes):
        # pinning vertex 0 to color 1 leaves colors 2..palette symmetric; the
        # key-list oracle breaks no symmetry under pins and needs 13,684 and
        # 236,366 nodes for the same proofs
        budget = Budget()
        assert find_coloring(twisted_quotient(k, modulus), palette, {0: 1}, budget=budget) is None
        assert budget.nodes == nodes
        with pytest.raises(UndecidedError):
            key_list_find_coloring(twisted_quotient(k, modulus), palette, {0: 1}, Budget(max_nodes=nodes))

    def test_matches_key_list_oracle(self):
        # unpinned: same witness and node for node; pinned: same witness in
        # no more nodes; the greedy coloring unchanged either way
        rng = random.Random(29)
        for trial in range(400):
            n = rng.randint(0, 14)
            g = random_graph(n, rng.choice((0.15, 0.3, 0.5, 0.7)), seed=1000 + trial)
            # near the greedy bound, where the searches branch most
            palette = min(5, max(1, dsatur_greedy(g).palette - rng.randint(0, 2)))
            pins = {}
            if n and trial % 2:
                for v in rng.sample(range(n), rng.randint(1, min(n, 3))):
                    pins[v] = rng.randint(1, palette)
            got, want = Budget(), Budget()
            found = find_coloring(g, palette, dict(pins), budget=got)
            assert found == key_list_find_coloring(g, palette, dict(pins), want), (trial, pins)
            if pins:
                assert got.nodes <= want.nodes, trial
            else:
                assert got.nodes == want.nodes, trial
            assert dsatur_greedy(g) == key_list_dsatur_greedy(g), trial

    def test_matches_brute_force_with_random_pins(self):
        rng = random.Random(17)
        for trial in range(150):
            n = trial % 9
            g = random_graph(n, rng.choice((0.2, 0.4, 0.6, 0.8)), seed=trial)
            palette = rng.randint(1, 4)
            pins = {}
            if n and trial % 2:
                for v in rng.sample(range(n), rng.randint(1, min(n, 3))):
                    pins[v] = rng.randint(1, palette)
            exists = any(
                all(cols[v] == c for v, c in pins.items())
                for cols in brute_force_colorings(g, palette)
            )
            got = find_coloring(g, palette, constraints=dict(pins))
            assert (got is not None) == exists, (trial, palette, pins)
            if got is not None:
                assert is_proper(g, got)
                assert all(got.colors[v] == c for v, c in pins.items())

    def test_path_with_matching_pinned_ends(self):
        g = path_graph(3)
        got = find_coloring(g, 2, constraints={0: 1, 2: 1})
        assert got is not None
        assert got.colors[0] == got.colors[2] == 1
        assert is_proper(g, got)

    def test_edge_with_conflicting_pins_returns_none(self):
        g = FiniteGraph(2, [(0, 1)])
        assert find_coloring(g, 2, constraints={0: 1, 1: 1}) is None

    def test_odd_cycle_two_colors_none(self):
        assert find_coloring(cycle_graph(9), 2) is None

    def test_found_colorings_always_proper(self):
        for seed in range(6):
            g = random_graph(9, 0.35, seed)
            got = find_coloring(g, 4)
            if got is not None:
                assert is_proper(g, got)

    def test_constraint_validation(self):
        g = path_graph(2)
        with pytest.raises(InputError):
            find_coloring(g, 2, constraints={5: 1})
        with pytest.raises(InputError):
            find_coloring(g, 2, constraints={0: 3})

    def test_leaves_no_cyclic_garbage(self):
        g = random_graph(12, 0.4, seed=3)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            chromatic_info(g)
            find_coloring(g, 2)
            find_coloring(path_graph(5000), 2)
            gc.collect()
            assert not [o for o in gc.garbage if isinstance(o, FiniteGraph)]
            assert not [o for o in gc.garbage if getattr(o, "__qualname__", "").startswith("find_coloring")]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()

    @pytest.mark.parametrize("shape", ["star", "path"])
    def test_peak_memory_grows_linearly(self, shape):
        # a frame keeps its banned neighbors shifted down to its vertex's
        # lowest neighbor, and no copy of the level list; keeping full-width
        # masks per frame, or copying the levels, breaks the bound at 4,000
        # vertices (the star's greedy bound has 4,000 colors)
        n = 4000
        g = FiniteGraph(n, [(0, v) for v in range(1, n)]) if shape == "star" else path_graph(n)
        g.neighbor_masks()
        tracemalloc.start()
        try:
            assert chromatic_info(g).value == 2
            assert find_coloring(g, 2) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 300 * n


class TestChromaticNumber:
    def test_odd_cycle(self):
        assert chromatic_number(cycle_graph(9)) == 3

    def test_even_cycle(self):
        assert chromatic_number(cycle_graph(12)) == 2

    def test_k4(self):
        assert chromatic_number(complete_graph(4)) == 4

    def test_matches_brute_force_on_small_random(self):
        for seed in range(8):
            g = random_graph(7, 0.45, seed)
            assert chromatic_number(g) == brute_force_chi(g)

    def test_matches_min_nonempty_enumeration(self):
        for seed in (3, 5, 9):
            g = random_graph(8, 0.4, seed)
            chi = chromatic_number(g)
            assert enumerate_colorings(g, chi) > 0
            if chi > 1:
                assert enumerate_colorings(g, chi - 1) == 0

    def test_invariant_under_relabeling(self):
        g = random_graph(9, 0.4, seed=2)
        chi = chromatic_number(g)
        rng = random.Random(42)
        for _ in range(4):
            perm = list(range(g.n))
            rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in g.edges()]
            assert chromatic_number(FiniteGraph(g.n, edges)) == chi

    def test_witness_is_proper_and_optimal(self):
        g = random_graph(10, 0.35, seed=4)
        info = chromatic_info(g)
        assert info.value is not None
        assert is_proper(g, info.witness)
        assert info.witness.used <= info.value

    def test_search_improves_on_the_greedy_witness(self):
        # seed 291 draws an 11-vertex graph that DSATUR colors with 4 colors
        # and the exact search with 3
        rng = random.Random(291)
        n = rng.randint(6, 12)
        p = rng.uniform(0.2, 0.6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = FiniteGraph(n, edges)
        assert (g.n, dsatur_greedy(g).palette) == (11, 4)
        info = chromatic_info(g)
        assert (info.lower, info.upper, info.value) == (3, 3, 3)
        assert info.witness.palette == 3
        assert is_proper(g, info.witness)

    def test_budget_exhaustion_is_explicit(self):
        g = random_graph(30, 0.5, seed=1)
        with pytest.raises(UndecidedError):
            chromatic_number(g, budget=Budget(max_nodes=5))
        info = chromatic_info(g, budget=Budget(max_nodes=5))
        assert info.undecided
        assert info.lower <= info.upper

    def test_empty_graph_rejected(self):
        with pytest.raises(InputError):
            chromatic_number(FiniteGraph(0, []))

    def test_edgeless_graph(self):
        assert chromatic_number(FiniteGraph(5, [])) == 1


def budgeted_enumeration(g, palette, budget, options):
    """(count or None when the budget ran out, colorings seen)."""
    seen = []
    try:
        count = enumerate_colorings(g, palette, seen.append, budget=budget, **options)
    except UndecidedError as exc:
        assert exc.lower == len(seen)
        return None, seen
    assert count == len(seen)
    return count, seen


def budgeted_search(g, palette, budget, options):
    """(the found coloring's colors or None, False when the budget ran out)."""
    try:
        found = find_coloring(g, palette, budget=budget, **options)
    except UndecidedError:
        return None, False
    return (found and found.colors), True


ENUMERATION_CASES = [
    (cycle_graph(5), 3, {}),
    (random_graph(7, 0.4, seed=2), 3, {"canonical": True}),
    (grid_graph(3), 3, {}),
]
SEARCH_CASES = [
    (twisted_quotient(3, 3), 4, {}),
    (twisted_quotient(3, 3), 5, {}),
    (random_graph(12, 0.5, seed=3), 4, {"constraints": {0: 2, 5: 1}}),
    (cycle_graph(9), 2, {}),
]


class TestBudget:
    @pytest.mark.parametrize(
        "limits",
        [
            {"ms": -1},
            {"ms": float("nan")},
            {"ms": float("inf")},
            {"ms": "5"},
            {"max_nodes": -1},
            {"max_nodes": True},
            {"max_nodes": 2.0},
        ],
    )
    def test_rejects_bad_limits(self, limits):
        with pytest.raises(InputError):
            Budget(**limits)

    def test_zero_node_limit_stops_at_the_first_node(self):
        budget = Budget(ms=0.0, max_nodes=0)
        with pytest.raises(UndecidedError) as stop:
            enumerate_colorings(cycle_graph(4), 2, budget=budget)
        assert stop.value.lower == 0
        assert budget.nodes == 1

    @pytest.mark.parametrize("search", [budgeted_enumeration, budgeted_search])
    @pytest.mark.parametrize("offset", [0, 4090])
    def test_node_limit_is_exact(self, search, offset):
        # a budget already spent up to `offset` puts the clock-read
        # boundary at node 4096 inside the search
        cases = ENUMERATION_CASES if search is budgeted_enumeration else SEARCH_CASES
        for g, palette, options in cases:
            full = Budget()
            full.nodes = offset
            want = search(g, palette, full, options)
            total = full.nodes - offset
            # past the total, the run left unused at the end is 1, 2, ...
            for limit in range(1, total + 3):
                budget = Budget(max_nodes=offset + limit)
                budget.nodes = offset
                got = search(g, palette, budget, options)
                if limit < total:
                    assert budget.nodes == offset + limit + 1
                    if search is budgeted_enumeration:
                        assert got[0] is None
                        assert got[1] == want[1][: len(got[1])]
                    else:
                        assert got == (None, False)
                else:
                    assert budget.nodes == offset + total
                    assert got == want

    @pytest.mark.parametrize(
        "search, g, palette, total",
        [
            (budgeted_enumeration, two_orbit_graph(4, False), 4, 10649),
            (budgeted_search, twisted_quotient(3, 7), 4, 121175),
        ],
    )
    def test_node_limit_is_exact_across_clock_reads(self, search, g, palette, total):
        for limit in (4095, 4096, 4097, 8191, 8192, total - 1, total):
            budget = Budget(max_nodes=limit)
            search(g, palette, budget, {})
            assert budget.nodes == min(limit + 1, total)

    @pytest.mark.parametrize("stop_at", [1, 5, 300, 5000])
    @pytest.mark.parametrize("error", [KeyError, StopEnumeration])
    def test_visitor_exception_leaves_the_nodes_visited(self, stop_at, error):
        g = two_orbit_graph(3, False)
        budget = Budget()
        seen = []

        def visit(cols):
            seen.append(cols)
            if len(seen) == stop_at:
                raise error

        try:
            assert enumerate_colorings(g, 4, visit, budget=budget) == stop_at
        except KeyError:
            assert error is KeyError
        # the stop_at-th leaf is the last node visited: a node limit at
        # budget.nodes reaches it and one node less does not
        for limit, leaves in ((budget.nodes, stop_at), (budget.nodes - 1, stop_at - 1)):
            assert budgeted_enumeration(g, 4, Budget(max_nodes=limit), {})[1] == seen[:leaves]

    def test_clock_read_only_every_check_every_nodes(self, monkeypatch):
        budget = Budget(ms=10**9)
        reads = []
        clock = time.monotonic

        def read():
            reads.append(budget.nodes)
            return clock()

        monkeypatch.setattr(chi.time, "monotonic", read)
        assert enumerate_colorings(two_orbit_graph(3, False), 4, budget=budget) == 12288
        assert find_coloring(twisted_quotient(3, 5), 4, budget=budget) is None
        assert budget.nodes == 59293 + 2283
        assert reads == list(range(Budget.CHECK_EVERY, budget.nodes + 1, Budget.CHECK_EVERY))

    def test_time_limit_stops_at_a_clock_read(self, monkeypatch):
        budget = Budget(ms=1)
        monkeypatch.setattr(chi.time, "monotonic", lambda: math.inf)
        count, seen = budgeted_enumeration(two_orbit_graph(3, False), 4, budget, {})
        assert count is None and seen
        assert budget.nodes == Budget.CHECK_EVERY

    def test_share_is_a_part_of_the_time_left(self, monkeypatch):
        clock = [50.0]
        monkeypatch.setattr(chi.time, "monotonic", lambda: clock[0])
        budget = Budget(ms=900)
        budget.nodes = 7
        third = budget.share(3)
        assert third.ms == pytest.approx(300)
        assert (third.nodes, third.max_nodes) == (0, None)
        clock[0] += 0.6  # 300 ms left before the deadline
        assert budget.share(2).ms == pytest.approx(150)
        assert third.share(1).ms == 0  # the share keeps its own deadline

    @pytest.mark.parametrize("budget", [Budget(), Budget(max_nodes=5)], ids=["none", "nodes"])
    def test_share_without_a_time_limit_is_unlimited(self, budget):
        share = budget.share(2)
        assert (share.ms, share.max_nodes) == (None, None)
        for _ in range(2 * Budget.CHECK_EVERY):
            share.spend()

    @pytest.mark.parametrize("ms", [0, 10])
    def test_share_after_the_deadline_is_zero(self, monkeypatch, ms):
        clock = [50.0]
        monkeypatch.setattr(chi.time, "monotonic", lambda: clock[0])
        budget = Budget(ms=ms)
        clock[0] += 1.0
        share = budget.share(4)
        assert share.ms == 0
        clock[0] += 0.001  # its first clock read stops it
        with pytest.raises(UndecidedError):
            share.check_clock()


class TestBounds:
    def test_greedy_clique_finds_triangle(self):
        g = cycle_graph(3)
        assert len(greedy_clique(g)) == 3

    def test_greedy_clique_matches_full_scan(self):
        # graphs regular and not, sparse to dense, with more than 24 vertices
        # of top degree and fewer; the quotients are regular
        rng = random.Random(31)
        graphs = [twisted_quotient(3, 5), twisted_quotient(4, 3), FiniteGraph(0, [])]
        for trial in range(300):
            graphs.append(random_graph(rng.randint(1, 40), rng.choice((0.1, 0.3, 0.6, 0.9)), 2000 + trial))
        for g in graphs:
            clique = greedy_clique(g)
            assert clique == scan_greedy_clique(g), g
            assert all(w in g.adj[v] for v, w in itertools.combinations(clique, 2))

    def test_dsatur_greedy_proper(self):
        for seed in range(5):
            g = random_graph(12, 0.3, seed)
            got = dsatur_greedy(g)
            assert is_proper(g, got)

    @pytest.mark.parametrize(
        "n, p, seed, colors",
        [
            (12, 0.3, 0, "132222112111"),
            (12, 0.3, 1, "212231123132"),
            (12, 0.3, 2, "131221211142"),
            (12, 0.3, 3, "131212221221"),
            (12, 0.3, 4, "312322111323"),
            (20, 0.5, 0, "44212435364342521415"),
            (20, 0.5, 1, "31431525324345456631"),
            (20, 0.5, 2, "11464234541323215465"),
        ],
    )
    def test_dsatur_greedy_pinned_colorings(self, n, p, seed, colors):
        got = dsatur_greedy(random_graph(n, p, seed))
        assert "".join(map(str, got.colors)) == colors
        assert got.palette == max(map(int, colors))
