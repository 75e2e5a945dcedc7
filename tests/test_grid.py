import itertools
import random

import pytest

from gridchroma.chi import Budget, Coloring, chromatic_number, enumerate_colorings, is_proper
from gridchroma.errors import InputError, InvariantViolation, StopEnumeration, UndecidedError
from gridchroma.groups import MarkedGroupSpec, multiply
import gridchroma.grid
from gridchroma.grid import (
    HORIZONTAL,
    VERTICAL,
    _orientation_flags,
    grid_graph,
    layer_graph,
    two_orbit_graph,
    verify_dichotomy,
    verify_invariance,
    verify_rigidity,
)
from gridchroma.quotients import build_quotient
from oracles import (
    NOT_INDEPENDENT,
    SINGLETON,
    classify_independent_set,
    edge_list_layer_graph,
    is_independent,
    is_regular,
    orientation,
    projection_coloring,
)

H3 = grid_graph(3)


def oracle_flags(k, cols):
    """(horizontal?, vertical?) from the shape of each color class."""
    rows, columns = set(), set()
    for c in set(cols):
        shape = classify_independent_set(k, [v for v, x in enumerate(cols) if x == c])
        if shape.kind == HORIZONTAL:
            rows.add(shape.index)
        elif shape.kind == VERTICAL:
            columns.add(shape.index)
    return len(rows) == k, len(columns) == k


class TestGridGraph:
    def test_vertex_count_and_regularity(self):
        for k in (3, 4, 5):
            h = grid_graph(k)
            assert h.n == k * k
            assert is_regular(h, (k - 1) ** 2)

    def test_adjacency_rule(self):
        # edges join cells differing in both coordinates
        for v in range(H3.n):
            a, b = divmod(v, 3)
            assert H3.labels[v] == (a, b)
            for w in H3.adj[v]:
                a2, b2 = divmod(w, 3)
                assert a != a2 and b != b2

    def test_column_is_independent(self):
        assert is_independent(H3, [0 * 3 + b for b in range(3)])

    def test_row_is_independent(self):
        assert is_independent(H3, [a * 3 + 2 for a in range(3)])

    def test_chromatic_number_is_three(self):
        # oracle: no independent set of size 4 exists, so chi >= 9/3 = 3,
        # and the first-coordinate coloring certifies chi <= 3
        sizes = [
            len(s)
            for s in itertools.combinations(range(9), 4)
            if is_independent(H3, s)
        ]
        assert sizes == []
        assert is_proper(H3, projection_coloring(3, "a"))
        assert chromatic_number(H3) == 3

    def test_no_two_coloring_exists(self):
        from gridchroma.chi import find_coloring

        assert find_coloring(H3, 2) is None


class TestClassification:
    def test_singleton(self):
        assert classify_independent_set(3, [0 * 3 + 2]).kind == SINGLETON

    def test_column_is_vertical(self):
        got = classify_independent_set(3, [0 * 3 + b for b in range(3)])
        assert (got.kind, got.index) == (VERTICAL, 0)

    def test_row_is_horizontal(self):
        got = classify_independent_set(3, [a * 3 + 1 for a in range(3)])
        assert (got.kind, got.index) == (HORIZONTAL, 1)

    def test_both_coordinates_differ_means_edge(self):
        got = classify_independent_set(3, [0 * 3 + 0, 1 * 3 + 1])
        assert got.kind == NOT_INDEPENDENT

    def test_empty_set_rejected(self):
        with pytest.raises(InputError):
            classify_independent_set(3, [])

    def test_exhaustive_trichotomy_k3(self):
        # every nonempty subset classifies consistently with raw independence
        for size in range(1, 10):
            for subset in itertools.combinations(range(9), size):
                got = classify_independent_set(3, subset)
                indep = is_independent(H3, subset)
                if not indep:
                    assert got.kind == NOT_INDEPENDENT
                elif size == 1:
                    assert got.kind == SINGLETON
                else:
                    assert got.kind in (HORIZONTAL, VERTICAL)

    def test_sampled_trichotomy_k4(self):
        h4 = grid_graph(4)
        rng = random.Random(404)
        for _ in range(400):
            size = rng.randint(2, 6)
            subset = rng.sample(range(16), size)
            got = classify_independent_set(4, subset)
            if is_independent(h4, subset):
                assert got.kind in (HORIZONTAL, VERTICAL)
            else:
                assert got.kind == NOT_INDEPENDENT


class TestOrientation:
    def test_first_coordinate_coloring_is_vertical(self):
        # its color sets are full columns
        assert orientation(3, projection_coloring(3, "a", palette=4)) == VERTICAL

    def test_second_coordinate_coloring_is_horizontal(self):
        assert orientation(3, projection_coloring(3, "b", palette=4)) == HORIZONTAL

    def test_improper_coloring_rejected(self):
        with pytest.raises(InputError):
            orientation(3, Coloring((1,) * 9, 4))

    def test_wrong_palette_rejected(self):
        with pytest.raises(InputError):
            orientation(3, projection_coloring(3, "a", palette=5))

    def test_stable_under_color_permutation(self):
        samples = []
        enumerate_colorings(
            H3, 4, lambda cols: len(samples) < 40 and samples.append(cols)
        )
        rng = random.Random(7)
        for cols in samples:
            base = orientation(3, Coloring(cols, 4))
            perm = [0, 1, 2, 3, 4]
            tail = perm[1:]
            rng.shuffle(tail)
            perm[1:] = tail
            permuted = tuple(perm[c] for c in cols)
            assert orientation(3, Coloring(permuted, 4)) == base

    @pytest.mark.parametrize(
        "k, palette, canonical, count, outcomes",
        [
            pytest.param(k, palette, canonical, count, outcomes, id=f"{k}-{canonical}-{count}")
            for k, palette, canonical, count, outcomes in [
                (3, 3, False, 12, {(True, False), (False, True)}),
                (3, 4, False, 1056, {(True, False), (False, True)}),
                (3, 5, True, 230, {(True, False), (False, True), (False, False)}),
                (4, 4, False, 48, {(True, False), (False, True)}),
                (4, 5, True, 146, {(True, False), (False, True)}),
                (4, 6, True, 3826, {(True, False), (False, True)}),
            ]
        ],
    )
    def test_flags_match_classification_oracle(self, k, palette, canonical, count, outcomes):
        seen = []
        enumerate_colorings(grid_graph(k), palette, seen.append, canonical=canonical)
        assert len(seen) == count
        for cols in seen:
            assert _orientation_flags(k, cols) == oracle_flags(k, cols), cols
        assert {oracle_flags(k, cols) for cols in seen} == outcomes

    def test_both_flags_hold_on_row_and_column_pairs(self):
        # one pair of cells per column, then one per row in the cells left:
        # eight classes of two, so all four rows and all four columns marked
        classes = [
            [(0, 0), (0, 1)], [(1, 2), (1, 3)], [(2, 0), (2, 1)], [(3, 2), (3, 3)],
            [(1, 0), (3, 0)], [(1, 1), (3, 1)], [(0, 2), (2, 2)], [(0, 3), (2, 3)],
        ]
        cols = [0] * 16
        for color, cells in enumerate(classes, start=1):
            for a, b in cells:
                cols[a * 4 + b] = color
        assert is_proper(grid_graph(4), Coloring(tuple(cols), 8))
        assert _orientation_flags(4, tuple(cols)) == oracle_flags(4, cols) == (True, True)

    def test_flags_match_oracle_on_sampled_k5_colorings(self):
        # a seeded sample of the canonical 8-colorings of the 5 x 5 grid;
        # lexicographic order colors column 0 first, so nearly all are
        # vertical, and their transposes (also proper) cover horizontal
        rng = random.Random(5)
        sample = []

        def keep(cols):
            if rng.random() < 0.005:
                sample.append(cols)
                if len(sample) == 100:
                    raise StopEnumeration

        enumerate_colorings(grid_graph(5), 8, keep, canonical=True)
        assert len(sample) == 100
        transposed = [tuple(cols[b * 5 + a] for a in range(5) for b in range(5)) for cols in sample]
        for cols in sample + transposed:
            assert _orientation_flags(5, cols) == oracle_flags(5, cols), cols
        assert {oracle_flags(5, cols) for cols in sample + transposed} == {(True, False), (False, True)}


class TestTwoOrbitGraph:
    @pytest.mark.parametrize("twisted", [False, True])
    def test_degrees(self, twisted):
        tg = two_orbit_graph(3, twisted)
        # each layer contributes (k-1)^2 inside plus (k-1)^2 across
        assert is_regular(tg, 8)

    def test_cross_adjacency_plain(self):
        tg = two_orbit_graph(3, twisted=False)
        u = 0 * 9 + 0 * 3 + 0  # n*k*k + a*k + b
        assert tg.labels[u] == (0, 0, 0)
        cross = {tg.labels[w] for w in tg.adj[u] if tg.labels[w][2] == 1}
        assert cross == {(a, b, 1) for a in (1, 2) for b in (1, 2)}

    def test_cross_adjacency_twisted_swaps(self):
        tg = two_orbit_graph(3, twisted=True)
        u = 0 * 9 + 0 * 3 + 1  # n*k*k + a*k + b
        assert tg.labels[u] == (0, 1, 0)
        cross = {tg.labels[w] for w in tg.adj[u] if tg.labels[w][2] == 1}
        # neighbors (c,d,1) satisfy c != b and d != a
        assert cross == {(c, d, 1) for c in (0, 2) for d in (1, 2)}

    def test_mixed_projection_coloring_is_improper(self):
        tg = two_orbit_graph(3, twisted=False)
        lo = projection_coloring(3, "a").colors
        hi = projection_coloring(3, "b").colors
        mixed = Coloring(lo + hi, 3)
        assert not is_proper(tg, mixed)


class TestVerifiers:
    def test_dichotomy_k3_full_enumeration(self):
        report = verify_dichotomy(3)
        assert report.ok
        assert report.count == 1056  # frozen from the raw 4^9 scan oracle
        assert not report.params["canonical"]

    def test_dichotomy_k3_canonical_agrees(self):
        report = verify_dichotomy(3, canonical=True)
        assert report.ok
        assert 0 < report.count < 1056

    def test_dichotomy_budget_exhaustion_is_undecided(self):
        report = verify_dichotomy(4, budget=Budget(max_nodes=500))
        assert report.undecided
        assert not report.ok

    def test_budget_stop_keeps_the_colorings_visited(self):
        report = verify_dichotomy(4, budget=Budget(max_nodes=5000))
        assert report.undecided and not report.ok
        seen = []
        with pytest.raises(UndecidedError) as stop:
            enumerate_colorings(
                grid_graph(4), 6, seen.append, canonical=True, budget=Budget(max_nodes=5000)
            )
        assert report.count == stop.value.lower == len(seen) > 0
        report = verify_invariance(3, False, budget=Budget(max_nodes=20000))
        assert report.undecided
        assert 0 < report.count < 12288

    def test_violation_cap_keeps_the_colorings_visited(self, monkeypatch):
        # every coloring escapes the dichotomy: ten are recorded, the
        # eleventh adds the suppression note and stops the enumeration
        monkeypatch.setattr(gridchroma.grid, "_orientation_flags", lambda k, cols: (True, True))
        report = verify_dichotomy(3)
        assert not report.ok and not report.undecided
        assert report.count == 11
        assert len(report.violations) == 11

    def test_invariance_plain_layers_match(self):
        report = verify_invariance(3, twisted=False)
        assert report.ok
        assert report.count == 12288

    def test_invariance_twisted_layers_swap(self):
        report = verify_invariance(3, twisted=True)
        assert report.ok
        assert report.count == 12288

    @pytest.mark.parametrize("twisted", [False, True])
    def test_invariance_memo_cap(self, monkeypatch, twisted):
        calls = []

        def flags(k, cols):
            calls.append(cols)
            return _orientation_flags(k, cols)

        monkeypatch.setattr(gridchroma.grid, "_orientation_flags", flags)
        assert verify_invariance(3, twisted).count == 12288
        # at k=3 the memo never fills: each layer tuple is worked out once
        assert len(calls) == len(set(calls)) <= 1056
        calls.clear()
        monkeypatch.setattr(gridchroma.grid, "FLAG_MEMO_CAP", 4)
        report = verify_invariance(3, twisted)
        assert report.ok and report.count == 12288
        assert len(calls) > len(set(calls))  # a capped memo forgets and recomputes

    def test_invariance_counts_equal_across_twists(self):
        plain = verify_invariance(3, twisted=False)
        twisted = verify_invariance(3, twisted=True)
        assert plain.count == twisted.count

    def test_rigidity_k3(self):
        report = verify_rigidity(3)
        assert report.ok
        # 2 projections x 3! labelings, layer 1 forced equal to layer 0
        assert report.count == 12

    def test_rejects_small_k(self):
        with pytest.raises(InputError):
            verify_dichotomy(2)
        with pytest.raises(InputError):
            verify_invariance(2, False)
        with pytest.raises(InputError):
            verify_rigidity(2)


class TestSizeGuard:
    # the guard is tested by its estimate: nothing oversized is built
    def test_oversized_build_refused(self):
        with pytest.raises(InputError, match="9,003,750,000 edges"):
            layer_graph(MarkedGroupSpec(50), 1000, cyclic=True)

    def test_oversized_grid_refused(self):
        with pytest.raises(InputError, match="249,761,250 edges"):
            grid_graph(150)

    def test_grid_cap_is_inclusive(self, monkeypatch):
        # k=3: 9 cells of degree 4, 18 edges
        monkeypatch.setattr(gridchroma.grid, "MAX_LAYER_GRAPH_EDGES", 18)
        assert grid_graph(3).edge_count == 18
        monkeypatch.setattr(gridchroma.grid, "MAX_LAYER_GRAPH_EDGES", 17)
        with pytest.raises(InputError):
            grid_graph(3)

    def test_cap_is_inclusive(self, monkeypatch):
        # k=3 on 4 cyclic levels: 36 vertices of degree 12, 216 edges
        spec = MarkedGroupSpec(3)
        monkeypatch.setattr(gridchroma.grid, "MAX_LAYER_GRAPH_EDGES", 216)
        assert layer_graph(spec, 4, cyclic=True).edge_count == 216
        monkeypatch.setattr(gridchroma.grid, "MAX_LAYER_GRAPH_EDGES", 215)
        with pytest.raises(InputError):
            layer_graph(spec, 4, cyclic=True)


class TestLayerGraph:
    # the tiled adjacency against the edge-list constructor fed the same
    # templates
    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
    def test_matches_edge_list_build(self, k, twisted):
        spec = MarkedGroupSpec(k, twisted=twisted)
        shapes = [(levels, False) for levels in range(1, 9)]
        shapes += [(levels, True) for levels in range(3, 9)]
        for levels, cyclic in shapes:
            got = layer_graph(spec, levels, cyclic=cyclic)
            want = edge_list_layer_graph(spec, levels, cyclic=cyclic)
            assert (got.n, got.adj, got.labels) == (want.n, want.adj, want.labels)

    def test_templates_are_frozen(self):
        spec = MarkedGroupSpec(3, twisted=True)
        intra, cross, _ = gridchroma.grid._templates(spec, gridchroma.grid.multiply)
        assert type(intra) is frozenset and type(cross) is frozenset

    def test_too_few_levels_refused(self):
        spec = MarkedGroupSpec(3)
        with pytest.raises(InputError):
            layer_graph(spec, 0)
        with pytest.raises(InputError):
            layer_graph(spec, 2, cyclic=True)

    def test_warm_memo_still_checks_a_replaced_product(self, monkeypatch):
        spec = MarkedGroupSpec(3)
        build_quotient(spec, 3)

        def skewed(spec, g, h):
            y = multiply(spec, g, h)
            return y._replace(a=(y.a + (h.n == 1)) % spec.k)

        monkeypatch.setattr(gridchroma.grid, "multiply", skewed)
        with pytest.raises(InvariantViolation):
            build_quotient(spec, 3)


def test_raw_scan_oracle_for_dichotomy_count():
    """Independent count of proper 4-colorings: scan all 4^9 assignments."""
    edges = list(H3.edges())
    count = 0
    for assign in itertools.product((1, 2, 3, 4), repeat=9):
        if all(assign[u] != assign[v] for u, v in edges):
            count += 1
    assert count == 1056
