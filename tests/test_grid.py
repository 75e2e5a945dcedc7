import itertools
import math
import random

import pytest

from gridchroma.chi import Budget, Coloring, chromatic_number, enumerate_colorings, find_coloring, is_proper
from gridchroma.errors import InputError, InvariantViolation, StopEnumeration, UndecidedError
from gridchroma.groups import MarkedGroupSpec, multiply
import gridchroma.graphs
import gridchroma.grid
from gridchroma.grid import (
    HORIZONTAL,
    VERTICAL,
    VerificationReport,
    _line_cells,
    _mask_flags,
    _orientation_flags,
    cell,
    column_graph,
    grid_graph,
    layer_graph,
    two_orbit_graph,
    verify_dichotomy,
    verify_invariance,
    verify_rigidity,
)
from gridchroma.quotients import build_quotient, verify_alternation_obstruction
from oracles import (
    NOT_INDEPENDENT,
    SINGLETON,
    classify_independent_set,
    distinct_lines,
    edge_list_layer_graph,
    is_independent,
    is_regular,
    orientation,
    projection_coloring,
    walked_invariance,
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


def plant_masks(monkeypatch, plant):
    """Route the grid verifiers' enumerations through `plant(k, cols,
    distinct)`, whose result the verifiers read as the mask of distinct
    lines in place of the kernel's."""
    kernel = gridchroma.grid.enumerate_colorings

    def planted(g, palette, visitor, **options):
        k = math.isqrt(g.n)
        return kernel(g, palette, lambda cols, distinct: visitor(cols, plant(k, cols, distinct)), **options)

    monkeypatch.setattr(gridchroma.grid, "enumerate_colorings", planted)


def flags_mask(k, horiz, vert):
    """A mask of distinct lines that `_mask_flags` reads as (horiz, vert):
    row 0 is distinct unless horizontal, column 0 unless vertical."""
    return (not horiz) | (not vert) << k


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
            assert cell(3, v) == (a, b, 0)
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
        seen, masks = [], []

        def keep(cols, distinct):
            masks.append(distinct)

        enumerate_colorings(grid_graph(k), palette, keep, canonical=canonical, lines=_line_cells(k))
        enumerate_colorings(grid_graph(k), palette, seen.append, canonical=canonical)
        assert len(seen) == len(masks) == count
        for cols, distinct in zip(seen, masks):
            assert _orientation_flags(k, cols) == oracle_flags(k, cols), cols
            assert _mask_flags(k, distinct) == oracle_flags(k, cols), cols
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
        assert cell(3, u) == (0, 0, 0)
        cross = {cell(3, w) for w in tg.adj[u] if cell(3, w)[2] == 1}
        assert cross == {(a, b, 1) for a in (1, 2) for b in (1, 2)}

    def test_cross_adjacency_twisted_swaps(self):
        tg = two_orbit_graph(3, twisted=True)
        u = 0 * 9 + 0 * 3 + 1  # n*k*k + a*k + b
        assert cell(3, u) == (0, 1, 0)
        cross = {cell(3, w) for w in tg.adj[u] if cell(3, w)[2] == 1}
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
        # the grid's 1,056 colorings take 3,997 nodes: a stop among them
        # has counted no pair, a stop in the join the pairs of the lower
        # layers taken so far
        report = verify_invariance(3, False, budget=Budget(max_nodes=2000))
        assert report.undecided and report.count == 0
        report = verify_invariance(3, False, budget=Budget(max_nodes=4500))
        assert report.undecided
        assert 0 < report.count < 12288

    def test_violation_cap_keeps_the_colorings_visited(self, monkeypatch):
        # every coloring escapes the dichotomy (no line is distinct): ten
        # are recorded, the eleventh adds the suppression note and stops
        # the enumeration
        plant_masks(monkeypatch, lambda k, cols, distinct: 0)
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
    def test_invariance_join_flags_each_grid_coloring_once(self, monkeypatch, twisted):
        graphs, masks, scans = [], [], []
        kernel = gridchroma.grid.enumerate_colorings

        def counted(g, palette, visitor, **options):
            graphs.append(g.n)

            def read(cols, distinct):
                masks.append((cols, distinct))
                visitor(cols, distinct)

            return kernel(g, palette, read, **options)

        monkeypatch.setattr(gridchroma.grid, "enumerate_colorings", counted)
        monkeypatch.setattr(gridchroma.grid, "_orientation_flags", lambda k, cols: scans.append(cols))
        assert verify_invariance(3, twisted).count == 12288
        # the k=3 join enumerates the grid once, memo-free, and reads one
        # mask per grid coloring, scanning no line of a passing report
        assert graphs == [9] and scans == []
        assert len(masks) == len({cols for cols, _ in masks}) == 1056
        assert all(distinct == distinct_lines(_line_cells(3), cols) for cols, distinct in masks)

    @pytest.mark.parametrize("twisted", [False, True])
    def test_invariance_join_counts_every_pair(self, monkeypatch, twisted):
        # every layer escapes the dichotomy, so with no cap every pair the
        # join counts is recorded: they must be the two-orbit graph's
        # colorings, each once, in the walk's order; the join reads the
        # masks, its violation records read the set-based flags
        plant_masks(monkeypatch, lambda k, cols, distinct: 0)
        monkeypatch.setattr(gridchroma.grid, "_orientation_flags", lambda k, cols: (True, True))
        monkeypatch.setattr(gridchroma.grid.VerificationReport, "MAX_RECORDED", 20000)
        report = verify_invariance(3, twisted)
        walked = []
        enumerate_colorings(two_orbit_graph(3, twisted), 4, walked.append)
        assert report.count == len(walked) == 12288
        assert [v["coloring"] for v in report.violations] == [list(cols) for cols in walked]

    # plants on a layer whose last two cells (one column) share a color:
    # it reads with its orientation swapped, or as escaping the dichotomy
    PLANTS = {
        "swap": lambda h, v, cols: (v, h) if cols[-1] == cols[-2] else (h, v),
        "escape": lambda h, v, cols: (True, True) if cols[-1] == cols[-2] else (h, v),
    }

    @pytest.mark.parametrize(
        "plant, twisted, count",
        [("swap", False, 35), ("swap", True, 13), ("escape", False, 11), ("escape", True, 11)],
    )
    def test_invariance_join_reports_as_the_walk(self, monkeypatch, plant, twisted, count):
        # the cap stops the join and the walk on the same pair; with no cap
        # both record every faulty pair, escaped lower layers included; the
        # join reads the planted masks, the walk and the join's violation
        # records read the planted set-based flags
        def planted(k, cols):
            return self.PLANTS[plant](*_orientation_flags(k, cols), cols)

        plant_masks(
            monkeypatch,
            lambda k, cols, distinct: flags_mask(k, *self.PLANTS[plant](*_mask_flags(k, distinct), cols)),
        )
        monkeypatch.setattr(gridchroma.grid, "_orientation_flags", planted)
        report = verify_invariance(3, twisted)
        assert report.to_json() == walked_invariance(3, twisted).to_json()
        assert report.count == count and len(report.violations) == 11
        monkeypatch.setattr(gridchroma.grid.VerificationReport, "MAX_RECORDED", 20000)
        report = verify_invariance(3, twisted)
        assert report.count == 12288 and report.violations
        assert report.to_json() == walked_invariance(3, twisted).to_json()

    def test_invariance_join_follows_a_replaced_product(self, monkeypatch):
        # under a product that ignores the twist, twisted layers keep their
        # orientation: the join must read the cross edges of the product
        # in place when it is called
        plain = MarkedGroupSpec(3)
        assert verify_invariance(3, True).ok
        monkeypatch.setattr(gridchroma.grid, "multiply", lambda spec, g, h: multiply(plain, g, h))
        report = verify_invariance(3, True)
        assert report.violations and not report.undecided
        assert report.to_json() == walked_invariance(3, True).to_json()

    def test_invariance_counts_equal_across_twists(self):
        plain = verify_invariance(3, twisted=False)
        twisted = verify_invariance(3, twisted=True)
        assert plain.count == twisted.count

    @pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("twisted", [False, True])
    def test_invariance_refutes_2k2_cases_above_k3(self, k, twisted):
        report = verify_invariance(k, twisted)
        assert report.ok
        assert report.count == report.params["cases"] == 2 * k * k
        assert "canonical" not in report.params
        assert "cases" not in verify_invariance(3, twisted).params

    @pytest.mark.parametrize("twisted", [False, True])
    def test_case_refutations_agree_with_the_join_at_k3(self, twisted):
        # the line pairs that would break the law: one family when twisted,
        # the two families when plain
        graph = two_orbit_graph(3, twisted)
        cases = [(gridchroma.grid._with_cliques(graph, lines), None) for lines in self.line_pairs(3, twisted)]
        report = VerificationReport("invariance", {})
        assert gridchroma.grid._refute_cases(report, cases, 4, list, None) == 18
        assert report.ok
        assert verify_invariance(3, twisted).ok

    @staticmethod
    def line_pairs(k, same_family):
        """Each pair of a line of layer 0 and a line of layer 1, as vertex
        lists: of one family (rows with rows, columns with columns) or of
        the two (rows with columns, columns with rows)."""
        kk = k * k
        rows = [[a * k + b for a in range(k)] for b in range(k)]
        columns = [[a * k + b for b in range(k)] for a in range(k)]
        families = [(rows, rows), (columns, columns)] if same_family else [(rows, columns), (columns, rows)]
        return [(line0, [kk + v for v in line1]) for f0, f1 in families for line0 in f0 for line1 in f1]

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("twisted", [False, True])
    def test_non_flipping_line_pairs_find_colorings(self, k, twisted):
        # the pairs the law allows (one family when plain, both families
        # when twisted) are colorable, so the refuted cases are not vacuous
        graph = two_orbit_graph(k, twisted)
        for lines in self.line_pairs(k, same_family=not twisted):
            cliques = [(u, v) for line in lines for u, v in itertools.combinations(line, 2)]
            case = gridchroma.graphs.FiniteGraph(2 * k * k, [*graph.edges(), *cliques])
            built = gridchroma.grid._with_cliques(graph, lines)
            assert built.adj == case.adj and built.neighbor_masks() == case.neighbor_masks()
            found = find_coloring(case, 2 * k - 2)
            assert found is not None and is_proper(case, found)

    def test_twist_ignoring_product_fails_above_k3(self, monkeypatch):
        # under a product that ignores the twist, twisted layers may keep
        # their orientation: every case finds a coloring of that graph
        monkeypatch.setattr(gridchroma.grid, "multiply", lambda spec, g, h: multiply(MarkedGroupSpec(spec.k), g, h))
        planted = two_orbit_graph(4, True)
        report = verify_invariance(4, True)
        assert not report.ok and not report.undecided and report.count == 0
        *recorded, note = report.violations
        assert len(recorded) == 10 and note == "... further violations suppressed"
        for fault in recorded:
            assert is_proper(planted, Coloring(tuple(fault["coloring"]), 6))
            assert fault["layer0"] == fault["layer1"]
        monkeypatch.setattr(gridchroma.grid.VerificationReport, "MAX_RECORDED", 100)
        report = verify_invariance(4, True)
        assert report.count == 0 and len(report.violations) == 32
        assert verify_invariance(4, False).ok

    @pytest.mark.parametrize("twisted", [False, True])
    def test_invariance_budget_stop_counts_the_cases_refuted(self, monkeypatch, twisted):
        spent = []  # the nodes spent after each case, cumulative

        def counted(graph, palette, pins, budget):
            found = find_coloring(graph, palette, pins, budget=budget)
            spent.append(budget.nodes)
            return found

        monkeypatch.setattr(gridchroma.grid, "find_coloring", counted)
        assert verify_invariance(4, twisted, budget=Budget(max_nodes=10**6)).ok
        assert len(spent) == 32
        cap = spent[-1] // 2
        report = verify_invariance(4, twisted, budget=Budget(max_nodes=cap))
        assert report.undecided and not report.violations
        assert report.count == sum(nodes <= cap for nodes in spent[:32]) > 0
        report = verify_invariance(4, twisted, budget=Budget(ms=0))
        assert report.undecided and report.count == 0

    def test_rigidity_k3(self):
        report = verify_rigidity(3)
        assert report.ok
        # 2 projections x 3! labelings, layer 1 forced equal to layer 0
        assert report.count == 12
        assert report.params == {"k": 3, "palette": 3}

    @pytest.mark.parametrize("k, count", [(3, 12), (4, 48)])
    def test_rigidity_cases_count_the_full_enumeration(self, k, count):
        # the reference: every k-coloring, enumerated, is one projection
        # on both layers, and there are as many as the cases count
        kk = k * k
        seen = []
        assert enumerate_colorings(two_orbit_graph(k, False), k, seen.append) == count
        projections = {projection_coloring(k, axis).colors for axis in "ab"}
        for cols in seen:
            assert cols[:kk] == cols[kk:]
            assert tuple(sorted(set(cols))) == tuple(range(1, k + 1))
            relabel = {c: i + 1 for i, c in enumerate(dict.fromkeys(cols[:kk]))}
            assert tuple(relabel[c] for c in cols[:kk]) in projections
        assert verify_rigidity(k).count == count

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
    def test_rigidity_counts_2_k_factorial(self, k):
        report = verify_rigidity(k)
        assert report.ok
        assert report.count == 2 * math.factorial(k)
        assert "canonical" not in report.params

    def test_rigidity_k6(self):
        report = verify_rigidity(6)
        assert report.to_json() == {
            "name": "rigidity",
            "params": {"k": 6, "palette": 6},
            "count": 1440,
            "violations": [],
            "undecided": False,
            "notes": [],
            "ok": True,
        }

    @staticmethod
    def swapped_columns_graph(k):
        """The plain two-orbit graph with no cross edges between columns 0
        and 1, so layer 1 may swap their colors."""
        kk = k * k
        plain = two_orbit_graph(k, False)
        swapped = {(0, 1), (1, 0)}
        edges = [
            (u, v) for u in range(kk) for v in plain.adj[u]
            if v >= kk and (u // k, (v - kk) // k) not in swapped or u < v < kk
        ] + [(u, v) for u in range(kk, 2 * kk) for v in plain.adj[u] if u < v]
        return gridchroma.graphs.FiniteGraph(2 * kk, edges)

    @pytest.mark.parametrize("k", [3, 4])
    def test_rigidity_planted_violation_caught(self, monkeypatch, k):
        # a case pinning a cell of column 0 or 1 to differ finds the swap,
        # one per such cell: 2k violations, under the cap, and count 0
        kk = k * k
        planted = self.swapped_columns_graph(k)
        monkeypatch.setattr(gridchroma.grid, "two_orbit_graph", lambda k, twisted: planted)
        report = verify_rigidity(k)
        assert not report.ok and not report.undecided and report.count == 0
        assert len(report.violations) == 2 * k
        for bad in report.violations:
            assert bad["layer0_axis"] == bad["layer1_axis"] == "a"
            assert is_proper(planted, Coloring(tuple(bad["coloring"]), k))
            lo, hi = bad["coloring"][:kk], bad["coloring"][kk:]
            assert lo[0] == hi[k] != lo[k] == hi[0]  # columns 0 and 1 swapped
            assert lo[2 * k :] == hi[2 * k :]
        monkeypatch.setattr(gridchroma.grid.VerificationReport, "MAX_RECORDED", 3)
        report = verify_rigidity(k)
        assert report.count == 0 and not report.undecided
        assert report.violations[3:] == ["... further violations suppressed"]

    def test_rigidity_count_reads_which_projections_are_proper(self, monkeypatch):
        # an edge inside column 0 of each layer rules out the projection
        # along a, so the b-projections alone are counted, as they are
        # by the full enumeration
        plain = two_orbit_graph(3, False)
        planted = gridchroma.graphs.FiniteGraph(18, [*plain.edges(), (0, 1), (9, 10)])
        monkeypatch.setattr(gridchroma.grid, "two_orbit_graph", lambda k, twisted: planted)
        report = verify_rigidity(3)
        assert report.ok and report.count == enumerate_colorings(planted, 3) == 6

    def test_rigidity_layers_without_cross_edges_fail_every_case(self, monkeypatch):
        # two grids side by side: the mismatch cases come first, layer 0
        # projected along a then b, and every one of the 2k^2+2 cases finds
        # a coloring
        kk = 9
        edges = [(u + lift, v + lift) for u, v in H3.edges() for lift in (0, kk)]
        planted = gridchroma.graphs.FiniteGraph(2 * kk, edges)
        monkeypatch.setattr(gridchroma.grid, "two_orbit_graph", lambda k, twisted: planted)
        monkeypatch.setattr(gridchroma.grid.VerificationReport, "MAX_RECORDED", 100)
        report = verify_rigidity(3)
        assert report.count == 0 and not report.undecided
        assert len(report.violations) == 2 * kk + 2
        axes = [(bad["layer0_axis"], bad["layer1_axis"]) for bad in report.violations]
        assert axes == [("a", "b"), ("b", "a")] + [("a", "a")] * kk + [("b", "b")] * kk

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_unpinned_same_family_cases_find_colorings(self, k):
        # with one family's lines cliques on both layers and no pins, a
        # coloring exists, so the pinned cases are refuted by their pins
        kk = k * k
        graph = two_orbit_graph(k, False)
        rows = [[a * k + b for a in range(k)] for b in range(k)]
        columns = [[a * k + b for b in range(k)] for a in range(k)]
        for family in (rows, columns):
            lines = family + [[kk + v for v in line] for line in family]
            cliques = [(u, v) for line in lines for u, v in itertools.combinations(line, 2)]
            case = gridchroma.graphs.FiniteGraph(2 * kk, [*graph.edges(), *cliques])
            found = find_coloring(case, k)
            assert found is not None and is_proper(case, found)

    def test_rigidity_budget_stop_leaves_count_0(self):
        budget = Budget()
        assert verify_rigidity(5, budget=budget).ok
        for stop in (Budget(ms=0), Budget(max_nodes=budget.nodes - 1), Budget(max_nodes=20)):
            report = verify_rigidity(5, budget=stop)
            assert report.undecided and report.count == 0 and not report.violations
        assert verify_rigidity(5, budget=Budget(max_nodes=budget.nodes)).ok

    def test_rejects_small_k(self):
        with pytest.raises(InputError):
            verify_dichotomy(2)
        with pytest.raises(InputError):
            verify_invariance(2, False)
        with pytest.raises(InputError):
            verify_rigidity(2)
        with pytest.raises(InputError):
            verify_alternation_obstruction(2, 3)


class TestSizeGuard:
    # the guard is tested by its estimate: nothing oversized is built
    def test_oversized_build_refused(self):
        with pytest.raises(InputError, match="9,003,750,000 edges"):
            layer_graph(MarkedGroupSpec(50), 1000, cyclic=True)

    def test_oversized_grid_refused(self):
        with pytest.raises(InputError, match="249,761,250 edges"):
            grid_graph(150)

    @pytest.mark.parametrize("k", [2, 3.0, "3"], ids=repr)
    def test_grid_modulus_that_is_not_an_integer_from_3_refused(self, k):
        with pytest.raises(InputError, match="grid modulus must be an integer >= 3"):
            grid_graph(k)

    def test_grid_cap_is_inclusive(self, monkeypatch):
        # k=3: 9 cells of degree 4, 18 edges
        monkeypatch.setattr(gridchroma.graphs, "MAX_LAYER_GRAPH_EDGES", 18)
        assert grid_graph(3).edge_count == 18
        monkeypatch.setattr(gridchroma.graphs, "MAX_LAYER_GRAPH_EDGES", 17)
        with pytest.raises(InputError):
            grid_graph(3)

    def test_cap_is_inclusive(self, monkeypatch):
        # k=3 on 4 cyclic levels: 36 vertices of degree 12, 216 edges
        spec = MarkedGroupSpec(3)
        monkeypatch.setattr(gridchroma.graphs, "MAX_LAYER_GRAPH_EDGES", 216)
        assert layer_graph(spec, 4, cyclic=True).edge_count == 216
        monkeypatch.setattr(gridchroma.graphs, "MAX_LAYER_GRAPH_EDGES", 215)
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
            assert (got.n, got.adj) == (want.n, want.adj)

    def test_templates_are_frozen(self):
        spec = MarkedGroupSpec(3, twisted=True)
        templates = gridchroma.grid._templates(spec, gridchroma.grid.multiply, gridchroma.grid.generators)
        assert len(templates) == 5 and type(templates) is tuple
        for side in templates:
            assert len(side) == 9 and type(side) is tuple
        for side in templates[:2]:  # same, cross
            assert all(type(cell) is tuple for cell in side)
        for masks in templates[2:]:  # same, cross and inner masks
            assert all(type(mask) is int for mask in masks)

    def test_layer_that_is_not_the_grid_is_caught(self, monkeypatch):
        # the product is intact; the grid it is checked against loses an edge
        adj = list(gridchroma.grid._grid_adjacency(3))
        adj[0] = adj[0][1:]
        monkeypatch.setattr(gridchroma.grid, "_grid_adjacency", lambda k: tuple(adj))
        with pytest.raises(InvariantViolation, match="not a copy of the grid graph"):
            gridchroma.grid._templates.__wrapped__(MarkedGroupSpec(3), multiply, gridchroma.grid.generators)

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

    @pytest.mark.parametrize("levels, cyclic", [(2, False), (5, False), (3, True), (5, True)])
    def test_warm_getters_follow_a_replaced_product(self, monkeypatch, levels, cyclic):
        # the twisted product passes every template check, so a build of
        # the plain spec under it must come out as the twisted graph
        plain, twisted = MarkedGroupSpec(3), MarkedGroupSpec(3, twisted=True)
        before = layer_graph(plain, levels, cyclic=cyclic).adj
        want = layer_graph(twisted, levels, cyclic=cyclic).adj
        assert before != want

        def twisting(spec, g, h):
            return multiply(twisted, g, h)

        monkeypatch.setattr(gridchroma.grid, "multiply", twisting)
        assert layer_graph(plain, levels, cyclic=cyclic).adj == want

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
    def test_column_graph_contracts_each_column_of_two_levels(self, monkeypatch, k):
        # cell (a, b) of level n goes to vertex n*k + a of the edge-list
        # two-level window; a replaced product is followed
        def contracted(spec):
            edges = set()
            for u, v in edge_list_layer_graph(spec, 2).edges():
                (a, _, n), (a2, _, n2) = cell(k, u), cell(k, v)
                edges.add((n * k + a, n2 * k + a2))
            return gridchroma.graphs.FiniteGraph(2 * k, edges).adj

        plain, twisted = MarkedGroupSpec(k), MarkedGroupSpec(k, twisted=True)
        assert column_graph(plain).adj == contracted(plain)
        assert column_graph(twisted).adj == contracted(twisted) != contracted(plain)
        monkeypatch.setattr(gridchroma.grid, "multiply", lambda spec, g, h: multiply(twisted, g, h))
        assert column_graph(plain).adj == contracted(twisted)


class TestTiledMasks:
    """A layer graph's neighbor bitmasks are tiled from the level
    templates on first use; they must equal the masks the edge-list
    constructor's adjacency gives, one OR per edge."""

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    @pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
    def test_tiled_masks_equal_the_per_edge_masks(self, k, twisted):
        spec = MarkedGroupSpec(k, twisted=twisted)
        shapes = [(levels, False) for levels in range(1, 8)]
        shapes += [(levels, True) for levels in range(3, 8)]
        for levels, cyclic in shapes:
            want = edge_list_layer_graph(spec, levels, cyclic=cyclic).neighbor_masks()
            assert layer_graph(spec, levels, cyclic=cyclic).neighbor_masks() == want

    @pytest.mark.parametrize("levels, cyclic", [(1, False), (2, False), (5, False), (3, True), (5, True)])
    def test_tiled_masks_follow_a_replaced_product(self, monkeypatch, levels, cyclic):
        # the plain spec built under the twisted product is the twisted
        # graph; its masks are tiled under the product it was built with,
        # even when first read after the product is restored
        plain, twisted = MarkedGroupSpec(3), MarkedGroupSpec(3, twisted=True)
        want = edge_list_layer_graph(twisted, levels, cyclic=cyclic).neighbor_masks()
        with monkeypatch.context() as m:
            m.setattr(gridchroma.grid, "multiply", lambda spec, g, h: multiply(twisted, g, h))
            built = layer_graph(plain, levels, cyclic=cyclic)
        assert built.neighbor_masks() == want
        if levels > 1:
            assert layer_graph(plain, levels, cyclic=cyclic).neighbor_masks() != want

    def test_layer_graph_tiles_no_masks_until_asked(self, monkeypatch):
        calls = []
        real = gridchroma.grid._tiled_masks

        def counting(*args):
            calls.append(args[3:])
            return real(*args)

        monkeypatch.setattr(gridchroma.grid, "_tiled_masks", counting)
        g = layer_graph(MarkedGroupSpec(4), 6, cyclic=True)
        two_orbit_graph(4, twisted=True)
        build_quotient(MarkedGroupSpec(3), 5)
        assert calls == []
        masks = g.neighbor_masks()
        assert calls == [(6, True)]
        assert g.neighbor_masks() is masks
        assert calls == [(6, True)]


def test_raw_scan_oracle_for_dichotomy_count():
    """Independent count of proper 4-colorings: scan all 4^9 assignments."""
    edges = list(H3.edges())
    count = 0
    for assign in itertools.product((1, 2, 3, 4), repeat=9):
        if all(assign[u] != assign[v] for u, v in edges):
            count += 1
    assert count == 1056
