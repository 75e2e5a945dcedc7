import pytest

from gridchroma import grid
from gridchroma.chi import Budget, find_coloring
from gridchroma.errors import InputError, InvariantViolation
from gridchroma.grid import cell, two_orbit_graph
from gridchroma.groups import (
    GroupElement,
    MarkedGroupSpec,
    generators,
    multiply,
    untwist,
)
from gridchroma.quotients import (
    build_quotient,
    cayley_window,
    quotient_chi,
    verify_alternation_obstruction,
    verify_even_quotient_isomorphism,
)
from oracles import edge_list_layer_graph, is_regular

DELTA3 = MarkedGroupSpec(3)
GAMMA3 = MarkedGroupSpec(3, twisted=True)

ALL_SPECS = [MarkedGroupSpec(k, twisted) for k in (3, 4, 5) for twisted in (False, True)]


def reference_edges(spec, levels, cyclic):
    """Edge set and cells by the definition: x ~ s*x for every vertex x
    of levels 0..levels-1 and every generator s, dropping edges that leave
    the window, or reducing the shift mod levels in the quotient."""
    k = spec.k
    kk = k * k
    edges = set()
    for n in range(levels):
        for a in range(k):
            for b in range(k):
                x = GroupElement(a, b, n)
                for gen in generators(spec):
                    y = multiply(spec, gen, x)
                    if cyclic:
                        m = y.n % levels
                    elif 0 <= y.n < levels:
                        m = y.n
                    else:
                        continue
                    u, v = n * kk + a * k + b, m * kk + y.a * k + y.b
                    edges.add((u, v) if u < v else (v, u))
    cells = tuple((a, b, n) for n in range(levels) for a in range(k) for b in range(k))
    return edges, cells


class TestConstruction:
    def test_delta_m3_size_and_regularity(self):
        q = build_quotient(DELTA3, 3)
        assert q.graph.n == 27
        assert is_regular(q.graph, 12)

    def test_gamma_m3_size_and_regularity(self):
        q = build_quotient(GAMMA3, 3)
        assert q.graph.n == 27
        assert is_regular(q.graph, 12)

    def test_small_modulus_rejected(self):
        with pytest.raises(InputError):
            build_quotient(DELTA3, 2)
        with pytest.raises(InputError):
            cayley_window(DELTA3, 0)

    def test_window_of_two_levels_matches_two_orbit_graph(self):
        for twisted in (False, True):
            window = cayley_window(MarkedGroupSpec(3, twisted=twisted), 2)
            direct = two_orbit_graph(3, twisted)
            assert list(window.edges()) == list(direct.edges())

    def test_window_interior_degree(self):
        window = cayley_window(DELTA3, 5)
        # interior levels see all 3(k-1)^2 neighbors
        for v in range(window.n):
            _, _, n = cell(3, v)
            if 1 <= n <= 3:
                assert len(window.adj[v]) == 12

    def test_right_multiplication_is_window_automorphism(self):
        # edges are y = s*x, so right multiplication by level-0 elements
        # permutes each level and preserves adjacency
        for spec in (DELTA3, GAMMA3):
            window = cayley_window(spec, 3)
            cells = [cell(3, v) for v in range(window.n)]
            index = {lab: v for v, lab in enumerate(cells)}
            edges = set(window.edges())
            for c in range(3):
                for d in range(3):
                    gamma = GroupElement(c, d, 0)
                    image = {}
                    for v, (a, b, n) in enumerate(cells):
                        y = multiply(spec, GroupElement(a, b, n), gamma)
                        image[v] = index[(y.a, y.b, y.n)]
                    mapped = {
                        tuple(sorted((image[u], image[v]))) for u, v in edges
                    }
                    assert mapped == edges

    def test_left_multiplication_is_automorphism_for_plain_only(self):
        # in the plain group left and right multiplication agree; in the
        # twisted group left multiplication by a generic grid element is
        # not an automorphism of the left-multiplication Cayley graph
        window = cayley_window(DELTA3, 3)
        cells = [cell(3, v) for v in range(window.n)]
        index = {lab: v for v, lab in enumerate(cells)}
        edges = set(window.edges())
        gamma = GroupElement(1, 2, 0)
        image = {
            v: index[
                (lambda y: (y.a, y.b, y.n))(
                    multiply(DELTA3, gamma, GroupElement(a, b, n))
                )
            ]
            for v, (a, b, n) in enumerate(cells)
        }
        assert {tuple(sorted((image[u], image[v]))) for u, v in edges} == edges

    def test_untwist_maps_twisted_window_onto_plain_window(self):
        tw = cayley_window(GAMMA3, 4)
        pl = cayley_window(DELTA3, 4)
        cells = [cell(3, v) for v in range(pl.n)]
        index = {lab: v for v, lab in enumerate(cells)}
        image = {}
        for v, (a, b, n) in enumerate(cells):
            e = untwist(GroupElement(a, b, n))
            image[v] = index[(e.a, e.b, e.n)]
        mapped = {tuple(sorted((image[u], image[v]))) for u, v in tw.edges()}
        assert mapped == set(pl.edges())


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
class TestTemplateBuilderMatchesDefinition:
    def test_windows(self, spec):
        for levels in range(1, 9):
            graph = cayley_window(spec, levels)
            edges, cells = reference_edges(spec, levels, cyclic=False)
            assert set(graph.edges()) == edges
            assert tuple(cell(spec.k, v) for v in range(graph.n)) == cells

    def test_quotients(self, spec):
        for modulus in range(3, 9):
            graph = build_quotient(spec, modulus).graph
            edges, cells = reference_edges(spec, modulus, cyclic=True)
            assert set(graph.edges()) == edges
            assert tuple(cell(spec.k, v) for v in range(graph.n)) == cells

    def test_two_orbit_graph(self, spec):
        graph = two_orbit_graph(spec.k, spec.twisted)
        edges, cells = reference_edges(spec, 2, cyclic=False)
        assert set(graph.edges()) == edges
        assert tuple(cell(spec.k, v) for v in range(graph.n)) == cells

    def test_modulus_two_still_rejected(self, spec):
        with pytest.raises(InputError):
            build_quotient(spec, 2)


def test_product_that_breaks_shift_commutation_is_caught(monkeypatch):
    # not associative: a right factor on level 1 moves the first coordinate
    def skewed(spec, g, h):
        y = multiply(spec, g, h)
        return y._replace(a=(y.a + (h.n == 1)) % spec.k)

    monkeypatch.setattr(grid, "multiply", skewed)
    with pytest.raises(InvariantViolation):
        build_quotient(DELTA3, 3)


def test_cell_short_of_neighbors_is_caught_by_every_builder(monkeypatch):
    # drop the generator (1, 1, +1) and its inverse: cell (0, 0) loses its
    # neighbor (1, 1) on the level above, and no build may go on without it
    def thinned(spec):
        k = spec.k
        dropped = {GroupElement(1, 1, 1), GroupElement(k - 1, k - 1, -1)}
        return [s for s in generators(spec) if s not in dropped]

    monkeypatch.setattr(grid, "generators", thinned)
    builds = [
        lambda: cayley_window(DELTA3, 4),
        lambda: two_orbit_graph(3, True),
        lambda: build_quotient(DELTA3, 5),
    ]
    for build in builds:
        with pytest.raises(InvariantViolation) as exc:
            build()
        assert str(exc.value) == "cell (0, 0) has 3 neighbors on the level above, expected 4"


def test_level_above_unlike_level_below_is_caught_by_every_builder(monkeypatch):
    # an inverse-closed generating set whose +1 cells are not closed under
    # negation: every cell keeps 4 neighbors on each side, but the level
    # above joins it to other cells than the level below does; the inverse
    # of (a, b, 1) is (-a, -b, -1), with a and b swapped when twisted
    def lopsided(spec):
        up = [(1, 1), (1, 2), (2, 1), (0, 1)]
        down = [(b, a) if spec.twisted else (a, b) for a, b in up]
        intra = [s for s in generators(spec) if s.n == 0]
        return intra + [GroupElement(a, b, 1) for a, b in up] + [GroupElement(-a % 3, -b % 3, -1) for a, b in down]

    monkeypatch.setattr(grid, "generators", lopsided)
    builds = [
        lambda: cayley_window(DELTA3, 4),
        lambda: two_orbit_graph(3, True),
        lambda: build_quotient(DELTA3, 5),
        lambda: grid.column_graph(GAMMA3),
    ]
    for build in builds:
        with pytest.raises(InvariantViolation, match="on the level above than on the level below"):
            build()


def test_memos_follow_a_replaced_generator_set_and_its_restoring(monkeypatch):
    # a valid generating set of both groups whose +1 cells (1, 0), (2, 0),
    # (0, 1), (0, 2) differ in one coordinate: it passes every template
    # check, so only a memo keyed on the generators tells it from the real
    # set, whether the memo is warm when it is put in or when it is taken out
    def rook(spec):
        intra = [s for s in generators(spec) if s.n == 0]
        return intra + [GroupElement(a, b, n) for a, b in ((1, 0), (2, 0), (0, 1), (0, 2)) for n in (1, -1)]

    def builds():
        window = grid.layer_graph(DELTA3, 3)
        want = edge_list_layer_graph(DELTA3, 3)
        assert window.adj == want.adj and window.neighbor_masks() == want.neighbor_masks()
        return window.adj, grid.column_graph(DELTA3).adj

    real = builds()
    with monkeypatch.context() as m:
        m.setattr(grid, "generators", rook)
        replaced = builds()
    assert replaced[0] != real[0] and replaced[1] != real[1]
    assert builds() == real


class TestQuotientChi:
    # values frozen from exact solver runs; the plain upper bounds also
    # follow from the first-coordinate coloring and the twisted odd lower
    # bounds from the alternation parity argument
    @pytest.mark.parametrize("modulus", [3, 4, 5, 12])
    def test_plain_quotients_stay_k_chromatic(self, modulus):
        assert quotient_chi(DELTA3, modulus).value == 3

    def test_twisted_odd_quotient_needs_2k_minus_1(self):
        assert quotient_chi(GAMMA3, 3).value == 5

    def test_twisted_m5_observed_value(self):
        assert quotient_chi(GAMMA3, 5).value == 5

    def test_twisted_m7_is_proven_in_pinned_nodes(self):
        # the DSATUR order fixes the search tree: its exact size, palettes
        # 3 and 4 both refuted, 0.4 to 0.6 s on a 2-vCPU Xeon
        res = quotient_chi(GAMMA3, 7)
        assert (res.value, res.nodes) == (5, 121257)

    @pytest.mark.parametrize("modulus", [4, 12])
    def test_twisted_even_quotients_collapse(self, modulus):
        assert quotient_chi(GAMMA3, modulus).value == 3

    def test_separation_gap_at_m3(self):
        gap = quotient_chi(GAMMA3, 3).value - quotient_chi(DELTA3, 3).value
        assert gap == 2

    def test_undecided_on_tiny_budget(self):
        res = quotient_chi(GAMMA3, 3, budget=Budget(max_nodes=3))
        assert res.undecided


class TestAlternation:
    @pytest.mark.parametrize("modulus", [3, 5])
    def test_obstruction_verified(self, modulus):
        report = verify_alternation_obstruction(3, modulus)
        assert report.ok
        assert len(report.notes) == 2  # search route plus parity route
        assert report.notes[1] == (
            "parity: layer orientations would alternate across every twisted "
            f"layer boundary, but a {modulus}-cycle admits no proper 2-coloring "
            "(its chromatic number is 3)"
        )

    def test_twisted_odd_has_no_4_coloring(self):
        q = build_quotient(GAMMA3, 3)
        assert find_coloring(q.graph, 4) is None

    def test_even_modulus_rejected(self):
        with pytest.raises(InputError):
            verify_alternation_obstruction(3, 4)

    def test_undecided_on_tiny_budget(self):
        report = verify_alternation_obstruction(3, 5, budget=Budget(max_nodes=3))
        assert report.undecided


class TestEvenIsomorphism:
    def test_m4_isomorphism(self):
        report = verify_even_quotient_isomorphism(3, 4)
        assert report.ok
        assert report.count == 216  # 36 vertices x 12 / 2

    def test_odd_modulus_rejected(self):
        with pytest.raises(InputError):
            verify_even_quotient_isomorphism(3, 3)

    def test_m3_quotients_differ_by_chromatic_number(self):
        # no swap-map isomorphism can exist at odd modulus: the chromatic
        # numbers already differ
        assert quotient_chi(DELTA3, 3).value != quotient_chi(GAMMA3, 3).value
