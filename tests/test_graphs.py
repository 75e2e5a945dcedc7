import math
import random

import pytest
from hypothesis import given, strategies as st

from gridchroma.errors import InputError
from gridchroma.graphs import (
    FiniteGraph,
    closed_neighborhood,
    components,
    graph_from_dimacs,
    graph_from_json,
    graph_to_dimacs,
    graph_to_json,
    induced_subgraph,
    set_distance,
    vertex_mask,
)
from oracles import is_connected_set, is_independent, set_based_components, set_based_set_distance


def path_graph(n):
    return FiniteGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return FiniteGraph(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return FiniteGraph(n, edges)


class TestConstruction:
    def test_dedupes_and_symmetrizes(self):
        g = FiniteGraph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.adj == ((1,), (0,), ())
        assert g.edge_count == 1

    def test_rejects_loop(self):
        with pytest.raises(InputError):
            FiniteGraph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            FiniteGraph(2, [(0, 2)])

    def test_neighbor_lists_sorted_and_duplicate_free(self):
        g = random_graph(12, 0.4, seed=7)
        for nbrs in g.adj:
            assert list(nbrs) == sorted(set(nbrs))


class TestPathDistance:
    """set_distance between single vertices is their path distance."""

    def test_same_vertex(self):
        assert set_distance(path_graph(4), {2}, {2}) == 0

    def test_adjacent(self):
        assert set_distance(path_graph(4), {1}, {2}) == 1

    def test_five_path_endpoints(self):
        assert set_distance(path_graph(6), {0}, {5}) == 5

    def test_disconnected(self):
        g = FiniteGraph(4, [(0, 1), (2, 3)])
        assert set_distance(g, {0}, {3}) == math.inf

    def test_invalid_vertex(self):
        with pytest.raises(InputError):
            set_distance(path_graph(3), {0}, {5})

    @given(st.integers(0, 99))
    def test_triangle_inequality_random(self, seed):
        g = random_graph(10, 0.3, seed)
        rng = random.Random(seed + 1)
        u, v, w = rng.randrange(10), rng.randrange(10), rng.randrange(10)
        assert set_distance(g, {u}, {w}) <= set_distance(g, {u}, {v}) + set_distance(g, {v}, {w})


class TestSetDistance:
    def test_overlap(self):
        assert set_distance(path_graph(5), {0, 1}, {1, 4}) == 0

    def test_singletons_reduce_to_path_distance(self):
        def path_distance(g, u, v):
            # plain breadth-first search, level by level
            level, seen, d = {u}, {u}, 0
            while level and v not in level:
                level = {w for x in level for w in g.adj[x]} - seen
                seen |= level
                d += 1
            return d if level else math.inf

        for seed in range(6):
            g = random_graph(10, 0.25, seed)
            for u in range(10):
                for v in range(10):
                    assert set_distance(g, {u}, {v}) == path_distance(g, u, v)

    def test_disconnected(self):
        g = FiniteGraph(4, [(0, 1), (2, 3)])
        assert set_distance(g, {0, 1}, {2}) == math.inf

    def test_empty_set_rejected(self):
        with pytest.raises(InputError):
            set_distance(path_graph(3), set(), {0})


class TestComponents:
    def test_connected_graph_single_block(self):
        assert components(cycle_graph(5)) == [[0, 1, 2, 3, 4]]

    def test_empty_restriction(self):
        assert components(path_graph(4), []) == []

    def test_two_disjoint_edges(self):
        g = FiniteGraph(4, [(0, 1), (2, 3)])
        assert components(g) == [[0, 1], [2, 3]]

    def test_partition_property(self):
        g = random_graph(14, 0.15, seed=3)
        restrict = set(range(0, 14, 2)) | {1, 3}
        blocks = components(g, restrict)
        flat = [v for b in blocks for v in b]
        assert sorted(flat) == sorted(restrict)
        assert len(set(flat)) == len(flat)

    @given(st.integers(0, 50))
    def test_partition_property_random(self, seed):
        g = random_graph(12, 0.2, seed)
        rng = random.Random(seed)
        restrict = {v for v in range(12) if rng.random() < 0.6}
        blocks = components(g, restrict)
        flat = sorted(v for b in blocks for v in b)
        assert flat == sorted(restrict)


class TestAgainstSetBasedSearches:
    """The bitmask components and set_distance against the set-and-deque
    searches in the oracles, on seeded random graphs up to 40 vertices."""

    DENSITIES = [0.04, 0.1, 0.5]  # mostly disconnected, near the threshold, dense

    def graphs(self, p):
        for seed in range(30):
            n = random.Random(seed).randint(1, 40)
            yield random_graph(n, p, seed), random.Random(seed + 1000)

    @pytest.mark.parametrize("p", DENSITIES)
    def test_components(self, p):
        split = 0
        for g, rng in self.graphs(p):
            n = g.n
            half = [v for v in range(n) if rng.random() < 0.5]
            few = rng.sample(range(n), min(n, 3))
            for restrict in (None, [], range(n), half, half + half[:3], few, range(0, n, 2)):
                want = set_based_components(g, restrict)
                assert components(g, restrict) == want
                split += len(want) > 1
            assert components(g, iter(half)) == set_based_components(g, half)
        assert split  # some restrictions fall apart

    @pytest.mark.parametrize("p", DENSITIES)
    def test_set_distance(self, p):
        seen = set()
        for g, rng in self.graphs(p):
            n = g.n
            for _ in range(20):
                a = rng.sample(range(n), rng.randint(1, min(n, 4)))
                rest = [v for v in range(n) if v not in a]
                pairs = [(a, [a[0]] + rng.sample(range(n), rng.randint(0, min(n, 3))))]
                if rest:  # disjoint
                    pairs.append((a, rng.sample(rest, rng.randint(1, min(len(rest), 4)))))
                for x, y in pairs:
                    want = set_based_set_distance(g, x, y)
                    assert set_distance(g, x, y) == want
                    assert set_distance(g, iter(y), iter(x)) == want
                    seen.add(want)
        assert 0 in seen and 1 in seen and max(seen - {math.inf}) >= 2

    @pytest.mark.parametrize("bad", [-1, 40, 99, 1.0, "0", None])
    def test_bad_vertices_raise_alike(self, bad):
        g = random_graph(40, 0.1, seed=5)
        calls = [
            (components, (g, [0, bad]), set_based_components),
            (set_distance, (g, [0, bad], [3]), set_based_set_distance),
            (set_distance, (g, [3], [bad]), set_based_set_distance),
        ]
        for ours, args, ref in calls:
            with pytest.raises(InputError) as want:
                ref(*args)
            with pytest.raises(InputError) as got:
                ours(*args)
            assert str(got.value) == str(want.value)

    def test_empty_sets_raise_alike(self):
        g = path_graph(3)
        for a, b in (([], [0]), ([0], []), ([], [])):
            with pytest.raises(InputError, match="non-empty"):
                set_based_set_distance(g, a, b)
            with pytest.raises(InputError, match="non-empty"):
                set_distance(g, a, b)


class TestVertexMask:
    def test_bits_of_the_vertices(self):
        g = path_graph(6)
        assert vertex_mask(g, []) == 0
        assert vertex_mask(g, [0, 2, 5, 2]) == 0b100101
        assert vertex_mask(g, iter(range(6))) == 0b111111

    @pytest.mark.parametrize("bad", [-1, 6, 2.0, "1"])
    def test_rejects_non_vertices(self, bad):
        with pytest.raises(InputError, match=f"vertex {bad!r} out of range for 6 vertices"):
            vertex_mask(path_graph(6), [1, bad])


class TestIndependence:
    def test_empty_and_singleton(self):
        g = cycle_graph(4)
        assert is_independent(g, set())
        assert is_independent(g, {2})

    def test_edge_endpoints(self):
        assert not is_independent(path_graph(3), {0, 1})

    def test_alternating_cycle_vertices(self):
        assert is_independent(cycle_graph(6), {0, 2, 4})


class TestHelpers:
    def test_closed_neighborhood(self):
        g = path_graph(5)
        assert closed_neighborhood(g, {2}) == {1, 2, 3}

    def test_induced_subgraph(self):
        g = cycle_graph(5)
        sub, mapping = induced_subgraph(g, [0, 1, 3])
        assert mapping == [0, 1, 3]
        assert list(sub.edges()) == [(0, 1)]

    def test_is_connected_set(self):
        g = path_graph(5)
        assert is_connected_set(g, {1, 2, 3})
        assert not is_connected_set(g, {0, 2})
        assert not is_connected_set(g, set())


class TestSerialization:
    def test_json_roundtrip(self):
        g = FiniteGraph(4, [(0, 1), (1, 2), (2, 3)], labels=[(0, 0), (0, 1), (1, 0), (1, 1)])
        doc = graph_to_json(g)
        h = graph_from_json(doc)
        assert h.n == g.n
        assert list(h.edges()) == list(g.edges())
        assert h.labels == g.labels

    def test_dimacs_roundtrip(self):
        g = cycle_graph(5)
        text = graph_to_dimacs(g, comment="five cycle")
        h = graph_from_dimacs(text)
        assert h.n == 5
        assert list(h.edges()) == list(g.edges())

    def test_dimacs_header_shape(self):
        text = graph_to_dimacs(path_graph(3))
        assert "p edge 3 2" in text
        assert "e 1 2" in text

    def test_malformed_json_rejected(self):
        with pytest.raises(InputError):
            graph_from_json({"edges": [[0, 1]]})

    def test_malformed_dimacs_rejected(self):
        with pytest.raises(InputError):
            graph_from_dimacs("e 1 2\n")
