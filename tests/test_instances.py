import itertools

import pytest

from gridchroma.errors import InputError
from gridchroma.graphs import FiniteGraph, components, is_connected_set
from gridchroma.groups import MarkedGroupSpec
from gridchroma.instances import (
    CYCLE,
    SEGMENT,
    LineInstance,
    cayley_cycle_instance,
    cayley_segment_instance,
    divides_into_two,
    instance_from_json,
    instance_to_json,
    ladder_instance,
    path_instance,
)
from gridchroma.twoended import connected_subsets

DELTA3 = MarkedGroupSpec(3)


class TestValidation:
    def test_blocks_must_partition(self):
        g = FiniteGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(InputError):
            LineInstance(g, ((0, 1), (1, 2)), SEGMENT)
        with pytest.raises(InputError):
            LineInstance(g, ((0,), (1,)), SEGMENT)

    def test_edges_must_stay_local(self):
        g = FiniteGraph(3, [(0, 2), (0, 1), (1, 2)])
        with pytest.raises(InputError):
            LineInstance(g, ((0,), (1,), (2,)), SEGMENT)

    def test_wrap_edge_allowed_in_cycle_mode_only(self):
        g = FiniteGraph(3, [(0, 1), (1, 2), (2, 0)])
        LineInstance(g, ((0,), (1,), (2,)), CYCLE)
        with pytest.raises(InputError):
            LineInstance(g, ((0,), (1,), (2,)), SEGMENT)

    def test_must_be_connected(self):
        g = FiniteGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(InputError):
            LineInstance(g, ((0, 2), (1, 3)), SEGMENT)

    def test_bad_mode(self):
        g = FiniteGraph(2, [(0, 1)])
        with pytest.raises(InputError):
            LineInstance(g, ((0,), (1,)), "ring")


class TestBuilders:
    def test_path_cycle_chi(self):
        assert path_instance(12, CYCLE).chi == 2
        assert path_instance(9, CYCLE).chi == 3
        assert path_instance(9, SEGMENT).chi == 2

    def test_ladder_shapes(self):
        inst = ladder_instance(12, CYCLE)
        assert inst.graph.n == 24
        assert inst.graph.is_regular(3)
        assert inst.chi == 2

    def test_cayley_cycle_blocks_are_levels(self):
        inst = cayley_cycle_instance(DELTA3, 12)
        assert inst.block_count == 12
        assert inst.graph.n == 108
        assert all(len(b) == 9 for b in inst.blocks)

    def test_cayley_segment(self):
        inst = cayley_segment_instance(DELTA3, 5)
        assert inst.mode == SEGMENT
        assert inst.block_count == 5

    def test_window_vertices(self):
        inst = path_instance(6, CYCLE)
        assert inst.window_vertices(5, 2) == [5, 0]
        seg = path_instance(6, SEGMENT)
        assert seg.window_vertices(5, 2) == [5]


class TestDividesIntoTwoSegment:
    def test_interior_vertex_cuts_a_path(self):
        inst = path_instance(9, SEGMENT)
        assert divides_into_two(inst, {4})

    def test_end_boundary_vertex_does_not(self):
        inst = path_instance(9, SEGMENT)
        assert not divides_into_two(inst, {0})
        assert not divides_into_two(inst, {8})

    def test_full_orbit_cuts_cayley_segment(self):
        inst = cayley_segment_instance(DELTA3, 7)
        orbit = set(inst.blocks[3])
        assert divides_into_two(inst, orbit)

    def test_no_proper_suborbit_subset_cuts(self):
        # exhaustive over connected subsets of one interior block
        inst = cayley_segment_instance(DELTA3, 5)
        block = inst.blocks[2]
        for size in range(1, len(block)):
            for subset in itertools.combinations(block, size):
                if is_connected_set(inst.graph, subset):
                    assert not divides_into_two(inst, subset)

    def test_disconnected_cut_rejected(self):
        inst = path_instance(9, SEGMENT)
        with pytest.raises(InputError):
            divides_into_two(inst, {2, 6})

    def test_empty_cut_rejected(self):
        inst = path_instance(9, SEGMENT)
        with pytest.raises(InputError):
            divides_into_two(inst, set())


class TestDividesIntoTwoCycle:
    def test_single_vertex_cuts_the_modeled_line(self):
        inst = path_instance(12, CYCLE)
        for v in range(12):
            assert divides_into_two(inst, {v})

    def test_wrap_spanning_cut(self):
        inst = path_instance(12, CYCLE)
        assert divides_into_two(inst, {11, 0})

    def test_rail_vertex_does_not_cut_ladder(self):
        inst = ladder_instance(12, CYCLE)
        assert not divides_into_two(inst, {6})

    def test_rung_pair_cuts_ladder(self):
        inst = ladder_instance(12, CYCLE)
        assert divides_into_two(inst, {6, 7})

    def test_full_orbit_cuts_cayley_cycle(self):
        inst = cayley_cycle_instance(DELTA3, 12)
        assert divides_into_two(inst, set(inst.blocks[0]))

    def test_suborbit_does_not_cut_cayley_cycle(self):
        inst = cayley_cycle_instance(DELTA3, 12)
        block = inst.blocks[4]
        assert not divides_into_two(inst, set(block[:8]))

    def test_everything_returns_false(self):
        inst = path_instance(6, CYCLE)
        assert not divides_into_two(inst, set(range(6)))


def set_based_divides_into_two(inst, cut):
    """The cut test as a set-based component search on an explicitly built
    unrolled graph: the reference the bitmask test must agree with."""
    cut_set = set(cut)
    g, n, m = inst.graph, inst.graph.n, inst.block_count
    if inst.mode == SEGMENT:
        graph, removed = g, cut_set
        left, right = set(inst.blocks[0]), set(inst.blocks[-1])
    else:
        touched = {inst.block_of(v) for v in cut_set}
        if len(touched) == m:
            return False
        rot = next(
            (t + 1) % m for t in range(m)
            if t not in touched and (t + 1) % m in touched
        )
        edges = []
        for u, v in g.edges():
            ru = (inst.block_of(u) - rot) % m
            rv = (inst.block_of(v) - rot) % m
            if abs(ru - rv) <= 1:
                edges += [(c * n + u, c * n + v) for c in range(3)]
            else:
                x, y = (u, v) if ru == m - 1 else (v, u)
                edges += [(c * n + x, (c + 1) * n + y) for c in range(2)]
        graph = FiniteGraph(3 * n, edges)
        removed = {n + v for v in cut_set}
        left = {v for v in range(n) if (inst.block_of(v) - rot) % m == 0}
        right = {2 * n + v for v in range(n) if (inst.block_of(v) - rot) % m == m - 1}
    comps = components(graph, set(range(graph.n)) - removed)
    touching_left = [i for i, c in enumerate(comps) if (left - removed) & set(c)]
    touching_right = [i for i, c in enumerate(comps) if (right - removed) & set(c)]
    return (
        len(touching_left) == 1
        and len(touching_right) == 1
        and touching_left != touching_right
    )


def differential_instances():
    for m in (3, 4, 5, 8):
        for mode in (CYCLE, SEGMENT):
            yield path_instance(m, mode), (1, 2)
            yield ladder_instance(m, mode), (1, 2)
    for spec in (DELTA3, MarkedGroupSpec(3, twisted=True)):
        for modulus in (3, 4):
            yield cayley_cycle_instance(spec, modulus), (1,)
        yield cayley_segment_instance(spec, 3), (1,)


class TestDividesIntoTwoMatchesSetBasedSearch:
    def test_every_window_subset_agrees(self):
        tested = 0
        for inst, widths in differential_instances():
            for width in widths:
                if inst.mode == CYCLE:
                    width = min(width, inst.block_count - 1)
                for start in range(inst.block_count):
                    window = inst.window_vertices(start, width)
                    for cut in connected_subsets(
                        inst.graph, window, inst.max_block_size()
                    ):
                        assert divides_into_two(inst, cut) == (
                            set_based_divides_into_two(inst, cut)
                        ), (inst.mode, inst.graph, sorted(cut))
                        tested += 1
        assert tested > 8000

    @pytest.mark.parametrize(
        "cut", [{1.0}, {2, 6}, set(), {9}, {-1}], ids=str
    )
    def test_bad_cut_rejected(self, cut):
        for mode in (SEGMENT, CYCLE):
            with pytest.raises(InputError):
                divides_into_two(path_instance(9, mode), cut)


class TestMonotoneStability:
    def make_crumb_instance(self):
        # blocks: {0} {1,2} {3} {4}; vertex 2 dangles off vertex 1, so
        # removing vertex 1 strands {2} as a finite non-end component
        g = FiniteGraph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        return LineInstance(g, ((0,), (1, 2), (3,), (4,)), SEGMENT)

    def test_cut_with_crumb_still_divides(self):
        inst = self.make_crumb_instance()
        assert divides_into_two(inst, {1})

    def test_absorbing_the_crumb_changes_nothing(self):
        inst = self.make_crumb_instance()
        assert divides_into_two(inst, {1, 2})


class TestSerialization:
    def test_roundtrip(self):
        inst = ladder_instance(6, CYCLE)
        doc = instance_to_json(inst)
        back = instance_from_json(doc)
        assert back.mode == inst.mode
        assert back.blocks == inst.blocks
        assert back.chi == inst.chi
        assert list(back.graph.edges()) == list(inst.graph.edges())

    def test_malformed_rejected(self):
        with pytest.raises(InputError):
            instance_from_json({"mode": CYCLE, "vertices": 3})
