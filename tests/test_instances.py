import dataclasses
import itertools

import pytest

from gridchroma import instances
from gridchroma.errors import InputError
from gridchroma.graphs import FiniteGraph, mask_vertices, vertex_mask
from gridchroma.groups import MarkedGroupSpec
from gridchroma.instances import (
    CYCLE,
    SEGMENT,
    LineInstance,
    cayley_cycle_instance,
    cayley_segment_instance,
    divides_into_two,
    instance_from_json,
    ladder_instance,
    path_instance,
)
from gridchroma.twoended import connected_subsets, find_separators
from oracles import (
    distinct_vertex_sets,
    instance_to_json,
    is_connected_set,
    is_regular,
    random_line_instance,
    set_based_connected_subsets,
    set_based_divides_into_two,
)

DELTA3 = MarkedGroupSpec(3)
GAMMA3 = MarkedGroupSpec(3, twisted=True)


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

    def test_frozen_but_caches_cut_tests(self):
        inst = path_instance(6, CYCLE)
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.mode = SEGMENT
        assert not inst._contexts
        assert divides_into_two(inst, vertex_mask(inst.graph, {2}))
        assert inst._contexts
        # the cache takes no part in equality
        assert inst == LineInstance(inst.graph, inst.blocks, inst.mode, inst.chi)

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
        assert is_regular(inst.graph, 3)
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
        assert divides_into_two(inst, vertex_mask(inst.graph, {4}))

    def test_end_boundary_vertex_does_not(self):
        inst = path_instance(9, SEGMENT)
        assert not divides_into_two(inst, vertex_mask(inst.graph, {0}))
        assert not divides_into_two(inst, vertex_mask(inst.graph, {8}))

    def test_full_orbit_cuts_cayley_segment(self):
        inst = cayley_segment_instance(DELTA3, 7)
        orbit = set(inst.blocks[3])
        assert divides_into_two(inst, vertex_mask(inst.graph, orbit))

    def test_no_proper_suborbit_subset_cuts(self):
        # exhaustive over connected subsets of one interior block
        inst = cayley_segment_instance(DELTA3, 5)
        block = inst.blocks[2]
        for size in range(1, len(block)):
            for subset in itertools.combinations(block, size):
                if is_connected_set(inst.graph, subset):
                    assert not divides_into_two(inst, vertex_mask(inst.graph, subset))

    def test_disconnected_cut_rejected(self):
        inst = path_instance(9, SEGMENT)
        with pytest.raises(InputError):
            divides_into_two(inst, vertex_mask(inst.graph, {2, 6}))

    def test_empty_cut_rejected(self):
        inst = path_instance(9, SEGMENT)
        with pytest.raises(InputError):
            divides_into_two(inst, vertex_mask(inst.graph, set()))


class TestDividesIntoTwoCycle:
    def test_single_vertex_cuts_the_modeled_line(self):
        inst = path_instance(12, CYCLE)
        for v in range(12):
            assert divides_into_two(inst, vertex_mask(inst.graph, {v}))

    def test_wrap_spanning_cut(self):
        inst = path_instance(12, CYCLE)
        assert divides_into_two(inst, vertex_mask(inst.graph, {11, 0}))

    def test_rail_vertex_does_not_cut_ladder(self):
        inst = ladder_instance(12, CYCLE)
        assert not divides_into_two(inst, vertex_mask(inst.graph, {6}))

    def test_rung_pair_cuts_ladder(self):
        inst = ladder_instance(12, CYCLE)
        assert divides_into_two(inst, vertex_mask(inst.graph, {6, 7}))

    def test_full_orbit_cuts_cayley_cycle(self):
        inst = cayley_cycle_instance(DELTA3, 12)
        assert divides_into_two(inst, vertex_mask(inst.graph, inst.blocks[0]))

    def test_suborbit_does_not_cut_cayley_cycle(self):
        inst = cayley_cycle_instance(DELTA3, 12)
        block = inst.blocks[4]
        assert not divides_into_two(inst, vertex_mask(inst.graph, block[:8]))

    def test_everything_returns_false(self):
        inst = path_instance(6, CYCLE)
        assert not divides_into_two(inst, vertex_mask(inst.graph, range(6)))


def rung_ladder(m, rungs, mode=SEGMENT):
    """A ladder whose two rails meet only at the rungs of the given blocks:
    an end block is joined only through a rung that can lie past a cut."""
    edges = [(2 * b, 2 * b + 1) for b in rungs]
    for b in range(m - 1):
        edges += [(2 * b, 2 * b + 2), (2 * b + 1, 2 * b + 3)]
    if mode == CYCLE:
        edges += [(2 * (m - 1), 0), (2 * (m - 1) + 1, 1)]
    return LineInstance(
        FiniteGraph(2 * m, edges), tuple((2 * b, 2 * b + 1) for b in range(m)), mode
    )


def differential_instances():
    """(instance, window widths, size cap or None for the largest block)."""
    for m in (3, 4, 5, 8):
        for mode in (CYCLE, SEGMENT):
            yield path_instance(m, mode), (1, 2), None
            yield ladder_instance(m, mode), (1, 2), None
    for spec in (DELTA3, MarkedGroupSpec(3, twisted=True)):
        for modulus in (3, 4):
            yield cayley_cycle_instance(spec, modulus), (1,), None
        yield cayley_segment_instance(spec, 3), (1,), None
    # cuts spanning two blocks of a Cayley cycle
    yield cayley_cycle_instance(DELTA3, 5), (2,), 3
    # the left end joined only at or past the cut, so it is split inside
    # the reach cached before the cut; the right end likewise after it
    for rungs in ((3,), (1,), (5,), (0, 4), (2, 6)):
        for mode in (SEGMENT, CYCLE):
            yield rung_ladder(7, rungs, mode), (1, 2, 3), None
    for seed in range(40):
        for mode in (SEGMENT, CYCLE):
            yield random_line_instance(seed, mode), (1, 2), None


class TestDividesIntoTwoMatchesSetBasedSearch:
    def test_every_window_subset_agrees(self):
        tested = 0
        # cycle cuts across blocks m-1 and 0, which the test places across
        # two copies of its unrolling, and how many of them separate
        wrapping = wrapping_separators = 0
        for inst, widths, cap in differential_instances():
            m = inst.block_count
            for width in widths:
                if inst.mode == CYCLE:
                    width = min(width, m - 1)
                for start in range(m):
                    window = inst.window_vertices(start, width)
                    for cut in connected_subsets(
                        inst.graph, window, cap or inst.max_block_size()
                    ):
                        got = divides_into_two(inst, cut)
                        assert got == (
                            set_based_divides_into_two(inst, mask_vertices(cut))
                        ), (inst.mode, inst.graph, mask_vertices(cut))
                        tested += 1
                        touched = {inst.block_of(v) for v in mask_vertices(cut)}
                        if inst.mode == CYCLE and {0, m - 1} <= touched and len(touched) < m:
                            wrapping += 1
                            wrapping_separators += got
        assert tested > 8000
        assert wrapping >= 600 and wrapping_separators >= 100, (wrapping, wrapping_separators)

    def test_cuts_touching_an_end_block(self):
        # segment cuts in the first or last block that leave no bridge run
        # the full search instead of resuming from the cached end reaches.
        # In `pendant` vertex 0 hangs off vertex 1, and the right end's
        # rails 3-6-8 and 4-7-9 meet only at vertex 5 in block 1.  The cut
        # {1, 2} spans blocks 0 and 1, so the cached right reach (blocks 2
        # and 3) holds one rail and the full search must join them
        pendant = LineInstance(
            FiniteGraph(10, [(0, 1), (1, 2), (1, 3), (3, 5), (4, 5),
                             (3, 6), (4, 7), (6, 8), (7, 9)]),
            ((0, 1), (2, 3, 4, 5), (6, 7), (8, 9)),
            SEGMENT,
        )
        assert divides_into_two(pendant, vertex_mask(pendant.graph, {1, 2}))
        for inst in (
            cayley_segment_instance(DELTA3, 4),
            rung_ladder(5, (2,)),
            ladder_instance(5, SEGMENT),
            pendant,
        ):
            m = inst.block_count
            for start, width in ((0, 1), (0, 2), (m - 1, 1), (m - 2, 2)):
                window = inst.window_vertices(start, width)
                for cut in connected_subsets(inst.graph, window, inst.max_block_size()):
                    assert divides_into_two(inst, cut) == (
                        set_based_divides_into_two(inst, mask_vertices(cut))
                    ), (inst.graph, mask_vertices(cut))

    @pytest.mark.parametrize(
        "cut",
        [{1.0}, {2, 6}, set(), {9}, {-1}, 1.0, True, 0, -1, 1 << 9, 1 << 2 | 1 << 6],
        ids=str,
    )
    def test_bad_cut_rejected(self, cut):
        # not an int mask (a set, a float, a bool), empty, negative, a
        # vertex out of range, disconnected ({2, 6})
        for mode in (SEGMENT, CYCLE):
            with pytest.raises(InputError):
                divides_into_two(path_instance(9, mode), cut)


CACHED_INSTANCES = {
    "plain M=12": lambda: cayley_cycle_instance(DELTA3, 12),
    "twisted M=12": lambda: cayley_cycle_instance(GAMMA3, 12),
    "segment 6": lambda: cayley_segment_instance(DELTA3, 6),
}


class TestCutContextCache:
    # one-block windows at the block size, and two-block windows at cap 3:
    # cuts touching one block and cuts touching two from the same first block
    RUNS = ((1, 9), (2, 3))

    @pytest.mark.parametrize("make", CACHED_INSTANCES.values(), ids=CACHED_INSTANCES)
    def test_warm_cache_answers_as_a_cold_one(self, make):
        warm = make()
        by_touched: dict[int, list[int]] = {}
        for width, cap in self.RUNS:
            for start in range(warm.block_count):
                window = warm.window_vertices(start, width)
                for cut in connected_subsets(warm.graph, window, cap):
                    divides_into_two(warm, cut)
                    touched = sum({1 << warm.block_of(v) for v in mask_vertices(cut)})
                    by_touched.setdefault(touched, []).append(cut)
        # one context per touched-block set, built by the cut tests
        assert set(warm._contexts) == set(by_touched)
        # a fresh instance per touched-block set builds its context for the
        # first of those cuts, with nothing else in its cache
        cold = {}
        for cuts in by_touched.values():
            fresh = LineInstance(warm.graph, warm.blocks, warm.mode)
            for cut in cuts:
                cold[cut] = divides_into_two(fresh, cut)
        assert sum(cold.values()) >= 4
        for cut, want in cold.items():
            assert divides_into_two(warm, cut) == want, mask_vertices(cut)

    def test_one_unrolling_for_every_rotation(self, monkeypatch):
        builds = 0
        unroll = LineInstance._unroll

        def counting_unroll(inst):
            nonlocal builds
            builds += 1
            return unroll(inst)

        monkeypatch.setattr(LineInstance, "_unroll", counting_unroll)
        inst = cayley_cycle_instance(DELTA3, 12)
        for start in range(12):
            for cut in connected_subsets(inst.graph, inst.window_vertices(start, 1), 9):
                divides_into_two(inst, cut)
        # one-block windows: one context per block, each with the slice of
        # the unrolling that starts there
        assert set(inst._contexts) == {1 << b for b in range(12)}
        assert builds == 1
        masks, blocks = inst._unrolling
        assert (len(masks), len(blocks)) == (4 * inst.graph.n, 4 * 12)

    @pytest.mark.parametrize("make", CACHED_INSTANCES.values(), ids=CACHED_INSTANCES)
    def test_warm_cache_keeps_every_check(self, make):
        inst = make()
        find_separators(inst, 1, 9)
        n = inst.graph.n
        everything = (1 << n) - 1
        # every vertex but the neighbors of a middle one, which stays alone
        # in the cut; the part reached from vertex 0 touches every block,
        # whose cycle context answers False
        disconnected = everything & ~vertex_mask(inst.graph, inst.graph.adj[n // 2])
        for cut in (disconnected, everything | 1 << n, 0, -1, True):
            with pytest.raises(InputError):
                divides_into_two(inst, cut)


class TestBlockBridges:
    @pytest.mark.parametrize(
        "make",
        [lambda: cayley_segment_instance(DELTA3, 4), lambda: ladder_instance(5, SEGMENT)],
        ids=["cayley segment", "ladder"],
    )
    def test_end_block_cut_runs_no_search(self, monkeypatch, make):
        # a cut of one vertex in either end block leaves the rest of that
        # end, which is adjacent to the other end's reach: once the cut's
        # context is cached, the bridge mask answers it, and the one
        # reach_mask call left is the check that the cut is connected
        calls = []

        def counting_reach_mask(masks, seed, allowed, *args):
            calls.append((seed, allowed))
            return reach_mask(masks, seed, allowed, *args)

        reach_mask = instances.reach_mask
        monkeypatch.setattr(instances, "reach_mask", counting_reach_mask)
        inst = make()
        for block in (inst.blocks[0], inst.blocks[-1]):
            cut = vertex_mask(inst.graph, {block[0]})
            want = set_based_divides_into_two(inst, {block[0]})
            assert divides_into_two(inst, cut) == want
            calls.clear()
            assert divides_into_two(inst, cut) == want
            assert calls == [(cut, cut)]

    def test_dividing_cuts_hold_every_block_bridge(self):
        bridged = dividing = 0
        for seed in range(24):
            for mode in (SEGMENT, CYCLE):
                inst = random_line_instance(seed, mode)
                for b, block in enumerate(inst.blocks):
                    required = inst.block_bridges(b)
                    assert not required & ~vertex_mask(inst.graph, block)
                    for cut in connected_subsets(inst.graph, block, len(block)):
                        if set_based_divides_into_two(inst, mask_vertices(cut)):
                            assert not required & ~cut, (seed, mode, b, mask_vertices(cut))
                            bridged += required != 0
                            dividing += 1
        # 271 of the 352 dividing cuts lie in a block with bridges
        assert dividing == 352 and bridged > 250


class TestConnectedSubsetsMatchesSetBasedWalk:
    def test_every_window_width_and_cap(self):
        windows = 0
        for inst, widths, cap in differential_instances():
            for width in widths:
                if inst.mode == CYCLE:
                    width = min(width, inst.block_count - 1)
                for start in range(inst.block_count):
                    window = inst.window_vertices(start, width)
                    for size in range(1, (cap or inst.max_block_size()) + 1):
                        assert distinct_vertex_sets(
                            connected_subsets(inst.graph, window, size)
                        ) == set(
                            set_based_connected_subsets(inst.graph, window, size)
                        ), (inst.graph, window, size)
                    windows += 1
        assert windows > 1200


class TestMonotoneStability:
    def make_crumb_instance(self):
        # blocks: {0} {1,2} {3} {4}; vertex 2 dangles off vertex 1, so
        # removing vertex 1 strands {2} as a finite non-end component
        g = FiniteGraph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        return LineInstance(g, ((0,), (1, 2), (3,), (4,)), SEGMENT)

    def test_cut_with_crumb_still_divides(self):
        inst = self.make_crumb_instance()
        assert divides_into_two(inst, vertex_mask(inst.graph, {1}))

    def test_absorbing_the_crumb_changes_nothing(self):
        inst = self.make_crumb_instance()
        assert divides_into_two(inst, vertex_mask(inst.graph, {1, 2}))


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
