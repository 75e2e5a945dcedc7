import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, strategies as st

import gridchroma.towers as towers
from gridchroma.chi import Budget, Coloring, find_coloring, is_proper
from gridchroma.errors import InputError
from gridchroma.grid import cell, two_orbit_graph
from gridchroma.instances import CYCLE, SEGMENT
from gridchroma.towers import (
    AnchoredTower,
    anchor_coloring,
    color_tower,
    random_tower,
    spare_color,
    tower_from_json,
    tower_graph,
    tower_to_json,
    transfer_schedule,
    witness_k_insufficient,
)


def single_gap_tower(k, gap, offset):
    return AnchoredTower(
        k, gap + 1, SEGMENT, ((0, (0, 0)), (gap, offset))
    )


def assert_valid_schedule(k, source, target, schedule):
    """The contract: one column per step, recolored to the predecessor's
    spare, ending exactly on the target."""
    prev = source
    for state in schedule:
        changed = [u for u in range(k) if state[u] != prev[u]]
        assert len(changed) == 1
        assert state[changed[0]] == spare_color(k, prev)
        assert len(set(state)) == k  # injective, one color parked
        prev = state
    final = schedule[-1] if schedule else source
    assert final == target


class TestAnchorColoring:
    def test_identity_offset(self):
        assert anchor_coloring(3) == (1, 2, 3)

    def test_shifted_offset(self):
        assert anchor_coloring(3, 1) == (3, 1, 2)

    def test_spare_color_absent(self):
        for k in (3, 4, 5):
            for a0 in range(k):
                assert spare_color(k, anchor_coloring(k, a0)) == k + 1


class TestTransferSchedule:
    def test_equal_maps_give_empty_schedule(self):
        src = anchor_coloring(3)
        assert transfer_schedule(3, src, src) == []

    def test_shift_by_one_contract(self):
        src = anchor_coloring(3)
        tgt = anchor_coloring(3, 1)
        schedule = transfer_schedule(3, src, tgt)
        assert 0 < len(schedule) <= 9
        assert_valid_schedule(3, src, tgt, schedule)

    @pytest.mark.parametrize("k", [3, 4])
    def test_all_column_shift_pairs(self, k):
        for a_src, a_tgt in product(range(k), repeat=2):
            src = anchor_coloring(k, a_src)
            tgt = anchor_coloring(k, a_tgt)
            schedule = transfer_schedule(k, src, tgt)
            assert len(schedule) <= 3 * k
            assert_valid_schedule(k, src, tgt, schedule)

    def test_arbitrary_injective_pairs(self):
        rng = random.Random(99)
        k = 4
        for _ in range(50):
            src = tuple(rng.sample(range(1, k + 1), k))
            tgt = tuple(rng.sample(range(1, k + 1), k))
            schedule = transfer_schedule(k, src, tgt)
            assert len(schedule) <= 3 * k
            assert_valid_schedule(k, src, tgt, schedule)

    def test_consecutive_states_are_layer_proper(self):
        # pin each consecutive pair of maps onto the two-layer graph
        k = 3
        tg = two_orbit_graph(k, twisted=False)
        src = anchor_coloring(k)
        tgt = anchor_coloring(k, 2)
        states = [src] + transfer_schedule(k, src, tgt)
        for lo, hi in zip(states, states[1:]):
            cols = tuple(
                (lo if lvl == 0 else hi)[a]
                for (a, b, lvl) in (cell(k, v) for v in range(tg.n))
            )
            assert is_proper(tg, Coloring(cols, k + 1))

    def test_spare_bearing_source_rejected(self):
        with pytest.raises(InputError):
            transfer_schedule(3, (1, 2, 4), (1, 2, 3))


class TestColorTower:
    def test_zero_offset_gap_uses_k_colors(self):
        result = color_tower(single_gap_tower(3, 10, (0, 0)))
        assert is_proper(result.graph, result.coloring)
        assert result.colors_used == 3

    def test_nonzero_column_offset_needs_spare(self):
        result = color_tower(single_gap_tower(3, 10, (1, 0)))
        assert is_proper(result.graph, result.coloring)
        assert result.colors_used == 4
        interior = [m for m in result.orbit_maps[1:10]]
        assert any(4 in m for m in interior)

    def test_row_offset_alone_needs_no_spare(self):
        result = color_tower(single_gap_tower(3, 10, (0, 2)))
        assert result.colors_used == 3

    def test_cycle_mode_double_gap(self):
        tower = AnchoredTower(3, 20, CYCLE, ((0, (1, 0)), (10, (2, 0))))
        result = color_tower(tower)
        assert is_proper(result.graph, result.coloring)
        assert result.colors_used <= 4

    def test_segment_layers_before_the_first_anchor_copy_it(self):
        tower = AnchoredTower(3, 15, SEGMENT, ((2, (1, 0)), (12, (0, 0))))
        result = color_tower(tower)
        assert is_proper(result.graph, result.coloring)
        maps = result.orbit_maps
        assert len(maps) == 15
        assert maps[:3] == [anchor_coloring(3, 1)] * 3
        assert maps[12:] == [anchor_coloring(3, 0)] * 3

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_one_anchor_cycle_uses_k_colors(self, k):
        # the lone anchor is its own neighbor across the wrap gap of
        # extent layers, so every layer keeps the anchor's map
        for offset in ((0, 0), (k - 1, 1)):
            tower = AnchoredTower(k, 3 * k + 1, CYCLE, ((2, offset),))
            result = color_tower(tower)
            assert is_proper(result.graph, result.coloring)
            assert result.colors_used == k
            assert set(result.orbit_maps) == {anchor_coloring(k, offset[0])}
        with pytest.raises(InputError, match="wrap-around"):
            AnchoredTower(k, 3 * k, CYCLE, ((0, (0, 0)),))

    def test_consecutive_maps_differ_on_at_most_one_column(self):
        tower = AnchoredTower(3, 20, CYCLE, ((0, (1, 0)), (10, (2, 0))))
        result = color_tower(tower)
        maps = result.orbit_maps
        for i in range(len(maps)):
            lo, hi = maps[i], maps[(i + 1) % len(maps)]
            assert sum(1 for u in range(3) if lo[u] != hi[u]) <= 1

    def test_cycle_wrap_gap_reaches_the_layers_before_the_first_anchor(self):
        # the wrap gap runs from layer 18 round to layer 8; its schedule
        # leaves anchor 18's map one column at a time, past the extent
        tower = AnchoredTower(3, 20, CYCLE, ((8, (1, 0)), (18, (0, 0))))
        result = color_tower(tower)
        assert is_proper(result.graph, result.coloring)
        maps = result.orbit_maps
        assert len(maps) == 20
        assert maps[8] == anchor_coloring(3, 1)
        assert maps[18] == anchor_coloring(3, 0)
        schedule = transfer_schedule(3, anchor_coloring(3, 0), anchor_coloring(3, 1))
        assert len(schedule) > 1  # the schedule crosses the extent
        assert maps[19:] + maps[:8] == schedule + [anchor_coloring(3, 1)] * (9 - len(schedule))

    def test_every_layer_injective(self):
        result = color_tower(single_gap_tower(4, 14, (3, 1)))
        for m in result.orbit_maps:
            assert len(set(m)) == 4

    def test_random_towers_proper_within_palette(self):
        rng = random.Random(7)
        for _ in range(10):
            mode = rng.choice((SEGMENT, CYCLE))
            tower = random_tower(3, rng, mode)
            result = color_tower(tower)
            assert is_proper(result.graph, result.coloring)
            assert result.colors_used <= 4

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_colors_are_the_layer_maps_read_at_each_label(self, k):
        rng = random.Random(k)
        for mode in (SEGMENT, CYCLE, SEGMENT, CYCLE):
            result = color_tower(random_tower(k, rng, mode))
            maps = result.orbit_maps
            cells = [cell(k, v) for v in range(result.graph.n)]
            assert result.coloring.colors == tuple(maps[n][a] for a, _b, n in cells)

    def test_small_gap_rejected(self):
        with pytest.raises(InputError, match="exceed 3k"):
            single_gap_tower(3, 9, (1, 0))

    def test_misordered_anchors_rejected(self):
        with pytest.raises(InputError):
            AnchoredTower(3, 25, SEGMENT, ((10, (0, 0)), (0, (0, 0))))

    @pytest.mark.parametrize(
        "extent, position, what",
        [(22, 0.9, "anchor position"), (22, True, "anchor position"), (22.0, 0, "extent")],
    )
    def test_non_integer_field_is_input_error(self, extent, position, what):
        with pytest.raises(InputError, match=f"{what} must be an integer"):
            AnchoredTower(3, extent, CYCLE, ((position, (1, 0)), (11, (2, 0))))

    def test_oversized_tower_refused_before_its_layer_maps(self):
        # 2,000,000 levels at k=3 ask for 108M edges; a per-level list of
        # maps alone would take 16 MB
        tower = AnchoredTower(3, 2_000_000, CYCLE, ((0, (0, 0)),))
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="cap of 10,000,000"):
                color_tower(tower)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestWitness:
    @pytest.mark.parametrize("offset", [(1, 0), (2, 0), (1, 1), (2, 2)])
    def test_column_shift_blocks_k_coloring(self, offset):
        assert witness_k_insufficient(3, single_gap_tower(3, 10, offset))

    @pytest.mark.parametrize("offset", [(0, 0), (0, 1), (0, 2)])
    def test_row_shift_alone_extends(self, offset):
        assert not witness_k_insufficient(3, single_gap_tower(3, 10, offset))

    def test_requires_single_gap_segment(self):
        tower = AnchoredTower(3, 20, CYCLE, ((0, (0, 0)), (10, (1, 0))))
        with pytest.raises(InputError):
            witness_k_insufficient(3, tower)

    @pytest.mark.parametrize(
        "k, gap, offset", [(3, 10, (1, 0)), (3, 10, (2, 2)), (3, 12, (0, 1)), (4, 13, (3, 1))]
    )
    def test_pins_the_anchor_cells_a_label_scan_finds(self, monkeypatch, k, gap, offset):
        # the pins, their order, the answer and the node count are those
        # of the search pinned by scanning every label for each anchor
        tower = single_gap_tower(k, gap, offset)
        graph = tower_graph(tower)
        want = {}
        for pos, (a0, _) in tower.anchors:
            for v in range(graph.n):
                a, _b, n = cell(k, v)
                if n == pos:
                    want[v] = anchor_coloring(k, a0)[a]
        seen = []

        def recording(graph, palette, constraints, budget):
            seen.append(list(constraints.items()))
            return find_coloring(graph, palette, constraints, budget=budget)

        monkeypatch.setattr(towers, "find_coloring", recording)
        budget = Budget(max_nodes=200_000)
        got = witness_k_insufficient(k, tower, budget=budget)
        assert seen == [list(want.items())]
        oracle_budget = Budget(max_nodes=200_000)
        assert got == (find_coloring(graph, k, want, budget=oracle_budget) is None)
        assert budget.nodes == oracle_budget.nodes


class TestSerialization:
    def test_roundtrip(self):
        tower = AnchoredTower(3, 20, CYCLE, ((0, (1, 0)), (10, (2, 0))))
        assert tower_from_json(tower_to_json(tower)) == tower

    def test_malformed_rejected(self):
        with pytest.raises(InputError):
            tower_from_json({"k": 3, "extent": 20, "mode": CYCLE})
