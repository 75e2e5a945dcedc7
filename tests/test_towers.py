import hashlib
import math
import random
import tracemalloc
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

import gridchroma.cli as cli
import gridchroma.graphs as graphs
import gridchroma.grid as grid
import gridchroma.towers as towers
from gridchroma.chi import Budget, Coloring, find_coloring, is_proper
from gridchroma.errors import InputError, InvariantViolation
from gridchroma.grid import cell, two_orbit_graph
from gridchroma.groups import MarkedGroupSpec, multiply
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

    @pytest.mark.parametrize("mode", [SEGMENT, CYCLE])
    def test_refused_at_the_cap_its_graph_is_refused_at(self, monkeypatch, mode):
        # 20 levels at k=3 are estimated at 20*9*12/2 = 1,080 edges
        tower = AnchoredTower(3, 20, mode, ((0, (1, 0)), (10, (2, 0))))
        monkeypatch.setattr(graphs, "MAX_LAYER_GRAPH_EDGES", 1080)
        assert color_tower(tower).colors_used == 4
        monkeypatch.setattr(graphs, "MAX_LAYER_GRAPH_EDGES", 1079)
        with pytest.raises(InputError) as colored:
            color_tower(tower)
        with pytest.raises(InputError) as built:
            tower_graph(tower)
        assert str(colored.value) == str(built.value)
        assert "1,080 edges" in str(colored.value)


def report_towers(monkeypatch, k):
    """The towers the report's tower row colors at k, with its default
    seed 0 and 20 towers."""
    seen = []

    def recording(tower):
        seen.append(tower)
        return color_tower(tower)

    with monkeypatch.context() as m:
        m.setattr(cli, "color_tower", recording)
        cli._claim_towers(k, None, random.Random(0), 20)
    return seen


def seeded_towers(monkeypatch):
    for k in range(3, 8):
        rng = random.Random(k)
        for mode in (SEGMENT, CYCLE) * 3:
            yield random_tower(k, rng, mode)
    for k in range(3, 8):
        yield from report_towers(monkeypatch, k)


def swapped(state):
    """The state with its first two columns swapped: a step that moves two
    colors between columns without passing through the spare."""
    return (state[1], state[0]) + state[2:]


def unchecked_coloring(monkeypatch, tower):
    """The coloring color_tower builds for the tower, with its check off."""
    with monkeypatch.context() as m:
        m.setattr(towers, "is_proper", lambda graph, coloring: True)
        return color_tower(tower).coloring


class TestColumnCheck:
    """color_tower checks each distinct pair of consecutive layer maps on
    the column graph; its verdict must be that of is_proper on the whole
    tower graph."""

    def test_colorings_are_unchanged_and_proper_on_the_tower_graph(self, monkeypatch):
        # the digest of every tower, orbit map list, coloring and color
        # count, frozen from the colorer that checked the built graph
        digest = hashlib.sha256()
        count = 0
        for tower in seeded_towers(monkeypatch):
            result = color_tower(tower)
            assert is_proper(tower_graph(tower), result.coloring)
            assert result.colors_used <= tower.k + 1
            state = (tower_to_json(tower), result.orbit_maps, result.coloring.colors, result.colors_used)
            digest.update(repr(state).encode())
            count += 1
        assert count == 130
        assert digest.hexdigest() == "17d925481c1b24d451dabf1f04ee6afde98787a2f72c506a73974d85018179e0"

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
    def test_verdict_equals_the_tower_graph_check(self, monkeypatch, k):
        # in about half the schedules one random step has its colors
        # permuted; each plant is drawn afresh, the same, for both checks
        def planted(seed):
            rng = random.Random(seed)

            def schedule(k, source, target):
                states = transfer_schedule(k, source, target)
                if states and rng.random() < 0.5:
                    step = rng.randrange(len(states))
                    states[step] = tuple(rng.sample(states[step], k))
                return states

            return schedule

        verdicts = []
        for i, mode in enumerate((SEGMENT, CYCLE) * 3):
            tower = random_tower(k, random.Random(1000 * k + i), mode)
            monkeypatch.setattr(towers, "transfer_schedule", planted(i))
            want = is_proper(tower_graph(tower), unchecked_coloring(monkeypatch, tower))
            monkeypatch.setattr(towers, "transfer_schedule", planted(i))
            try:
                color_tower(tower)
                got = True
            except InvariantViolation as exc:
                assert str(exc) == "tower coloring came out improper"
                got = False
            assert got == want
            verdicts.append(got)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("mode", [SEGMENT, CYCLE])
    def test_planted_column_swap_is_caught(self, monkeypatch, k, mode):
        # the first gap's schedule opens with a swap of the anchor map
        gap = 3 * k + 1
        extent = gap + 1 if mode == SEGMENT else 2 * gap
        tower = AnchoredTower(k, extent, mode, ((0, (0, 0)), (gap, (1, 0))))
        real = transfer_schedule

        def planted(k, source, target):
            if source != anchor_coloring(k, 0):
                return real(k, source, target)
            return [swapped(source)] + real(k, swapped(source), target)

        monkeypatch.setattr(towers, "transfer_schedule", planted)
        assert not is_proper(tower_graph(tower), unchecked_coloring(monkeypatch, tower))
        with pytest.raises(InvariantViolation, match="came out improper"):
            color_tower(tower)

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
    def test_plant_that_breaks_only_the_wrap_pair_is_caught(self, monkeypatch, k):
        # the wrap gap starts two layers before the extent, so its first
        # state is the last layer and its second is layer 0: holding the
        # anchor map one layer and then swapping leaves every pair but
        # (last layer, layer 0) proper
        first, last = 3 * k, 6 * k + 1
        tower = AnchoredTower(k, last + 2, CYCLE, ((first, (1, 0)), (last, (0, 0))))
        real = transfer_schedule

        def planted(k, source, target):
            if source != anchor_coloring(k, 0):
                return real(k, source, target)
            return [source, swapped(source)] + real(k, swapped(source), target)

        monkeypatch.setattr(towers, "transfer_schedule", planted)
        coloring = unchecked_coloring(monkeypatch, tower)
        as_segment = AnchoredTower(k, tower.extent, SEGMENT, tower.anchors)
        assert is_proper(tower_graph(as_segment), coloring)
        assert not is_proper(tower_graph(tower), coloring)
        with pytest.raises(InvariantViolation, match="came out improper"):
            color_tower(tower)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_one_level_segment_uses_k_colors(self, monkeypatch, k):
        tower = AnchoredTower(k, 1, SEGMENT, ((0, (k - 1, 1)),))
        result = color_tower(tower)
        assert result.orbit_maps == [anchor_coloring(k, k - 1)]
        assert result.colors_used == k
        assert is_proper(tower_graph(tower), result.coloring)
        # its lone map is checked: a map that repeats a color is refused
        monkeypatch.setattr(towers, "anchor_coloring", lambda k, a0: (1,) + anchor_coloring(k)[:-1])
        with pytest.raises(InvariantViolation, match="came out improper"):
            color_tower(tower)

    def test_large_cycle_is_colored_without_its_graph(self, monkeypatch):
        # 450,000 vertices and 2.7M edges: building the graph took 82 MB
        for builder in ("tower_graph", "build_quotient", "cayley_window"):
            monkeypatch.setattr(towers, builder, None)
        anchors = tuple((p, (p // 10 % 3, 0)) for p in range(0, 50_000, 10))
        tower = AnchoredTower(3, 50_000, CYCLE, anchors)
        tracemalloc.start()
        try:
            result = color_tower(tower)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        assert result.colors_used == 4
        assert len(result.coloring.colors) == 450_000


def twisting(spec, g, h):
    """The twisted product under any spec.  It passes every template
    check, and its cross edges join some columns to themselves, so under
    it a plain tower's spare steps and repeated maps are improper."""
    return multiply(MarkedGroupSpec(spec.k, twisted=True), g, h)


class TestSpareSteps:
    """color_tower reads the verdict of a spare step, or of a map paired
    with itself, from k+1 verdicts proven once per k and product; read
    after renaming the colors, the table must agree with is_proper on the
    column graph for every such pair."""

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("plant", ["product", "twisting", "edge"])
    def test_table_equals_brute_force_on_every_step(self, monkeypatch, k, plant):
        # every injective map into 1..k+1, with itself (entry k) and with
        # the step that recolors its column u with its spare (entry u), on
        # the column graph of the product, of the twisting product, and of
        # the product with one cross edge joining column 1 to itself, under
        # which entry 1 alone is true
        if plant == "twisting":
            monkeypatch.setattr(grid, "multiply", twisting)
        columns = grid.column_graph(MarkedGroupSpec(k))
        if plant == "edge":
            columns = graphs.FiniteGraph(2 * k, [*columns.edges(), (1, k + 1)])
        steps = towers._spare_steps(columns)
        checks = 0
        for lo in permutations(range(1, k + 2), k):
            spare = spare_color(k, lo)
            pairs = [(k, lo)] + [(u, lo[:u] + (spare,) + lo[u + 1 :]) for u in range(k)]
            for entry, hi in pairs:
                assert steps[entry] == is_proper(columns, Coloring(lo + hi, k + 1))
                checks += 1
        assert checks == math.factorial(k + 1) * (k + 1)
        assert steps == {
            "product": (True,) * (k + 1),
            "twisting": (False,) * (k + 1),
            "edge": tuple(u == 1 for u in range(k + 1)),
        }[plant]

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("mode", [SEGMENT, CYCLE])
    def test_improper_step_under_a_planted_product_is_refused(self, monkeypatch, k, mode):
        # the layer maps do not depend on the product; under the twisting
        # one the tower graph rejects them, and so must the table, with no
        # pair falling back to is_proper.  A fresh product object gets a
        # fresh column graph, so the table is proven afresh here.
        gap = 3 * k + 1
        extent = gap + 1 if mode == SEGMENT else 2 * gap
        tower = AnchoredTower(k, extent, mode, ((0, (0, 0)), (gap, (1, 0))))
        coloring = color_tower(tower).coloring
        fallbacks = []

        def counting(graph, coloring):
            fallbacks.append(coloring)
            return is_proper(graph, coloring)

        monkeypatch.setattr(towers, "is_proper", counting)
        monkeypatch.setattr(grid, "multiply", lambda spec, g, h: twisting(spec, g, h))
        assert not is_proper(tower_graph(tower), coloring)
        assert not all(towers._spare_steps(grid.column_graph(MarkedGroupSpec(k)))[:k])
        with pytest.raises(InvariantViolation, match="came out improper"):
            color_tower(tower)
        assert fallbacks == []

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_each_pair_reads_the_entry_of_its_moved_column(self, monkeypatch, k):
        # with one table entry false, a tower is refused iff one of its
        # consecutive pairs, the wrap pair included, recolors that column
        # (or, for the last entry, repeats a map)
        rng = random.Random(k)
        for mode in (SEGMENT, CYCLE) * 2:
            tower = random_tower(k, rng, mode)
            maps = color_tower(tower).orbit_maps
            pairs = list(zip(maps, maps[1:] or maps))
            if mode == CYCLE:
                pairs.append((maps[-1], maps[0]))
            taken = set()
            for lo, hi in pairs:
                moved = [u for u in range(k) if lo[u] != hi[u]]
                taken.add(moved[0] if moved else k)
            for entry in range(k + 1):
                table = tuple(e != entry for e in range(k + 1))
                with monkeypatch.context() as m:
                    m.setattr(towers, "_spare_steps", lambda columns: table)
                    try:
                        color_tower(tower)
                        refused = False
                    except InvariantViolation:
                        refused = True
                assert refused == (entry in taken)


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
