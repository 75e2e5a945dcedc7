import hashlib
import itertools
import json
import random
import tracemalloc

import pytest

from gridchroma.chi import Budget, is_proper
from gridchroma.errors import InputError, UndecidedError
from gridchroma import instances, twoended
from gridchroma.graphs import FiniteGraph, components, set_distance, vertex_mask
from gridchroma.groups import MarkedGroupSpec
from gridchroma.instances import (
    CYCLE,
    SEGMENT,
    LineInstance,
    cayley_cycle_instance,
    cayley_segment_instance,
    divides_into_two,
    ladder_instance,
    path_instance,
)
from gridchroma.twoended import (
    SeparatorFamily,
    build_separator_family,
    check_complement_bounded,
    color_two_ended,
    connected_subsets,
    find_separators,
)
from oracles import (
    distinct_vertex_sets,
    hit_free_walk,
    is_connected_set,
    is_independent,
    random_line_instance,
    separator_windows,
    set_based_connected_subsets,
    set_based_find_separators,
    set_based_separator_family,
    triangle_gap_instance,
)

DELTA3 = MarkedGroupSpec(3)
GAMMA3 = MarkedGroupSpec(3, twisted=True)


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return FiniteGraph(n, edges)


class TestConnectedSubsets:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        g = random_graph(9, 0.3, seed)
        cap = 4
        got = distinct_vertex_sets(connected_subsets(g, range(9), cap))
        want = {
            frozenset(s)
            for size in range(1, cap + 1)
            for s in itertools.combinations(range(9), size)
            if is_connected_set(g, s)
        }
        assert got == want

    def test_respects_allowed_set(self):
        g = FiniteGraph(4, [(0, 1), (1, 2), (2, 3)])
        got = distinct_vertex_sets(connected_subsets(g, [1, 2], 2))
        assert got == {frozenset({1}), frozenset({2}), frozenset({1, 2})}

    def test_no_duplicates(self):
        g = random_graph(10, 0.5, seed=3)
        subs = connected_subsets(g, range(10), 3)
        assert len(subs) == len(set(subs))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_set_based_walk(self, n):
        for seed, p in ((n, 0.3), (n + 100, 0.6)):
            g = random_graph(n, p, seed)
            for cap in range(1, n + 1):
                assert distinct_vertex_sets(connected_subsets(g, range(n), cap)) == (
                    set(set_based_connected_subsets(g, range(n), cap))
                ), (g, cap)

    @pytest.mark.parametrize("vertices", [[-1, 0], [4], [1.0]], ids=str)
    def test_bad_vertex_rejected(self, vertices):
        g = FiniteGraph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(InputError):
            connected_subsets(g, vertices, 2)

    @pytest.mark.parametrize("ms, reads", [(None, 0), (60_000, 148_253 // Budget.CHECK_EVERY)])
    def test_walk_reads_the_clock_every_check_every_subsets(self, monkeypatch, ms, reads):
        calls = []
        monkeypatch.setattr(Budget, "check_clock", lambda self, what: calls.append(what))
        inst = cayley_cycle_instance(DELTA3, 12)
        budget = Budget(ms=ms)
        got = connected_subsets(inst.graph, inst.window_vertices(0, 2), 9, budget)
        assert len(got) == 148_253
        assert calls == ["separator search"] * reads
        assert budget.nodes == 0

    def test_walk_stops_at_the_deadline_without_charging(self):
        inst = cayley_cycle_instance(DELTA3, 12)
        budget = Budget(ms=0)
        with pytest.raises(UndecidedError, match="separator search: time budget exhausted"):
            connected_subsets(inst.graph, inst.window_vertices(0, 2), 9, budget)
        assert budget.nodes == 0


def block_family(inst, starts):
    return [frozenset(inst.blocks[b]) for b in starts]


# one two-block window over a two-level Cayley segment, at cap 5: no cut of
# at most 5 vertices divides it, so the walk selects nothing and makes
# 8,904 cut tests in 12,183 steps
def two_block_window():
    return cayley_segment_instance(DELTA3, 2), 2, 5


class TestFindSeparators:
    def test_path_segment_interior_singletons(self):
        inst = path_instance(9, SEGMENT)
        budget = Budget()
        got = find_separators(inst, 1, 1, budget)
        assert got == [frozenset({1}), frozenset({5})]
        # {0}, then {1}; {5} is the first vertex outside {1}'s radius-3 ball
        assert budget.nodes == 3

    def test_cayley_cycle_full_orbits_only(self):
        for spec in (DELTA3, GAMMA3):
            inst = cayley_cycle_instance(spec, 12)
            budget = Budget()
            got = find_separators(inst, 1, 9, budget)
            assert got == block_family(inst, [0, 4, 8])
            # windows 0, 4 and 8 walk to their full block; the others lie
            # inside the ball
            assert budget.nodes == 18

    def test_ladder_rung_pairs(self):
        inst = ladder_instance(12, CYCLE)
        budget = Budget()
        got = find_separators(inst, 1, 2, budget)
        assert got == block_family(inst, [0, 4, 8])
        # {2b}, {2b, 2b+1} in each of the three walked windows
        assert budget.nodes == 6

    def test_two_block_window_on_path(self):
        inst = path_instance(8, SEGMENT)
        got = find_separators(inst, 2, 2)
        # {0} fails, {0, 1} fails, {1} divides; {5} is the next vertex at
        # distance 4 from it
        assert got == [frozenset({1}), frozenset({5})]
        assert all(is_connected_set(inst.graph, s) for s in got)

    def test_non_separating_cuts_run_no_search(self, monkeypatch):
        # every one-block candidate but the full block leaves a vertex
        # adjacent to both end reaches, so the only searches are the two
        # end reaches per walked span and those of the 3 separators; each
        # cut test also checks its cut connected, by one reach over the cut
        cuts, checks, calls = [], 0, 0

        def recording_divides_into_two(inst, cut):
            cuts.append(cut)
            return divides_into_two(inst, cut)

        def counting_reach_mask(masks, seed, allowed, *args):
            nonlocal checks, calls
            if cuts and (seed, allowed) == (cuts[-1] & -cuts[-1], cuts[-1]):
                checks += 1
            else:
                calls += 1
            return reach_mask(masks, seed, allowed, *args)

        divides_into_two = twoended.divides_into_two
        reach_mask = instances.reach_mask
        monkeypatch.setattr(twoended, "divides_into_two", recording_divides_into_two)
        monkeypatch.setattr(instances, "reach_mask", counting_reach_mask)
        inst = cayley_cycle_instance(DELTA3, 12)
        budget = Budget()
        got = find_separators(inst, 1, 9, budget)
        assert got == block_family(inst, [0, 4, 8])
        assert budget.nodes == len(cuts) == checks == 18
        assert calls <= 2 * 3 + 2 * len(got)

    def test_matches_set_based_search(self, monkeypatch):
        # widths 2 and 3 overlap windows, so candidates repeat across them,
        # and some windows hold several members of a family
        cut_tests = 0

        def counting_divides(*args):
            nonlocal cut_tests
            cut_tests += 1
            return divides_into_two(*args)

        monkeypatch.setattr(twoended, "divides_into_two", counting_divides)
        crowded = 0
        for seed in range(24):
            for mode in (SEGMENT, CYCLE):
                inst = random_line_instance(seed, mode)
                for width in (1, 2, 3):
                    for cap in (1, 2, inst.max_block_size()):
                        budget = Budget()
                        cut_tests = 0
                        got = find_separators(inst, width, cap, budget)
                        want = set_based_find_separators(inst, width, cap)
                        assert got == want, (seed, mode, width, cap)
                        # one budget unit per cut test, and no set tested twice
                        assert budget.nodes == cut_tests <= len(
                            {
                                cand
                                for window in separator_windows(inst, width)
                                for cand in set_based_connected_subsets(inst.graph, window, cap)
                            }
                        )
                        crowded += any(
                            sum(member <= set(window) for member in got) > 1
                            for window in separator_windows(inst, width)
                        )
        assert crowded > 0

    @pytest.mark.parametrize(
        "k, levels, cut_tests", [(3, 4, 12), (3, 6, 18), (4, 6, 36), (5, 6, 60)]
    )
    @pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
    def test_cayley_segment_end_windows_follow_one_path(self, k, levels, cut_tests, twisted):
        # every end vertex is a bridge of its end window, so that walk, like
        # block 1's, follows only the prefixes of the full block: k(k-1)
        # cut tests in windows 0 and 1, and in window m-1 once it lies
        # past block 1's ball
        inst = cayley_segment_instance(MarkedGroupSpec(k, twisted=twisted), levels)
        budget = Budget(ms=5000)
        assert find_separators(inst, 1, k * k, budget) == block_family(inst, [1])
        assert budget.nodes == cut_tests

    @pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
    def test_cayley_families_match_set_based_search(self, twisted):
        spec = MarkedGroupSpec(3, twisted=twisted)
        for levels in range(2, 12):
            inst = cayley_segment_instance(spec, levels)
            want = set_based_find_separators(inst, 1, 9)
            assert set_based_separator_family(inst, 1, 9) == want, levels
            assert find_separators(inst, 1, 9) == want, levels
        # the full set-based search takes about 1 s on one M=12 cycle, so
        # cycles are checked against the family it would keep, found
        # without cut-testing what it drops
        for modulus in range(8, 26):
            inst = cayley_cycle_instance(spec, modulus)
            assert find_separators(inst, 1, 9) == set_based_separator_family(inst, 1, 9), modulus

    @pytest.mark.parametrize("width, cap, tests", [(2, 4, 25_992), (3, 3, 6876)])
    def test_overlapping_windows_test_each_set_once(self, width, cap, tests):
        # no cut of at most 4 vertices divides the cycle; a set inside the
        # previous window, or the first one, was tested there and failed
        for spec in (DELTA3, GAMMA3):
            inst = cayley_cycle_instance(spec, 12, chi=3)
            distinct = {
                cand
                for window in separator_windows(inst, width)
                for cand in set_based_connected_subsets(inst.graph, window, cap)
            }
            budget = Budget()
            assert find_separators(inst, width, cap, budget) == []
            assert budget.nodes == sum(hit_free_walk(inst, width, cap)) == len(distinct) == tests

    def test_first_window_walk_reads_the_clock(self):
        # past the deadline, the walk stops at its first clock read, walk
        # step 4,096 inside the one window, after the cut tests of the steps
        # before it
        inst, width, cap = two_block_window()
        steps = hit_free_walk(inst, width, cap)
        budget = Budget(ms=0)
        with pytest.raises(UndecidedError, match="separator search: time budget exhausted"):
            find_separators(inst, width, cap, budget)
        assert 0 < budget.nodes == sum(steps[: Budget.CHECK_EVERY - 1])

    def test_size_cap_below_one_is_refused_before_any_cut_test(self):
        budget = Budget()
        with pytest.raises(InputError, match="size cap must be >= 1"):
            find_separators(path_instance(9, SEGMENT), 1, 0, budget)
        with pytest.raises(InputError, match="window_blocks must be >= 1"):
            find_separators(path_instance(9, SEGMENT), 0, 1, budget)
        assert budget.nodes == 0

    @pytest.mark.parametrize("limit", [4094, 4095, 4096, 4097])
    def test_node_limit_stops_where_one_spend_per_test_did(self, limit):
        # the limits straddle the end of the first run charged ahead (node
        # 4,095) and the first clock read (node 4,096)
        inst, width, cap = two_block_window()
        budget = Budget(max_nodes=limit)
        with pytest.raises(UndecidedError, match="separator search: node budget exhausted"):
            find_separators(inst, width, cap, budget)
        assert budget.nodes == limit + 1

    @pytest.mark.parametrize("limits", [{}, {"max_nodes": 8904}, {"ms": 60_000}], ids=str)
    def test_complete_run_gives_back_the_unused_run(self, monkeypatch, limits):
        reads = []
        monkeypatch.setattr(Budget, "check_clock", lambda self, what: reads.append(what))
        inst, width, cap = two_block_window()
        steps = hit_free_walk(inst, width, cap)
        assert (len(steps), sum(steps)) == (12_183, 8904)
        budget = Budget(**limits)
        assert find_separators(inst, width, cap, budget) == []
        assert budget.nodes == 8904
        # with a time limit, one clock read every 4,096 walk steps and one
        # every 4,096 cut tests
        want = len(steps) // Budget.CHECK_EVERY + sum(steps) // Budget.CHECK_EVERY
        assert reads == (["separator search"] * want if "ms" in limits else [])

    def test_each_cut_test_spends_one_budget_unit(self):
        budget = Budget()
        got = find_separators(path_instance(13, SEGMENT), 1, 1, budget)
        assert len(got) == 3
        # {0}, {1}, {5} and {9}; the ball covers the other windows
        assert budget.nodes == 4


class TestLargerK:
    # each selected full block lies on the leftmost path of its window's
    # walk, so the cut tests grow with k² and not with the window's subsets
    @pytest.mark.parametrize("k, cut_tests", [(4, 36), (5, 60)])
    @pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
    def test_cayley_cycle_family_and_colors(self, k, cut_tests, twisted):
        inst = cayley_cycle_instance(MarkedGroupSpec(k, twisted=twisted), 12)
        budget = Budget(ms=5000)
        assert find_separators(inst, 1, k * k, budget) == block_family(inst, [0, 4, 8])
        assert budget.nodes == cut_tests
        result = color_two_ended(inst, budget=Budget(ms=5000))
        assert [min(inst.block_of(v) for v in s) for s in result.family.members] == [0, 4, 8]
        assert result.chi == k
        assert result.colors_used == 2 * k - 1
        assert result.complement_stats["shape_ok"]
        assert result.complement_stats["satisfied"]

    def test_k5_walk_memory(self):
        inst = cayley_cycle_instance(MarkedGroupSpec(5), 12)
        tracemalloc.start()
        try:
            find_separators(inst, 1, 25, Budget(ms=5000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


class TestBuildFamily:
    def test_path_greedy_every_fourth(self):
        inst = path_instance(13, SEGMENT)
        fam = build_separator_family(find_separators(inst, 1, 1))
        assert [sorted(s) for s in fam.members] == [[1], [5], [9]]

    def test_pairwise_distance_at_least_four(self):
        inst = cayley_cycle_instance(DELTA3, 12, chi=3)
        fam = build_separator_family(find_separators(inst, 1, 9))
        for a, b in itertools.combinations(fam.members, 2):
            assert set_distance(inst.graph, a, b) >= 4

    def test_cayley_cycle_selects_blocks_0_4_8(self):
        inst = cayley_cycle_instance(DELTA3, 12, chi=3)
        fam = build_separator_family(find_separators(inst, 1, 9))
        assert [min(inst.block_of(v) for v in s) for s in fam.members] == [0, 4, 8]
        report = check_complement_bounded(inst, fam)
        assert report["degrees"] == [2, 2, 2]
        assert report["shape_ok"]
        assert all(divides_into_two(inst, vertex_mask(inst.graph, s)) for s in fam.members)

    def test_two_member_cycle_family_has_parallel_passages(self):
        inst = cayley_cycle_instance(DELTA3, 9, chi=3)
        fam = build_separator_family(find_separators(inst, 1, 9))
        assert len(fam.members) == 2
        report = check_complement_bounded(inst, fam)
        assert report["degrees"] == [2, 2]
        assert report["shape_ok"]

    def test_segment_family_is_a_path(self):
        inst = path_instance(13, SEGMENT)
        fam = build_separator_family(find_separators(inst, 1, 1))
        report = check_complement_bounded(inst, fam)
        assert report["shape_ok"]
        assert report["degrees"] == [1, 2, 1]

    def test_no_candidates_is_an_error(self):
        inst = ladder_instance(8, CYCLE)
        with pytest.raises(InputError, match="increase window or cap"):
            build_separator_family(find_separators(inst, 1, 1))


class TestComplementBound:
    def test_path_gap_arithmetic(self):
        inst = path_instance(13, SEGMENT)
        fam = build_separator_family(find_separators(inst, 1, 1))
        report = check_complement_bounded(inst, fam)
        assert report["satisfied"]
        assert report["max_component_size"] == 3
        assert report["largest_gap"] == 4

    def test_cayley_components_confined(self):
        inst = cayley_cycle_instance(DELTA3, 12, chi=3)
        fam = build_separator_family(find_separators(inst, 1, 9))
        report = check_complement_bounded(inst, fam)
        assert report["satisfied"]
        assert report["max_component_blocks"] == 3

    def test_degenerate_single_member_cycle_family_flagged(self):
        inst = path_instance(12, CYCLE)
        fam = SeparatorFamily((frozenset({0}),))
        report = check_complement_bounded(inst, fam)
        assert not report["satisfied"]
        assert "maximality" in report["flag"]


class TestColorTwoEnded:
    @pytest.mark.parametrize(
        "make,bound",
        [
            (lambda: path_instance(12, CYCLE), 3),
            (lambda: ladder_instance(12, CYCLE), 3),
            (lambda: cayley_cycle_instance(DELTA3, 12, chi=3), 5),
            (lambda: cayley_cycle_instance(GAMMA3, 12, chi=3), 5),
        ],
    )
    def test_suite_instances_proper_within_bound(self, make, bound):
        inst = make()
        result = color_two_ended(inst)
        assert is_proper(inst.graph, result.coloring)
        assert result.colors_used <= bound
        assert result.coloring.palette == bound
        assert result.complement_stats["satisfied"]

    def test_segment_instances(self):
        for inst, bound in [
            (path_instance(13, SEGMENT), 3),
            (cayley_segment_instance(DELTA3, 9, chi=3), 5),
        ]:
            result = color_two_ended(inst)
            assert is_proper(inst.graph, result.coloring)
            assert result.colors_used <= bound

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("cycle", [False, True], ids=["segment", "cycle"])
    @pytest.mark.parametrize("spec", [DELTA3, GAMMA3], ids=["plain", "twisted"])
    def test_random_cayley_line_instances(self, spec, cycle, seed):
        rng = random.Random(seed)
        chi = rng.choice((3, None))  # None: computed exactly
        if cycle:
            inst = cayley_cycle_instance(spec, rng.choice((4, 6, 8, 10, 12)), chi)
        else:
            inst = cayley_segment_instance(spec, rng.randint(4, 6), chi)
        result = color_two_ended(inst)
        assert result.chi == 3
        assert is_proper(inst.graph, result.coloring)
        assert result.colors_used <= 2 * result.chi - 1
        for a, b in itertools.combinations(result.family.members, 2):
            assert set_distance(inst.graph, a, b) >= 4

    def test_dropped_class_is_independent(self):
        inst = cayley_cycle_instance(DELTA3, 12, chi=3)
        result = color_two_ended(inst)
        dropped = result.buffer_region - result.trimmed_buffer
        assert is_independent(inst.graph, dropped)

    def test_trimmed_buffer_uses_low_colors_only(self):
        inst = cayley_cycle_instance(DELTA3, 12, chi=3)
        result = color_two_ended(inst)
        for v in result.trimmed_buffer:
            assert result.coloring.colors[v] < result.chi
        for v in set(range(inst.graph.n)) - result.trimmed_buffer:
            assert result.coloring.colors[v] >= result.chi

    def test_deterministic(self):
        a = color_two_ended(cayley_cycle_instance(DELTA3, 12, chi=3))
        b = color_two_ended(cayley_cycle_instance(DELTA3, 12, chi=3))
        assert a.coloring == b.coloring
        assert a.family.members == b.family.members

    def test_computes_chi_when_absent(self):
        inst = cayley_cycle_instance(DELTA3, 12)
        assert inst.chi is None
        result = color_two_ended(inst)
        assert result.chi == 3

    def test_separator_search_runs_out_of_budget(self):
        inst = cayley_cycle_instance(DELTA3, 12, chi=3)
        with pytest.raises(UndecidedError, match="separator search"):
            # one node short of the walk's 18 cut tests
            color_two_ended(inst, budget=Budget(max_nodes=17))

    def test_understated_chi_rejected(self):
        inst = cayley_cycle_instance(DELTA3, 12)
        with pytest.raises(InputError, match="too small"):
            color_two_ended(inst, chi=2)

    @pytest.mark.parametrize("chi", [4, 1000])
    def test_chi_above_max_degree_plus_one_rejected(self, chi):
        # a 3-vertex path has max degree 2, so every chi above 3 is false;
        # it is refused before the solver sizes its lists by chi
        inst = LineInstance(FiniteGraph(3, [(0, 1), (1, 2)]), ((0,), (1,), (2,)), SEGMENT, chi)
        with pytest.raises(InputError, match="exceeds max degree \\+ 1 = 3"):
            color_two_ended(inst)
        assert color_two_ended(inst, chi=3).coloring.palette == 5

    def test_no_one_block_divider_needs_a_wider_window(self):
        # the one instance among the random differentials' seeds 0..399
        # whose blocks hold no dividing cut of their own
        inst = random_line_instance(380, SEGMENT)
        assert inst.blocks == ((0, 1), (2, 3, 4), (5, 6), (7, 8, 9))
        with pytest.raises(InputError, match="no separators found; increase window or cap"):
            color_two_ended(inst)
        result = color_two_ended(inst, window_blocks=2)
        assert result.chi == 3
        assert result.colors_used == 5
        assert result.complement_stats["satisfied"]

    def test_hull_without_a_chi_coloring_is_an_input_error(self):
        with pytest.raises(InputError) as err:
            color_two_ended(path_instance(9, SEGMENT), chi=1)
        assert str(err.value) == (
            "separator hull: a piece of 3 vertices admits no 1-coloring; "
            "the declared chromatic number is too small"
        )

    def test_complement_piece_without_a_chi_coloring_is_an_input_error(self):
        inst = triangle_gap_instance()
        assert [sorted(s) for s in find_separators(inst, 1, 3)] == [[1], [5], [9]]
        with pytest.raises(InputError) as err:
            color_two_ended(inst)
        assert str(err.value) == (
            "complement piece: a piece of 5 vertices admits no 2-coloring; "
            "the declared chromatic number is too small"
        )

    def test_even_path_cycle_uses_exactly_chromatic_plus_structure(self):
        result = color_two_ended(path_instance(12, CYCLE))
        assert result.colors_used <= 3

    def test_twisted_odd_quotient_with_declared_chi_five(self):
        # the odd twisted quotient is 5-chromatic; running the separator
        # pipeline with that value lands within 2*5 - 1 = 9 colors
        inst = cayley_cycle_instance(GAMMA3, 9, chi=5)
        result = color_two_ended(inst)
        assert is_proper(inst.graph, result.coloring)
        assert result.colors_used <= 9
        assert len(result.family.members) == 2
        assert result.complement_stats["satisfied"]


def shape_instances():
    """Cayley cycles and segments of both groups at k=3 and 4, with chi = k
    declared, then path and ladder cycles and segments of 12 and 13 blocks."""
    for k, moduli, levels in ((3, (8, 9, 12, 13, 17), (4, 6, 9)), (4, (8, 9), (4, 6, 9))):
        for twisted in (False, True):
            spec = MarkedGroupSpec(k, twisted=twisted)
            for modulus in moduli:
                yield cayley_cycle_instance(spec, modulus, chi=k)
            for count in levels:
                yield cayley_segment_instance(spec, count, chi=k)
    for m in (12, 13):
        for mode in (CYCLE, SEGMENT):
            yield path_instance(m, mode)
            yield ladder_instance(m, mode)


def count_solves(monkeypatch):
    """Replace the colorer's `find_coloring` with one that records each
    graph it is asked to solve."""
    solved = []
    search = twoended.find_coloring

    def counting(g, *args, **kwargs):
        solved.append(g.adj)
        return search(g, *args, **kwargs)

    monkeypatch.setattr(twoended, "find_coloring", counting)
    return solved


class TestPieceShapes:
    def test_outputs_equal_a_search_per_piece(self):
        # the sha256 of these 34 results as a search per piece gave them
        digest = hashlib.sha256()
        for inst in shape_instances():
            result = color_two_ended(inst)
            digest.update(json.dumps(result.to_json(), sort_keys=True).encode())
        assert digest.hexdigest() == (
            "d90b8908903b0a41d47887cb05df2cfa8f0d1aca6d2e10803fd79a41a002bdcd"
        )

    @pytest.mark.parametrize("spec", [DELTA3, GAMMA3], ids=["plain", "twisted"])
    def test_one_search_per_distinct_shape(self, monkeypatch, spec):
        solved = count_solves(monkeypatch)
        inst = cayley_cycle_instance(spec, 12, chi=3)
        result = color_two_ended(inst)
        g = inst.graph
        rest = components(g, [v for v in range(g.n) if v not in result.trimmed_buffer])
        assert len(result.family.members) + len(rest) == 15
        # three 27-vertex hulls, whose relabeling differs only for the one
        # that wraps around block 0, nine lone vertices of the dropped
        # class and three 15-vertex gap pieces
        assert sorted(map(len, solved)) == [1, 15, 27, 27]
        assert len(set(solved)) == 4

    def test_no_shape_survives_the_call(self, monkeypatch):
        solved = count_solves(monkeypatch)
        inst = cayley_cycle_instance(DELTA3, 12, chi=3)
        first = color_two_ended(inst)
        assert len(solved) == 4
        second = color_two_ended(inst)
        assert len(solved) == 8
        assert solved[:4] == solved[4:]
        assert first.coloring == second.coloring

    @pytest.mark.parametrize("spec", [DELTA3, GAMMA3], ids=["plain", "twisted"])
    def test_budget_charges_each_shape_once(self, spec):
        # 18 cut tests and 74 search nodes; a search per piece spent 168
        budget = Budget()
        color_two_ended(cayley_cycle_instance(spec, 12, chi=3), budget=budget)
        assert budget.nodes == 92
