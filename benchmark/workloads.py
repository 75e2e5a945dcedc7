"""Workload item lists for the gridchroma benchmark, with pinned outputs.

Every workload is a list of items.  An item is one call into the
package's top-level API plus a gate that checks the call's output against
its pinned value; an item's time counts only if its gate passes.  The
seed draws the inputs; the same seed always gives the same items.  The
order of items is fixed, since a run's earlier items can change how fast
later ones go.

The gates check colorings against the group law directly
(`group_law_clash`), so they do not trust the package's graph builders,
which are among the layers being measured.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

WORKLOADS = ("towers", "two_ended", "enumerate", "quotient")

# chromatic numbers of the cyclic quotients: plain and even twisted
# quotients stay k-chromatic, odd twisted quotients need 2k-1 colors
QUOTIENT_MODULI = range(3, 8)


def quotient_chi_value(k: int, twisted: bool, modulus: int) -> int:
    return 2 * k - 1 if twisted and modulus % 2 else k


@dataclass
class Item:
    """One verified call: `call()` runs the package, `check(result)`
    returns None when the output matches its pinned value, else why not.
    `span` names the item's root span in a traced pass."""

    name: str
    span: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


# -- reference checks -----------------------------------------------------


def _layer_clash(lower, upper, k: int, swap: bool) -> bool:
    """True iff some vertex of `lower` and some vertex of `upper` that are
    joined in the Cayley graph share a color.  Layers are color tuples
    indexed a*k + b.  Joined means the cells differ in both coordinates,
    after swapping the upper cell's coordinates when `swap` is set."""
    by_color: dict[int, list[tuple[int, int]]] = {}
    for v, c in enumerate(lower):
        by_color.setdefault(c, []).append(divmod(v, k))
    for v, c in enumerate(upper):
        x, y = divmod(v, k)
        if swap:
            x, y = y, x
        for a, b in by_color.get(c, ()):
            if a != x and b != y:
                return True
    return False


def group_law_clash(colors, k: int, twisted: bool, levels: int, cyclic: bool) -> Optional[str]:
    """Check a coloring of the Cayley window (or cyclic quotient when
    `cyclic`) on `levels` shift levels, vertex a*k + b + n*k*k, against the
    group law itself: generator (s1, s2, e) sends (a, b, n) to
    (a+s1, b+s2, n+e), or to (b+s1, a+s2, n+e) in the twisted group when
    e = +-1.  Returns None when proper, else where it clashes."""
    kk = k * k
    if len(colors) != levels * kk:
        return f"coloring covers {len(colors)} vertices, expected {levels * kk}"
    layers = [tuple(colors[n * kk : (n + 1) * kk]) for n in range(levels)]
    for n in range(levels):
        if _layer_clash(layers[n], layers[n], k, False):
            return f"monochromatic edge inside level {n}"
        if n + 1 < levels or cyclic:
            if _layer_clash(layers[n], layers[(n + 1) % levels], k, twisted):
                return f"monochromatic edge between levels {n} and {n + 1}"
    return None


# -- towers ---------------------------------------------------------------

# (k, towers per pass), a multiple of 4; k=5 cycles dominate the pass time.
# A short pass gives each item more passes in a run.
TOWER_COUNTS = ((3, 16), (4, 12), (5, 4))
GAP_JITTER = 6
SEGMENT_TAIL = 3


def _tower_specs(k: int, count: int, rng: random.Random):
    """(mode, anchors, extent, zero) for `count` towers at modulus k.

    Towers split evenly into four classes, segment or cycle by two or
    three anchors.  Within a class the seed shuffles a fixed multiset of
    gap lengths (and segment tails), so the levels built per pass, and
    with them the pass time, barely depend on the seed; the seed also
    draws every anchor offset and which towers (a quarter, at least one)
    have zero offsets.
    """
    floor = 3 * k
    per_class = count // 4
    zero = set(rng.sample(range(count), max(1, round(count / 4))))
    specs = []
    for mode, anchors in itertools.product(("segment", "cycle"), (2, 3)):
        gaps_each = anchors if mode == "cycle" else anchors - 1
        gaps = [floor + 1 + j % GAP_JITTER for j in range(per_class * gaps_each)]
        tails = [j % SEGMENT_TAIL for j in range(per_class)]
        rng.shuffle(gaps)
        rng.shuffle(tails)
        for i in range(per_class):
            mine = gaps[i * gaps_each : (i + 1) * gaps_each]
            positions = [0]
            for gap in mine[: anchors - 1]:
                positions.append(positions[-1] + gap)
            if mode == "cycle":
                extent = positions[-1] + mine[-1]
            else:
                extent = positions[-1] + 1 + tails[i]
            is_zero = len(specs) in zero
            offsets = [
                (0, 0) if is_zero else (rng.randrange(k), rng.randrange(k))
                for _ in positions
            ]
            specs.append((mode, tuple(zip(positions, offsets)), extent, is_zero))
    return specs


def _tower_item(pkg, k: int, index: int, mode: str, anchors, extent: int, zero: bool) -> Item:
    tower = pkg.AnchoredTower(k, extent, mode, anchors)
    cyclic = mode == "cycle"
    # each layer is (k-1)^2-regular and joins each neighboring layer by
    # k^2 (k-1)^2 edges; a cycle has as many layer joins as layers
    per_layer = k * k * (k - 1) ** 2
    edges = extent * per_layer // 2 + (extent if cyclic else extent - 1) * per_layer

    def check(result) -> Optional[str]:
        graph = result.graph
        if (graph.n, graph.edge_count) != (extent * k * k, edges):
            return f"tower graph has {graph.n} vertices and {graph.edge_count} edges"
        colors = result.coloring.colors
        clash = group_law_clash(colors, k, False, extent, cyclic)
        if clash:
            return clash
        used = len(set(colors))
        if used > k + 1:
            return f"{used} colors, more than k+1 = {k + 1}"
        if zero and used != k:
            return f"zero-offset tower used {used} colors, expected k = {k}"
        return None

    label = "zero-offset " if zero else ""
    return Item(
        f"color_tower k={k} {mode} {label}#{index} extent={extent}",
        "tower",
        lambda: pkg.color_tower(tower),
        check,
    )


def _witness_item(pkg, a0: int, b0: int) -> Item:
    tower = pkg.AnchoredTower(3, 11, "segment", ((0, (0, 0)), (10, (a0, b0))))
    return Item(
        f"witness_k_insufficient k=3 offset=({a0},{b0})",
        "tower.witness",
        lambda: pkg.witness_k_insufficient(3, tower, budget=pkg.Budget()),
        lambda found: None if found is True else "a 3-coloring extends both anchors",
    )


def towers(pkg, rng: random.Random) -> list[Item]:
    items = []
    for k, count in TOWER_COUNTS:
        for i, spec in enumerate(_tower_specs(k, count, rng)):
            items.append(_tower_item(pkg, k, i, *spec))
    for a0 in (1, 2):
        for b0 in (0, 1, 2):
            items.append(_witness_item(pkg, a0, b0))
    return items


# -- two-ended ------------------------------------------------------------

CYCLE_LEVELS = 12
PINNED_STARTS = [0, 4, 8]  # separator starts on the plain k=3, M=12 cycle
# the two extra segments' level counts sum to this, so the work per pass
# stays level while the seed draws the split; neither is longer than the
# pinned 6-level segment, so a pass's median item is always a 6-level
# segment and its tail items are the pinned cycles
EXTRA_SEGMENT_LEVELS = 10
EXTRA_LEVEL_CHOICES = (4, 5, 6)


def _two_ended_item(pkg, twisted: bool, mode: str, levels: int, pinned_starts=None) -> Item:
    spec = pkg.MarkedGroupSpec(3, twisted=twisted)
    cyclic = mode == "cycle"
    chi = quotient_chi_value(3, twisted, levels) if cyclic else 3
    if cyclic:
        inst = pkg.cayley_cycle_instance(spec, levels, chi=chi)
    else:
        inst = pkg.cayley_segment_instance(spec, levels, chi=chi)

    def check(result) -> Optional[str]:
        colors = result.coloring.colors
        clash = group_law_clash(colors, 3, twisted, levels, cyclic)
        if clash:
            return clash
        used = len(set(colors))
        if used > 2 * chi - 1:
            return f"{used} colors, more than 2*chi-1 = {2 * chi - 1}"
        members = result.family.members
        for a, b in itertools.combinations(members, 2):
            if pkg.set_distance(inst.graph, a, b) < 4:
                return "two separator members closer than distance 4"
        if not pkg.check_complement_bounded(inst, result.family)["satisfied"]:
            return "a complement component is not bounded by the family"
        if pinned_starts is not None:
            starts = [min(inst.block_of(v) for v in s) for s in members]
            if starts != pinned_starts:
                return f"separator starts {starts}, expected {pinned_starts}"
        return None

    group = "twisted" if twisted else "plain"
    return Item(
        f"color_two_ended {mode} {group} M={levels}",
        "te",
        lambda: pkg.color_two_ended(inst, budget=pkg.Budget()),
        check,
    )


def two_ended(pkg, rng: random.Random) -> list[Item]:
    items = [
        _two_ended_item(pkg, False, "cycle", CYCLE_LEVELS, PINNED_STARTS),
        _two_ended_item(pkg, True, "cycle", CYCLE_LEVELS),
        _two_ended_item(pkg, False, "segment", 6),
    ]
    first = rng.choice(EXTRA_LEVEL_CHOICES)
    for levels in (first, EXTRA_SEGMENT_LEVELS - first):
        items.append(_two_ended_item(pkg, rng.random() < 0.5, "segment", levels))
    return items


# -- enumerate ------------------------------------------------------------


def _report_item(name: str, call, count: int, span: str = "grid.verify") -> Item:
    def check(report) -> Optional[str]:
        if report.undecided:
            return "undecided"
        if not report.ok:
            return f"violations: {report.violations[:1]}"
        if report.count != count:
            return f"count {report.count}, expected {count}"
        return None

    return Item(name, span, call, check)


def enumerate_(pkg, rng: random.Random) -> list[Item]:
    Budget = pkg.Budget
    return [
        _report_item("verify_dichotomy k=3", lambda: pkg.verify_dichotomy(3, budget=Budget()), 1056),
        _report_item("verify_invariance k=3 plain", lambda: pkg.verify_invariance(3, False, budget=Budget()), 12288),
        _report_item("verify_invariance k=3 twisted", lambda: pkg.verify_invariance(3, True, budget=Budget()), 12288),
        _report_item("verify_rigidity k=3", lambda: pkg.verify_rigidity(3, budget=Budget()), 12),
        _report_item("verify_dichotomy k=4 canonical", lambda: pkg.verify_dichotomy(4, budget=Budget(), canonical=True), 3826),
        _report_item("verify_rigidity k=4", lambda: pkg.verify_rigidity(4, budget=Budget()), 48),
    ]


# -- quotient -------------------------------------------------------------


def _chi_item(pkg, k: int, twisted: bool, modulus: int) -> Item:
    spec = pkg.MarkedGroupSpec(k, twisted=twisted)
    want = quotient_chi_value(k, twisted, modulus)

    def check(result) -> Optional[str]:
        if result.undecided or result.value != want:
            return f"chi in [{result.lower}, {result.upper}], expected {want}"
        if result.witness is None:
            return "no witness coloring"
        if result.witness.used > want:
            return f"witness uses {result.witness.used} colors"
        return group_law_clash(result.witness.colors, k, twisted, modulus, True)

    group = "twisted" if twisted else "plain"
    return Item(
        f"quotient_chi k={k} {group} M={modulus}",
        "quotient",
        lambda: pkg.quotient_chi(spec, modulus, budget=pkg.Budget()),
        check,
    )


def quotient(pkg, rng: random.Random) -> list[Item]:
    # The k=3 twisted M=7 proof (1.40M nodes, 12 to 20 s) is left out: one
    # call fills a run, so it cannot be repeated, and its time then follows
    # the host's speed.  Items that take seconds spread more than short
    # ones, so the decision-path proofs kept here are all under 0.1 s.
    items = [
        _chi_item(pkg, 3, twisted, modulus)
        for twisted in (False, True)
        for modulus in QUOTIENT_MODULI
        if (twisted, modulus) != (True, 7)
    ]
    items.append(_chi_item(pkg, 4, True, 3))
    for k, modulus in ((3, 3), (3, 5), (4, 3)):
        items.append(
            _report_item(
                f"verify_alternation_obstruction k={k} M={modulus}",
                lambda k=k, modulus=modulus: pkg.verify_alternation_obstruction(
                    k, modulus, budget=pkg.Budget()
                ),
                1,
                "quotient",
            )
        )
    items.append(
        _report_item(
            "verify_even_quotient_isomorphism k=3 M=4",
            lambda: pkg.verify_even_quotient_isomorphism(3, 4),
            216,
            "quotient",
        )
    )
    return items


BUILDERS = {
    "towers": towers,
    "two_ended": two_ended,
    "enumerate": enumerate_,
    "quotient": quotient,
}


def build(workload: str, pkg, seed: int) -> list[Item]:
    """The workload's items for this seed, in a fixed order."""
    return BUILDERS[workload](pkg, random.Random(f"{workload}:{seed}"))
