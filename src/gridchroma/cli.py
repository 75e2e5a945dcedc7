"""Command line entry point.

One executable, ten subcommands: graph generation and export, exact
chromatic numbers, the three exhaustive grid verifiers, the two coloring
algorithms, the quotient computations, and a consolidated report that
reruns the headline table at a chosen k.

Exit codes: 0 success or property verified; 1 property violation, or
"none exists" where existence was asserted; 2 input error; 3 undecided at
the configured budget; 141 stdout closed by its reader.  A proven violation
outranks undecided.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from itertools import combinations
from typing import Optional

from .chi import Budget, chromatic_info, chromatic_number, is_proper
from .errors import InputError, InvariantViolation, UndecidedError
from .graphs import graph_to_dimacs, graph_to_json, load_graph, set_distance
from .grid import grid_graph, verify_dichotomy, verify_invariance, verify_rigidity
from .groups import MarkedGroupSpec
from .instances import (
    CYCLE,
    SEGMENT,
    cayley_cycle_instance,
    ladder_instance,
    load_instance,
    path_instance,
)
from .quotients import (
    build_quotient,
    cayley_window,
    quotient_chi,
    verify_alternation_obstruction,
    verify_even_quotient_isomorphism,
)
from .towers import (
    AnchoredTower,
    color_tower,
    load_tower,
    random_tower,
    witness_k_insufficient,
)
from .twoended import color_two_ended

OK, VIOLATION, INPUT_ERROR, UNDECIDED = 0, 1, 2, 3
BROKEN_PIPE = 141  # the shell's code for a writer whose reader left


def _budget_from(args) -> Optional[Budget]:
    return None if args.budget_ms is None else Budget(ms=args.budget_ms)


def _group_spec(args) -> MarkedGroupSpec:
    return MarkedGroupSpec(args.k, twisted=(args.group == "gamma"))


def _write_file(report: dict, key: str, path: str, content) -> None:
    """Write a file and list it under the report's artifacts: `content` is
    text, or a document written as indented JSON."""
    if not isinstance(content, str):
        content = json.dumps(content, indent=2, default=str)
    with open(path, "w") as fh:
        fh.write(content)
    report.setdefault("artifacts", {})[key] = path


def _emit(args, report: dict, lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, default=str))
    else:
        for line in lines:
            print(line)


def _outcome(got) -> Optional[bool]:
    """A verifier's verdict: False on any violation, else None if undecided."""
    return False if got.violations else (None if got.undecided else True)


def _verdict(outcomes) -> Optional[bool]:
    """Combine outcomes: a proven violation outranks undecided."""
    seen = set(outcomes)
    return False if False in seen else (None if None in seen else True)


EXIT_CODES = {True: OK, False: VIOLATION, None: UNDECIDED}

_TRUTH = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _truth(text: str) -> bool:
    """A true/false option value, in any case; anything else is a usage
    error rather than a silent false."""
    try:
        return _TRUTH[text.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"expected true/false, yes/no or 1/0, got {text!r}"
        ) from None


# -- subcommand handlers -------------------------------------------------------


def cmd_cayley(args, report) -> int:
    spec = _group_spec(args)
    if args.modulus is not None:
        graph = build_quotient(spec, args.modulus).graph
    else:
        graph = cayley_window(spec, args.levels)
    report["results"] = {"vertices": graph.n, "edges": graph.edge_count}
    if args.format == "dimacs":
        text = graph_to_dimacs(graph, comment=f"{spec.name} window/quotient")
    else:  # indented in a file, one line on stdout
        text = json.dumps(graph_to_json(graph), indent=2 if args.out else None)
    if args.out:
        _write_file(report, "out", args.out, text)
        text = f"wrote {args.out}"
    _emit(args, report, [text.rstrip()])
    return OK


def _chi_answer(args, report, result, line: str, head: dict, tail: dict) -> int:
    """The tail shared by `chi` and `quotient-chi`: the results (the bounds
    and the value between `head` and `tail`), then the value line (and the
    witness file, when asked for) if proven, else the bounds."""
    report["results"] = {
        **head,
        "lower": result.lower,
        "upper": result.upper,
        "chi": result.value,
        **tail,
        "undecided": result.undecided,
    }
    if result.undecided:
        _emit(args, report, [f"undecided at budget: chi in [{result.lower}, {result.upper}]"])
        return UNDECIDED
    lines = [line]
    witness = getattr(args, "witness", None)
    if witness and result.witness is not None:
        _write_file(report, "witness", witness, result.witness.to_json())
        lines.append(f"witness written to {witness}")
    _emit(args, report, lines)
    return OK


def cmd_chi(args, report) -> int:
    result = chromatic_info(load_graph(args.graph), budget=_budget_from(args))
    return _chi_answer(args, report, result, f"chi = {result.value}", {}, {"nodes": result.nodes})


def _verified(args, report, got, head: str) -> int:
    """The tail shared by the verify-* commands: results, the summary line
    and its notes, and the exit code of the verdict."""
    report["results"] = got.to_json()
    lines = [f"{head}violations={len(got.violations)} undecided={got.undecided}"]
    lines.extend(f"  {note}" for note in got.notes)
    _emit(args, report, lines)
    return EXIT_CODES[_outcome(got)]


def cmd_verify_dichotomy(args, report) -> int:
    got = verify_dichotomy(args.k, budget=_budget_from(args))
    return _verified(args, report, got, f"dichotomy k={args.k}: colorings={got.count} ")


def cmd_verify_invariance(args, report) -> int:
    got = verify_invariance(args.k, args.twisted, budget=_budget_from(args))
    head = f"invariance k={args.k} twisted={args.twisted}: colorings={got.count} "
    return _verified(args, report, got, head)


def cmd_verify_rigidity(args, report) -> int:
    got = verify_rigidity(args.k, budget=_budget_from(args))
    return _verified(args, report, got, f"rigidity k={args.k}: colorings={got.count} ")


def cmd_two_ended_color(args, report) -> int:
    inst = load_instance(args.instance)
    result = color_two_ended(
        inst,
        window_blocks=args.window,
        size_cap=args.cap,
        budget=_budget_from(args),
        chi=args.chi,
    )
    stats = result.complement_stats
    report["results"] = {
        "chi": result.chi,
        "palette": result.coloring.palette,
        "colors_used": result.colors_used,
        "family": result.family.to_json(),
        "complement_stats": stats,
    }
    if args.out:
        _write_file(report, "out", args.out, result.to_json())
    _emit(
        args,
        report,
        [
            f"colored {inst.graph.n} vertices with {result.colors_used} colors "
            f"(bound {result.coloring.palette}, chi {result.chi})",
            f"separators: {len(result.family.members)}, "
            f"passage degrees {stats['degrees']}, shape ok {stats['shape_ok']}",
        ],
    )
    return OK


def cmd_shift_color(args, report) -> int:
    tower = load_tower(args.anchors)
    result = color_tower(tower)  # an improper coloring raises InvariantViolation
    report["results"] = {
        "k": tower.k,
        "extent": tower.extent,
        "mode": tower.mode,
        "palette": result.coloring.palette,
        "colors_used": result.colors_used,
        "proper": True,
    }
    if args.out:
        _write_file(report, "out", args.out, result.to_json())
    _emit(
        args,
        report,
        [
            f"colored {result.graph.n} vertices with {result.colors_used} colors "
            f"(palette {result.coloring.palette}); proper=True"
        ],
    )
    return OK


def cmd_quotient_chi(args, report) -> int:
    result = quotient_chi(_group_spec(args), args.modulus, budget=_budget_from(args))
    head = {"group": args.group, "k": args.k, "modulus": args.modulus}
    return _chi_answer(args, report, result, f"{result.value}", head, {})


def cmd_verify_alternation(args, report) -> int:
    got = verify_alternation_obstruction(args.k, args.modulus, budget=_budget_from(args))
    return _verified(args, report, got, f"alternation k={args.k} M={args.modulus}: ")


# -- the claims table ---------------------------------------------------------
#
# Each claim maps (k, budget, rng, towers) to (outcome, value): the outcome is
# True when proven, False when refuted and None when undecided at the budget.
# `report` prints one row per claim; the acceptance tests run the same table
# at k=3 and pin the values.


def _chi_claim(got, holds) -> tuple:
    """A chromatic number proven by exhaustion below and a witness above."""
    if got.undecided:
        return None, f"[{got.lower},{got.upper}]"
    return got.witness.used <= got.value and holds(got.value), got.value


def _claim_grid_chi(k, budget, rng, towers):
    return _chi_claim(chromatic_info(grid_graph(k), budget=budget), lambda c: c == k)


def _claim_dichotomy(k, budget, rng, towers):
    got = verify_dichotomy(k, budget=budget)
    return _outcome(got), {"colorings": got.count}


def _claim_invariance(k, budget, rng, towers):
    # plain gets half the row's time on its own clock, twisted all it leaves
    start = time.monotonic()
    plain = verify_invariance(k, twisted=False, budget=budget and Budget(ms=budget.ms / 2))
    if budget is not None:
        budget = Budget(ms=max(0.0, budget.ms - 1000 * (time.monotonic() - start)))
    twisted = verify_invariance(k, twisted=True, budget=budget)
    outcome = _verdict((_outcome(plain), _outcome(twisted))) and plain.count == twisted.count
    return outcome, {"plain": plain.count, "twisted": twisted.count}


def _claim_rigidity(k, budget, rng, towers):
    got = verify_rigidity(k, budget=budget)
    return _outcome(got), {"colorings": got.count}


def _claim_plain_chi(k, budget, rng, towers):
    return _chi_claim(quotient_chi(MarkedGroupSpec(k), 3, budget=budget), lambda c: c == k)


def _claim_twisted_chi(k, budget, rng, towers):
    got = quotient_chi(MarkedGroupSpec(k, twisted=True), 3, budget=budget)
    return _chi_claim(got, lambda c: c >= 2 * k - 1)


def _claim_even_collapse(k, budget, rng, towers):
    twisted, plain = (quotient_chi(MarkedGroupSpec(k, t), 4, budget=budget) for t in (True, False))
    iso = verify_even_quotient_isomorphism(k, 4)
    chis = [_chi_claim(got, lambda c: c == k)[0] for got in (twisted, plain)]
    return _verdict(chis + [_outcome(iso)]), {"twisted_chi": twisted.value, "edges_checked": iso.count}


def _claim_alternation(k, budget, rng, towers):
    alts = {m: verify_alternation_obstruction(k, m, budget=budget) for m in (3, 5)}
    values = {m: {"ok": alt.ok, "undecided": alt.undecided} for m, alt in alts.items()}
    return _verdict(map(_outcome, alts.values())), values


def _claim_two_ended(k, budget, rng, towers):
    suite = {
        "path cycle": path_instance(12, CYCLE),
        "ladder cycle": ladder_instance(12, CYCLE),
        "plain cayley cycle": cayley_cycle_instance(MarkedGroupSpec(k), 12),
        "twisted cayley cycle": cayley_cycle_instance(MarkedGroupSpec(k, twisted=True), 12),
    }
    values = {}
    for name, inst in suite.items():
        chi = chromatic_number(inst.graph, budget=budget)  # a declared chi is not trusted
        got = color_two_ended(inst, budget=budget, chi=chi)
        stats = got.complement_stats
        values[name] = {"colors": got.colors_used, "bound": 2 * chi - 1}
        if not (
            is_proper(inst.graph, got.coloring)
            and got.colors_used <= 2 * chi - 1
            and all(
                set_distance(inst.graph, a, b) >= 4
                for a, b in combinations(got.family.members, 2)
            )
            # cycle mode: the passages form one cycle, every degree exactly 2
            and stats["shape_ok"]
            and stats["satisfied"]
        ):
            return False, values  # refuted: the instances after it cannot change the row
    return True, values


def _claim_towers(k, budget, rng, towers):
    good, zero_seen = True, 0
    for _ in range(towers):
        mode = SEGMENT if rng.random() < 0.5 else CYCLE
        zero = rng.random() < 0.25
        used = color_tower(random_tower(k, rng, mode, zero_offsets=zero)).colors_used
        good = good and used <= k + 1 and (not zero or used == k)
        zero_seen += zero
    if k == 3:  # no 3-coloring bridges these anchors across the gap
        good = good and all(
            witness_k_insufficient(
                3, AnchoredTower(3, 11, SEGMENT, ((0, (0, 0)), (10, (a0, b0)))), budget=budget
            )
            for a0 in (1, 2)
            for b0 in (0, 1, 2)
        )
    return good, {"towers": towers, "zero_offset": zero_seen, "witness_checked": k == 3}


CLAIMS = (
    ("grid chi == k", _claim_grid_chi),
    ("dichotomy: zero violations", _claim_dichotomy),
    ("invariance: plain equal / twisted opposite", _claim_invariance),
    ("rigidity: projections only", _claim_rigidity),
    ("plain quotient chi == k (M=3)", _claim_plain_chi),
    ("twisted odd quotient chi >= 2k-1 (M=3)", _claim_twisted_chi),
    ("even collapse (M=4): twisted chi == k and swap map is an isomorphism", _claim_even_collapse),
    ("alternation obstruction (M in {3,5})", _claim_alternation),
    ("two-ended colorer within 2*chi-1", _claim_two_ended),
    ("tower palette <= k+1 over {towers} seeded towers", _claim_towers),
)
STATUS = {True: "PASS", False: "FAIL", None: "UNDECIDED"}


def cmd_report(args, report) -> int:
    budget = _budget_from(args)
    if budget is None and args.k > 3:
        # the exhaustive rows outgrow any patience beyond k=3; default to a
        # minute so larger k degrades to honest undecided rows
        budget = Budget(ms=60_000)
    rng = random.Random(args.seed)
    rows: list[dict] = []
    row_ms: list[float] = []
    t0 = time.monotonic()
    for i, (name, claim) in enumerate(CLAIMS):
        start = time.monotonic()
        share = None
        if budget is not None:
            # each row gets an even share of what is left, so a slow row
            # cannot starve the fast ones after it
            left_ms = budget.ms - 1000 * (time.monotonic() - t0)
            share = Budget(ms=max(0.0, left_ms) / (len(CLAIMS) - i))
        try:
            passed, value = claim(args.k, share, rng, args.towers)
        except UndecidedError as exc:
            passed, value = None, {"undecided": str(exc)}
        rows.append({"row": name.replace("{towers}", str(args.towers)), "pass": passed, "value": value})
        row_ms.append(round(1000 * (time.monotonic() - start), 1))

    report["results"] = {"rows": rows}
    report["timings_ms"] = {"total": round(1000 * (time.monotonic() - t0), 1), "rows": row_ms}
    _emit(args, report, [f"[{STATUS[r['pass']]:9}] {r['row']}: {r['value']}" for r in rows])
    return EXIT_CODES[_verdict(row["pass"] for row in rows)]


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridchroma",
        description="exact coloring experiments on grid towers, Cayley quotients, "
        "and two-ended line instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=True):
        p.add_argument("--json", action="store_true", help="print the full run report as JSON")
        if budget:
            p.add_argument(
                "--budget-ms",
                type=float,
                default=None,
                help="time budget in milliseconds",
            )

    p = sub.add_parser("cayley", help="generate and export a window or quotient graph")
    p.add_argument("--group", choices=("delta", "gamma"), required=True)
    p.add_argument("--k", type=int, required=True)
    shape = p.add_mutually_exclusive_group()
    # a string default is converted like a given value but is never the
    # same object as one, so argparse sees `--levels 4 --M 3` clash too
    shape.add_argument("--levels", type=int, default="4", help="window height")
    shape.add_argument("--M", dest="modulus", type=int, default=None, help="cyclic quotient modulus")
    p.add_argument("--format", choices=("json", "dimacs"), default="json")
    p.add_argument("--out", default=None)
    common(p, budget=False)
    p.set_defaults(func=cmd_cayley)

    p = sub.add_parser("chi", help="exact chromatic number of a JSON or DIMACS graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--witness", default=None, help="write a witness coloring JSON here")
    common(p)
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("verify-dichotomy", help="exhaustive grid coloring dichotomy check")
    p.add_argument("--k", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_verify_dichotomy)

    p = sub.add_parser("verify-invariance", help="orientation propagation across layers")
    p.add_argument("--k", type=int, default=3)
    p.add_argument(
        "--twisted",
        type=_truth,
        default=False,
        help="true: adjacent layers must swap orientation",
    )
    common(p)
    p.set_defaults(func=cmd_verify_invariance)

    p = sub.add_parser("verify-rigidity", help="k-colorings are coordinate projections")
    p.add_argument("--k", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_verify_rigidity)

    p = sub.add_parser("two-ended-color", help="separator-scaffold coloring of an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--window", type=int, default=1, help="separator search window in blocks")
    p.add_argument("--cap", type=int, default=None, help="separator size cap")
    p.add_argument("--chi", type=int, default=None, help="override the declared chromatic number")
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_two_ended_color)

    p = sub.add_parser("shift-color", help="spare-color propagation over an anchored tower")
    p.add_argument("--anchors", required=True, help="tower JSON file")
    p.add_argument("--out", default=None)
    common(p, budget=False)
    p.set_defaults(func=cmd_shift_color)

    p = sub.add_parser("quotient-chi", help="exact chromatic number of a cyclic quotient")
    p.add_argument("--group", choices=("delta", "gamma"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--M", dest="modulus", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_quotient_chi)

    p = sub.add_parser("verify-alternation", help="odd twisted quotients have no (2k-2)-coloring")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--M", dest="modulus", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_verify_alternation)

    p = sub.add_parser("report", help="run the consolidated verification table")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--towers", type=int, default=20, help="random towers per report run")
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_report)

    return parser


def run(argv: list[str]) -> tuple[int, dict]:
    """Parse and execute; returns (exit code, run report)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else INPUT_ERROR), {
            "command": argv,
            "error": "argument parsing failed",
        }
    report: dict = {
        "command": " ".join(["gridchroma"] + list(argv)),
        "params": {
            key: value
            for key, value in vars(args).items()
            if key not in ("func",) and not key.startswith("_")
        },
    }
    start = time.monotonic()
    try:
        code = args.func(args, report)
        sys.stdout.flush()  # a reader that left shows here, not at exit
    except BrokenPipeError:
        # the reader is gone: point stdout at the null device, so neither
        # a later write nor the flush at interpreter exit raises again
        sys.stdout = open(os.devnull, "w")
        report["error"] = "stdout closed by its reader"
        code = BROKEN_PIPE
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        report["error"] = str(exc)
        code = INPUT_ERROR
    except UndecidedError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        report["error"] = str(exc)
        code = UNDECIDED
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        report["error"] = str(exc)
        code = VIOLATION
    report.setdefault("timings_ms", {})["wall"] = round(
        1000 * (time.monotonic() - start), 1
    )
    if args.command == "report" and args.out:  # written last: it holds the wall time and any error
        try:
            _write_file(report, "out", args.out, report)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = INPUT_ERROR
    return code, report


def main() -> None:
    sys.exit(run(sys.argv[1:])[0])


if __name__ == "__main__":
    main()
