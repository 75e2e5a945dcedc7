"""Command line entry point.

One executable, ten subcommands: graph generation and export, exact
chromatic numbers, the three exhaustive grid verifiers, the two coloring
algorithms, the quotient computations, and a consolidated report that
reruns the headline table at a chosen k.

Exit codes: 0 success or property verified; 1 property violation, or
"none exists" where existence was asserted; 2 input error; 3 undecided at
the configured budget; 141 stdout closed by its reader.  The default time budget comes from
GRIDCHROMA_BUDGET_MS when set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from typing import Optional

from .chi import Budget, chromatic_info, is_proper
from .errors import InputError, InvariantViolation, UndecidedError
from .graphs import graph_to_dimacs, graph_to_json, load_graph
from .grid import grid_graph, verify_dichotomy, verify_invariance, verify_rigidity
from .groups import MarkedGroupSpec
from .instances import (
    CYCLE,
    SEGMENT,
    LineInstance,
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
from .twoended import color_two_ended, family_metrics

OK, VIOLATION, INPUT_ERROR, UNDECIDED = 0, 1, 2, 3
BROKEN_PIPE = 141  # the shell's code for a writer whose reader left


def _budget_from(args) -> Optional[Budget]:
    ms = getattr(args, "budget_ms", None)
    if ms is None:
        env = os.environ.get("GRIDCHROMA_BUDGET_MS")
        if not env:
            return None
        try:
            ms = float(env)
        except ValueError:
            raise InputError(f"GRIDCHROMA_BUDGET_MS is not a number: {env!r}") from None
    if not (math.isfinite(ms) and ms >= 0):
        raise InputError(f"budget must be a finite, nonnegative number of milliseconds, got {ms}")
    return Budget(ms=ms)


def _group_spec(args) -> MarkedGroupSpec:
    return MarkedGroupSpec(args.k, twisted=(args.group == "gamma"))


def _write_artifact(args, doc: dict, report: dict) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
        report.setdefault("artifacts", {})["out"] = args.out


def _emit(args, report: dict, lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, default=str))
    else:
        for line in lines:
            print(line)


def _report_exit(report_obj) -> int:
    if report_obj.undecided:
        return UNDECIDED
    return OK if not report_obj.violations else VIOLATION


# -- subcommand handlers -------------------------------------------------------


def cmd_cayley(args, report) -> int:
    spec = _group_spec(args)
    if args.modulus is not None:
        graph = build_quotient(spec, args.modulus).graph
        report["results"] = {"vertices": graph.n, "edges": graph.edge_count}
    else:
        graph = cayley_window(spec, args.levels)
        report["results"] = {"vertices": graph.n, "edges": graph.edge_count}
    if args.format == "dimacs":
        text = graph_to_dimacs(graph, comment=f"{spec.name} window/quotient")
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            report.setdefault("artifacts", {})["out"] = args.out
            _emit(args, report, [f"wrote {args.out}"])
        else:
            _emit(args, report, [text.rstrip()])
    else:
        doc = graph_to_json(graph)
        if args.out:
            _write_artifact(args, doc, report)
            _emit(args, report, [f"wrote {args.out}"])
        else:
            _emit(args, report, [json.dumps(doc)])
    return OK


def cmd_chi(args, report) -> int:
    graph = load_graph(args.graph)
    result = chromatic_info(graph, budget=_budget_from(args))
    report["results"] = {
        "lower": result.lower,
        "upper": result.upper,
        "chi": result.value,
        "nodes": result.nodes,
        "undecided": result.undecided,
    }
    if result.undecided:
        _emit(args, report, [f"undecided at budget: chi in [{result.lower}, {result.upper}]"])
        return UNDECIDED
    lines = [f"chi = {result.value}"]
    if args.witness and result.witness is not None:
        with open(args.witness, "w") as fh:
            json.dump(result.witness.to_json(), fh, indent=2)
        report.setdefault("artifacts", {})["witness"] = args.witness
        lines.append(f"witness written to {args.witness}")
    _emit(args, report, lines)
    return OK


def cmd_verify_dichotomy(args, report) -> int:
    got = verify_dichotomy(args.k, budget=_budget_from(args), canonical=args.canonical)
    report["results"] = got.to_json()
    _emit(
        args,
        report,
        [
            f"dichotomy k={args.k}: colorings={got.count} "
            f"violations={len(got.violations)} undecided={got.undecided}"
        ],
    )
    return _report_exit(got)


def cmd_verify_invariance(args, report) -> int:
    got = verify_invariance(args.k, args.twisted, budget=_budget_from(args))
    report["results"] = got.to_json()
    _emit(
        args,
        report,
        [
            f"invariance k={args.k} twisted={args.twisted}: colorings={got.count} "
            f"violations={len(got.violations)} undecided={got.undecided}"
        ],
    )
    return _report_exit(got)


def cmd_verify_rigidity(args, report) -> int:
    got = verify_rigidity(args.k, budget=_budget_from(args))
    report["results"] = got.to_json()
    _emit(
        args,
        report,
        [
            f"rigidity k={args.k}: colorings={got.count} "
            f"violations={len(got.violations)} undecided={got.undecided}"
        ],
    )
    return _report_exit(got)


def cmd_two_ended_color(args, report) -> int:
    inst = load_instance(args.instance)
    if args.mode is not None and args.mode != inst.mode:
        inst = LineInstance(inst.graph, inst.blocks, args.mode, inst.chi)
    result = color_two_ended(
        inst,
        window_blocks=args.window,
        size_cap=args.cap,
        budget=_budget_from(args),
        chi=args.chi,
    )
    metrics = family_metrics(inst, result.family)
    report["results"] = {
        "chi": result.chi,
        "palette": result.coloring.palette,
        "colors_used": result.colors_used,
        "family": result.family.to_json(),
        "family_metrics": metrics,
        "complement_stats": result.complement_stats,
    }
    _write_artifact(args, result.to_json(), report)
    _emit(
        args,
        report,
        [
            f"colored {inst.graph.n} vertices with {result.colors_used} colors "
            f"(bound {result.coloring.palette}, chi {result.chi})",
            f"separators: {len(result.family.members)}, "
            f"min pairwise distance {metrics['min_pairwise_distance']}",
        ],
    )
    return OK


def cmd_shift_color(args, report) -> int:
    tower = load_tower(args.anchors)
    if args.k is not None and args.k != tower.k:
        raise InputError(
            f"--k {args.k} disagrees with the anchors file (k={tower.k})"
        )
    if args.mode is not None and args.mode != tower.mode:
        tower = AnchoredTower(tower.k, tower.extent, args.mode, tower.anchors)
    result = color_tower(tower)
    proper = is_proper(result.graph, result.coloring)
    report["results"] = {
        "k": tower.k,
        "extent": tower.extent,
        "mode": tower.mode,
        "palette": result.coloring.palette,
        "colors_used": result.colors_used,
        "proper": proper,
    }
    _write_artifact(args, result.to_json(), report)
    _emit(
        args,
        report,
        [
            f"colored {result.graph.n} vertices with {result.colors_used} colors "
            f"(palette {result.coloring.palette}); proper={proper}"
        ],
    )
    return OK if proper else VIOLATION


def cmd_quotient_chi(args, report) -> int:
    spec = _group_spec(args)
    result = quotient_chi(spec, args.modulus, budget=_budget_from(args))
    report["results"] = {
        "group": args.group,
        "k": args.k,
        "modulus": args.modulus,
        "lower": result.lower,
        "upper": result.upper,
        "chi": result.value,
        "undecided": result.undecided,
    }
    if args.export:
        graph = build_quotient(spec, args.modulus).graph
        path = args.out or f"quotient-{args.group}-k{args.k}-M{args.modulus}.{args.export}"
        if args.export == "dimacs":
            with open(path, "w") as fh:
                fh.write(graph_to_dimacs(graph))
        else:
            with open(path, "w") as fh:
                json.dump(graph_to_json(graph), fh)
        report.setdefault("artifacts", {})["export"] = path
    if result.undecided:
        _emit(args, report, [f"undecided at budget: chi in [{result.lower}, {result.upper}]"])
        return UNDECIDED
    _emit(args, report, [f"{result.value}"])
    return OK


def cmd_verify_alternation(args, report) -> int:
    got = verify_alternation_obstruction(args.k, args.modulus, budget=_budget_from(args))
    report["results"] = got.to_json()
    lines = [
        f"alternation k={args.k} M={args.modulus}: "
        f"violations={len(got.violations)} undecided={got.undecided}"
    ]
    lines.extend(f"  {note}" for note in got.notes)
    _emit(args, report, lines)
    return _report_exit(got)


def cmd_report(args, report) -> int:
    k = args.k
    budget = _budget_from(args)
    if budget is None and k > 3:
        # the exhaustive rows outgrow any patience beyond k=3; default to a
        # minute so larger k degrades to honest undecided rows
        budget = Budget(ms=60_000)
    rng = random.Random(args.seed)
    rows: list[dict] = []
    t0 = time.monotonic()

    def add(name: str, passed: Optional[bool], value) -> None:
        rows.append({"row": name, "pass": passed, "value": value})

    # grid chromatic number
    try:
        grid_chi = chromatic_info(grid_graph(k).graph, budget=budget)
        add(
            "grid chi == k",
            None if grid_chi.undecided else grid_chi.value == k,
            grid_chi.value if not grid_chi.undecided else f"[{grid_chi.lower},{grid_chi.upper}]",
        )
    except UndecidedError:
        add("grid chi == k", None, "undecided")

    dich = verify_dichotomy(k, budget=budget)
    add(
        "dichotomy: zero violations",
        None if dich.undecided else dich.ok,
        {"colorings": dich.count},
    )
    inv_plain = verify_invariance(k, twisted=False, budget=budget)
    inv_twisted = verify_invariance(k, twisted=True, budget=budget)
    add(
        "invariance: plain equal / twisted opposite",
        None
        if inv_plain.undecided or inv_twisted.undecided
        else inv_plain.ok and inv_twisted.ok and inv_plain.count == inv_twisted.count,
        {"plain": inv_plain.count, "twisted": inv_twisted.count},
    )
    rig = verify_rigidity(k, budget=budget)
    add(
        "rigidity: projections only",
        None if rig.undecided else rig.ok,
        {"colorings": rig.count},
    )

    delta_chi = quotient_chi(MarkedGroupSpec(k), 3, budget=budget)
    add(
        "plain quotient chi == k (M=3)",
        None if delta_chi.undecided else delta_chi.value == k,
        delta_chi.value if not delta_chi.undecided else "undecided",
    )
    gamma_chi = quotient_chi(MarkedGroupSpec(k, twisted=True), 3, budget=budget)
    add(
        "twisted odd quotient chi >= 2k-1 (M=3)",
        None if gamma_chi.undecided else gamma_chi.value >= 2 * k - 1,
        gamma_chi.value if not gamma_chi.undecided else "undecided",
    )
    gamma_even = quotient_chi(MarkedGroupSpec(k, twisted=True), 4, budget=budget)
    iso = verify_even_quotient_isomorphism(k, 4)
    add(
        "even collapse (M=4): twisted chi == k and swap map is an isomorphism",
        None if gamma_even.undecided else gamma_even.value == k and iso.ok,
        {"twisted_chi": gamma_even.value, "edges_checked": iso.count},
    )
    alt_ok: Optional[bool] = True
    alt_values = {}
    for modulus in (3, 5):
        alt = verify_alternation_obstruction(k, modulus, budget=budget)
        alt_values[modulus] = {"ok": alt.ok, "undecided": alt.undecided}
        if alt.undecided:
            alt_ok = None
        elif not alt.ok and alt_ok is not None:
            alt_ok = False
    add("alternation obstruction (M in {3,5})", alt_ok, alt_values)

    suite = [
        ("path cycle", path_instance(12, CYCLE)),
        ("ladder cycle", ladder_instance(12, CYCLE)),
        ("plain cayley cycle", cayley_cycle_instance(MarkedGroupSpec(k), 12)),
        (
            "twisted cayley cycle",
            cayley_cycle_instance(MarkedGroupSpec(k, twisted=True), 12),
        ),
    ]
    te_ok: Optional[bool] = True
    te_values = {}
    try:
        for name, inst in suite:
            result = color_two_ended(inst, budget=budget)
            bound = 2 * result.chi - 1
            good = (
                is_proper(inst.graph, result.coloring)
                and result.colors_used <= bound
                and result.complement_stats["satisfied"]
            )
            te_ok = te_ok and good
            te_values[name] = {"colors": result.colors_used, "bound": bound}
    except UndecidedError as exc:
        te_ok = None
        te_values["undecided"] = str(exc)
    add("two-ended colorer within 2*chi-1", te_ok, te_values)

    tower_ok = True
    for _ in range(args.towers):
        mode = rng.choice((SEGMENT, CYCLE))
        zero = rng.random() < 0.25
        tower = random_tower(k, rng, mode, zero_offsets=zero)
        result = color_tower(tower)
        good = result.colors_used <= k + 1 and (not zero or result.colors_used == k)
        tower_ok = tower_ok and good
    witness_ok = True
    if k == 3:
        for a0 in (1, 2):
            tower = AnchoredTower(3, 11, SEGMENT, ((0, (0, 0)), (10, (a0, 0))))
            witness_ok = witness_ok and witness_k_insufficient(3, tower, budget=budget)
    add(
        f"tower palette <= k+1 over {args.towers} seeded towers",
        tower_ok and witness_ok,
        {"towers": args.towers, "witness_checked": k == 3},
    )

    report["results"] = {"rows": rows}
    report["timings_ms"] = {"total": round(1000 * (time.monotonic() - t0), 1)}
    lines = []
    for row in rows:
        status = "PASS" if row["pass"] else ("UNDECIDED" if row["pass"] is None else "FAIL")
        lines.append(f"[{status:9}] {row['row']}: {row['value']}")
    _emit(args, report, lines)
    if any(r["pass"] is None for r in rows):
        return UNDECIDED
    return OK if all(r["pass"] for r in rows) else VIOLATION


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
                help="time budget in milliseconds (default: GRIDCHROMA_BUDGET_MS)",
            )

    p = sub.add_parser("cayley", help="generate and export a window or quotient graph")
    p.add_argument("--group", choices=("delta", "gamma"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--levels", type=int, default=4, help="window height (ignored with --M)")
    p.add_argument("--M", dest="modulus", type=int, default=None, help="cyclic quotient modulus")
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
    p.add_argument(
        "--canonical",
        action="store_true",
        default=None,
        help="enumerate one representative per color permutation (default for k > 3)",
    )
    common(p)
    p.set_defaults(func=cmd_verify_dichotomy)

    p = sub.add_parser("verify-invariance", help="orientation propagation across layers")
    p.add_argument("--k", type=int, default=3)
    p.add_argument(
        "--twisted",
        type=lambda s: s.lower() in ("1", "true", "yes"),
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
    p.add_argument("--mode", choices=(SEGMENT, CYCLE), default=None)
    p.add_argument("--chi", type=int, default=None, help="override the declared chromatic number")
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_two_ended_color)

    p = sub.add_parser("shift-color", help="spare-color propagation over an anchored tower")
    p.add_argument("--anchors", required=True, help="tower JSON file")
    p.add_argument("--k", type=int, default=None, help="must agree with the anchors file")
    p.add_argument("--mode", choices=(SEGMENT, CYCLE), default=None)
    p.add_argument("--out", default=None)
    common(p, budget=False)
    p.set_defaults(func=cmd_shift_color)

    p = sub.add_parser("quotient-chi", help="exact chromatic number of a cyclic quotient")
    p.add_argument("--group", choices=("delta", "gamma"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--M", dest="modulus", type=int, required=True)
    p.add_argument("--export", choices=("json", "dimacs"), default=None)
    p.add_argument("--out", default=None)
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
    if getattr(args, "out", None) and "artifacts" not in report and args.command == "report":
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, default=str)
    return code, report


def main() -> None:
    sys.exit(run(sys.argv[1:])[0])


if __name__ == "__main__":
    main()
