"""Self-checks of the benchmark itself.

    python3 -m pytest benchmark -q

Exact counts must repeat under the same seed, the tracer must leave the
package exactly as it found it, and the gates must reject wrong outputs.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def traced_counts(workload: str, seed: int):
    pkg = run.load_package()
    result = run.traced_pass(pkg, workloads.build(workload, pkg, seed))
    assert result.failures == []
    return result.tracer.counts(), dict(result.item_counts)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_counts(workload):
    first = traced_counts(workload, 5)
    assert first == traced_counts(workload, 5)
    totals = first[0]
    assert totals["chi.find.nodes"] + totals["chi.enum.nodes"] + totals["build.edges"] > 0


def test_pinned_counts():
    totals, _ = traced_counts("enumerate", 1)
    assert totals["chi.enum.colorings"] == 1056 + 2 * 12288 + 12 + 3826 + 48
    pkg = run.load_package()
    cycle = workloads._two_ended_item(pkg, False, "cycle", 12, [0, 4, 8])
    result = run.traced_pass(pkg, [cycle])
    assert result.failures == []
    counts = dict(result.item_counts)[cycle.name]
    assert (counts["sep.cut_tests"], counts["sep.found"]) == (4764, 12)


def test_tracer_restores_every_wrapped_attribute():
    pkg = run.load_package()
    originals = {(m, a): getattr(getattr(pkg, m), a) for m, a, _, _ in spans.TARGETS}
    run.traced_pass(pkg, workloads.build("enumerate", pkg, 1))
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed(pkg):
            assert pkg.grid.enumerate_colorings is not originals["grid", "enumerate_colorings"]
            raise RuntimeError("inside the traced block")
    for (module, attr), original in originals.items():
        assert getattr(getattr(pkg, module), attr) is original, f"{module}.{attr}"


def test_missing_target_is_reported_absent():
    pkg = run.load_package()
    del pkg.twoended.divides_into_two
    tracer = spans.Tracer()
    with tracer.installed(pkg):
        pass
    assert tracer.absent == ["twoended.divides_into_two"]
    _, absent = spans.layer_metrics(tracer, 1.0)
    assert set(absent) == {"sep.cut_tests", "sep.cut_s", "sep.cut_tests_per_s", "sep.hit_ratio"}


def test_group_law_check_agrees_with_package():
    pkg = run.load_package()
    rng = random.Random(0)
    for twisted in (False, True):
        spec = pkg.MarkedGroupSpec(3, twisted=twisted)
        for levels, cyclic in ((2, False), (4, False), (3, True), (4, True), (5, True)):
            graph = pkg.build_quotient(spec, levels).graph if cyclic else pkg.cayley_window(spec, levels)
            proper = pkg.find_coloring(graph, 5 if twisted and levels % 2 else 3).colors
            assert workloads.group_law_clash(proper, 3, twisted, levels, cyclic) is None
            for _ in range(200):
                colors = list(proper)
                colors[rng.randrange(len(colors))] = rng.randrange(1, 6)
                want = pkg.is_proper(graph, pkg.Coloring(tuple(colors), 5))
                got = workloads.group_law_clash(colors, 3, twisted, levels, cyclic) is None
                assert got == want


def test_failed_gate_counts_and_its_time_does_not():
    pkg = run.load_package()
    items = workloads.build("enumerate", pkg, 1)
    items[0].check = lambda report: "pinned value disagrees"
    result = run.run_pass(items)
    assert result.failures == [(items[0].name, "pinned value disagrees")]
    assert result.item_s[0] is None
    assert None not in result.item_s[1:]


def test_item_time_is_its_median_scaled_pass():
    passes = [
        run.PassResult(item_s=[0.3, None, 2.0], item_scale=[1.0, 1.0, 1.0]),
        run.PassResult(item_s=[0.2, None, 2.5], item_scale=[0.5, 1.0, 1.0]),
        run.PassResult(item_s=[0.4, None, 1.0], item_scale=[1.0, 1.0, 2.0]),
    ]
    assert run.item_times(passes) == [0.3, 2.0]
    assert run.item_times(passes, scaled=False) == [0.3, 2.0]
    assert run.end_to_end(passes, 0.1)["wall_s"] == (2.3, "s")


def test_scale_is_reference_over_median_probe():
    assert run.scale([0.004, 0.002, 0.002, 0.5]) == run.PROBE_REFERENCE_S / 0.003
    assert run.probe_s() > 0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    pass_result = run.PassResult(item_s=[0.5, 0.5], item_scale=[1.0, 1.0])
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end([pass_result], 0.1))
    layer = [name for name, *_ in spans.LAYER_METRICS] + ["trace.overhead_frac"]
    assert [m["name"] for m in spec["per_layer"]] == layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_package_source(tmp_path):
    bench = tmp_path / "benchmark"
    bench.mkdir()
    for name in ("run.py", "spans.py", "workloads.py"):
        shutil.copy(os.path.join(BENCH_DIR, name), bench / name)
    child = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "enumerate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
