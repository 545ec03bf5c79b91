"""Self-tests of the benchmark: tracer, output checks and API policy.

    python3 -m pytest bench/tests
"""

import ast
import importlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import run
from hostspeed import PROBE_REFERENCE_S, HostProbe
from source import import_library
from tracer import LAYERS, NAME, SELF, TRACED, Tracer, metric_names, wrapper_cost_s
from workloads import class_digest, seifert_many_classes

BENCH = Path(run.__file__).resolve().parent
TWO_CLASS_SPACE = "Y(-1; -2/1, -4/1, -5/1)"


@pytest.fixture()
def lib():
    return import_library()


def tiny_calls(lib):
    """Small inputs that reach every traced function."""
    lib.defects(lib.e7_lattice())
    lib.evaluate_expression("P")
    report = lib.evaluate_expression(TWO_CLASS_SPACE)
    lib.report_verdict(report)
    lib.surgery_difference(report.pair)
    lib.min_char_norm(lib.identity_lattice(3))
    lib.glue_overlattice(lib.a1_lattice(), lib.e7_lattice())
    lib.verify_suite("elkies", rank_bound=3, trials=2)


def traced(lib, calls):
    tracer = Tracer()
    with tracer.installed():
        start = time.perf_counter_ns()
        result = calls(lib)
        wall = time.perf_counter_ns() - start
    return tracer, wall, result


def test_every_traced_function_records_calls(lib):
    tracer, _wall, _ = traced(lib, tiny_calls)
    metrics = tracer.layer_metrics()
    missing = [name for name in TRACED if metrics[f"{name}.calls"] == 0]
    assert missing == []


def test_every_binding_is_wrapped_and_restored(lib):
    originals = {
        f"{layer}.{name}": getattr(importlib.import_module(f"latdefect.{layer}"), name)
        for layer, names in LAYERS.items()
        for name in names
    }
    modules = [m for n, m in sys.modules.items() if n == "latdefect" or n.startswith("latdefect.")]
    tracer = Tracer()
    tracer.install()
    try:
        # `import latdefect.defects` would give the function; the tracer must
        # have patched the module's copy of the search entry point
        defects_module = sys.modules["latdefect.defects"]
        assert defects_module.shortest_in_coset is not originals["enumeration.shortest_in_coset"]
        assert callable(sys.modules["latdefect"].defects)
        for module in modules:
            for attribute, value in vars(module).items():
                assert all(value is not fn for fn in originals.values()), (
                    f"{module.__name__}.{attribute} still unwrapped"
                )
        bound = {(m.__name__, a) for m, a, _ in tracer.bindings}
    finally:
        tracer.remove()
    assert {
        ("latdefect", "shortest_in_coset"),
        ("latdefect.enumeration", "shortest_in_coset"),
        ("latdefect.defects", "shortest_in_coset"),
    } <= bound
    assert defects_module.shortest_in_coset is originals["enumeration.shortest_in_coset"]


def test_self_times_are_nonnegative_and_within_wall(lib):
    tracer, wall, _ = traced(lib, tiny_calls)
    assert all(span[SELF] >= 0 for span in tracer.spans)
    assert sum(span[SELF] for span in tracer.spans) <= wall


def test_node_counter_matches_nodes_visited(lib):
    tracer, _wall, result = traced(lib, lambda lib: lib.min_char_norm(lib.identity_lattice(3)))
    metrics = tracer.layer_metrics()
    assert metrics["enumeration.nodes"] == result.nodes_visited > 0
    assert [s[NAME] for s in tracer.spans].count("enumeration.shortest_in_coset") == 1


def test_counts_repeat_exactly(lib):
    first, _, _ = traced(lib, tiny_calls)
    second, _, _ = traced(lib, tiny_calls)
    counts = lambda t: {k: v for k, v in t.layer_metrics().items() if not k.endswith("_s")}
    assert counts(first) == counts(second)


def test_discarded_minimizers_are_counted_under_max_char_square(lib):
    tracer, _, report = traced(lib, lambda lib: lib.evaluate_expression(TWO_CLASS_SPACE))
    metrics = tracer.layer_metrics()
    assert metrics["dinvariant.spinc_classes.classes"] == report.h1 == 2
    assert metrics["defects.max_char_square.minimizers_discarded"] == metrics["enumeration.minimizers"] > 0


def two_class_group(lib) -> dict:
    values = lib.evaluate_expression(TWO_CLASS_SPACE).class_values
    space = {"expression": TWO_CLASS_SPACE, "digest": class_digest(values)}
    return {"rank": 4, "classes": 2, "spaces": [space]}


def test_traced_setup_counts_once_and_passes_per_pass(lib):
    group = two_class_group(lib)
    setup = Tracer()
    with setup.installed():
        jobs = seifert_many_classes(lib, 0, groups=[group])
    tracer = Tracer()
    with tracer.installed():
        passes = [run.run_pass(jobs, tracer) for _ in range(2)]
    assert [p["failed"] for p in passes] == [0, 0]
    metrics = tracer.layer_metrics(len(passes), setup=setup)
    assert metrics["plumbing.parse_expression.calls"] == 1
    assert metrics["dinvariant.evaluate_expression.calls"] == 1
    assert metrics["dinvariant.spinc_classes.classes"] == 2


def test_setup_imports_the_command_line_and_its_dependencies_afresh(lib):
    assert "latdefect.cli" in sys.modules
    click = sys.modules["click"]
    import_library()
    assert sys.modules["click"] is not click


def test_wrapper_cost_is_small_and_positive():
    assert 0 < wrapper_cost_s(calls=2_000, repeats=3) < 1e-3


def test_host_probe_samples_while_installed_and_restores_the_handler():
    probe = HostProbe()
    before = signal.getsignal(signal.SIGALRM)
    with probe.installed():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert probe.scale() == PROBE_REFERENCE_S / statistics.median(probe.samples)


def test_measured_times_are_put_on_the_probe_scale(lib):
    jobs = seifert_many_classes(lib, 0, groups=[two_class_group(lib)])
    probe = HostProbe()
    with probe.installed():
        metrics, passes = run.measure(jobs, 0.3, probe)
    (job_s,) = zip(*(p["job_s"] for p in passes))
    assert all(b - a < run.MIN_JOB_PROBES for p in passes for a, b in p["job_probes"])
    expected = statistics.fmean(job_s) * probe.scale()
    assert metrics["wall_s"][0] == pytest.approx(expected)
    assert metrics["slowest_job_s"][0] == pytest.approx(expected)


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == set(metric_names())


def test_planted_wrong_expected_value_fails_the_job(lib):
    group = two_class_group(lib)
    (space,) = group["spaces"]
    values = lib.evaluate_expression(TWO_CLASS_SPACE).class_values
    good = run.run_pass(seifert_many_classes(lib, 0, groups=[group]))
    assert (good["attempted"], good["failed"]) == (1, 0)
    planted = dict(space, digest=class_digest([Fraction(9, 4), *values[1:]]))
    bad = run.run_pass(seifert_many_classes(lib, 0, groups=[dict(group, spaces=[planted])]))
    assert bad["failed"] / bad["attempted"] > 0


def test_pool_groups_share_rank_and_class_count(lib):
    groups = json.loads((BENCH / "data" / "many_classes.json").read_text())["groups"]
    assert len(groups) >= 2
    for group in groups:
        assert len(group["spaces"]) >= 2
        for space in group["spaces"]:
            (term,) = lib.parse_expression(space["expression"]).terms
            assert lib.h1_order(term.atom) == group["classes"]
            assert lib.canonical_plumbing(term.atom).rank == group["rank"]


def test_benchmark_uses_public_names_and_default_options():
    options = {"threads", "reduce", "node_budget"}
    # the offline recorder's cross-check route must stay LLL-free whatever the
    # default, so it pins reduce=False; no timed job passes any option
    pinned = {("record_pool.py", "reduce", False)}
    problems = []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                problems += [
                    f"{path.name}: {k.arg}="
                    for k in node.keywords
                    if k.arg in options
                    and (path.name, k.arg, getattr(k.value, "value", None)) not in pinned
                ]
            elif isinstance(node, ast.Attribute):
                if node.attr.startswith("_") and not node.attr.startswith("__"):
                    problems.append(f"{path.name}: .{node.attr}")
            elif isinstance(node, ast.ImportFrom):
                problems += [
                    f"{path.name}: import {a.name}" for a in node.names if a.name.startswith("_")
                ]
    problems += [name for name in TRACED if any(p.startswith("_") for p in name.split("."))]
    assert problems == []


def test_run_without_library_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("traces", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lattice-suites", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
