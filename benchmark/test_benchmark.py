"""Self-test of the benchmark harness on the tiny `smoke` cells.

    PYTHONPATH=src python3 -m pytest -q benchmark/test_benchmark.py
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run
from checks import Checker, cell_key, load_expected
from spans import PER_LAYER_UNITS, WRAPPED, Tracer

PACKAGE = run.load_package()


def checker():
    return Checker(load_expected(), PACKAGE["dimensions"].rel_dim_formula)


def traced_pass(workload="smoke", seed=1):
    tracer = Tracer(PACKAGE)
    lo = tracer.begin_pass()
    tracer.install()
    try:
        wall, _, failed = run.run_pass(PACKAGE, checker(), workload, seed)
    finally:
        tracer.uninstall()
    assert failed == 0
    return tracer, tracer.pass_metrics(lo, wall, wall)


def test_every_workload_command_is_pinned():
    expected = load_expected()
    for commands in run.WORKLOADS.values():
        for argv in commands:
            assert cell_key(argv) in expected


def test_metrics_match_benchmark_json():
    with open(Path(run.ROOT) / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER_UNITS
    assert {w["name"] for w in declared["workloads"]} <= set(run.WORKLOADS)


def test_counters_repeat_exactly_across_traced_runs():
    _, first = traced_pass()
    _, second = traced_pass()
    counters = [k for k, unit in PER_LAYER_UNITS.items()
                if unit != "s" and k != "trace.overhead_frac"]
    assert {k: first[k] for k in counters} == {k: second[k] for k in counters}
    assert first["montecarlo.quotient_rank_calls"] > 0
    assert first["symmetrizer.tableaux"] > 0


def test_tracer_restores_the_package():
    originals = {(m, a): getattr(PACKAGE[m], a) for m, a in WRAPPED}
    traced_pass()
    assert {(m, a): getattr(PACKAGE[m], a) for m, a in WRAPPED} == originals


def test_quotient_nullspace_spans_are_not_kernel_time():
    tracer, metrics = traced_pass()
    by_parent = {}
    for i, nid in enumerate(tracer.name):
        if tracer.site[nid] == "montecarlo.nullspace":
            parent = tracer.site[tracer.name[tracer.parent[i]]]
            by_parent.setdefault(parent, []).append(tracer.end[i] - tracer.start[i])
    assert by_parent.get("montecarlo.rank_of"), "the quotient ran no nullspace"
    assert metrics["montecarlo.kernel_s"] == pytest.approx(
        sum(by_parent["montecarlo.certified_kernel"]), abs=1e-12)
    assert metrics["montecarlo.quotient_s"] >= sum(by_parent["montecarlo.rank_of"])


def test_self_times_account_for_the_traced_wall():
    _, metrics = traced_pass()
    layers = sum(metrics[f"{layer}.self_s"] for layer in
                 ("words", "evaluate", "montecarlo", "symmetrizer", "cli"))
    wall = layers + metrics["trace.unaccounted_s"]
    assert 0 <= metrics["trace.unaccounted_s"] < 0.01 * wall


def test_corrupted_relation_vector_is_a_failure(monkeypatch):
    real_main = PACKAGE["cli"].main

    def corrupting_main(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = real_main(argv)
        obj = json.loads(buf.getvalue())
        if obj["n"] == 2 and obj["d"] == 4:
            obj["relations"][0][-1] = str(int(obj["relations"][0][-1]) + 1)
        sys.stdout.write(json.dumps(obj) + "\n")
        return rc

    monkeypatch.setattr(PACKAGE["cli"], "main", corrupting_main)
    _, _, failed = run.run_pass(PACKAGE, checker(), "smoke", 1)
    assert failed == 1


@pytest.mark.parametrize("ys", [
    [["1", "0", "0"], ["0", "0", "1"]],     # another span
    [["1", "0", "0"], ["2", "0", "0"]],     # dependent vectors
])
def test_symmetrizer_span_mismatch_is_a_failure(ys):
    mc = [["1", "0", "0"], ["0", "1", "0"]]
    outputs = {0: (("relations",), {"n": 2, "d": 3, "method": "montecarlo",
                                    "relations": mc}),
               1: (("relations",), {"n": 2, "d": 3, "method": "symmetrizer",
                                    "relations": ys}),
               2: (("relations",), {"n": 2, "d": 3, "method": "symmetrizer",
                                    "relations": [["0", "1", "0"], ["3", "1", "0"]]})}
    assert Checker.cross_check({0: outputs[0], 1: outputs[1]}) == [1]
    assert Checker.cross_check({0: outputs[0], 2: outputs[2]}) == []


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "smoke",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
