"""Determinism, tracer-coverage and answer-check tests for the benchmark.

    python3 -m pytest perfbench/tests -q
"""

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import child  # noqa: E402
import run  # noqa: E402
import sdlp.groups  # noqa: E402
import sdlp.oracles  # noqa: E402
import sdlp.protocol  # noqa: E402
import sdlp.solvers  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

MIXED = workloads.WORKLOADS["mixed-small"]


def small_slice(workload, seed, count):
    """The first `count` instances of slice 0, built as make_items does."""
    return workloads.make_items(dataclasses.replace(workload, count=count * run.PARTS), seed, 0, run.PARTS)


def test_traced_runs_repeat_for_a_seed():
    """Two traced runs with one seed give identical counts and answers."""
    first, second = (run.run_child("mixed-small", 7, 0, run.PARTS, 1.0, "trace", 300, os.devnull) for _ in range(2))
    counted = {k: v for k, v in first["layers"].items() if not k.endswith("_s") and k != "trace_overhead"}
    assert counted == {k: second["layers"][k] for k in counted}
    assert first["counts"] == second["counts"]
    assert first["answers"] == second["answers"]
    assert first["spans"] == second["spans"] > 0


def test_traced_and_untraced_passes_agree():
    items = small_slice(MIXED, 3, 21)
    plain = child.run_pass(MIXED, items, MIXED.make_config())
    t = tracer_mod.Tracer()
    t.install()
    try:
        traced = child.run_pass(MIXED, items, MIXED.make_config(), t)
    finally:
        t.uninstall()
    assert child.digest(plain) == child.digest(traced)
    assert t.counts["groups.mul"] > 0 and any(s[3] == "solve" for s in t.spans)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_the_instances(name):
    workload = workloads.WORKLOADS[name]
    a, b, a_again = (small_slice(workload, seed, 4) for seed in (1, 2, 1))
    session = [(i.x, i.y, repr(i.h)) for i in a]
    assert session == [(i.x, i.y, repr(i.h)) for i in a_again]
    assert session != [(i.x, i.y, repr(i.h)) for i in b]


def test_tracer_rebinds_every_namespace_and_restores_it():
    original_solve = sdlp.solvers.solve
    original_mul = vars(sdlp.groups.HeisenbergGroup)["mul"]
    t = tracer_mod.Tracer()
    t.install()
    try:
        # protocol imported solve by name; both bindings must be the wrapper
        assert sdlp.protocol.solve is sdlp.solvers.solve is not original_solve
        assert sdlp.groups.HeisenbergGroup.mul is not original_mul
        assert sdlp.oracles.UnitGroup.mul is not vars(sdlp.oracles.GroupHandle)["mul"]
    finally:
        t.uninstall()
    assert sdlp.protocol.solve is sdlp.solvers.solve is original_solve
    assert vars(sdlp.groups.HeisenbergGroup)["mul"] is original_mul
    tracer_mod.check_uninstalled()


def test_tracer_fails_when_a_reported_name_is_gone(monkeypatch):
    monkeypatch.delattr(sdlp.oracles, "dlog")
    with pytest.raises(tracer_mod.TracerError, match="dlog"):
        tracer_mod.Tracer().install()
    tracer_mod.check_uninstalled()


def test_tracer_fails_on_a_reference_it_cannot_rebind(monkeypatch):
    monkeypatch.setattr(sdlp.solvers, "REGISTRY", {"master": sdlp.solvers.solve_master}, raising=False)
    with pytest.raises(tracer_mod.TracerError, match="REGISTRY"):
        tracer_mod.Tracer().install()
    tracer_mod.check_uninstalled()


def test_wrong_answers_are_hard_errors():
    item = small_slice(MIXED, 1, 2)[0]
    workloads.run_item(MIXED, copy.deepcopy(item), MIXED.make_config())
    wrong = dataclasses.replace(item, want=sdlp.groups.SolutionSet.singleton(10**9))
    with pytest.raises(workloads.WrongAnswer):
        workloads.run_item(MIXED, wrong, MIXED.make_config())
    heis = workloads.WORKLOADS["spdke-heisenberg"]
    wrong_key = dataclasses.replace(small_slice(heis, 1, 1)[0], key_label=(0, 0, 0))
    with pytest.raises(workloads.WrongAnswer):
        workloads.run_item(heis, wrong_key, heis.make_config())


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
