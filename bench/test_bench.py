"""Tests of the benchmark itself: its checks, its tracer and its metric table.

Run from the root of the repository with ``python3 -m pytest bench -q``.
Every check must pass on the program's real output for two seeds and reject
a perturbed copy of that output.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.locate_program()

import checks  # noqa: E402
import workloads  # noqa: E402
from oscembed import cli  # noqa: E402
from tracing import Tracer  # noqa: E402

SEEDS = (1, 2)


def _execute(name: str, seed: int, root: Path):
    work, out = root / "inputs", root / "artifacts"
    work.mkdir(parents=True)
    prepared = workloads.WORKLOADS[name](seed, work, out)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(prepared.argv) == 0
    return prepared, json.loads((out / prepared.artifact).read_text())


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Program output of every workload on both seeds, computed once."""
    cache = {}

    def get(name: str, seed: int):
        if (name, seed) not in cache:
            cache[name, seed] = _execute(name, seed, tmp_path_factory.mktemp(f"{name}-{seed}"))
        return cache[name, seed]

    return get


def _items(problems, prepared) -> set:
    return workloads.failed_items(problems, prepared.items)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_pass_on_program_output(outputs, name, seed):
    prepared, payload = outputs(name, seed)
    problems = prepared.check(payload)
    assert not [p for p in problems if p.wrong], problems
    if name == "teomo1-rgg240":  # numpy scalar reprs in the rows, a known program fault
        assert [p.item for p in problems] == [prepared.items - 1]
    else:
        assert problems == []


def _kfun_row_check(outputs, mutate):
    prepared, payload = outputs("kfun-grid64", 1)
    payload = copy.deepcopy(payload)
    mutate(payload["rows"])
    return prepared, _items(prepared.check(payload), prepared)


def test_kfun_rejects_k_off_by_1e_4_relative(outputs):
    prepared, _ = outputs("kfun-grid64", 1)
    row = prepared.describe["dual_lp_rows"][0]

    def mutate(rows):
        rows[row]["exact"] = repr(float(rows[row]["exact"]) * (1.0 + 1e-4))

    _, failed = _kfun_row_check(outputs, mutate)
    assert row in failed


def test_kfun_rejects_k_above_its_cap(outputs):
    def mutate(rows):
        rows[0]["exact"] = repr(float(rows[0]["exact"]) * 3.0 + 1.0)

    _, failed = _kfun_row_check(outputs, mutate)
    assert 0 in failed


def test_kfun_rejects_k_not_concave_in_t(outputs):
    t_count = workloads.KFUN_T[2]

    def mutate(rows):  # a dent below the chord of the neighbouring rows
        rows[t_count + 3]["exact"] = repr(float(rows[t_count + 2]["exact"]) * (1.0 + 1e-3))

    _, failed = _kfun_row_check(outputs, mutate)
    assert t_count + 3 in failed


def test_kfun_rejects_k_decreasing_in_t(outputs):
    def mutate(rows):
        rows[5]["exact"] = repr(float(rows[4]["exact"]) * 0.9)

    _, failed = _kfun_row_check(outputs, mutate)
    assert 5 in failed


def test_kfun_rejects_constants_not_from_rows(outputs):
    prepared, payload = outputs("kfun-grid64", 1)
    payload = dict(payload, C1=payload["C1"] * (1.0 + 1e-12))
    assert prepared.check(payload)[0].item is None


def test_collapse_rejects_b_not_scaled_by_eps(outputs):
    prepared, payload = outputs("collapse-lz-grid144", 1)
    payload = copy.deepcopy(payload)
    for row in payload["rows"]:
        row["b"] = row["b"] / row["eps"]
    failed = _items(prepared.check(payload), prepared)
    per_row = prepared.items // len(workloads.LZ_EPS)
    assert failed == set(range(per_row, prepared.items))  # every row but eps = 1


def test_collapse_rejects_infinite_constant(outputs):
    prepared, payload = outputs("collapse-lz-grid144", 1)
    payload = copy.deepcopy(payload)
    payload["rows"][2]["empirical_constant"] = float("inf")
    per_row = prepared.items // len(workloads.LZ_EPS)
    assert _items(prepared.check(payload), prepared) == set(range(2 * per_row, 3 * per_row))


def test_quasi_norm_check_rejects_perturbed_norm():
    rng = np.random.default_rng(5)
    f, w = rng.standard_normal(30), rng.uniform(0.5, 1.5, 30)
    exact = checks.lorentz_zygmund_norm(f, w, 1.5, 2.0, 0.5)
    assert checks.check_quasi_norms([exact], [f], [w], 1.5, 2.0, 0.5) == []
    assert checks.check_quasi_norms([exact * (1 + 1e-6)], [f], [w], 1.5, 2.0, 0.5)


def test_teomo1_rejects_growth_constant_off_by_one_percent(outputs):
    prepared, payload = outputs("teomo1-rgg240", 1)
    payload = dict(payload, growth_constant=payload["growth_constant"] * 1.01)
    assert any(p.item is None and p.wrong for p in prepared.check(payload))


def test_teomo1_rejects_negative_constant(outputs):
    prepared, payload = outputs("teomo1-rgg240", 1)
    payload = copy.deepcopy(payload)
    payload["rows"][3]["constant"] = "-0.5"
    assert 3 in _items(prepared.check(payload), prepared)


def test_teomo1_flags_non_literal_numbers_as_malformed():
    assert checks.parse_number("0.25") == (0.25, True)
    assert checks.parse_number("np.float64(0.25)") == (0.25, False)


def test_hajlasz_check_rejects_perturbed_seminorm():
    rng = np.random.default_rng(6)
    coords = rng.random((20, 2))
    dist = checks.euclidean_distances(coords)
    w, f = rng.uniform(0.5, 1.5, 20), rng.standard_normal(20)
    exact = checks.hajlasz_dual(dist, w, f)
    assert checks.check_hajlasz([exact], [f], dist, w, [0]) == []
    assert checks.check_hajlasz([exact * (1 + 1e-4)], [f], dist, w, [0])


def test_tracer_leaves_artifacts_identical_and_restores_modules(tmp_path):
    from oscembed import smoothness, space

    coords = checks.grid_coords(4, 4, 0.5)
    (tmp_path / "space.json").write_text(json.dumps(
        {"metric": "euclidean", "coords": coords.tolist(), "weights": [1.0] * 16}))
    argv = ["collapse-sweep", "--space", str(tmp_path / "space.json"),
            "--spec", json.dumps(workloads.LZ), "--eps", "1,0.01", "--q", "2"]
    plain = run.run_round(cli, argv + ["--out", str(tmp_path / "a")], tmp_path / "a")
    before = (space.load_space, smoothness.linprog, space.Space.ball_masses)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_round(cli, argv + ["--out", str(tmp_path / "b")], tmp_path / "b")
    finally:
        tracer.uninstall()
    assert (space.load_space, smoothness.linprog, space.Space.ball_masses) == before
    assert plain.rc == traced.rc == 0
    assert plain.artifacts == traced.artifacts
    layers = tracer.layer_metrics()
    assert set(layers) | {"cli.artifact_bytes"} == set(run.PER_LAYER)
    assert layers["space.load_s"] > 0.0
    assert layers["embed.pool_busy_s"] > 0.0
    assert layers["weights.quad_calls"] > 0
    assert layers["rispace.quasi_norm_calls"] == layers["smoothness.ball_average_passes"]


def test_metric_table_matches_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "kfun-grid64",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
