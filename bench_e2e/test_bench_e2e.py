"""The benchmark's own tests (smoke-size inputs, a few seconds each).

    PYTHONPATH=src python -m pytest bench_e2e -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
from layers import Spans  # noqa: E402
from pipeline import Runner  # noqa: E402
from programs import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench_e2e", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def test_catalogue_matches_benchmark_json():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for name in list(run.E2E_UNITS) + list(run.LAYER_UNITS):
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["lu", "corpus"])
def test_smoke_run_emits_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--scale", "smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    units = run.LAYER_UNITS if trace else run.E2E_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == units
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert isinstance(metric["value"], (int, float)), name


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench_e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = _bench("--workload", "lu", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""


def _traced_round(workload, seed, workdir):
    spec = WORKLOADS[workload]
    probe = spec.probe(seed, "smoke") if spec.probe else None
    runner = Runner(str(workdir), Spans(enabled=True), probe)
    runner.prepare_probe()
    runs = [runner.run(p, 0) for p in spec.build(seed, "smoke")]
    assert all(r.ok for r in runs), [r.errors for r in runs]
    return ({r.name: r.digests for r in runs},
            {r.name: r.counts for r in runs})


@pytest.mark.parametrize("workload", ["heat2d", "corpus"])
def test_same_seed_same_traces_and_layer_counts(workload, tmp_path):
    from repro import api
    try:
        first = _traced_round(workload, 5, tmp_path / "a")
        second = _traced_round(workload, 5, tmp_path / "b")
    finally:
        api.shutdown_pools()
    assert first[0] == second[0]
    # pickled task payloads carry the pool's random shared-memory
    # segment names
    for counts in list(first[1].values()) + list(second[1].values()):
        counts.pop("pickled_bytes", None)
    assert first[1] == second[1]


def test_layer_spans_account_for_the_traced_check(tmp_path):
    from repro import api
    spans = Spans(enabled=True)
    try:
        program = WORKLOADS["lu"].build(2, "smoke")[0]
        result = Runner(str(tmp_path), spans).run(program, 0)
    finally:
        api.shutdown_pools()
    assert result.ok, result.errors
    phases = [r for r in spans.records if r.name.startswith("core.")]
    assert {r.name for r in phases} == {f"core.{p}" for p in run.PHASES}
    check = next(r for r in spans.records if r.name == "check.batch")
    assert all(r.parent == check.id for r in phases)
    covered = sum(r.duration for r in phases)
    assert 0 < covered <= check.duration
    own = spans.self_times()
    assert own[check.id] == pytest.approx(check.duration - covered)
