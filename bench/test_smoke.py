"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py

Every workload runs once untraced and once traced with ``--smoke`` shapes
(small command ranges, N = 1,000 agents, a few steps).  The checks are on
the harness: each metric named in BENCHMARK.json is emitted with its unit,
the outputs pass their checks, and the seed changes the generated inputs
but not the set of metrics.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """Run the benchmark; return its result line and its environment line."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    label, _, env = lines[-2].partition(" ")
    assert label == "environment"
    return json.loads(lines[-1]), json.loads(env)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, env = run_bench(workload, 1, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    assert env["DDISPATCH_THREADS"] == "1" and env["nproc"] >= 1
    assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    if not trace:
        # the scaled times come with the wall times and reference times behind them
        assert set(env["wall"]) == {"pipeline_s", "setup_s"}
        assert len(env["reference_s"]) >= 3


def test_seed_changes_inputs_but_not_the_metric_set():
    first, env_first = run_bench("pool_fleet_track", 1, 0)
    second, env_second = run_bench("pool_fleet_track", 2, 0)
    assert env_first["inputs"] != env_second["inputs"]
    assert first["metrics"].keys() == second["metrics"].keys()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload, tmp_path):
    digests = []
    for seed, sub in ((1, "a"), (1, "b"), (2, "c")):
        stages = workloads.make_inputs(workload, seed, tmp_path / sub, "smoke")
        digests.append(workloads.inputs_digest(tmp_path / sub, stages))
    assert digests[0] == digests[1] != digests[2]
