"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q -s

The run-based tests make one pass per run (``--seconds 1``) and take
about two minutes.  With ``-s`` they print the tracing overhead per
workload: traced minus untraced pass wall time.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMAND = BENCHMARK["command"]


@functools.cache
def bench(workload: str, trace: int, repeat: int) -> tuple[dict, dict]:
    """One single-pass run: (result object, report lines keyed by first word)."""
    proc = subprocess.run(COMMAND + ["--workload", workload, "--seed", "0", "--seconds", "1",
                                     "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = {ln.split(" ", 1)[0]: ln for ln in lines[:-1]}
    return json.loads(lines[-1]), report


def test_seed_zero_runs_the_documented_calls():
    labels = [op.label for op in workloads.matching(0)]
    assert labels[:6] == ["modeguide split --a 1 --l 4:10:2",
                          "modeguide threshold --n 1 --l 3:6:0.5",
                          "modeguide critical --n 2",
                          "modeguide single --a 2",
                          "modeguide single --a 1 --refine",
                          "modeguide single --a 2 --refine"]
    assert len(set(labels)) == len(labels)
    assert workloads.oracle(0)[0].label == "modeguide oracle --a 1 --h 0.03125 --k 2"


@pytest.mark.parametrize("seed", range(30))
def test_seed_shifts_are_grid_aligned_and_repeatable(seed):
    shifts = workloads.shifts(seed)
    assert all((v * 16).is_integer() for v in shifts.values())
    for make in workloads.WORKLOADS.values():
        assert [op.label for op in make(seed)] == [op.label for op in make(seed)]


def test_reference_covers_the_default_seed():
    reference = json.loads((HERE / "reference.json").read_text())
    for make in workloads.WORKLOADS.values():
        for op in make(workloads.DEFAULT_SEED):
            assert op.label in reference


def _perturbed_csv(text: str, column: str, delta: float) -> str:
    lines = text.splitlines()
    cols = lines[0].split(",")
    cells = lines[1].split(",")
    i = cols.index(column)
    cells[i] = repr(float(cells[i]) + delta)
    return "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n"


def test_gate_allows_the_bisection_tolerance_and_no_more():
    reference = json.loads((HERE / "reference.json").read_text())
    split = reference["modeguide split --a 1 --l 4:10:2"]
    assert checks.compare("split", split, split) == []
    assert checks.compare("split", _perturbed_csv(split, "lambda_plus", 0.5e-12), split) == []
    assert checks.compare("split", _perturbed_csv(split, "lambda_plus", 3e-12), split) != []
    rungs = reference["acceptance.Workspace.single_ladder(1)"]
    moved = {n: dict(row) for n, row in rungs.items()}
    moved["320"]["lam"] += 3e-13
    assert checks.compare("single_ladder", moved, rungs) != []


def test_invariants_catch_a_broken_bracketing():
    op = workloads.matching(0)[0]
    reference = json.loads((HERE / "reference.json").read_text())
    out = reference[op.label]
    assert checks.INVARIANTS["split"](op.facts, out) == []
    broken = _perturbed_csv(out, "delta_plus", -1.0)
    assert checks.INVARIANTS["split"](op.facts, broken) != []


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat(workload):
    first, _ = bench(workload, 1, 0)
    second, _ = bench(workload, 1, 1)
    for name in tracing.COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_match(workload):
    traced, traced_report = bench(workload, 1, 0)
    plain, plain_report = bench(workload, 0, 0)
    assert traced["correct"] and plain["correct"]
    assert traced_report["outputs_sha256"] == plain_report["outputs_sha256"]
    overhead = (traced["metrics"]["bench.traced_wall_s"]["value"]
                - plain["metrics"]["wall_s"]["value"])
    print(f"\ntracing overhead on {workload}: {overhead:+.3f} s "
          f"(untraced pass {plain['metrics']['wall_s']['value']:.3f} s)")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_result_line_has_every_declared_metric(workload):
    for trace, declared in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
        result, _ = bench(workload, trace, 0)
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {m["name"]: m["unit"] for m in declared} == {
            name: m["unit"] for name, m in result["metrics"].items()}


def test_layers_do_the_work_they_are_meant_to():
    matching, _ = bench("matching", 1, 0)
    oracle, _ = bench("oracle", 1, 0)
    s, o = matching["metrics"], oracle["metrics"]
    assert s["matching.det_calls"]["value"] > 0 and s["fd_oracle.discretize_calls"]["value"] == 0
    assert s["acceptance.self_s"]["value"] > 0
    assert o["matching.det_calls"]["value"] == 0 and o["fd_oracle.crossing_solves"]["value"] > 0
    assert o["records.cache_hits"]["value"] == 0


def test_fails_without_package_sources():
    # a bare directory with only the benchmark's own files, inside the checkout
    tmp_path = ROOT / ".perfbench_runs" / "bare"
    shutil.rmtree(tmp_path, ignore_errors=True)
    tmp_path.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(COMMAND + ["--workload", "oracle", "--seed", "0", "--seconds", "1",
                                     "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
