"""Tests of the benchmark itself, apart from the repository's tier-1 suite.

    python3 -m pytest -q perfbench/test_bench.py

The counter test traces each workload twice with `--seconds 1`, the shortest
run (a warm-up and one untraced and traced pair), and takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import Checker  # noqa: E402
from suite import COUNTERS, benchmark, run_once  # noqa: E402

BENCH = benchmark()


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_counters_repeat_across_traced_runs(workload):
    first, _, _ = run_once(workload, 5, 1, 1)
    second, _, _ = run_once(workload, 5, 1, 1)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    for name in COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name


def _report(ratio: float) -> bytes:
    return json.dumps({"results": {"rows": [{"ratio": ratio, "samples": [{"ratio": 9.0}]}]}}).encode()


def test_checker_fails_each_kind_of_bad_invocation():
    checker = Checker({"seed": 3, "any_seed": {"cmd": {"/results/rows/0/ratio": 2.0}}, "at_seed": {}})
    assert checker.check("a", "cmd", 1, 0, _report(2.0))
    assert checker.check("a", "cmd", 1, 0, _report(2.0))
    assert not checker.check("a", "cmd", 1, 1, _report(2.0)), "non-zero exit"
    assert not checker.check("a", "cmd", 1, 0, _report(2.0 * (1 + 1e-12))), "bytes differ"
    assert checker.check("b", "cmd", 1, 0, _report(2.0 * (1 + 1e-12)))
    assert not checker.check("c", "cmd", 1, 0, _report(2.0 * (1 + 1e-8))), "off the reference"
    assert not checker.check("d", "cmd", 1, 0, b"{}"), "judged value missing"
    assert (checker.attempted, checker.failed) == (7, 4)


def test_checker_holds_seeded_values_at_the_reference_seed():
    reference = {
        "seed": 3,
        "any_seed": {"cmd {seed}": {}},
        "at_seed": {"cmd {seed}": {"/results/rows/0/ratio": 2.0}},
    }
    checker = Checker(reference)
    assert checker.check("a", "cmd {seed}", 3, 0, _report(2.0))
    assert not checker.check("b", "cmd {seed}", 3, 0, _report(2.5)), "off at the reference seed"
    assert checker.check("c", "cmd {seed}", 4, 0, _report(2.5)), "seeded value at another seed"


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    argv = [*BENCH["command"], "--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0"]
    argv[0] = sys.executable
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
