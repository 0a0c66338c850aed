"""Report schema 2 against the benchmark's reference values.

The benchmark (perfbench/) judges each report it produces against the
values recorded in perfbench/reference.json.  These tests run the desk,
operators and sign_seq commands in-process at the reference seed and
hold their reports to the same check, so a report change that drops or
moves a judged value fails here before it fails the benchmark.  They only
read perfbench's files.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

import lplab.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the module executes.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
workloads = _load("workloads")
REFERENCE = checks.load_reference()
TEMPLATES = [
    template
    for name in ("desk", "operators", "sign_seq")
    for template in workloads.WORKLOADS[name].commands
]


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = lplab.cli.run(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("template", TEMPLATES)
def test_workload_report_matches_the_benchmark_reference(template):
    seed = checks.REFERENCE_SEED
    words = workloads.same_report_key(workloads.expand(template, seed)).split()
    # Only `lplab all` takes --jobs; the other commands are rerun as they are.
    jobs = [["--jobs", j] for j in ("1", "1", "2")] if words[0] == "all" else [[]] * 3
    runs = [_run(words + extra) for extra in jobs]
    assert [code for code, _ in runs] == [0, 0, 0]
    texts = {text for _, text in runs}
    assert len(texts) == 1, "reports differ across reruns or --jobs"
    report = json.loads(texts.pop())
    expected = checks.expected_values(REFERENCE, template, seed)
    assert expected, "the reference records no judged value for this command"
    assert checks.reference_mismatches(expected, report) == []
    assert report["schema_version"] == 2
    assert report["unjudged"] == 0 == checks.unjudged_cells(report)


def _cells(tree):
    if isinstance(tree, dict):
        own = [tree] if "envelope" in tree else []
        return own + [cell for value in tree.values() for cell in _cells(value)]
    if isinstance(tree, list):
        return [cell for value in tree for cell in _cells(value)]
    return []


def test_cells_carry_no_per_sample_lists():
    code, text = _run(["khinchine", "--terms", "6", "--tensor-terms", "4", "--count", "9"])
    assert code == 0
    cells = _cells(json.loads(text)["results"])
    assert len(cells) == 8
    for cell in cells:
        assert "samples" not in cell
        assert cell["sample_count"] == 9
        assert 0 <= cell["min_sample_id"] < 9 and 0 <= cell["max_sample_id"] < 9


def test_unjudged_counts_the_cells_without_a_verdict():
    code, text = _run(["lp", "--n", "64", "--p", "2", "--p", "5", "--p", "7", "--samples", "3"])
    report = json.loads(text)
    assert code == 3 and report["pass"] is None
    verdicts = [cell["passed"] for cell in _cells(report["results"])]
    assert verdicts == [True, None, None]
    assert report["unjudged"] == 2 == checks.unjudged_cells(report)
