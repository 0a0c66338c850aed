"""Correctness check for every command invocation the benchmark makes.

An invocation fails when
  * it exits non-zero;
  * its report differs, byte for byte, from the run's first report of the
    same command up to `--jobs` (for desk_jobs2 that first report is desk's
    warm-up, so the jobs-2 report must equal the jobs-1 report);
  * a judged value differs by more than a relative 1e-9 from the reference
    recorded in reference.json.

Judged values are the ratios a verdict is read from: envelope aggregates,
sweep, row and chain ratios and the sequence-bound maxima.  Per-sample lists
and the configuration echo are skipped.  A seeded command has every judged
value recorded at REFERENCE_SEED, where the untimed warm-up runs it, and
at any other seed is held to the values that came out the same at
REFERENCE_SEED and OTHER_SEED.

Run `python3 perfbench/checks.py` to record reference.json afresh.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
RELATIVE_TOLERANCE = 1e-9

JUDGED_KEYS = frozenset(
    (
        "ratio",
        "min",
        "max",
        "mean",
        "median",
        "oracle_ratio",
        "weak_ratio",
        "max_ratio",
        "max_constant",
        "spike_ratio",
        "kinetic",
        "block_kinetic",
        "block_density_bound",
    )
)
SKIPPED_KEYS = frozenset(("samples", "config"))
# The seed of the warm-up's seeded commands, and a second seed that tells
# seed-independent judged values from seeded ones.
REFERENCE_SEED = 2031
OTHER_SEED = 7


def judged_values(report, path: str = "") -> dict[str, float | None]:
    """Map the path of every judged value in a parsed report to its value."""
    found: dict[str, float | None] = {}
    if isinstance(report, dict):
        for key, value in report.items():
            if key in SKIPPED_KEYS:
                continue
            sub = f"{path}/{key}"
            if key in JUDGED_KEYS and not isinstance(value, (dict, list, bool, str)):
                found[sub] = value
            else:
                found.update(judged_values(value, sub))
    elif isinstance(report, list):
        for index, value in enumerate(report):
            found.update(judged_values(value, f"{path}/{index}"))
    return found


def unjudged_cells(report) -> int:
    """Report cells whose envelope is null, so no verdict was read from them."""
    if isinstance(report, dict):
        own = 1 if "envelope" in report and report["envelope"] is None else 0
        return own + sum(
            unjudged_cells(v) for k, v in report.items() if k not in SKIPPED_KEYS
        )
    if isinstance(report, list):
        return sum(unjudged_cells(v) for v in report)
    return 0


def _close(expected, actual) -> bool:
    if expected is None or actual is None:
        return expected is actual
    if not isinstance(actual, (int, float)) or isinstance(actual, bool):
        return False
    if expected == actual:
        return True
    scale = max(abs(expected), abs(actual))
    return math.isfinite(scale) and abs(expected - actual) <= RELATIVE_TOLERANCE * scale


def reference_mismatches(expected: dict, report) -> list[str]:
    """Paths whose judged value is missing or off the reference."""
    actual = judged_values(report)
    return [
        path
        for path, value in expected.items()
        if path not in actual or not _close(value, actual[path])
    ]


def expected_values(reference: dict, template: str, seed: int) -> dict:
    """The judged values a report of `template` at `seed` must carry."""
    if "{seed}" in template and seed == reference["seed"]:
        return reference["at_seed"][template]
    return reference["any_seed"].get(template, {})


class Checker:
    """Judges each invocation and counts attempts and failures."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.first: dict[str, bytes] = {}
        self.judged_ok: set[tuple] = set()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.unjudged: dict[bytes, int] = {}

    def check(self, key: str, template: str, seed: int, code: int, report: bytes) -> bool:
        """Record one invocation of `template` at `seed`; `key` names its bytes."""
        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        first = self.first.setdefault(key, report)
        if report != first:
            problems.append("report differs from the run's first report")
        digest = hashlib.sha256(report).digest()
        judged = (template, seed, digest)
        if code == 0 and judged not in self.judged_ok:
            try:
                parsed = json.loads(report)
            except ValueError:
                problems.append("report is not JSON")
            else:
                expected = expected_values(self.reference, template, seed)
                bad = reference_mismatches(expected, parsed)
                if bad:
                    problems.append(f"judged values off the reference at {bad[:3]}")
                else:
                    self.judged_ok.add(judged)
                    self.unjudged[digest] = unjudged_cells(parsed)
        if problems:
            self.failed += 1
            self.failures.append(f"{template}: {'; '.join(problems)}")
        return not problems

    def unjudged_count(self, report: bytes) -> int:
        return self.unjudged.get(hashlib.sha256(report).digest(), 0)


def load_reference() -> dict:
    with open(REFERENCE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _report_of(cli, argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    if code != 0:
        raise SystemExit(f"lplab {' '.join(argv)} exited {code}; no reference recorded")
    return json.loads(out.getvalue())


def record_reference() -> dict:
    """Judged values of every workload command: all of them at REFERENCE_SEED,
    and those that do not move with the seed."""
    from workloads import WORKLOADS, expand

    import lplab.cli as cli

    templates = []
    for workload in WORKLOADS.values():
        for template in workload.same_as + workload.commands:
            if template not in templates:
                templates.append(template)
    reference = {"seed": REFERENCE_SEED, "any_seed": {}, "at_seed": {}}
    for template in templates:
        values = judged_values(_report_of(cli, expand(template, REFERENCE_SEED)))
        if "{seed}" in template:
            reference["at_seed"][template] = values
            other = judged_values(_report_of(cli, expand(template, OTHER_SEED)))
            values = {p: v for p, v in values.items() if p in other and other[p] == v}
        reference["any_seed"][template] = values
        print(
            f"{template}: {len(values)} judged values at any seed, "
            f"{len(reference['at_seed'].get(template, values))} at {REFERENCE_SEED}",
            file=sys.stderr,
        )
    return reference


if __name__ == "__main__":
    os.environ.pop("LPLAB_JOBS", None)
    sys.path.insert(0, str(HERE.parent / "src"))
    data = record_reference()
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
