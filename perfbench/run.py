"""The lplab benchmark: one workload, one client, closed loop.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 34 --trace 0

Run from the root of a source checkout; lplab is imported from `src/`.
With `--trace 0` it reports the end-to-end metrics:

  setup_s      median over fresh interpreters of `import lplab.cli` plus
               `load_envelopes()`
  report_s     median wall time of one warm iteration, run in-process through
               `lplab.cli.run(argv)` with stdout captured, after one untimed
               warm-up iteration
  cold_s       median wall time of one iteration with every command run as a
               fresh `python -m lplab.cli` process
  peak_rss_mb  median over cold iterations of the largest `ru_maxrss` among
               the iteration's processes

The warm-up runs the seeded commands at the reference seed of checks.py, so
every run checks all their judged values once.  After it, rounds of one warm
iteration, one cold iteration and one set-up fill `--seconds`, and there are
at least three rounds.  With `--trace 1` it alternates untraced
and traced warm iterations and reports the per-layer metrics of spans.py,
plus `cli.trace.overhead_s`, the traced minus the untraced median; the spans
of the last traced iteration go to `.bench_out/`.  Every invocation passes
through the correctness check of checks.py.  The last line of stdout is the
JSON result; the lines before it are for a reader.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import REFERENCE_SEED, Checker, load_reference
from spans import Tracer
from workloads import WORKLOADS, expand, same_report_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# Rounds of an untraced run however long they take, so that report_s and
# cold_s are each a median of at least three iterations.
MIN_ROUNDS = 3
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import lplab.cli; "
    "lplab.cli.load_envelopes(); print(time.perf_counter() - t)"
)


def child_env() -> dict:
    """The environment of every fresh process: the checkout's sources first.

    BLAS threads are left as found, so cold_s pays what a shell user pays.
    """
    env = dict(os.environ)
    env.pop("LPLAB_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_fresh(argv: list[str], env: dict) -> tuple[int, bytes, int]:
    """Run one command in a fresh interpreter: exit code, stdout, ru_maxrss (KiB)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def measure_setup(env: dict) -> float:
    """One fresh interpreter's time to import lplab.cli and load the envelopes."""
    code, out, _ = run_fresh([sys.executable, "-c", SETUP_SNIPPET], env)
    if code != 0:
        raise RuntimeError(f"set-up process exited {code}")
    return float(out)


def run_in_process(cli, argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
    except Exception:
        traceback.print_exc()
        code = -1
    return code, out.getvalue().encode()


class Iterations:
    """Runs iterations of one workload and checks every invocation."""

    def __init__(self, cli, workload, seed: int, checker):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.argvs = [expand(t, seed) for t in workload.commands]
        self.warmup_argvs = [expand(t, REFERENCE_SEED) for t in workload.warmup_commands()]
        self.checker = checker
        self.env = child_env()

    def _check(self, templates, argvs, seed, outputs) -> None:
        for template, words, (code, report) in zip(templates, argvs, outputs):
            self.checker.check(same_report_key(words), template, seed, code, report)

    def warmup(self) -> None:
        outputs = [run_in_process(self.cli, words) for words in self.warmup_argvs]
        self._check(self.workload.warmup_commands(), self.warmup_argvs, REFERENCE_SEED, outputs)

    def warm(self) -> tuple[float, list[tuple[int, bytes]]]:
        start = time.perf_counter()
        outputs = [run_in_process(self.cli, words) for words in self.argvs]
        elapsed = time.perf_counter() - start
        self._check(self.workload.commands, self.argvs, self.seed, outputs)
        return elapsed, outputs

    def cold(self) -> tuple[float, int]:
        peak = 0
        outputs = []
        start = time.perf_counter()
        for words in self.argvs:
            code, report, rss = run_fresh([sys.executable, "-m", "lplab.cli", *words], self.env)
            outputs.append((code, report))
            peak = max(peak, rss)
        elapsed = time.perf_counter() - start
        self._check(self.workload.commands, self.argvs, self.seed, outputs)
        return elapsed, peak


def repeat(step, deadline: float, minimum: int) -> None:
    """Call step() `minimum` times, then again while another call should end by the deadline."""
    durations: list[float] = []
    while (
        len(durations) < minimum
        or time.perf_counter() + statistics.median(durations) <= deadline
    ):
        start = time.perf_counter()
        step()
        durations.append(time.perf_counter() - start)


def percentile_note(times: list[float]) -> str:
    """The highest percentile with at least ten iterations beyond it."""
    n = len(times)
    if n < 11:
        return f"{n} iterations, too few for a percentile with ten beyond it"
    return f"{n} iterations, p{100.0 * (n - 10) / n:.0f} {sorted(times)[n - 11]:.4f} s"


def untraced_run(its: Iterations, seconds: float) -> dict[str, float]:
    """Rounds of one warm iteration, one cold iteration and one set-up.

    Interleaving spreads every metric's samples over the whole run, so a slow
    spell of a shared machine weighs on all of them alike.
    """
    warm: list[float] = []
    cold: list[tuple[float, int]] = []
    setup: list[float] = []

    def round_():
        warm.append(its.warm()[0])
        cold.append(its.cold())
        setup.append(measure_setup(its.env))

    start = time.perf_counter()
    its.warmup()
    repeat(round_, start + seconds, MIN_ROUNDS)
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(its.env))
    print(f"report_s {statistics.median(warm):.4f} s ({percentile_note(warm)})")
    print(f"warm iterations {[round(t, 4) for t in warm]} s")
    print(f"cold iterations {[round(t, 4) for t, _ in cold]} s")
    print(f"set-ups {[round(t, 4) for t in setup]} s")
    return {
        "setup_s": statistics.median(setup),
        "report_s": statistics.median(warm),
        "cold_s": statistics.median(t for t, _ in cold),
        "peak_rss_mb": statistics.median(peak for _, peak in cold) / 1024.0,
    }


def traced_run(its: Iterations, seconds: float, tracer) -> dict[str, float]:
    """Pairs of one untraced and one traced warm iteration."""
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []

    def pair():
        plain.append(its.warm()[0])
        tracer.reset()
        with tracer.installed():
            elapsed, outputs = its.warm()
        traced.append(elapsed)
        figures = tracer.metrics()
        figures["reporting.bytes"] = sum(len(report) for _, report in outputs)
        figures["inequality_lab.unjudged_cells"] = sum(
            its.checker.unjudged_count(report) for _, report in outputs
        )
        layers.append(figures)

    start = time.perf_counter()
    its.warmup()
    repeat(pair, start + seconds, 1)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{its.workload.name}.jsonl")
    merged = {
        key: statistics.median_low(figures.get(key, 0) for figures in layers)
        for key in set().union(*layers)
    }
    merged["cli.trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    print(f"traced {len(traced)} iterations, untraced {len(plain)}")
    return merged


def openblas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the copy bundled with numpy."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(path))
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """Interpreter, numpy, BLAS and CPU as found; nothing is pinned."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "thread_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "lplab" / "cli.py").is_file():
        print(f"run.py: no lplab sources under {SRC}", file=sys.stderr)
        return 2

    os.environ.pop("LPLAB_JOBS", None)
    sys.path.insert(0, str(SRC))
    import lplab.cli

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    print("env " + json.dumps(environment(), sort_keys=True))
    checker = Checker(load_reference())
    its = Iterations(lplab.cli, WORKLOADS[args.workload], args.seed, checker)
    if args.trace:
        values = traced_run(its, args.seconds, Tracer())
        wanted = declared["per_layer"]
    else:
        values = untraced_run(its, args.seconds)
        wanted = declared["end_to_end"]
    for failure in checker.failures:
        print(f"FAIL {failure}", file=sys.stderr)
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        value = values.get(name, 0.0) if name.startswith("cli.section.") else values[name]
        metrics[name] = {"value": value, "unit": metric["unit"]}
        print(f"{args.workload} {name} {value} {metric['unit']}")
    print(
        f"{args.workload} fail_frac {checker.failed / checker.attempted} "
        f"({checker.failed} of {checker.attempted} invocations)"
    )
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
