"""Run every workload several times and summarize, as one command.

    python3 perfbench/suite.py --runs 10 --out .bench_out/first.json
    python3 perfbench/suite.py --runs 10 --trace-runs 2 --against .bench_out/first.json \
        --out perfbench/BENCH_1.json

Each untraced run is `run.py --workload W --seed S --seconds R --trace 0` for
every workload of BENCHMARK.json and its run_seconds R, with seed S = 1, 2, ...
for the runs, interleaved across workloads so that a slow spell of the machine
is shared among them.  For every end-to-end metric it prints the median over
runs with its unit and the quartile spread (q3 - q1) / median, as
`statistics.quantiles(n=4)` gives the quartiles, beside the metric's bound.
With `--against` it also prints how far each median moved from the record
given there, another set of runs of the same code, as a share of that
record's median.  fail_frac is the share of invocations that failed the
correctness check, over all runs.  Traced runs print the per-layer medians
and check that the counters repeat exactly from one traced run to the next.
`--out` writes all of it, with the environment block, as a bench record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Work counters that must not jitter: a later change may cite them as counts.
COUNTERS = (
    "torus_grid.fft.calls",
    "torus_grid.fft.elements",
    "torus_grid.fft.max_bytes",
    "dyadic_partition.build_blocks.calls",
    "corpus.member.calls",
    "corpus.member.useful_ratio",
    "inequality_lab.pool.created",
    "inequality_lab.unjudged_cells",
)


def benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """One run of run.py: its result line, its environment block, its wall time."""
    argv = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env, wall


def spread(values: list[float]) -> float | None:
    """(q3 - q1) / median, or None for fewer than two values or a zero median."""
    if len(values) < 2 or statistics.median(values) == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(results: list[dict], declared: list[dict]) -> dict:
    summary = {}
    for metric in declared:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        summary[metric["name"]] = {
            "unit": metric["unit"],
            "median": statistics.median(values),
            "spread": spread(values),
            "bound": metric.get("bound"),
            "values": values,
        }
    return summary


def counters_repeat(results: list[dict]) -> bool:
    return all(
        r["metrics"][name]["value"] == results[0]["metrics"][name]["value"]
        for r in results
        for name in COUNTERS
    )


def main(argv=None) -> int:
    bench = benchmark()
    names = [w["name"] for w in bench["workloads"]]
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    seconds = bench["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--against", default=None, help="a bench record of an earlier set")
    parser.add_argument("--out", default=None, help="write a bench record here")
    args = parser.parse_args(argv)
    earlier = None
    if args.against:
        with open(args.against, "r", encoding="utf-8") as handle:
            earlier = json.load(handle)["workloads"]

    plain: dict[str, list[dict]] = {w: [] for w in names}
    traced: dict[str, list[dict]] = {w: [] for w in names}
    walls: dict[str, list[float]] = {w: [] for w in names}
    env = None
    for trace, runs in ((0, args.runs), (1, args.trace_runs)):
        for run in range(runs):
            for workload in names:
                result, env, wall = run_once(workload, 1 + run, seconds, trace)
                (traced if trace else plain)[workload].append(result)
                walls[workload].append(wall)

    record = {"env": env, "run_seconds": seconds, "runs": args.runs,
              "trace_runs": args.trace_runs, "workloads": {}}
    steady = agree = True
    for workload in names:
        results = plain[workload] + traced[workload]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {"why": whys[workload], "attempted": attempted, "failed": failed,
                 "fail_frac": failed / attempted, "run_wall_s": walls[workload]}
        print(f"{workload}: longest run {max(walls[workload]):.1f} s, "
              f"mean {statistics.fmean(walls[workload]):.1f} s")
        print(f"{workload}: fail_frac {failed / attempted} ({failed} of {attempted} invocations)")
        if plain[workload]:
            entry["end_to_end"] = summarize(plain[workload], bench["end_to_end"])
            for name, row in entry["end_to_end"].items():
                share = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
                print(f"{workload}: {name} {row['median']:.6g} {row['unit']}  "
                      f"spread {share}  bound {row['bound']}  "
                      f"runs {[round(v, 4) for v in row['values']]}")
                if name != "setup_s" and row["spread"] is not None:
                    steady = steady and row["spread"] <= row["bound"] / 3
                if earlier and name in earlier.get(workload, {}).get("end_to_end", {}):
                    before = earlier[workload]["end_to_end"][name]
                    row["earlier_median"] = before["median"]
                    row["shift"] = row["median"] / before["median"] - 1.0
                    agree = agree and abs(row["shift"]) <= row["bound"]
                    print(f"{workload}: {name} moved {row['shift']:+.4f} of the earlier "
                          f"median {before['median']:.6g}  bound {row['bound']}")
        if traced[workload]:
            entry["per_layer"] = summarize(traced[workload], bench["per_layer"])
            entry["counters_repeat"] = counters_repeat(traced[workload])
            for name, row in entry["per_layer"].items():
                print(f"{workload}: {name} {row['median']:.6g} {row['unit']}")
            print(f"{workload}: counters repeat: {entry['counters_repeat']}")
        record["workloads"][workload] = entry
    if args.runs > 1:
        print(f"every spread but setup_s within a third of its bound: {steady}")
    if earlier:
        print(f"every median within its bound of the earlier set's: {agree}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
