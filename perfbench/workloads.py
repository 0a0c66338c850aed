"""The benchmark's workloads: which `lplab` commands one iteration runs.

A workload is a closed loop with a single client: each command starts only
after the previous one has returned.  Commands are templates; `{seed}` is
replaced by the benchmark's `--seed`, or by the reference seed in the
untimed warm-up.  The seed reaches only the commands whose verdict does not
depend on the calibrated seeds (the lieb-thirring frames, glt and seqlemma).
`lplab all`, khinchine and lp-density keep the seeds the frozen envelopes
were calibrated on: a corpus drawn from another seed is not covered by the
envelope, so its verdict could flip to FAIL on a correct program.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[str, ...]
    # Commands the untimed warm-up runs instead of `commands`.  A report must
    # equal the run's first report with the same `same_report_key`, so every
    # `all --jobs 2` report of desk_jobs2 must equal desk's `all --jobs 1`.
    same_as: tuple[str, ...] = ()

    def warmup_commands(self) -> tuple[str, ...]:
        return self.same_as or self.commands


def expand(template: str, seed: int) -> list[str]:
    return template.format(seed=seed).split()


def same_report_key(words: list[str]) -> str:
    """Commands with the same key must report the same bytes: `--jobs` is dropped."""
    kept = [w for i, w in enumerate(words) if w != "--jobs" and words[i - 1 : i] != ["--jobs"]]
    return " ".join(kept)


DESK = "all --jobs 1"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk",
            "lplab all --jobs 1: the full regression a user reruns; every layer runs in it",
            (DESK,),
        ),
        Workload(
            "desk_jobs2",
            "lplab all --jobs 2: the same work through the process-pool path of estimate_envelope",
            ("all --jobs 2",),
            same_as=(DESK,),
        ),
        Workload(
            "operators",
            "high-rank operator work: 3-d FFTs, fermi_sea, contract checks, the chain, rank-32 frames",
            (
                # Seas of rank 19, 33 and 257; the chain runs on the first two.
                "lieb-thirring --dim 3 --n 32 --mu 2.5 --mu 4.5 --mu 16.5 --seed {seed}",
                "glt --dim 3 --n 32 --rank 4 --samples 10 --a 1 --b 1 --seed {seed}",
                "lp-density --dim 1 --n 256 --rank 32 --samples 25 --p 1 --p 2",
            ),
        ),
        Workload(
            "sign_seq",
            "sign sums and sequences with no FFT call: the control for transform-side changes",
            (
                "khinchine",
                "seqlemma --dim 1 --trials 10000 --seed {seed}",
                "seqlemma --dim 2 --trials 10000 --seed {seed}",
                "seqlemma --dim 3 --trials 10000 --seed {seed}",
            ),
        ),
    )
}
