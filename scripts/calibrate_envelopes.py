#!/usr/bin/env python3
"""Recompute the frozen ratio envelopes shipped with the package.

Runs every enveloped checker over its calibration corpus (the same seeds and
corpus parameters the command line driver uses, at the largest sample count
any command draws), then stores [min / margin, max * margin] per inequality,
dimension and exponent.  The margin absorbs seed-to-seed drift so fresh
corpora with different seeds still land inside.

Usage:
    python3 scripts/calibrate_envelopes.py [--out PATH] [--jobs N]
"""

import argparse
import pathlib
import sys

from lplab import (
    CorpusSpec,
    TorusGrid,
    estimate_envelope,
    khinchine_reports,
    tensor_khinchine_reports,
)
from lplab.reporting import canonical_json

MARGIN = 1.25

LP_SEED = 2024
DENSITY_SEED = 2025
GNS_SEED = 2026
KHINCHINE_SEED = 2027
TENSOR_SEED = 2028

LP_EXPONENTS = (1.5, 2.0, 3.0, 4.0)
DENSITY_EXPONENTS = (0.75, 1.0, 1.5, 2.0, 3.0)
KHINCHINE_EXPONENTS = (1.0, 1.5, 2.0, 3.0)

GRIDS = {1: TorusGrid(1, 2.0 * 3.141592653589793, 256), 2: TorusGrid(2, 2.0 * 3.141592653589793, 64)}


def bounds(report):
    if report.ratio_min is None:
        raise RuntimeError(f"no finite ratios for {report.name} (p={report.p})")
    return [report.ratio_min / MARGIN, report.ratio_max * MARGIN]


def calibrate(jobs):
    envelopes = {
        "lp": {},
        "lp_density": {},
        "gns": {},
        "khinchine": {"d0": {}},
        "khinchine_tensor": {"d0": {}},
    }

    for dim, grid in GRIDS.items():
        spec = CorpusSpec("random_band_limited", 200, LP_SEED, {"decay": 1.0})
        by_p = {}
        exponents = [(p, None) for p in LP_EXPONENTS]
        reports = estimate_envelope(spec, "lp", exponents, grid, jobs=jobs)
        for p, report in zip(LP_EXPONENTS, reports):
            by_p[format(p, "g")] = bounds(report)
            print(f"lp d{dim} p={p:g}: [{report.ratio_min:.6f}, {report.ratio_max:.6f}]")
        envelopes["lp"][f"d{dim}"] = by_p

    density_spec = CorpusSpec(
        "random_orthonormal_frame",
        200,
        DENSITY_SEED,
        {"rank": 1, "decay": 1.0, "weights": "uniform"},
    )
    by_p = {}
    exponents = [(p, None) for p in DENSITY_EXPONENTS]
    reports = estimate_envelope(density_spec, "lp_density", exponents, GRIDS[1], jobs=jobs)
    for p, report in zip(DENSITY_EXPONENTS, reports):
        by_p[format(p, "g")] = bounds(report)
        print(f"lp_density d1 p={p:g}: [{report.ratio_min:.6f}, {report.ratio_max:.6f}]")
    envelopes["lp_density"]["d1"] = by_p

    for dim, grid in GRIDS.items():
        spec = CorpusSpec(
            "random_band_limited", 200, GNS_SEED, {"decay": 1.5, "zero_mean": True}
        )
        (report,) = estimate_envelope(spec, "gns", [(None, None)], grid, jobs=jobs)
        key = format(2.0 + 4.0 / dim, "g")
        envelopes["gns"][f"d{dim}"] = {key: bounds(report)}
        print(f"gns d{dim} p={key}: [{report.ratio_min:.6f}, {report.ratio_max:.6f}]")

    for report in khinchine_reports(12, KHINCHINE_EXPONENTS, 500, KHINCHINE_SEED):
        envelopes["khinchine"]["d0"][format(report.p, "g")] = bounds(report)
        print(f"khinchine p={report.p:g}: [{report.ratio_min:.6f}, {report.ratio_max:.6f}]")

    for report in tensor_khinchine_reports(8, KHINCHINE_EXPONENTS, 500, TENSOR_SEED):
        envelopes["khinchine_tensor"]["d0"][format(report.p, "g")] = bounds(report)
        print(
            f"khinchine_tensor p={report.p:g}: "
            f"[{report.ratio_min:.6f}, {report.ratio_max:.6f}] "
            f"({report.degenerate_count} degenerate)"
        )

    return envelopes


def main():
    default_out = (
        pathlib.Path(__file__).resolve().parent.parent
        / "src" / "lplab" / "data" / "envelopes.json"
    )
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(default_out), help="where to write the table")
    parser.add_argument("--jobs", type=int, default=4, help="worker processes")
    args = parser.parse_args()

    envelopes = calibrate(max(1, args.jobs))
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(envelopes))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
