#!/usr/bin/env python3
"""Recompute the ratio envelopes from the section table of lplab.cli.

For each enveloped command and dimension, one run (`calibration_runs`)
covers every exponent that the command's defaults and its `lplab all`
sections judge, at rank one and at the largest sample count any of them
draws, at least CALIBRATION_SAMPLES.  Each cell stores
[min / margin, max * margin]; the margin absorbs seed-to-seed drift so
fresh corpora with different seeds still land inside.

Usage:
    python3 scripts/calibrate_envelopes.py --out PATH

Write to a scratch path and diff it against src/lplab/data/envelopes.json.
Copy a cell into the frozen table only with a reason stated in CHANGES.md.
"""

import argparse
import sys

from lplab.cli import calibration_runs, corpus_reports, section_cells, sign_sum_reports
from lplab.reporting import canonical_json

MARGIN = 1.25


def calibrate() -> dict:
    envelopes: dict = {}
    for command, settings in calibration_runs():
        if command == "khinchine":
            classical, tensor = sign_sum_reports(settings, {})
            reports = classical + tensor
        else:
            reports = corpus_reports(command, settings, {})
        for (name, dim, p), report in zip(section_cells(command, settings), reports, strict=True):
            if report.ratio_min is None:
                raise RuntimeError(f"no finite ratios for {name} {dim} p={p}")
            cell = [report.ratio_min / MARGIN, report.ratio_max * MARGIN]
            envelopes.setdefault(name, {}).setdefault(dim, {})[p] = cell
            print(
                f"{name} {dim} p={p}: [{report.ratio_min:.6f}, {report.ratio_max:.6f}] "
                f"({report.degenerate_count} degenerate)"
            )
    return envelopes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the table")
    args = parser.parse_args()

    envelopes = calibrate()
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(envelopes))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
