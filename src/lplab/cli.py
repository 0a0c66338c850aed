"""Command-line entry point.

Every subcommand writes a deterministic JSON payload (sorted keys, 17-digit
floats, no timestamps) and exits 0 when all configured invariants and
envelopes pass, 1 when a mathematical check fails (the report is still
written), and 2 on usage or configuration errors.

Flag resolution order: explicit flag > --config file entry > built-in
default.  LPLAB_JOBS provides the default worker count.  Worker count and
output paths never enter the payload, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .corpus import CorpusSpec, random_orthonormal_frame
from .dyadic_partition import (
    SHARP,
    SMOOTH,
    build_blocks,
    build_companions,
    build_profile,
    write_block_table_csv,
)
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DegenerateInputError,
    UnsupportedFamilyError,
    ZeroModeSingularityError,
)
from .fock_operator import fermi_sea
from .inequality_lab import (
    SignEnsemble,
    envelope_for,
    estimate_envelope,
    fermi_sweep,
    generalized_lt_check,
    khinchine_ratio,
    khinchine_reports,
    khinchine_tensor_ratio,
    lieb_thirring_check,
    load_envelopes,
    lt_chain_check,
    parseval_square_ratio,
    sequence_lemma_trials,
    tensor_khinchine_reports,
)
from .reporting import canonical_json, sanitize, write_samples_csv
from .torus_grid import TorusGrid

TAU = 2.0 * math.pi

SCHEMA_VERSION = 1

PARTITION_TOLERANCE = 1e-12
PARSEVAL_TOLERANCE = 1e-12
ORACLE_TOLERANCE = 1e-10
CONVERGENCE_TOLERANCE = 0.02
DENSITY_RANK_SLACK = 4.0

_GRID_KEYS = {"dim": 1, "n": 256, "box": TAU, "family": SMOOTH, "profile": "exp"}

DEFAULTS: dict[str, dict] = {
    "partition": dict(_GRID_KEYS),
    "lp": dict(
        _GRID_KEYS, p=[1.5, 2.0, 3.0, 4.0], samples=200, decay=1.0, seed=2024
    ),
    "lp-density": dict(
        _GRID_KEYS,
        p=[1.0, 1.5, 2.0],
        rank=[1, 2, 4, 8],
        samples=50,
        decay=1.0,
        weights="uniform",
        seed=2025,
    ),
    "khinchine": dict(
        terms=12,
        tensor_terms=8,
        p=[1.0, 1.5, 2.0, 3.0],
        count=500,
        mode="exact",
        mc_samples=4096,
        seed=2027,
        tensor_seed=2028,
    ),
    "gns": dict(_GRID_KEYS, samples=200, decay=1.5, seed=2026),
    "lieb-thirring": dict(_GRID_KEYS, mu=None, chain_samples=2, seed=2031),
    "glt": dict(
        _GRID_KEYS,
        dim=2,
        n=64,
        a=1.0,
        b=1.0,
        rank=[4],
        samples=25,
        decay=1.0,
        seed=2029,
    ),
    "seqlemma": dict(dim=1, trials=10000, seed=2030, j_min=-10, j_max=10),
    "all": dict(),
}

_PASSTHROUGH_KEYS = ("jobs", "out", "csv", "envelopes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lplab",
        description="Dyadic frequency-block laboratory: partitions, square "
        "functions, operator densities and kinetic-energy inequalities on a "
        "discretized periodic box.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, grid=True):
        sp.add_argument("--config", default=None, help="JSON file of defaults; flags override")
        sp.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
        sp.add_argument("--csv", default=None, help="write per-sample CSV here")
        sp.add_argument("--envelopes", default=None, help="envelope JSON overriding the packaged one")
        sp.add_argument("--jobs", type=int, default=None, help="worker count (default: LPLAB_JOBS or 1)")
        if grid:
            sp.add_argument("--dim", type=int, default=None, help="spatial dimension (1, 2 or 3)")
            sp.add_argument("--n", type=int, default=None, help="points per axis (power of two)")
            sp.add_argument("--box", type=float, default=None, help="box side length")
            sp.add_argument("--family", choices=(SMOOTH, SHARP), default=None)
            sp.add_argument("--profile", choices=("exp", "quintic"), default=None)

    sp = sub.add_parser("partition", help="block tables and partition-of-unity residuals")
    common(sp)

    sp = sub.add_parser("lp", help="square-function ratio envelope over a random corpus")
    common(sp)
    sp.add_argument("--p", type=float, action="append", default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--decay", type=float, default=None)
    sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("lp-density", help="summed block-density ratio envelope over operator corpora")
    common(sp)
    sp.add_argument("--p", type=float, action="append", default=None)
    sp.add_argument("--rank", type=int, action="append", default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--decay", type=float, default=None)
    sp.add_argument("--weights", choices=("uniform", "ones"), default=None)
    sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("khinchine", help="classical and tensor sign-sum comparisons")
    common(sp, grid=False)
    sp.add_argument("--p", type=float, action="append", default=None)
    sp.add_argument("--terms", type=int, default=None)
    sp.add_argument("--tensor-terms", type=int, default=None)
    sp.add_argument("--count", type=int, default=None)
    sp.add_argument("--mode", choices=("exact", "monte_carlo"), default=None)
    sp.add_argument("--mc-samples", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--tensor-seed", type=int, default=None)

    sp = sub.add_parser("gns", help="interpolation-inequality ratio envelope on mean-zero fields")
    common(sp)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--decay", type=float, default=None)
    sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("lieb-thirring", help="kinetic/density comparison on a ladder of plane-wave seas")
    common(sp)
    sp.add_argument("--mu", type=float, action="append", default=None, help="chemical potentials (default: a rank-doubling ladder)")
    sp.add_argument("--chain-samples", type=int, default=None, help="random frames to run the block chain on")
    sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("glt", help="generalized kinetic comparison at powers (a, b)")
    common(sp)
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--b", type=float, default=None)
    sp.add_argument("--rank", type=int, action="append", default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--decay", type=float, default=None)
    sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("seqlemma", help="dyadic sequence bound over random admissible sequences")
    common(sp, grid=False)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--j-min", type=int, default=None)
    sp.add_argument("--j-max", type=int, default=None)

    sp = sub.add_parser("all", help="the full desk-scale suite")
    common(sp, grid=False)

    return parser


def _resolve_settings(args: argparse.Namespace) -> dict:
    config = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise ConfigurationError("config file must hold a JSON object")
    settings = {}
    for key, default in DEFAULTS[args.command].items():
        value = getattr(args, key, None)
        if value is None:
            value = config.get(key, default)
        settings[key] = value
    for key in _PASSTHROUGH_KEYS:
        value = getattr(args, key, None)
        if value is None:
            value = config.get(key)
        settings[key] = value
    if settings.get("jobs") is None:
        settings["jobs"] = int(os.environ.get("LPLAB_JOBS", "1"))
    settings["jobs"] = max(1, int(settings["jobs"]))
    return settings


def _grid_of(settings: dict) -> TorusGrid:
    return TorusGrid(int(settings["dim"]), float(settings["box"]), int(settings["n"]))


def _config_echo(command: str, settings: dict) -> dict:
    echo = {
        key: value
        for key, value in settings.items()
        if key not in _PASSTHROUGH_KEYS
    }
    echo["rng"] = "philox4x64"
    return echo


def _default_mu_ladder(grid: TorusGrid) -> list[float]:
    unit = (2.0 * math.pi / grid.box_length) ** 2
    if grid.dimension == 1:
        return [unit * (m * m + 0.5) for m in (1, 2, 4, 8, 16, 32)]
    if grid.dimension == 2:
        return [unit * radius for radius in (1.5, 2.5, 4.5, 8.5, 16.5, 32.5)]
    return [unit * radius for radius in (1.5, 2.5, 4.5, 8.5)]


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (results dict, passed, csv samples)


def _cmd_partition(settings: dict, envelopes: dict):
    grid = _grid_of(settings)
    family = settings["family"]
    profile = build_profile(settings["profile"]) if family == SMOOTH else None
    blocks = build_blocks(grid, family, profile)
    companion_residual = None
    if family == SMOOTH:
        blocks = build_companions(blocks)
        companion_residual = 0.0
        for j in blocks.block_indices:
            symbol = blocks.symbol(j)
            reproduced = blocks.companion(j) * symbol
            companion_residual = max(
                companion_residual, float(np.max(np.abs(reproduced - symbol)))
            )
    residual = blocks.partition_residual()
    if settings.get("csv"):
        write_block_table_csv(blocks, settings["csv"])
    passed = residual <= PARTITION_TOLERANCE and (
        companion_residual is None or companion_residual <= PARTITION_TOLERANCE
    )
    results = {
        "j_min": blocks.j_min,
        "j_max": blocks.j_max,
        "block_count": blocks.block_count,
        "partition_residual": residual,
        "companion_residual": companion_residual,
    }
    return results, passed, None


def _cmd_lp(settings: dict, envelopes: dict):
    grid = _grid_of(settings)
    family, profile_kind = settings["family"], settings["profile"]
    spec = CorpusSpec(
        "random_band_limited",
        int(settings["samples"]),
        int(settings["seed"]),
        {"decay": float(settings["decay"])},
    )
    exponents = [
        (float(p), envelope_for(envelopes, "lp", grid.dimension, p)) for p in settings["p"]
    ]
    reports = estimate_envelope(
        spec, "lp", exponents, grid, family, profile_kind, jobs=settings["jobs"]
    )
    parseval_deviation = None
    squared_report = next((r for r in reports if r.p == 2.0), None)
    if squared_report is not None:
        blocks = build_blocks(
            grid, family, build_profile(profile_kind) if family == SMOOTH else None
        )
        parseval_deviation = 0.0
        for sample in squared_report.samples:
            member = spec.member(grid, sample.sample_id)
            closed_form = parseval_square_ratio(member, blocks)
            parseval_deviation = max(parseval_deviation, abs(sample.ratio - closed_form))
    passed = all(r.passed for r in reports) and (
        parseval_deviation is None or parseval_deviation <= PARSEVAL_TOLERANCE
    )
    results = {
        "reports": [r.to_dict() for r in reports],
        "parseval_deviation": parseval_deviation,
    }
    samples = [s for r in reports for s in r.samples]
    return results, passed, samples


def _widened(envelope: tuple | None, slack: float) -> tuple | None:
    if envelope is None:
        return None
    lo, hi = envelope
    return (lo / slack, hi * slack)


def _cmd_lp_density(settings: dict, envelopes: dict):
    grid = _grid_of(settings)
    family, profile_kind = settings["family"], settings["profile"]
    reports = []
    for rank in settings["rank"]:
        spec = CorpusSpec(
            "random_orthonormal_frame",
            int(settings["samples"]),
            int(settings["seed"]),
            {
                "rank": int(rank),
                "decay": float(settings["decay"]),
                "weights": settings["weights"],
            },
        )
        exponents = []
        for p in settings["p"]:
            envelope = envelope_for(envelopes, "lp_density", grid.dimension, p)
            if int(rank) > 1:
                envelope = _widened(envelope, DENSITY_RANK_SLACK)
            exponents.append((float(p), envelope))
        reports.extend(
            estimate_envelope(
                spec, "lp_density", exponents, grid, family, profile_kind,
                jobs=settings["jobs"], name=f"lp_density_rank{int(rank)}",
            )
        )
    passed = all(r.passed for r in reports)
    results = {"reports": [r.to_dict() for r in reports]}
    samples = [s for r in reports for s in r.samples]
    return results, passed, samples


def _cmd_khinchine(settings: dict, envelopes: dict):
    if settings["mode"] == "exact":
        ensemble = SignEnsemble.exact()
        tensor_ensemble = SignEnsemble.exact()
    else:
        ensemble = SignEnsemble.monte_carlo(settings["mc_samples"], settings["seed"])
        tensor_ensemble = SignEnsemble.monte_carlo(
            settings["mc_samples"], settings["tensor_seed"]
        )
    classical = khinchine_reports(
        int(settings["terms"]),
        [float(p) for p in settings["p"]],
        int(settings["count"]),
        int(settings["seed"]),
        ensemble,
        envelopes,
    )
    tensor = tensor_khinchine_reports(
        int(settings["tensor_terms"]),
        [float(p) for p in settings["p"]],
        int(settings["count"]),
        int(settings["tensor_seed"]),
        tensor_ensemble,
        envelopes,
    )
    pair = khinchine_ratio(np.array([1.0, 1.0]), 1.0, SignEnsemble.exact())
    pair_residual = abs(pair.lower_ratio - 1.0 / math.sqrt(2.0))
    spike = khinchine_tensor_ratio(np.array([[1.0]]), 1.0, SignEnsemble.exact())
    spike_residual = abs(spike.ratio - 1.0)
    passed = (
        all(r.passed for r in classical)
        and all(r.passed for r in tensor)
        and pair_residual <= 1e-12
        and spike_residual == 0.0
    )
    results = {
        "classical": [r.to_dict() for r in classical],
        "tensor": [r.to_dict() for r in tensor],
        "pair_lower_ratio_residual": pair_residual,
        "diagonal_spike_residual": spike_residual,
    }
    samples = [s for r in classical + tensor for s in r.samples]
    return results, passed, samples


def _cmd_gns(settings: dict, envelopes: dict):
    grid = _grid_of(settings)
    spec = CorpusSpec(
        "random_band_limited",
        int(settings["samples"]),
        int(settings["seed"]),
        {"decay": float(settings["decay"]), "zero_mean": True},
    )
    envelope = envelope_for(envelopes, "gns", grid.dimension, 2.0 + 4.0 / grid.dimension)
    (report,) = estimate_envelope(
        spec, "gns", [(None, envelope)], grid, settings["family"], settings["profile"],
        jobs=settings["jobs"],
    )
    results = {"reports": [report.to_dict()]}
    return results, report.passed, list(report.samples)


def _cmd_lieb_thirring(settings: dict, envelopes: dict):
    grid = _grid_of(settings)
    family, profile_kind = settings["family"], settings["profile"]
    if family != SMOOTH:
        raise UnsupportedFamilyError("the kinetic chain needs the smooth block family")
    ladder = settings["mu"] or _default_mu_ladder(grid)
    rows = fermi_sweep(grid, ladder)

    profile = build_profile(profile_kind)
    blocks = build_companions(build_blocks(grid, family, profile))
    chains = []
    for mu in (ladder[0], ladder[len(ladder) // 2]):
        sea = fermi_sea(grid, mu)
        chains.append(
            {"source": f"sea_rank_{sea.rank}", **lt_chain_check(sea, blocks).to_dict()}
        )
    for index in range(int(settings["chain_samples"])):
        frame = random_orthonormal_frame(
            grid, rank=4, decay=1.0, seed=int(settings["seed"]), index=index
        )
        chains.append(
            {"source": f"frame_{index}", **lt_chain_check(frame, blocks).to_dict()}
        )

    positivity = all(row["ratio"] > 0 for row in rows)
    oracle_ok = all(row["oracle_gap"] <= ORACLE_TOLERANCE for row in rows)
    if len(rows) >= 2:
        last_change = abs(rows[-1]["ratio"] - rows[-2]["ratio"]) / rows[-1]["ratio"]
    else:
        last_change = 0.0
    convergence_ok = last_change <= CONVERGENCE_TOLERANCE
    weak_gap_ok = all(
        row["weak_ratio"] / row["ratio"] >= row["rank"] ** (2.0 / grid.dimension) / 2.0
        for row in rows
        if row["rank"] >= 16
    )
    chain_ok = all(c["passed"] for c in chains)
    passed = positivity and oracle_ok and convergence_ok and weak_gap_ok and chain_ok
    results = {
        "sweep": rows,
        "chains": chains,
        "positivity": positivity,
        "oracle_ok": oracle_ok,
        "last_doubling_change": last_change,
        "convergence_ok": convergence_ok,
        "weak_gap_ok": weak_gap_ok,
    }
    return results, passed, None


def _cmd_glt(settings: dict, envelopes: dict):
    grid = _grid_of(settings)
    a, b = float(settings["a"]), float(settings["b"])
    rows = []
    agreement = None
    for rank in settings["rank"]:
        for index in range(int(settings["samples"])):
            op = random_orthonormal_frame(
                grid,
                rank=int(rank),
                decay=float(settings["decay"]),
                seed=int(settings["seed"]),
                index=index,
                power_bound=a,
            )
            result = generalized_lt_check(op, a, b)
            rows.append(result.to_dict() | {"sample_id": index})
            if a == 0.0 and b == 1.0:
                reference = lieb_thirring_check(op)
                drift = abs(result.ratio - reference.ratio)
                agreement = drift if agreement is None else max(agreement, drift)
    finite_positive = all(
        math.isfinite(row["ratio"]) and row["ratio"] > 0 for row in rows
    )
    passed = finite_positive and (agreement is None or agreement == 0.0)
    results = {
        "power_a": a,
        "power_b": b,
        "rows": rows,
        "finite_positive": finite_positive,
        "specialization_drift": agreement,
    }
    return results, passed, None


def _cmd_seqlemma(settings: dict, envelopes: dict):
    summary = sequence_lemma_trials(
        int(settings["dim"]),
        int(settings["trials"]),
        int(settings["seed"]),
        (int(settings["j_min"]), int(settings["j_max"])),
    )
    return summary, bool(summary["passed"]), None


def _cmd_all(settings: dict, envelopes: dict):
    sections = {}
    passed = True
    desk = [
        ("partition_d1", _cmd_partition, dict(DEFAULTS["partition"], dim=1, n=256)),
        ("partition_d2", _cmd_partition, dict(DEFAULTS["partition"], dim=2, n=64)),
        ("lp_d1", _cmd_lp, dict(DEFAULTS["lp"], dim=1, n=256, samples=100)),
        ("lp_d2", _cmd_lp, dict(DEFAULTS["lp"], dim=2, n=64, samples=50)),
        (
            "lp_density_d1",
            _cmd_lp_density,
            dict(
                DEFAULTS["lp-density"],
                dim=1,
                n=256,
                samples=25,
                p=[0.6, 0.75, 1.0, 1.5, 2.0, 3.0],
            ),
        ),
        ("khinchine", _cmd_khinchine, dict(DEFAULTS["khinchine"], count=200)),
        ("gns_d1", _cmd_gns, dict(DEFAULTS["gns"], dim=1, n=256, samples=100)),
        ("gns_d2", _cmd_gns, dict(DEFAULTS["gns"], dim=2, n=64, samples=50)),
        ("lieb_thirring_d1", _cmd_lieb_thirring, dict(DEFAULTS["lieb-thirring"], dim=1, n=256)),
        ("lieb_thirring_d2", _cmd_lieb_thirring, dict(DEFAULTS["lieb-thirring"], dim=2, n=64)),
        ("glt_d2_a1_b1", _cmd_glt, dict(DEFAULTS["glt"], a=1.0, b=1.0, samples=10)),
        ("glt_d2_a1_b2", _cmd_glt, dict(DEFAULTS["glt"], a=1.0, b=2.0, samples=10)),
        (
            "glt_d1_neg_quarter",
            _cmd_glt,
            dict(DEFAULTS["glt"], dim=1, n=256, a=-0.25, b=1.0, samples=10),
        ),
        ("seqlemma_d1", _cmd_seqlemma, dict(DEFAULTS["seqlemma"], dim=1, trials=2000)),
        ("seqlemma_d2", _cmd_seqlemma, dict(DEFAULTS["seqlemma"], dim=2, trials=2000)),
        ("seqlemma_d3", _cmd_seqlemma, dict(DEFAULTS["seqlemma"], dim=3, trials=2000)),
    ]
    for label, handler, section_settings in desk:
        section_settings = dict(section_settings)
        for key in _PASSTHROUGH_KEYS:
            section_settings[key] = None
        section_settings["jobs"] = settings["jobs"]
        results, section_passed, _ = handler(section_settings, envelopes)
        sections[label] = {"results": results, "pass": section_passed}
        passed = passed and section_passed
    return sections, passed, None


_HANDLERS = {
    "partition": _cmd_partition,
    "lp": _cmd_lp,
    "lp-density": _cmd_lp_density,
    "khinchine": _cmd_khinchine,
    "gns": _cmd_gns,
    "lieb-thirring": _cmd_lieb_thirring,
    "glt": _cmd_glt,
    "seqlemma": _cmd_seqlemma,
    "all": _cmd_all,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    try:
        settings = _resolve_settings(args)
        envelopes = load_envelopes(settings.get("envelopes"))
    except (OSError, json.JSONDecodeError, ConfigurationError, ValueError) as exc:
        print(f"lplab: {exc}", file=sys.stderr)
        return 2

    handler = _HANDLERS[args.command]
    try:
        results, passed, samples = handler(settings, envelopes)
    except (ContractViolationError, DegenerateInputError, ZeroModeSingularityError) as exc:
        results, passed, samples = {"error": str(exc)}, False, None
    except (ConfigurationError, UnsupportedFamilyError, ValueError) as exc:
        print(f"lplab: {exc}", file=sys.stderr)
        return 2

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": _config_echo(args.command, settings),
        "results": results,
        "pass": passed,
    }
    text = canonical_json(sanitize(payload))
    try:
        if settings.get("out"):
            with open(settings["out"], "w") as handle:
                handle.write(text)
            print(f"{'PASS' if passed else 'FAIL'} {args.command} -> {settings['out']}")
        else:
            sys.stdout.write(text)
        if settings.get("csv") and samples is not None and args.command != "partition":
            write_samples_csv(samples, settings["csv"])
    except OSError as exc:
        print(f"lplab: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
