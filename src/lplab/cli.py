"""Command-line entry point.

Every subcommand is one row of ``SECTIONS``: its built-in defaults (grid,
corpus, exponents, ranks), the desk sections ``lplab all`` runs of it and
the envelopes its ratios are judged against.  The sections of ``lplab all``
and ``scripts/calibrate_envelopes.py`` read that table, so every cell a
default or desk run judges is a calibrated cell.  ``_settings`` adds --out,
and --csv, --envelopes and --jobs where they act, to a row's defaults; the
parser's flags, the --config checks and the report's config echo all read
it.  A command takes exactly the settings its handler reads: the block
settings only where blocks are built (lieb-thirring's chain needs smooth
blocks, so it takes only the profile).

Every subcommand writes a deterministic JSON payload (sorted keys, 17-digit
floats, no timestamps) in report schema 2: each envelope-judged cell holds
its sample count, the min, max, mean and median ratio, the sample ids of
the min and the max, its envelope and its verdict, and the payload's
"unjudged" counts the cells without a verdict.  The per-sample rows go to
--csv, not into the report.  Only the commands with rows take --csv:
partition (its block table) and the enveloped sections lp, lp-density,
khinchine and gns; the other commands refuse it with exit 2.

Exit codes: 0 when all configured invariants and envelopes pass; 1 when a
mathematical check fails or a check raises inside the run (the report is
still written, with the error under "results"); 2 on usage or
configuration errors (ConfigurationError), among them a bad grid, an
exponent below a checker's floor, a non-finite setting, a zero count or
rank, an empty list setting, a --config key the command does not take, a
--config value its flag would not take (null is taken only where the
default is None) and a malformed --envelopes file, each refused before
anything is drawn; and 3 when nothing failed but some cell had no envelope
to be judged against.  Such a cell reports "passed": null, the run's
"pass" is null, and --out prints UNJUDGED.

Flag resolution order: explicit flag > --config file entry > built-in
default, each typed as its flag; a grid run that sets no n takes its
dimension's DESK_POINTS, and a repeated exponent, rank or mu is judged once.
Every run is serial, in this process; `lplab all` ignores its --jobs.  Output
paths never enter the payload, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .corpus import CorpusSpec, philox_key, random_orthonormal_frame
from .dyadic_partition import (
    SHARP,
    SMOOTH,
    build_blocks,
    write_block_table_csv,
)
from .errors import ConfigurationError
from .inequality_lab import (
    RatioReport,
    SignEnsemble,
    envelope_for,
    estimate_envelope,
    exponent_key,
    fermi_sweep,
    generalized_lt_check,
    gns_exponent,
    khinchine_reports,
    kinetic_chain,
    lieb_thirring_check,
    load_envelopes,
    lt_chain_check,
    lt_exponent,
    require_counts,
    require_enumerable,
    sequence_lemma_trials,
    sign_sum_samples,
)
from .reporting import canonical_json, sanitize, write_samples_csv
from .torus_grid import TorusGrid

TAU = 2.0 * math.pi

# 2: cells carry aggregates and the min/max sample ids, not per-sample
# lists, and the payload counts its unjudged cells.
SCHEMA_VERSION = 2

PARTITION_TOLERANCE = 1e-12
PARSEVAL_TOLERANCE = 1e-12
ORACLE_TOLERANCE = 1e-10
CONVERGENCE_TOLERANCE = 0.02
DENSITY_RANK_SLACK = 4.0
CALIBRATION_SAMPLES = 200


@dataclass(frozen=True)
class Section:
    """One subcommand: its defaults and the sections `lplab all` runs of it.

    ``desk`` maps each report label of `lplab all` to its overrides of
    ``defaults``.  ``envelopes`` names the envelope tables its ratios are
    judged against.  A corpus section draws a seeded corpus of kind
    ``corpus`` (its parameters: the ``decay`` and ``weights`` settings, the
    rank, and ``corpus_params``) and runs the checker ``envelopes[0]`` on it.
    """

    help: str
    defaults: dict
    desk: dict
    envelopes: tuple[str, ...] = ()
    corpus: str | None = None
    corpus_params: dict = field(default_factory=dict)


# The points per axis of a grid run that does not set n, by dimension.
DESK_POINTS = {1: 256, 2: 64, 3: 16}
_GRID = {"dim": 1, "n": DESK_POINTS[1], "box": TAU}
# The block settings, taken only by the commands that build blocks.
_BLOCKS = {"family": SMOOTH, "profile": "exp"}

SECTIONS: dict[str, Section] = {
    "partition": Section(
        "block tables and partition-of-unity residuals",
        dict(_GRID, **_BLOCKS),
        {"partition_d1": {}, "partition_d2": {"dim": 2}},
    ),
    "lp": Section(
        "square-function ratio envelope over a random corpus",
        dict(_GRID, **_BLOCKS, p=[1.5, 2.0, 3.0, 4.0], samples=200, decay=1.0, seed=2024),
        {"lp_d1": dict(samples=100), "lp_d2": dict(dim=2, samples=50)},
        envelopes=("lp",),
        corpus="random_band_limited",
    ),
    "lp-density": Section(
        "summed block-density ratio envelope over operator corpora",
        dict(_GRID, **_BLOCKS, p=[1.0, 1.5, 2.0], rank=[1, 2, 4, 8], samples=50,
             decay=1.0, weights="uniform", seed=2025),
        {"lp_density_d1": dict(samples=25, p=[0.6, 0.75, 1.0, 1.5, 2.0, 3.0])},
        envelopes=("lp_density",),
        corpus="random_orthonormal_frame",
    ),
    "khinchine": Section(
        "classical and tensor sign-sum comparisons",
        dict(terms=12, tensor_terms=8, p=[1.0, 1.5, 2.0, 3.0], count=500, mode="exact",
             mc_samples=4096, seed=2027, tensor_seed=2028),
        {"khinchine": dict(count=200)},
        envelopes=("khinchine", "khinchine_tensor"),
    ),
    "gns": Section(
        "interpolation-inequality ratio envelope on mean-zero fields",
        dict(_GRID, samples=200, decay=1.5, seed=2026),
        {"gns_d1": dict(samples=100), "gns_d2": dict(dim=2, samples=50)},
        envelopes=("gns",),
        corpus="random_band_limited",
        corpus_params={"zero_mean": True},
    ),
    "lieb-thirring": Section(
        "kinetic/density comparison on a ladder of plane-wave seas",
        dict(_GRID, profile="exp", mu=None, chain_samples=2, seed=2031),
        {"lieb_thirring_d1": {}, "lieb_thirring_d2": {"dim": 2}},
    ),
    "glt": Section(
        "generalized kinetic comparison at powers (a, b)",
        dict(_GRID, dim=2, a=1.0, b=1.0, rank=[4], samples=25, decay=1.0, seed=2029),
        {
            "glt_d2_a1_b1": dict(a=1.0, b=1.0, samples=10),
            "glt_d2_a1_b2": dict(a=1.0, b=2.0, samples=10),
            "glt_d1_neg_quarter": dict(dim=1, a=-0.25, b=1.0, samples=10),
        },
    ),
    "seqlemma": Section(
        "dyadic sequence bound over random admissible sequences",
        dict(dim=1, trials=10000, seed=2030, j_min=-10, j_max=10),
        {f"seqlemma_d{d}": dict(dim=d, trials=2000) for d in (1, 2, 3)},
    ),
}

ENVELOPE_NAMES = tuple(name for section in SECTIONS.values() for name in section.envelopes)
_ALL = Section("the full desk-scale suite", {}, {})

_CHOICES = {
    "family": (SMOOTH, SHARP),
    "profile": ("exp", "quintic"),
    "weights": ("uniform", "ones"),
    "mode": ("exact", "monte_carlo"),
}
_FLAG_HELP = {
    "out": "write the JSON report here instead of stdout",
    "csv": "write per-sample CSV here",
    "envelopes": "envelope JSON overriding the packaged one",
    "jobs": "accepted and ignored: every run is serial",
    "dim": "spatial dimension (1, 2 or 3)",
    "n": "points per axis (power of two)",
    "box": "box side length",
    "mu": "chemical potentials (default: a rank-doubling ladder)",
    "chain_samples": "random frames to run the block chain on",
}


class Setting(NamedTuple):
    """A setting: its flag's type, whether the flag repeats into a list, and its default."""
    kind: type
    many: bool
    default: object = None


def _settings(command: str) -> dict[str, Setting]:
    """Every setting a command takes, in flag order: the run settings, which
    the report does not echo, then its section's defaults, which it does.
    Only a command with rows takes csv (partition its block table, an
    enveloped section its samples), only one that judges envelopes takes
    envelopes, and only `lplab all` takes jobs.  A None default (the mu
    ladder) is a list of floats worked out at run time."""
    section = SECTIONS.get(command, _ALL)
    run_settings = (
        ("out", str, True),
        ("csv", str, command == "partition" or section.envelopes),
        ("envelopes", str, command == "all" or section.envelopes),
        ("jobs", int, command == "all"),
    )
    table = {key: Setting(kind, False) for key, kind, taken in run_settings if taken}
    for key, default in section.defaults.items():
        many = default is None or isinstance(default, list)
        kind = float if default is None else type(default[0] if many else default)
        table[key] = Setting(kind, many, default)
    return table


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per section and "all", with one flag per setting; list settings repeat."""
    parser = argparse.ArgumentParser(
        prog="lplab",
        description="Dyadic frequency-block laboratory: partitions, square "
        "functions, operator densities and kinetic-energy inequalities on a "
        "discretized periodic box.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in (*SECTIONS, "all"):
        sp = sub.add_parser(command, help=SECTIONS.get(command, _ALL).help)
        sp.add_argument("--config", default=None, help="JSON file of defaults; flags override")
        for key, setting in _settings(command).items():
            sp.add_argument(
                "--" + key.replace("_", "-"),
                type=setting.kind,
                action="append" if setting.many else "store",
                choices=_CHOICES.get(key),
                default=None,
                help=_FLAG_HELP.get(key),
            )
    return parser


def _resolve_settings(args: argparse.Namespace) -> dict:
    config = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise ConfigurationError("config file must hold a JSON object")
    table = _settings(args.command)
    unknown = sorted(set(config) - set(table))
    if unknown:
        raise ConfigurationError(f"{args.command} takes no config keys {unknown}")
    given = set(config) | {key for key in table if getattr(args, key) is not None}
    settings = {}
    for key, setting in table.items():
        value = getattr(args, key)
        if value is None:
            value = config.get(key, setting.default)
            if key in config:
                _check_config_value(key, value, setting)
                # Typed as its flag would give it: a JSON 1 for a float setting is 1.0.
                if value is not None:
                    kind = setting.kind
                    value = [kind(v) for v in value] if setting.many else kind(value)
        if setting.many and value is not None and not value:
            raise ConfigurationError(f"{key} needs at least one value")
        if key in ("seed", "tensor_seed"):
            philox_key(value)  # a seed no Philox key holds is refused before any draw
        settings[key] = value
    return _at_desk_grid(settings, given)


def _at_desk_grid(settings: dict, given) -> dict:
    """The settings with n at its dimension's DESK_POINTS unless the keys
    ``given`` by flag, config or desk section hold n; a bad dimension keeps n."""
    if "n" not in settings or "n" in given:
        return settings
    return dict(settings, n=DESK_POINTS.get(settings["dim"], settings["n"]))


# The JSON types a config value of a scalar setting, or each element of a
# list setting, may have, by its flag's type, and their name in the refusal.
_JSON_KINDS = {
    int: ((int,), "a JSON integer"),
    float: ((int, float), "a JSON number"),
    str: ((str,), "a JSON string"),
}


def _check_config_value(key: str, value, setting: Setting) -> None:
    """A config value must be what its flag accepts: null only where the
    default is None, a list setting a JSON list of numbers each of its
    flag's JSON type, a choice one of its _CHOICES, any other setting the
    JSON type of its flag.  A JSON integer stands for a float; a boolean
    stands for nothing."""
    if value is None and setting.default is None:
        return
    if setting.many:
        kinds, each = _JSON_KINDS[setting.kind]
        numbers = isinstance(value, list) and all(type(v) in (int, float) for v in value)
        accepted = numbers and all(type(v) in kinds for v in value)
        expected = f"a JSON list of numbers, each {each}" if numbers else "a JSON list of numbers"
    elif key in _CHOICES:
        accepted = value in _CHOICES[key]
        expected = f"one of {json.dumps(_CHOICES[key])}"
    else:
        kinds, expected = _JSON_KINDS[setting.kind]
        accepted = type(value) in kinds
    if not accepted:
        raise ConfigurationError(f"config key {key} needs {expected}, got {json.dumps(value)}")


def _grid_of(settings: dict) -> TorusGrid:
    return TorusGrid(settings["dim"], settings["box"], settings["n"])


def _default_mu_ladder(grid: TorusGrid) -> list[float]:
    unit = (2.0 * math.pi / grid.box_length) ** 2
    if grid.dimension == 1:
        return [unit * (m * m + 0.5) for m in (1, 2, 4, 8, 16, 32)]
    if grid.dimension == 2:
        return [unit * radius for radius in (1.5, 2.5, 4.5, 8.5, 16.5, 32.5)]
    return [unit * radius for radius in (1.5, 2.5, 4.5, 8.5)]


# ---------------------------------------------------------------------------
# Envelope-judged runs, shared by the handlers and calibration


def _distinct(values) -> list:
    """The distinct values of a repeatable setting, in first-seen order."""
    return list(dict.fromkeys(values))


def _exponents(settings: dict) -> list[float]:
    """The distinct exponents a run judges; gns has one, fixed by the dimension."""
    if "p" in settings:
        return _distinct(settings["p"])
    return [gns_exponent(settings["dim"])]


def _corpus_spec(command: str, settings: dict, rank: int | None = None) -> CorpusSpec:
    section = SECTIONS[command]
    params = dict(section.corpus_params, decay=settings["decay"])
    if "weights" in settings:
        params["weights"] = settings["weights"]
    if rank is not None:
        params["rank"] = rank
    return CorpusSpec(section.corpus, settings["samples"], settings["seed"], params)


def corpus_reports(command: str, settings: dict, envelopes: dict) -> list[RatioReport]:
    """A corpus section's envelope estimates: one per exponent, for each rank.

    A section with ranks names its reports by rank and judges ranks above one
    against the rank-one envelope widened by ``DENSITY_RANK_SLACK``.  A
    section that builds no blocks (gns) takes no block settings.
    """
    checker = SECTIONS[command].envelopes[0]
    grid = _grid_of(settings)
    ps = _exponents(settings)
    block_settings = (
        {"family": settings["family"], "profile_kind": settings["profile"]}
        if "family" in settings
        else {}
    )
    reports = []
    for rank in _distinct(settings["rank"]) if "rank" in settings else [None]:
        exponents = []
        for p in ps:
            envelope = envelope_for(envelopes, checker, grid.dimension, p)
            if envelope is not None and rank is not None and rank > 1:
                envelope = (envelope[0] / DENSITY_RANK_SLACK, envelope[1] * DENSITY_RANK_SLACK)
            exponents.append((p, envelope))
        reports.extend(
            estimate_envelope(
                _corpus_spec(command, settings, rank), checker, exponents, grid,
                **block_settings,
                name=None if rank is None else f"{checker}_rank{rank}",
            )
        )
    return reports


def sign_sum_reports(settings: dict, envelopes: dict) -> tuple[list, list]:
    """A khinchine run's classical reports and its tensor reports."""
    require_counts(
        term_count=settings["terms"],
        tensor_term_count=settings["tensor_terms"],
        sample_count=settings["count"],
    )
    if settings["mode"] == "exact":
        ensemble = tensor_ensemble = SignEnsemble.exact()
    else:
        ensemble = SignEnsemble.monte_carlo(settings["mc_samples"], settings["seed"])
        tensor_ensemble = SignEnsemble.monte_carlo(
            settings["mc_samples"], settings["tensor_seed"]
        )
    # Both ensembles share the mode: both counts are refused before the
    # classical pass draws anything.
    require_enumerable(ensemble, settings["terms"], settings["tensor_terms"])
    ps, count = _exponents(settings), settings["count"]
    classical = khinchine_reports(
        (settings["terms"],), ps, count, settings["seed"], ensemble, envelopes
    )
    tensor = khinchine_reports(
        (settings["tensor_terms"],) * 2, ps, count, settings["tensor_seed"],
        tensor_ensemble, envelopes,
    )
    return classical, tensor


def section_cells(command: str, settings: dict) -> list[tuple[str, str, str]]:
    """The (envelope, "d<k>", exponent) cells a run judges, in report order."""
    dim = f"d{settings.get('dim', 0)}"
    ps = [exponent_key(p) for p in _exponents(settings)]
    return [(name, dim, p) for name in SECTIONS[command].envelopes for p in ps]


def section_runs(command: str) -> list[dict]:
    """A command's settings at its defaults, then in each of its desk sections."""
    section = SECTIONS[command]
    return [_at_desk_grid(dict(section.defaults, **o), o) for o in ({}, *section.desk.values())]


_CALIBRATION_FREE = ("p", "rank", "samples", "count")


def calibration_runs() -> list[tuple[str, dict]]:
    """One run per enveloped command and dimension that covers every cell judged there.

    The runs of a command at one dimension may differ only in exponents,
    ranks and sample counts.  The calibration run takes the union of their
    exponents, rank one, and the largest of their sample counts and
    ``CALIBRATION_SAMPLES``, so each run draws a prefix of its corpus.
    """
    plan = []
    for command, section in SECTIONS.items():
        if not section.envelopes:
            continue
        by_dim: dict[int, list[dict]] = {}
        for settings in section_runs(command):
            by_dim.setdefault(settings.get("dim", 0), []).append(settings)
        for dim, runs in by_dim.items():
            shared = [{k: v for k, v in s.items() if k not in _CALIBRATION_FREE} for s in runs]
            if any(s != shared[0] for s in shared):
                raise ConfigurationError(
                    f"the {command} runs at d{dim} differ in more than exponents, "
                    "ranks and sample counts"
                )
            merged = dict(runs[0])
            if "p" in merged:
                merged["p"] = sorted({p for s in runs for p in s["p"]})
            if "rank" in merged:
                merged["rank"] = [1]
            for key in ("samples", "count"):
                if key in merged:
                    merged[key] = max(CALIBRATION_SAMPLES, *(s[key] for s in runs))
            plan.append((command, merged))
    return plan


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (results dict, passed, RatioReports or None)


def _verdict(*verdicts: bool | None) -> bool | None:
    """False if any verdict failed, else None if any cell went unjudged, else True."""
    if False in verdicts:
        return False
    return None if None in verdicts else True


def _report_results(reports: list[RatioReport], passed: bool = True, **extra):
    results = {"reports": [r.to_dict() for r in reports], **extra}
    return results, _verdict(passed, *(r.passed for r in reports)), reports


def _cmd_partition(settings: dict, envelopes: dict):
    blocks = build_blocks(_grid_of(settings), settings["family"], settings["profile"])
    companion_residual = None
    if blocks.family == SMOOTH:
        companion_residual = 0.0
        for symbol, companion in zip(blocks.symbols, blocks.companions):
            reproduced = companion * symbol
            reproduced -= symbol
            companion_residual = max(
                companion_residual, float(np.max(np.abs(reproduced, out=reproduced)))
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
    # The p = 2 ratios are checked against the Parseval closed form that the
    # envelope pass computes on the same members and transforms.
    reports = corpus_reports("lp", settings, envelopes)
    parseval_deviation = None
    if 2.0 in _exponents(settings):
        parseval_deviation = 0.0
        for sample in next(r for r in reports if r.p == 2.0).samples:
            if sample.closed_form is not None:
                deviation = abs(sample.ratio - sample.closed_form)
                parseval_deviation = max(parseval_deviation, deviation)
    parseval_ok = parseval_deviation is None or parseval_deviation <= PARSEVAL_TOLERANCE
    return _report_results(reports, parseval_ok, parseval_deviation=parseval_deviation)


def _cmd_lp_density(settings: dict, envelopes: dict):
    return _report_results(corpus_reports("lp-density", settings, envelopes))


def _cmd_khinchine(settings: dict, envelopes: dict):
    classical, tensor = sign_sum_reports(settings, envelopes)
    reports = classical + tensor
    ((pair,),) = sign_sum_samples([[1.0, 1.0]], [1.0], SignEnsemble.exact())
    pair_residual = abs(pair.ratio - 1.0 / math.sqrt(2.0))
    ((spike,),) = sign_sum_samples([[[1.0]]], [1.0], SignEnsemble.exact())
    spike_residual = abs(spike.ratio - 1.0)
    passed = _verdict(
        pair_residual <= 1e-12, spike_residual == 0.0, *(r.passed for r in reports)
    )
    results = {
        "classical": [r.to_dict() for r in classical],
        "tensor": [r.to_dict() for r in tensor],
        "pair_lower_ratio_residual": pair_residual,
        "diagonal_spike_residual": spike_residual,
    }
    return results, passed, reports


def _cmd_gns(settings: dict, envelopes: dict):
    return _report_results(corpus_reports("gns", settings, envelopes))


def _cmd_lieb_thirring(settings: dict, envelopes: dict):
    grid = _grid_of(settings)
    if settings["chain_samples"] < 0:
        raise ConfigurationError(f"chain samples must be >= 0, got {settings['chain_samples']}")
    ladder = _distinct(settings["mu"] or _default_mu_ladder(grid))

    # The chain runs on the first and the middle rung's spectral density
    # from the sweep, which has checked that rung's unit-ball contract; a
    # one-rung ladder runs it once.  The chain's 1/4 floor needs smooth
    # blocks, built after the sweep so that they do not sit beside its buffers.
    rows, densities = fermi_sweep(grid, ladder)
    blocks = build_blocks(grid, SMOOTH, settings["profile"])
    chains = [
        {"source": f"sea_rank_{rows[rung]['rank']}",
         **asdict(kinetic_chain(grid, densities[rung], blocks))}
        for rung in sorted({0, len(ladder) // 2})
    ]
    del densities  # the frames below would otherwise run beside every rung's w
    for index in range(settings["chain_samples"]):
        frame = random_orthonormal_frame(
            grid, rank=4, decay=1.0, seed=settings["seed"], index=index
        )
        chains.append(
            {"source": f"frame_{index}", **asdict(lt_chain_check(frame, blocks))}
        )
        del frame  # release the frame before the next one is drawn

    oracle_ok = all(row["oracle_gap"] <= ORACLE_TOLERANCE for row in rows)
    if len(rows) >= 2:
        last_change = abs(rows[-1]["ratio"] - rows[-2]["ratio"]) / rows[-1]["ratio"]
    else:
        last_change = 0.0
    convergence_ok = last_change <= CONVERGENCE_TOLERANCE
    chain_ok = all(c["passed"] for c in chains)
    passed = oracle_ok and convergence_ok and chain_ok
    results = {
        "sweep": rows,
        "chains": chains,
        "oracle_ok": oracle_ok,
        "last_doubling_change": last_change,
        "convergence_ok": convergence_ok,
    }
    return results, passed, None


def _cmd_glt(settings: dict, envelopes: dict):
    grid = _grid_of(settings)
    a, b = settings["a"], settings["b"]
    lt_exponent(grid, a, b)  # refuses the powers before any frame is drawn
    require_counts(sample_count=settings["samples"])
    rows = []
    agreement = None
    for rank in _distinct(settings["rank"]):
        for index in range(settings["samples"]):
            op = random_orthonormal_frame(
                grid,
                rank=rank,
                decay=settings["decay"],
                seed=settings["seed"],
                index=index,
                power_bound=a,
            )
            result = generalized_lt_check(op, a, b)
            rows.append(asdict(result) | {"sample_id": index})
            if a == 0.0 and b == 1.0:
                reference = lieb_thirring_check(op)
                drift = abs(result.ratio - reference.ratio)
                agreement = drift if agreement is None else max(agreement, drift)
            del op  # release the frame before the next one is drawn
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
        settings["dim"], settings["trials"], settings["seed"],
        (settings["j_min"], settings["j_max"]),
    )
    return summary, bool(summary["passed"]), None


def _handler(command: str):
    # Looked up when called: perfbench's span tracer times sections by rebinding these names.
    return globals()["_cmd_" + command.replace("-", "_")]


def _cmd_all(settings: dict, envelopes: dict):
    sections = {}
    passed = True
    reports = []
    for command, section in SECTIONS.items():
        handler = _handler(command)
        for label, section_settings in zip(section.desk, section_runs(command)[1:]):
            results, section_passed, section_reports = handler(section_settings, envelopes)
            sections[label] = {"results": results, "pass": section_passed}
            passed = _verdict(passed, section_passed)
            reports += section_reports or []
    return sections, passed, reports


_HANDLERS = {**{command: _handler(command) for command in SECTIONS}, "all": _cmd_all}

_VERDICT_WORDS = {True: "PASS", False: "FAIL", None: "UNJUDGED"}
_EXIT_CODES = {True: 0, False: 1, None: 3}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    try:
        settings = _resolve_settings(args)
        envelopes = {}
        if "envelopes" in settings:
            envelopes = load_envelopes(settings["envelopes"], ENVELOPE_NAMES)
    except (OSError, json.JSONDecodeError, ConfigurationError, ValueError) as exc:
        print(f"lplab: {exc}", file=sys.stderr)
        return 2

    handler = _HANDLERS[args.command]
    try:
        results, passed, reports = handler(settings, envelopes)
    except ConfigurationError as exc:
        print(f"lplab: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # A check that raises fails the run; it is not a usage error.
        results, passed, reports = {"error": str(exc)}, False, None

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": {k: settings[k] for k in SECTIONS.get(args.command, _ALL).defaults}
        | {"rng": "philox4x64"},
        "results": results,
        "pass": passed,
        "unjudged": sum(r.passed is None for r in reports or ()),
    }
    text = canonical_json(sanitize(payload))
    try:
        if settings.get("out"):
            with open(settings["out"], "w") as handle:
                handle.write(text)
            print(f"{_VERDICT_WORDS[passed]} {args.command} -> {settings['out']}")
        else:
            sys.stdout.write(text)
        if settings.get("csv") and reports is not None:
            write_samples_csv([s for r in reports for s in r.samples], settings["csv"])
    except OSError as exc:
        print(f"lplab: {exc}", file=sys.stderr)
        return 2
    return _EXIT_CODES[passed]


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
