"""Command line driver: exit codes, determinism of emitted files, and flag
resolution against the section defaults."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

import lplab.cli
import lplab.corpus
import lplab.fock_operator
import lplab.inequality_lab
from lplab.cli import (
    DESK_POINTS,
    SECTIONS,
    calibration_runs,
    load_envelopes,
    run,
    section_cells,
    section_runs,
)


def run_cli(*argv):
    return run(list(argv))


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli("fourier") == 2
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli("partition", "--order", "3") == 2
        capsys.readouterr()

    def test_no_command_takes_a_config_file(self, tmp_path, capsys, monkeypatch):
        """Every setting comes from its flag or its section's default: --config
        is an unknown flag, refused by argparse before any setting resolves."""

        def no_resolution(args):
            raise AssertionError("resolved the settings of a run given --config")

        monkeypatch.setattr(lplab.cli, "_resolve_settings", no_resolution)
        config = tmp_path / "c.json"
        config.write_text("{}")
        for command in (*SECTIONS, "all"):
            assert run_cli(command, "--config", str(config)) == 2, command
            captured = capsys.readouterr()
            assert "unrecognized arguments: --config" in captured.err
            assert captured.out == ""

    def test_bad_grid_is_usage_error(self, capsys):
        assert run_cli("partition", "--n", "12") == 2
        capsys.readouterr()

    def test_partition_passes(self, tmp_path, capsys):
        out = tmp_path / "partition.json"
        code = run_cli("partition", "--n", "64", "--out", str(out))
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert payload["command"] == "partition"
        assert payload["results"]["partition_residual"] == 0.0

    def test_failing_envelope_exits_one_but_writes_report(self, tmp_path, capsys):
        envelopes = {"lp": {"d1": {"2": [0.9999, 1.0]}}}
        envelope_path = tmp_path / "tight.json"
        envelope_path.write_text(json.dumps(envelopes))
        out = tmp_path / "lp.json"
        code = run_cli(
            "lp", "--n", "64", "--p", "2", "--samples", "8",
            "--envelopes", str(envelope_path), "--out", str(out),
        )
        capsys.readouterr()
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["pass"] is False

    @pytest.mark.parametrize(
        "envelopes",
        [
            {"lpp": {"d1": {"2": [0.5, 2.0]}}},
            {"lp": {"d1": {"2": [1.0]}}},
            {"lp": {"d1": {"2": [2.0, 0.5]}}},
            {"lp": {"d1": {"2": [0.5, float("inf")]}}},
            {"lp": {"d1": {"2": ["0.5", 2.0]}}},
            {"lp": {"d1": {"2.0": [0.5, 2.0]}}},
            {"gns": {"d1": {"all": [0.1, 1.0]}}},
            {"lp": {"1": {"2": [0.5, 2.0]}}},
            {"lp": [0.5, 2.0]},
            [0.5, 2.0],
        ],
        ids=[
            "unknown_name", "short_pair", "lo_above_hi", "infinite", "string_bound",
            "unreachable_exponent_key", "all_key", "bare_dimension_key", "no_dimensions",
            "not_an_object",
        ],
    )
    def test_malformed_envelope_file_is_usage_error(self, tmp_path, capsys, envelopes):
        path = tmp_path / "envelopes.json"
        path.write_text(json.dumps(envelopes))
        code = run_cli("lp", "--n", "64", "--p", "2", "--samples", "4", "--envelopes", str(path))
        assert code == 2
        assert "envelope file" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_seqlemma_without_trials_is_usage_error(self, capsys, trials):
        assert run_cli("seqlemma", "--trials", trials) == 2
        assert "trial count must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--terms", "term count must be >= 1"),
            ("--tensor-terms", "tensor term count must be >= 1"),
            ("--count", "sample count must be >= 1"),
        ],
    )
    def test_khinchine_without_terms_or_samples_is_usage_error(
        self, capsys, monkeypatch, flag, message
    ):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew coefficients before checking the counts")

        monkeypatch.setattr(lplab.inequality_lab, "philox_generator", no_draws)
        monkeypatch.setattr(lplab.corpus, "_rekeyed_generators", no_draws)
        assert run_cli("khinchine", flag, "0") == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lp", "--p", "1", "--samples", "2"], "requires p > 1"),
            (["lp-density", "--p", "0.5", "--samples", "2"], "requires p > 1/2"),
            (["khinchine", "--terms", "21"], "at most 20 terms"),
            (["khinchine", "--mode", "monte_carlo", "--mc-samples", "0"], "at least one sample"),
            (["seqlemma", "--dim", "4", "--trials", "5"], "dimension must be 1, 2 or 3"),
            (["seqlemma", "--j-min", "3", "--j-max", "1", "--trials", "5"], "empty index range"),
            (["lieb-thirring", "--n", "64", "--mu", "-1"], "chemical potential must be positive"),
        ],
        ids=[
            "lp_floor", "density_floor", "enumeration_cap", "no_mc_samples",
            "seqlemma_dim", "empty_window", "negative_mu",
        ],
    )
    def test_settings_a_handler_refuses_are_usage_errors(self, capsys, argv, message):
        assert run_cli(*argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["glt", "--a", "inf", "--samples", "1"], "power a must be finite"),
            (["glt", "--a", "nan", "--samples", "1"], "power a must be finite"),
            (["glt", "--b", "nan", "--samples", "1"], "power b must be finite"),
            (["glt", "--b", "inf", "--samples", "1"], "power b must be finite"),
            (["lp-density", "--rank", "0", "--samples", "2"], "rank must be at least 1"),
            (["lp", "--box", "inf", "--samples", "2"], "box_length must be finite"),
            (["partition", "--box", "1e-155"],
             "box_length 1e-155 puts the lattice |xi|^2 outside the binary64 range"),
            (["lp", "--box", "1e-200", "--n", "16", "--samples", "2"],
             "box_length 1e-200 puts the lattice |xi|^2 outside the binary64 range"),
            (["partition", "--box", "1e300"],
             "box_length 1e+300 puts the lattice |xi|^2 outside the binary64 range"),
            (["lp", "--decay", "nan", "--samples", "2"], "decay must be finite"),
            (["glt", "--decay", "nan", "--samples", "1"], "decay must be finite"),
            (["lp", "--decay", "-200", "--samples", "2"],
             "decay -200 puts the weights (1 + |xi|)^(-decay) outside the binary64 range"),
            (["lp", "--decay", "1100", "--n", "16", "--samples", "2"],
             "decay 1100 puts the weights (1 + |xi|)^(-decay) outside the binary64 range"),
            (["gns", "--decay", "1e308", "--samples", "2"],
             "decay 1e+308 puts the weights (1 + |xi|)^(-decay) outside the binary64 range"),
            (["lp-density", "--decay", "1e308", "--samples", "2"],
             "decay 1e+308 puts the weights (1 + |xi|)^(-decay) outside the binary64 range"),
            (["glt", "--decay", "1e308", "--samples", "1"],
             "decay 1e+308 puts the weights (1 + |xi|)^(-decay) outside the binary64 range"),
            (["lp", "--p", "inf", "--samples", "2"], "requires a finite p"),
            (["khinchine", "--p", "inf", "--count", "2"], "requires a finite p"),
            (["glt", "--samples", "0"], "sample count must be >= 1"),
            (["lp-density", "--rank"], "expected one argument"),
            (["glt", "--rank"], "expected one argument"),
            (["lp", "--p"], "expected one argument"),
            (["khinchine", "--p"], "expected one argument"),
            (["lieb-thirring", "--mu", "inf"], "positive and finite, got inf"),
            (["lieb-thirring", "--mu", "2.5", "--mu", "inf"], "positive and finite, got inf"),
            (["lieb-thirring", "--mu", "nan"], "positive and finite, got nan"),
            (["lieb-thirring", "--chain-samples", "-1"], "chain samples must be >= 0"),
            (["seqlemma", "--trials", "5", "--j-min", "-2000", "--j-max", "2000"],
             "leaves the binary64 range"),
            (["seqlemma", "--dim", "1", "--j-min", "-600", "--j-max", "-500"],
             "leaves the binary64 range"),
            (["lieb-thirring", "--mu", "0.7", "--n", "64"],
             "chemical potential 0.7 lies below the first shell 1.0: its sea holds only the zero mode"),
            (["khinchine", "--terms", "21"], "at most 20 terms, got 21"),
            (["khinchine", "--tensor-terms", "21"], "at most 20 terms, got 21"),
            (["seqlemma", "--seed", "-1", "--trials", "5"], "seed must be at least 0"),
            (["lp", "--seed", "-1", "--samples", "2", "--n", "16"], "seed must be at least 0"),
            (["khinchine", "--count", "2", "--seed", "-1"], "seed must be at least 0"),
            (["glt", "--seed", "-1", "--samples", "1"], "seed must be at least 0"),
            (["lieb-thirring", "--seed", "-1", "--chain-samples", "1"], "seed must be at least 0"),
            (["khinchine", "--count", "2", "--tensor-seed", str(2**64)],
             f"seed must be at least 0 and below 2^64, got {2**64}"),
            (["glt", "--dim", "1", "--b", "400", "--samples", "2"],
             "power b = 400 puts the lattice symbol |xi|^(2b) outside the binary64 range"),
            (["glt", "--dim", "1", "--b", "80", "--samples", "2"],
             "power b = 80 puts the lattice symbol |xi|^(2b) outside the binary64 range"),
            (["lp", "--decay", "200", "--samples", "4"],
             "decay 200 leaves every nonzero-mode weight"),
            (["lp-density", "--decay", "60", "--samples", "2", "--rank", "2"],
             "decay 60 leaves every nonzero-mode weight"),
            (["lp", "--n", "abc"], "invalid int value"),
            (["lp", "--samples", "3.5"], "invalid int value"),
            (["lp", "--dim", "2.7"], "invalid int value"),
            (["lp-density", "--rank", "1.5"], "invalid int value"),
            (["lp", "--p", "abc"], "invalid float value"),
            (["lieb-thirring", "--mu", "x"], "invalid float value"),
            (["all", "--jobs", "many"], "invalid int value"),
            (["lp", "--family", "bogus"], "invalid choice: 'bogus'"),
            (["khinchine", "--mode", "bogus"], "invalid choice: 'bogus'"),
            (["lp-density", "--weights", "bogus"], "invalid choice: 'bogus'"),
            (["lieb-thirring", "--dim", "1", "--n", "16", "--mu", "64.5"],
             "chemical potential 64.5 reaches the Nyquist shell 64.0"),
            (["lieb-thirring", "--dim", "2", "--n", "8", "--mu", "2.5", "--mu", "20"],
             "chemical potential 20.0 reaches the Nyquist shell 16.0"),
        ],
        ids=[
            "glt_a_inf", "glt_a_nan", "glt_b_nan", "glt_b_inf", "density_rank_zero", "box_inf",
            "box_overflow", "lp_box_overflow", "box_underflow", "lp_decay_nan",
            "glt_decay_nan", "lp_decay_overflow", "lp_decay_underflow", "gns_decay_underflow",
            "density_decay_underflow", "glt_decay_underflow", "lp_p_inf", "khinchine_p_inf",
            "glt_no_samples", "density_no_ranks", "glt_no_ranks", "lp_no_exponents",
            "khinchine_no_exponents", "mu_inf", "mu_ladder_with_inf", "mu_nan",
            "negative_chain_samples", "seqlemma_overflow", "seqlemma_underflow",
            "mu_below_first_shell", "terms_above_cap", "tensor_terms_above_cap",
            "seqlemma_negative_seed", "lp_negative_seed", "khinchine_negative_seed",
            "glt_negative_seed", "lieb_thirring_negative_seed", "tensor_seed_above_key",
            "glt_b_symbol_overflow", "glt_b_80_symbol_overflow", "lp_decay_constant_members",
            "density_decay_constant_members", "n_not_an_int", "samples_not_an_int",
            "dim_not_an_int", "rank_not_an_int", "p_not_a_float", "mu_not_a_float",
            "jobs_not_an_int", "family_unknown", "mode_unknown", "weights_unknown",
            "mu_at_nyquist_shell", "mu_above_nyquist_shell",
        ],
    )
    def test_settings_refused_before_any_draw(self, capsys, monkeypatch, argv, message):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before refusing the settings")

        monkeypatch.setattr(lplab.corpus, "_rekeyed_generators", no_draws)
        monkeypatch.setattr(lplab.fock_operator, "_axis_waves", no_draws)
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("gns", "family", "sharp"),
            ("glt", "profile", "quintic"),
            ("lieb-thirring", "family", "sharp"),
            ("seqlemma", "envelopes", "envelopes.json"),
            ("glt", "envelopes", "envelopes.json"),
            ("partition", "jobs", 2),
            ("lp", "jobs", 2),
        ],
        ids=[
            "gns_family", "glt_profile", "lieb_thirring_family", "seqlemma_envelopes",
            "glt_envelopes", "partition_jobs", "lp_jobs",
        ],
    )
    def test_settings_a_handler_would_not_read_are_refused(
        self, capsys, monkeypatch, command, key, value
    ):
        """A command takes only the settings its handler reads: the flag of
        any other exits 2 before anything is drawn."""

        def no_draws(*args, **kwargs):
            raise AssertionError("drew before refusing the settings")

        monkeypatch.setattr(lplab.corpus, "_rekeyed_generators", no_draws)
        monkeypatch.setattr(lplab.fock_operator, "_axis_waves", no_draws)
        monkeypatch.setattr(lplab.cli, "build_blocks", no_draws)
        flag = "--" + key
        assert run_cli(command, flag, str(value)) == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {flag}" in captured.err
        assert captured.out == ""

    def test_steep_decay_inside_binary64_still_runs(self, tmp_path, capsys):
        """At box 2 pi the weight at |xi| = 1 is 2^-decay: decay 52 leaves it at
        eps beside the zero mode's weight 1, the steepest decay that draws."""
        out = tmp_path / "lp.json"
        assert run_cli("lp", "--decay", "52", "--samples", "2", "--out", str(out)) == 0
        assert capsys.readouterr().out.startswith("PASS lp")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_largest_kinetic_power_inside_binary64_still_runs(self, tmp_path, capsys):
        """At d1 n256 the largest |xi|^(2b) is 2^(14 b): 2^980 at b = 70."""
        out = tmp_path / "glt.json"
        argv = ["glt", "--dim", "1", "--b", "70", "--samples", "2", "--out", str(out)]
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out.startswith("PASS glt")

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["glt", "--dim", "1", "--a", "-0.49", "--b", "5"], "rho^q at q = 501"),
            (["glt", "--dim", "1", "--a", "-0.4999", "--b", "1"], "rho^q at q = 10001"),
            (["glt", "--dim", "1", "--a", "-0.45", "--b", "5"], None),
            (["gns", "--decay", "200"], "|u|^p at p = 6 of member 0"),
            (["gns", "--decay", "180"], "|u|^p at p = 6 of member 0"),
            (["gns", "--dim", "2", "--decay", "300"], "|u|^p at p = 4 of member 0"),
            (["gns", "--decay", "600"], "|u|^p at p = 6 of member 0"),
            (["gns", "--decay", "1000"], "|u|^p at p = 6 of member 0"),
            (["gns", "--dim", "2", "--decay", "900"], "|u|^p at p = 4 of member 0"),
            (["gns", "--decay", "150"], None),
        ],
        ids=["glt_q501", "glt_q10001", "glt_q101", "gns_decay200", "gns_decay180",
             "gns_d2_decay300", "gns_decay600", "gns_decay1000", "gns_d2_decay900",
             "gns_decay150"],
    )
    def test_an_integral_beyond_binary64_fails_the_run(self, tmp_path, capsys, argv, error):
        """Near a = -d/2 glt's exponent q = 1 + 2b/(d + 2a) grows without
        bound, and a mean-zero gns draw at decay D is of order 2^-D: the
        integral of rho^q or of |u|^(2 + 4/d) then underflows for an input
        that is not zero, from decay 600 with its ||u||_2^2.  Both ratios are
        defined, so the run fails with an error naming the exponent rather
        than report "zero density", a ratio of 0 or degenerate members; at
        q = 101 and at decay 150 the runs pass."""
        out = tmp_path / "report.json"
        code = run_cli(*argv, "--samples", "2", "--out", str(out))
        payload = json.loads(out.read_text())
        capsys.readouterr()
        if error is None:
            assert code == 0 and payload["pass"] is True
        else:
            assert code == 1
            assert payload["results"] == {
                "error": f"the integral of {error} leaves the binary64 range"
            }

    def test_value_error_inside_a_check_fails_the_run(self, tmp_path, capsys, monkeypatch):
        """A check that raises mid-run is a failed run (exit 1), not a usage error."""

        def broken(op, a, b):
            raise ValueError("non-finite kinetic trace")

        monkeypatch.setattr(lplab.cli, "generalized_lt_check", broken)
        out = tmp_path / "glt.json"
        code = run_cli("glt", "--dim", "1", "--n", "16", "--samples", "1", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().out.startswith("FAIL glt")
        payload = json.loads(out.read_text())
        assert payload["pass"] is False
        assert payload["results"] == {"error": "non-finite kinetic trace"}
        assert payload["unjudged"] == 0


    def test_a_frame_of_rounding_noise_fails_the_run(self, tmp_path, capsys):
        """At decay 20 the later fields of a rank-32 frame lie within rounding
        of the span of the first ones: the frame is refused, and the run
        exits 1 with the error naming the seed and member."""
        out = tmp_path / "lp_density.json"
        argv = ["lp-density", "--dim", "1", "--n", "256", "--rank", "32", "--samples", "5",
                "--decay", "20", "--out", str(out)]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().out.startswith("FAIL lp-density")
        payload = json.loads(out.read_text())
        assert payload["pass"] is False
        assert payload["results"]["error"].startswith(
            "the frame of seed 2025, member 0 is linearly dependent to rounding: "
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p", ["250", "300"])
    def test_sign_sums_beyond_binary64_fail_the_run(self, tmp_path, capsys, p):
        """khinchine's moments leave binary64 at p = 250 and its l2 powers
        too at p = 300: the check raises, the run fails (exit 1) with the
        error under "results", and the error names p."""
        out = tmp_path / "khinchine.json"
        assert run_cli("khinchine", "--p", p, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("FAIL khinchine")
        assert captured.err == ""
        payload = json.loads(out.read_text())
        assert payload["pass"] is False
        assert payload["results"] == {
            "error": f"the sign-sum moments or l2 powers at p = {p} leave the binary64 range"
        }


class TestDeterminism:
    def lp_args(self, out):
        return ["lp", "--n", "64", "--p", "1.5", "--p", "2", "--samples", "10", "--out", str(out)]

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run_cli(*self.lp_args(first)) == 0
        assert run_cli(*self.lp_args(second)) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_worker_count_is_invisible(self, tmp_path, capsys):
        """Only `lplab all` takes --jobs, and its report does not depend on it."""
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert run_cli("all", "--jobs", "1", "--out", str(serial)) == 0
        assert run_cli("all", "--jobs", "2", "--out", str(parallel)) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()

    def test_jobs_env_fallback(self, tmp_path, capsys, monkeypatch):
        """LPLAB_JOBS is no longer read; the report cannot depend on it."""
        flagged = tmp_path / "flagged.json"
        env = tmp_path / "env.json"
        assert run_cli("all", "--jobs", "2", "--out", str(flagged)) == 0
        monkeypatch.setenv("LPLAB_JOBS", "2")
        assert run_cli("all", "--out", str(env)) == 0
        capsys.readouterr()
        assert flagged.read_bytes() == env.read_bytes()


class TestEmittedFiles:
    def test_sample_csv_row_count(self, tmp_path, capsys):
        out = tmp_path / "lp.json"
        csv_path = tmp_path / "lp.csv"
        code = run_cli(
            "lp", "--n", "64", "--p", "2", "--samples", "9",
            "--out", str(out), "--csv", str(csv_path),
        )
        capsys.readouterr()
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "sample_id,rank,lhs,rhs,ratio"
        assert len(lines) == 1 + 9

    def test_csv_rows_and_unjudged_count_come_from_the_reports(self, tmp_path, capsys):
        """With no envelope at p = 1.5 the cells of every rank at 1.5 go
        unjudged: the payload counts exactly the null verdicts its report
        holds, and the CSV holds one row per sample of every cell."""
        envelopes = load_envelopes()
        del envelopes["lp_density"]["d1"]["1.5"]
        envelope_path = tmp_path / "envelopes.json"
        envelope_path.write_text(json.dumps(envelopes))
        out, csv_path = tmp_path / "density.json", tmp_path / "density.csv"
        code = run_cli(
            "lp-density", "--samples", "3", "--rank", "1", "--rank", "2", "--p", "1",
            "--p", "1.5", "--envelopes", str(envelope_path),
            "--out", str(out), "--csv", str(csv_path),
        )
        capsys.readouterr()
        assert code == 3
        payload = json.loads(out.read_text())
        cells = payload["results"]["reports"]
        unjudged = [(c["name"], c["p"]) for c in cells if c["passed"] is None]
        assert unjudged == [("lp_density_rank1", 1.5), ("lp_density_rank2", 1.5)]
        assert payload["unjudged"] == len(unjudged)
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        assert len(rows) == sum(c["sample_count"] for c in cells) == 12
        assert [row[1] for row in rows] == ["1"] * 6 + ["2"] * 6

    def test_partition_block_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "blocks.csv"
        code = run_cli("partition", "--n", "64", "--csv", str(csv_path))
        capsys.readouterr()
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "j,xi_norm,symbol,companion"
        assert len(lines) > 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["all"],
            ["lieb-thirring", "--dim", "1", "--n", "64", "--mu", "9.5"],
            ["glt", "--dim", "1", "--n", "16", "--samples", "1"],
            ["seqlemma", "--trials", "10"],
        ],
        ids=["all", "lieb_thirring", "glt", "seqlemma"],
    )
    def test_commands_without_rows_refuse_csv(self, tmp_path, capsys, argv):
        """Only partition and the enveloped sections write rows; the other
        commands refuse --csv instead of ignoring it."""
        csv_path = tmp_path / "rows.csv"
        assert run_cli(*argv, "--csv", str(csv_path)) == 2
        assert "--csv" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_stdout_when_no_out_file(self, capsys):
        assert run_cli("partition", "--n", "64") == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["pass"] is True


class TestConfigResolution:
    """The report's config echo: the section's resolved settings, no run setting."""

    def test_config_echo_masks_passthrough_keys(self, tmp_path, capsys):
        out = tmp_path / "partition.json"
        assert run_cli("partition", "--n", "64", "--out", str(out)) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        for hidden in ("jobs", "out", "csv", "envelopes"):
            assert hidden not in payload["config"]
        assert payload["config"]["rng"] == "philox4x64"
        assert payload["schema_version"] == 2


class TestSectionCommands:
    def test_khinchine_exponent_below_one_is_usage_error(self, tmp_path, capsys):
        assert run_cli("khinchine", "--p", "0.5", "--count", "5") == 2
        assert "requires p >= 1, got 0.5" in capsys.readouterr().err
        out = tmp_path / "khinchine.json"
        assert run_cli("khinchine", "--p", "1", "--count", "5", "--out", str(out)) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        cells = payload["results"]["classical"] + payload["results"]["tensor"]
        assert [(cell["p"], cell["passed"]) for cell in cells] == [(1.0, True), (1.0, True)]
        assert payload["unjudged"] == 0

    def test_khinchine_section(self, tmp_path, capsys):
        out = tmp_path / "khinchine.json"
        code = run_cli(
            "khinchine", "--terms", "6", "--tensor-terms", "4",
            "--p", "1", "--p", "2", "--count", "25", "--out", str(out),
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert payload["results"]["pair_lower_ratio_residual"] <= 1e-12
        assert payload["results"]["diagonal_spike_residual"] == 0.0

    def test_seqlemma_section(self, tmp_path, capsys):
        out = tmp_path / "seq.json"
        code = run_cli("seqlemma", "--trials", "200", "--dim", "2", "--out", str(out))
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["results"]["failures"] == 0

    def test_an_exponent_off_every_cell_is_unjudged(self, capsys):
        # format(p, "g") writes 2.0000001 as "2": the p = 2 cell must not judge it.
        code = run_cli("lp", "--n", "16", "--samples", "3", "--p", "2.0000001")
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        (cell,) = payload["results"]["reports"]
        assert cell["p"] == 2.0000001
        assert cell["envelope"] is None and cell["passed"] is None
        assert payload["results"]["parseval_deviation"] is None
        assert payload["pass"] is None and payload["unjudged"] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["lp", "--n", "16", "--samples", "3", "--p", "2", "--p", "2"],
            ["lp-density", "--n", "16", "--samples", "2", "--rank", "1", "--p", "2", "--p", "2"],
        ],
        ids=["lp", "lp-density"],
    )
    def test_a_repeated_exponent_is_one_cell(self, capsys, argv):
        assert run_cli(*argv) == 0
        twice = json.loads(capsys.readouterr().out)
        assert run_cli(*argv[:-2]) == 0
        once = json.loads(capsys.readouterr().out)
        assert [cell["p"] for cell in twice["results"]["reports"]] == [2.0]
        assert twice["results"] == once["results"]

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["lp-density", "--rank", "1", "--rank", "1", "--samples", "2", "--n", "16",
              "--p", "1"], "reports"),
            (["glt", "--rank", "4", "--rank", "4", "--samples", "1"], "rows"),
        ],
        ids=["lp-density", "glt"],
    )
    def test_a_repeated_rank_is_judged_once(self, capsys, monkeypatch, argv, key):
        frames = []
        draw = lplab.cli.random_orthonormal_frame

        def counted(*args, **kwargs):
            frames.append(kwargs["rank"])
            return draw(*args, **kwargs)

        monkeypatch.setattr(lplab.cli, "random_orthonormal_frame", counted)
        assert run_cli(*argv) == 0
        twice = json.loads(capsys.readouterr().out)["results"]
        assert run_cli(*argv[:2], *argv[4:]) == 0
        once = json.loads(capsys.readouterr().out)["results"]
        assert twice == once
        assert len(twice[key]) == 1
        if key == "rows":
            assert frames == [4, 4]  # one frame per run, not two in the first

    def test_gns_section(self, tmp_path, capsys):
        out = tmp_path / "gns.json"
        code = run_cli("gns", "--n", "64", "--samples", "12", "--out", str(out))
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out.read_text())
        (cell,) = payload["results"]["reports"]
        assert cell["p"] == 6.0
        # gns builds no blocks, so its cell names no block family.
        assert (cell["family"], cell["profile_kind"]) == ("none", "none")
        assert not {"family", "profile"} & set(payload["config"])

    def test_a_repeated_chemical_potential_is_one_rung(self, capsys):
        assert run_cli("lieb-thirring", "--mu", "2.5", "--mu", "2.5") == 0
        twice = json.loads(capsys.readouterr().out)
        assert run_cli("lieb-thirring", "--mu", "2.5") == 0
        once = json.loads(capsys.readouterr().out)
        assert twice.pop("config")["mu"] == [2.5, 2.5]
        assert once.pop("config")["mu"] == [2.5]
        assert twice == once
        assert len(once["results"]["sweep"]) == 1
        assert [c["source"] for c in once["results"]["chains"]] == [
            "sea_rank_3", "frame_0", "frame_1"
        ]

    def test_lieb_thirring_verdict_reads_only_checks_that_can_fail(self, capsys):
        """Every sweep ratio is positive and every weak ratio is rank^(2/d)
        times its ratio by construction, so neither is a reported verdict."""
        assert run_cli("lieb-thirring", "--n", "64", "--chain-samples", "0") == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert set(results) == {
            "sweep", "chains", "oracle_ok", "last_doubling_change", "convergence_ok"
        }

    @pytest.mark.parametrize(
        "dim, n, ranks, code",
        [(1, 16, [3, 5, 9], 1), (1, 32, [3, 5, 9, 17], 0), (1, 64, [3, 5, 9, 17, 33], 0),
         (2, 8, [5, 9, 13, 25], 1)],
    )
    def test_the_default_ladder_stops_below_the_nyquist_shell(self, capsys, dim, n, ranks, code):
        """A sea at or above (pi N / L)^2 holds the mode -N/2 but not +N/2, so
        the default ladder drops those rungs: a coarse grid's convergence is
        judged on unclipped seas, and fails where they have not converged."""
        argv = ["lieb-thirring", "--dim", str(dim), "--n", str(n), "--chain-samples", "0"]
        assert run_cli(*argv) == code
        results = json.loads(capsys.readouterr().out)["results"]
        assert [row["rank"] for row in results["sweep"]] == ranks
        assert results["last_doubling_change"] > 0.0
        assert results["convergence_ok"] == (code == 0)


class TestGridDefaults:
    """A grid run without n takes its dimension's desk grid."""

    def test_gns_d2_runs_at_the_desk_grid_and_passes(self, capsys):
        assert run_cli("gns", "--dim", "2") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["n"] == 64
        assert payload["results"]["reports"][0]["grid"]["points_per_axis"] == 64
        assert payload["pass"] is True

    def test_gns_d3_runs_at_the_desk_grid_unjudged(self, capsys):
        assert run_cli("gns", "--dim", "3", "--samples", "4") == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["n"] == 16
        assert payload["unjudged"] == 1

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_an_unset_n_follows_the_dimension(self, capsys, dim):
        assert run_cli("partition", "--dim", str(dim)) == 0
        assert json.loads(capsys.readouterr().out)["config"]["n"] == DESK_POINTS[dim]

    def test_a_given_n_is_kept(self, capsys):
        assert run_cli("partition", "--dim", "2", "--n", "16") == 0
        assert json.loads(capsys.readouterr().out)["config"]["n"] == 16
        assert run_cli("partition", "--dim", "3", "--n", "8") == 0
        assert json.loads(capsys.readouterr().out)["config"]["n"] == 8

    def test_every_section_run_is_at_its_desk_grid(self):
        runs = [s for command in SECTIONS for s in section_runs(command) if "n" in s]
        assert len(runs) > 16
        assert all(s["n"] == DESK_POINTS[s["dim"]] for s in runs)


class TestSectionTable:
    def test_calibration_cells_are_the_frozen_cells(self):
        planned = {
            cell for command, settings in calibration_runs()
            for cell in section_cells(command, settings)
        }
        frozen = {
            (name, dim, p)
            for name, by_dim in load_envelopes().items()
            for dim, by_p in by_dim.items()
            for p in by_p
        }
        assert planned == frozen

    def test_frozen_envelopes_are_what_the_script_calibrates(self, capsys):
        """scripts/calibrate_envelopes.py reproduces envelopes.json from the
        section table: a change to SECTIONS that leaves it stale fails here.
        The recomputed bounds may differ from the frozen ones in the last ulps."""
        path = Path(__file__).resolve().parents[1] / "scripts" / "calibrate_envelopes.py"
        spec = importlib.util.spec_from_file_location("calibrate_envelopes", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        calibrated = script.calibrate()
        capsys.readouterr()
        frozen = load_envelopes()
        assert {name: {dim: set(by_p) for dim, by_p in by_dim.items()}
                for name, by_dim in calibrated.items()} == {
            name: {dim: set(by_p) for dim, by_p in by_dim.items()}
            for name, by_dim in frozen.items()
        }
        for name, by_dim in frozen.items():
            for dim, by_p in by_dim.items():
                for p, bounds in by_p.items():
                    for value, expected in zip(calibrated[name][dim][p], bounds, strict=True):
                        assert math.isclose(value, expected, rel_tol=1e-12), (name, dim, p)

    def test_every_judged_cell_has_an_envelope(self):
        envelopes = load_envelopes()
        judged = [
            cell for command in SECTIONS
            for settings in section_runs(command)
            for cell in section_cells(command, settings)
        ]
        assert ("lp_density", "d1", "0.6") in judged
        missing = [
            (name, dim, p) for name, dim, p in judged if p not in envelopes[name].get(dim, {})
        ]
        assert missing == []

    def test_all_runs_each_desk_section_through_its_handler(self, monkeypatch):
        calls = []

        def stub(command):
            def handler(settings, envelopes):
                calls.append((command, settings))
                return {}, True, None

            return handler

        for command in SECTIONS:
            monkeypatch.setattr(lplab.cli, "_cmd_" + command.replace("-", "_"), stub(command))
        sections, passed, _ = lplab.cli._HANDLERS["all"]({}, {})
        assert passed
        assert list(sections) == [label for s in SECTIONS.values() for label in s.desk]
        assert len(sections) == 16
        assert calls == [
            (command, settings)
            for command in SECTIONS
            for settings in section_runs(command)[1:]
        ]


class _RecordedReads(dict):
    """A settings dict that records every key a handler reads from it."""

    def __init__(self, settings):
        super().__init__(settings)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


# A small run of each command; khinchine in monte_carlo mode, which reads mc_samples.
SMALL_RUNS = {
    "partition": ["--n", "16"],
    "lp": ["--n", "16", "--samples", "2"],
    "lp-density": ["--n", "16", "--samples", "2", "--rank", "1"],
    "khinchine": ["--mode", "monte_carlo", "--mc-samples", "64", "--count", "2",
                  "--terms", "4", "--tensor-terms", "3"],
    "gns": ["--n", "16", "--samples", "2"],
    "lieb-thirring": ["--n", "64", "--mu", "2.5", "--chain-samples", "1"],
    "glt": ["--dim", "1", "--n", "16", "--samples", "1"],
    "seqlemma": ["--trials", "5"],
}


@pytest.mark.parametrize("command", list(SECTIONS))
def test_every_section_setting_a_command_takes_is_read(monkeypatch, capsys, command):
    """A command takes no setting its handler leaves unread."""
    handler = lplab.cli._HANDLERS[command]
    reads = set()

    def recording(settings, envelopes):
        settings = _RecordedReads(settings)
        try:
            return handler(settings, envelopes)
        finally:
            reads.update(settings.read)

    monkeypatch.setitem(lplab.cli._HANDLERS, command, recording)
    assert run_cli(command, *SMALL_RUNS[command]) in (0, 3)
    capsys.readouterr()
    assert sorted(set(SECTIONS[command].defaults) - reads) == []
