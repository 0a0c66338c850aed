"""Command line driver: exit codes, determinism of emitted files, and flag
resolution against config files and the environment."""

import json

import pytest

import lplab.cli
import lplab.inequality_lab
from lplab.cli import (
    SECTIONS,
    calibration_runs,
    load_envelopes,
    run,
    section_cells,
    section_runs,
)
from lplab.reporting import read_json


def run_cli(*argv):
    return run(list(argv))


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli("fourier") == 2
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli("partition", "--order", "3") == 2
        capsys.readouterr()

    def test_missing_config_file_is_usage_error(self, capsys):
        assert run_cli("partition", "--config", "/nonexistent/config.json") == 2
        capsys.readouterr()

    def test_bad_grid_is_usage_error(self, capsys):
        assert run_cli("partition", "--n", "12") == 2
        capsys.readouterr()

    def test_partition_passes(self, tmp_path, capsys):
        out = tmp_path / "partition.json"
        code = run_cli("partition", "--n", "64", "--out", str(out))
        capsys.readouterr()
        assert code == 0
        payload = read_json(out)
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
        payload = read_json(out)
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
            {"lp": {"1": {"2": [0.5, 2.0]}}},
            {"lp": [0.5, 2.0]},
            [0.5, 2.0],
        ],
        ids=[
            "unknown_name", "short_pair", "lo_above_hi", "infinite", "string_bound",
            "unreachable_exponent_key", "bare_dimension_key", "no_dimensions", "not_an_object",
        ],
    )
    def test_malformed_envelope_file_is_usage_error(self, tmp_path, capsys, envelopes):
        path = tmp_path / "envelopes.json"
        path.write_text(json.dumps(envelopes))
        code = run_cli("lp", "--n", "64", "--p", "2", "--samples", "4", "--envelopes", str(path))
        assert code == 2
        assert "envelope file" in capsys.readouterr().err

    def test_undeclared_config_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 64, "sampels": 5}))
        assert run_cli("lp", "--config", str(config)) == 2
        assert "sampels" in capsys.readouterr().err

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
        assert run_cli("khinchine", flag, "0") == 2
        assert message in capsys.readouterr().err


class TestDeterminism:
    def lp_args(self, out, jobs=None):
        argv = ["lp", "--n", "64", "--p", "1.5", "--p", "2", "--samples", "10", "--out", str(out)]
        if jobs is not None:
            argv += ["--jobs", str(jobs)]
        return argv

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run_cli(*self.lp_args(first)) == 0
        assert run_cli(*self.lp_args(second)) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_worker_count_is_invisible(self, tmp_path, capsys):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert run_cli(*self.lp_args(serial, jobs=1)) == 0
        assert run_cli(*self.lp_args(parallel, jobs=2)) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()

    def test_jobs_env_fallback(self, tmp_path, capsys, monkeypatch):
        """LPLAB_JOBS is no longer read; the report cannot depend on it."""
        flagged = tmp_path / "flagged.json"
        env = tmp_path / "env.json"
        assert run_cli(*self.lp_args(flagged, jobs=2)) == 0
        monkeypatch.setenv("LPLAB_JOBS", "2")
        assert run_cli(*self.lp_args(env)) == 0
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

    def test_partition_block_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "blocks.csv"
        code = run_cli("partition", "--n", "64", "--csv", str(csv_path))
        capsys.readouterr()
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "j,xi_norm,symbol,companion"
        assert len(lines) > 1

    def test_stdout_when_no_out_file(self, capsys):
        assert run_cli("partition", "--n", "64") == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["pass"] is True


class TestConfigResolution:
    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 64, "samples": 7}))
        out = tmp_path / "lp.json"
        code = run_cli("lp", "--config", str(config), "--out", str(out))
        capsys.readouterr()
        assert code == 0
        payload = read_json(out)
        assert payload["config"]["n"] == 64
        assert payload["config"]["samples"] == 7

    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 64, "samples": 7}))
        out = tmp_path / "lp.json"
        code = run_cli(
            "lp", "--config", str(config), "--samples", "5", "--out", str(out)
        )
        capsys.readouterr()
        assert code == 0
        payload = read_json(out)
        assert payload["config"]["samples"] == 5
        assert len(payload["results"]["reports"][0]["samples"]) == 5

    def test_config_takes_passthrough_keys(self, tmp_path, capsys):
        out = tmp_path / "partition.json"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 64, "jobs": 2, "out": str(out), "csv": None}))
        assert run_cli("partition", "--config", str(config)) == 0
        capsys.readouterr()
        assert read_json(out)["config"]["n"] == 64

    def test_config_echo_masks_passthrough_keys(self, tmp_path, capsys):
        out = tmp_path / "partition.json"
        assert run_cli("partition", "--n", "64", "--out", str(out)) == 0
        capsys.readouterr()
        payload = read_json(out)
        for hidden in ("jobs", "out", "csv", "envelopes", "config"):
            assert hidden not in payload["config"]
        assert payload["config"]["rng"] == "philox4x64"
        assert payload["schema_version"] == 1


class TestSectionCommands:
    def test_khinchine_section(self, tmp_path, capsys):
        out = tmp_path / "khinchine.json"
        code = run_cli(
            "khinchine", "--terms", "6", "--tensor-terms", "4",
            "--p", "1", "--p", "2", "--count", "25", "--out", str(out),
        )
        capsys.readouterr()
        assert code == 0
        payload = read_json(out)
        assert payload["pass"] is True
        assert payload["results"]["pair_lower_ratio_residual"] <= 1e-12
        assert payload["results"]["diagonal_spike_residual"] == 0.0

    def test_seqlemma_section(self, tmp_path, capsys):
        out = tmp_path / "seq.json"
        code = run_cli("seqlemma", "--trials", "200", "--dim", "2", "--out", str(out))
        capsys.readouterr()
        assert code == 0
        payload = read_json(out)
        assert payload["results"]["failures"] == 0

    def test_gns_section(self, tmp_path, capsys):
        out = tmp_path / "gns.json"
        code = run_cli("gns", "--n", "64", "--samples", "12", "--out", str(out))
        capsys.readouterr()
        assert code == 0
        payload = read_json(out)
        assert payload["results"]["reports"][0]["p"] == 6.0


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
