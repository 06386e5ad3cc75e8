"""Config parsing, presets, CSV output and exit codes of the CLI harness."""

import os
import subprocess
import sys

import numpy as np
import pytest

import helmholtz_lab
from helmholtz_lab import cli, meshing


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL_1D = """
# small deterministic sweep
method = fem
domain = interval
k = 5
p = 1,2
n_elements = 4,8,16
out = {out}
"""


class TestConfigParsing:
    def test_flat_key_value_with_comments_and_lists(self):
        raw = cli.parse_config_text(
            "k = 1,10,100  # wavenumbers\n\n# comment line\nmethod = fem\n")
        assert raw["k"] == "1,10,100"
        assert raw["method"] == "fem"

    def test_unknown_key_is_named(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config_text("wavenumber = 4\n")
        assert err.value.key == "wavenumber"

    def test_malformed_line_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config_text("just some words\n")

    def test_bad_number_names_key(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.build_config({"method": "fem", "domain": "interval",
                              "k": "ten", "p": "1", "n_elements": "4"})
        assert err.value.key == "k"

    def test_empty_k_list_rejected(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.build_config({"method": "fem", "domain": "interval",
                              "k": "", "p": "1", "n_elements": "4"})
        assert err.value.key == "k"

    def test_method_required(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.build_config({"k": "4"})
        assert err.value.key == "method"

    def test_h_and_n_elements_conflict(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.build_config({"method": "fem", "domain": "interval",
                              "k": "4", "p": "1", "h": "0.25",
                              "n_elements": "4"})
        assert err.value.key == "h"

    def test_h_converted_to_elements_on_interval(self):
        cfg = cli.build_config({"method": "fem", "domain": "interval",
                                "k": "4", "p": "1", "h": "0.25,0.125"})
        assert cfg["n_elements"] == [4, 8]

    def test_grading_needs_both_keys(self):
        base = {"method": "fem", "domain": "lshape", "k": "1", "p": "2",
                "h": "0.4"}
        with pytest.raises(cli.ConfigError) as err:
            cli.build_config(dict(base, sigma="0.125"))
        assert err.value.key == "sigma"
        cfg = cli.build_config(dict(base, sigma="0.125", layers="3"))
        assert cfg["sigma"] == 0.125 and cfg["layers"] == 3

    def test_ls_rejects_negative_robin_sign(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.build_config({"method": "ls", "k": "4", "p": "3",
                              "h": "0.5", "robin_sign": "-1"})
        assert err.value.key == "robin_sign"

    def test_domain_method_compatibility(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.build_config({"method": "uwvf", "domain": "lshape",
                              "k": "4", "p": "3", "h": "0.5"})
        assert err.value.key == "domain"

    def test_preset_expansion_with_override(self):
        cfg = cli.build_config({"preset": "nodal_exact_1d",
                                "n_elements": "8"})
        assert cfg["method"] == "nodal"
        assert cfg["n_elements"] == [8]
        assert cfg["k"] == [10.0]

    def test_flux_overrides_all_or_none(self):
        base = {"method": "uwvf", "k": "4", "p": "3", "h": "0.5"}
        with pytest.raises(cli.ConfigError) as err:
            cli.build_config(dict(base, alpha="0.5"))
        assert err.value.key == "alpha"
        cfg = cli.build_config(dict(base, alpha="0.5", beta="0.5",
                                    delta="0.25"))
        assert cfg["flux_params"] is not None


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        cfg = cli.build_config({"method": "fem", "domain": "interval",
                                "k": "4", "p": "1", "n_elements": "4",
                                "threads": "3"})
        monkeypatch.delenv("HELMHOLTZ_THREADS", raising=False)
        assert cli._worker_count(cfg) == 3
        monkeypatch.setenv("HELMHOLTZ_THREADS", "2")
        assert cli._worker_count(cfg) == 2

    def test_invalid_env_rejected(self, monkeypatch):
        cfg = cli.build_config({"method": "fem", "domain": "interval",
                                "k": "4", "p": "1", "n_elements": "4"})
        monkeypatch.setenv("HELMHOLTZ_THREADS", "many")
        with pytest.raises(cli.ConfigError) as err:
            cli._worker_count(cfg)
        assert err.value.key == "threads"


class TestRunCommand:
    def test_run_writes_csv_and_prints_slopes(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        path = write_config(tmp_path, SMALL_1D.format(out=out))
        code = cli.main(["run", path])
        assert code == 0
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0] == ",".join(cli.COLUMNS)
        assert len(lines) == 1 + 2 * 3
        assert all(len(line.split(",")) == len(cli.COLUMNS)
                   for line in lines)
        printed = capsys.readouterr().out
        assert "slope err_h1semi_rel vs N_lambda" in printed

    def test_n_lambda_monotone_within_series(self, tmp_path):
        out = tmp_path / "res.csv"
        path = write_config(tmp_path, SMALL_1D.format(out=out))
        assert cli.main(["run", path]) == 0
        rows = _read_rows(out)
        for p in ("1", "2"):
            series = [float(r["n_lambda"]) for r in rows if r["p"] == p]
            assert series == sorted(series)
            errs = [float(r["err_h1semi_rel"]) for r in rows if r["p"] == p]
            assert errs[-1] < errs[0]

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "res.csv"
        path = write_config(tmp_path, SMALL_1D.format(out=out))
        assert cli.main(["run", path]) == 0
        first = out.read_bytes()
        assert cli.main(["run", path]) == 0
        assert out.read_bytes() == first

    def test_config_error_exit_2(self, tmp_path, capsys):
        path = write_config(
            tmp_path, "method = fem\ndomain = interval\nn_elements = 4\nk = \n")
        code = cli.main(["run", path])
        assert code == 2
        assert "'k'" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = cli.main(["run", str(tmp_path / "absent.cfg")])
        assert code == 2
        capsys.readouterr()

    def test_solver_failure_exit_3_with_flagged_row(self, tmp_path):
        # kh >= pi makes the wave-adapted space construction raise
        out = tmp_path / "res.csv"
        cfg_text = (f"method = nodal\nk = 10\nn_elements = 2,64\n"
                    f"out = {out}\n")
        path = write_config(tmp_path, cfg_text)
        code = cli.main(["run", path])
        assert code == 3
        rows = _read_rows(out)
        assert len(rows) == 2
        flagged = [r for r in rows if r["error"]]
        assert len(flagged) == 1
        assert flagged[0]["h"] == "0.5"
        assert "," not in flagged[0]["error"]
        clean = [r for r in rows if not r["error"]][0]
        assert float(clean["nodal_max"]) < 1e-12

    def test_timing_column_opt_in(self, tmp_path):
        out = tmp_path / "res.csv"
        cfg_text = (f"method = fem\ndomain = interval\nk = 4\np = 1\n"
                    f"n_elements = 4\ntiming = true\nout = {out}\n")
        path = write_config(tmp_path, cfg_text)
        assert cli.main(["run", path]) == 0
        rows = _read_rows(out)
        assert float(rows[0]["wall_ms"]) > 0.0


class TestPresets:
    def test_all_presets_expand_to_tasks(self):
        for name in cli.PRESETS:
            cfg = cli.build_config({"preset": name})
            tasks = cli.expand_runs(cfg)
            assert tasks, name

    def test_preset_command_writes_named_csv(self, tmp_path):
        code = cli.main(["preset", "infsup_1d", "--out", str(tmp_path)])
        assert code == 0
        out = tmp_path / "infsup_1d.csv"
        rows = _read_rows(out)
        assert len(rows) == 4
        gammas = [float(r["gamma_n"]) for r in rows]
        assert all(g > 0 for g in gammas)
        assert gammas == sorted(gammas, reverse=True)

    def test_unknown_preset_exit_2(self, tmp_path, capsys):
        assert cli.main(["preset", "nope", "--out", str(tmp_path)]) == 2
        assert "preset" in capsys.readouterr().err

    def test_list_presets_names_everything(self, capsys):
        assert cli.main(["list-presets"]) == 0
        printed = capsys.readouterr().out
        for name in cli.PRESETS:
            assert name in printed
        assert "lshape_singular" in printed


class TestMeshDump:
    def test_dump_round_trips(self, capsys):
        assert cli.main(["mesh-dump", "square", "0.5"]) == 0
        text = capsys.readouterr().out
        mesh = meshing.mesh_from_text(text)
        assert mesh.dim == 2
        assert mesh.n_elements == 8

    def test_graded_dump(self, capsys):
        assert cli.main(["mesh-dump", "lshape", "0.5", "--grade",
                         "0.5,2"]) == 0
        text = capsys.readouterr().out
        mesh = meshing.mesh_from_text(text)
        base = meshing.triangulate(meshing.l_shape(), 0.5)
        assert mesh.n_elements > base.n_elements

    def test_bad_domain_exit_2(self, capsys):
        assert cli.main(["mesh-dump", "cube", "0.5"]) == 2
        assert "domain" in capsys.readouterr().err

    def test_bad_grade_exit_2(self, capsys):
        assert cli.main(["mesh-dump", "square", "0.5", "--grade",
                         "bogus"]) == 2
        capsys.readouterr()


def _read_rows(path):
    import csv as csv_mod
    with open(path) as fh:
        return list(csv_mod.DictReader(fh))


def test_module_entry_point_runs_without_runtime_warning():
    # Importing the package must not import the cli module, or running it
    # as `python -m helmholtz_lab.cli` warns that it is already imported.
    src = os.path.dirname(os.path.dirname(helmholtz_lab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "helmholtz_lab.cli", "list-presets"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "fig1_1d_pollution" in proc.stdout
