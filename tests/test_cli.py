"""Config parsing, presets, CSV output and exit codes of the CLI harness."""

import collections
import gc
import os
import re
import subprocess
import sys
import tempfile
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helmholtz_lab
from helmholtz_lab import assembly, cli, meshing, spaces


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


# keys of earlier versions: the quadrature-degree overrides, the seed and
# the solve strategy (each method now has one solve path)
REMOVED_KEYS = ("volume_factor", "volume_offset", "edge_factor",
                "edge_offset", "seed", "strategy")

SMALL_UWVF = """
method = uwvf
k = 4
p = 3,5
h = 0.5
out = {out}
"""


class TestConfigParsing:
    def test_flat_key_value_with_comments_and_lists(self):
        raw = cli.parse_config_text(
            "k = 1,10,100  # wavenumbers\n\n# comment line\nmethod = fem\n")
        assert raw["k"] == "1,10,100"
        assert raw["method"] == "fem"

    def test_unknown_key_is_named(self):
        for key in ("wavenumber",) + REMOVED_KEYS:
            with pytest.raises(cli.ConfigError) as err:
                cli.parse_config_text(f"{key} = 4\n")
            assert err.value.key == key

    def test_malformed_line_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config_text("just some words\n")

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config_text("k = 1\n# note\n\np = 2\nk = 2\n")
        assert err.value.key == "k"
        assert "line 1" in str(err.value) and "line 5" in str(err.value)

    def test_repeated_key_exit_2(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        path = write_config(tmp_path, SMALL_1D.format(out=out) + "k = 6\n")
        assert cli.main(["run", path]) == 2
        assert "'k'" in capsys.readouterr().err
        assert not out.exists()

    def test_key_over_its_preset_is_not_a_repeat(self):
        raw = cli.parse_config_text("preset = infsup_1d\nk = 8\n")
        assert cli.build_config(raw)["k"] == [8.0]

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


    def test_key_table_in_readme_matches_parsers(self):
        text = _readme_text()
        table = text.split("### Config keys", 1)[1].split("###", 1)[0]
        names = set()
        stated = {}
        for line in table.splitlines():
            if line.startswith("| `"):
                keys = re.findall(r"`([^`]+)`", line.split("|")[1])
                names.update(keys)
                for default in re.findall(r"default `([^`]+)`",
                                          line.split("|")[2]):
                    stated.update((key, default) for key in keys)
        assert names == set(cli._KEYS)
        # every default of the key table is stated, as config text that
        # reads back to it
        defaults = {key: entry.default for key, entry in cli._KEYS.items()
                    if entry.default is not None}
        assert set(stated) == set(defaults)
        for key, text in stated.items():
            assert cli._KEYS[key].read(key, text) == defaults[key], key

    def test_read_sets_in_readme_match_method_table(self):
        text = _readme_text()
        common = text.split("Every method reads", 1)[1].split(
            "on top of them", 1)[0]
        assert set(re.findall(r"`([^`]+)`", common)) == cli._COMMON_KEYS
        table = text.split("| method | also reads |", 1)[1]
        table = table.split("\n\n", 1)[0]
        reads = {}
        for line in table.splitlines():
            cells = line.split("|")
            if len(cells) > 2 and cells[1].strip() in cli._METHODS:
                reads[cells[1].strip()] = set(re.findall(r"`([^`]+)`",
                                                         cells[2]))
        assert reads == {name: spec.reads
                         for name, spec in cli._METHODS.items()}

    @pytest.mark.parametrize("domain, exact", sorted(cli._PROBLEMS))
    def test_every_problem_builder_honours_robin_sign(self, domain, exact):
        for sign in (1.0, -1.0):
            cfg = {"domain": domain, "exact": exact, "robin_sign": sign}
            problem = cli._problem(cfg, 3.0)
            assert problem.robin_sign == sign
            assert problem.exact.id == exact
        # unset, the builder's default holds: -1 on the L-shape
        cfg = {"domain": domain, "exact": exact, "robin_sign": None}
        want = -1.0 if domain == "lshape" else 1.0
        assert cli._problem(cfg, 3.0).robin_sign == want


# Values per key for the config fuzz: valid ones, values out of range,
# of the wrong type, non-finite and empty.
FUZZ_VALUES = {
    "preset": list(cli.PRESETS) + ["nope"],
    "method": list(cli._METHODS) + ["bem"],
    "domain": list(cli._DOMAINS) + ["disk"],
    "exact": list(cli._EXACT) + ["none"],
    "k": ["1", "4,40", "0.5", "nan", "", "a"],
    "p": ["1", "1,2,3", "0", "-1", "", "1.5"],
    "h": ["0.5", "0.25,0.125", "0", "-0.5", "1e-320", "inf", "nan", ""],
    "n_elements": ["4", "4,8", "0", "-3", "", "x"],
    "sigma": ["0.125", "0", "1", "2", "nan"],
    "layers": ["1", "10", "0", "-1", "2.5"],
    "corners": ["0,0", "0,0; 1,1", "1", "0,0,0", ";", "a,b"],
    "flux": ["uwvf", "hmp", "h_version", "bad"],
    "alpha": ["0.5", "0", "-1", "inf"],
    "beta": ["0.5", "0", "nan"],
    "delta": ["0.25", "0", "1", "1.5"],
    "w1": ["2", "0", "-1", "nan"],
    "w2": ["1", "0", "1e400"],
    "svd_cutoff": ["1e-12", "0", "-1", "nan"],
    "khp": ["0.25", "0", "-1", "inf"],
    "robin_sign": ["1", "-1", "0", "2"],
    "out": ["res.csv", ""],
    "threads": ["1", "2", "0", "-1", "x"],
    "timing": ["true", "false", "maybe"],
}


@st.composite
def fuzzed_configs(draw):
    """A preset's keys with up to two dropped and up to three set to
    values from FUZZ_VALUES."""
    raw = dict(cli.PRESETS[draw(st.sampled_from(sorted(cli.PRESETS)))])
    for key in draw(st.sets(st.sampled_from(sorted(raw)), max_size=2)):
        del raw[key]
    for key in draw(st.sets(st.sampled_from(sorted(FUZZ_VALUES)),
                            max_size=3)):
        raw[key] = draw(st.sampled_from(FUZZ_VALUES[key]))
    return raw


class TestConfigFuzz:
    @settings(derandomize=True, deadline=None, database=None,
              max_examples=500)
    @given(fuzzed_configs())
    def test_config_builds_or_raises_config_error(self, raw):
        try:
            cfg = cli.build_config(raw)
        except cli.ConfigError as exc:
            assert exc.key in cli._KEYS
            return
        assert cli.expand_runs(cfg)

    def test_fuzz_covers_every_key(self):
        assert set(FUZZ_VALUES) == set(cli._KEYS)


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
        for env in ("many", "0", "-2"):
            monkeypatch.setenv("HELMHOLTZ_THREADS", env)
            with pytest.raises(cli.ConfigError) as err:
                cli._worker_count(cfg)
            assert err.value.key == "threads"
            assert "HELMHOLTZ_THREADS" in str(err.value)

    def test_one_worker_by_default(self, monkeypatch):
        # on a desk machine the pool's threads contend with OpenBLAS's own
        # threads for the same cores, so a sweep runs on one unless asked
        cfg = cli.build_config({"method": "fem", "domain": "interval",
                                "k": "4", "p": "1", "n_elements": "4"})
        monkeypatch.delenv("HELMHOLTZ_THREADS", raising=False)
        assert cfg["threads"] == 1
        with mock.patch.object(os, "cpu_count", return_value=8):
            assert cli._worker_count(cfg) == 1


def slope_rows():
    """Hand-made rows for the slope report, per method."""
    def row(**fields):
        return {**dict.fromkeys(cli.COLUMNS), "error": "", **fields}

    fem = []
    for p in (1, 2, 3):
        for i, n in enumerate((4, 8, 16)):
            fem.append(row(method="fem", domain="interval", k=10.0, p=p,
                           h=1.0 / n, n_lambda=0.2 * p * n * 6.283185307179586,
                           err_h1semi_rel=0.5 * (1.0 + 0.1 * i) / n**p))
    # two mesh sizes only: neither of its series has 3 distinct x
    fem += [row(method="fem", domain="interval", k=20.0, p=p, h=1.0 / n,
                n_lambda=float(p * n), err_h1semi_rel=0.3 / n**p)
            for p in (1, 2) for n in (8, 16)]
    # a failed row carries no metrics
    fem.append(row(method="fem", domain="interval", k=10.0, p=1, h=0.03125,
                   error="RuntimeError: singular"))
    infsup = [row(method="infsup", domain="interval", k=k, p=p,
                  n_lambda=12.566370614359172, gamma_n=1.3 / k**(1 + 0.01 * p))
              for p in (1, 2) for k in ((4.0, 8.0, 16.0, 32.0) if p == 1
                                        else (4.0, 8.0))]
    approx = [row(method=f"approx_{kind}", domain="square", k=8.0, p=p,
                  h=0.47140452079103173, n_lambda=2.0 * p + scale,
                  err_1k_rel=scale * 10.0**(-rate * p))
              for kind, scale, rate in (("pw", 0.7, 1.0), ("ghp", 0.2, 0.8))
              for p in (1, 2, 3, 4)]
    return {"fem": fem, "infsup": infsup, "approx": approx}


class TestSeriesSlopes:
    # The printed slope lines are part of the CLI's output: these are the
    # lines for the rows above, byte for byte.
    WANT = {
        "fem": [
            "slope err_h1semi_rel vs N_lambda | method=fem domain=interval "
            "k=10.0 p=1: -0.868 (r2=1.0000, 3 pts)",
            "slope err_h1semi_rel vs N_lambda | method=fem domain=interval "
            "k=10.0 p=2: -1.868 (r2=1.0000, 3 pts)",
            "slope err_h1semi_rel vs N_lambda | method=fem domain=interval "
            "k=10.0 p=3: -2.868 (r2=1.0000, 3 pts)",
            "slope err_h1semi_rel vs p | method=fem domain=interval k=10.0 "
            "h=0.0625: -4.935 (r2=0.9777, 3 pts)",
            "slope err_h1semi_rel vs p | method=fem domain=interval k=10.0 "
            "h=0.125: -3.701 (r2=0.9777, 3 pts)",
            "slope err_h1semi_rel vs p | method=fem domain=interval k=10.0 "
            "h=0.25: -2.467 (r2=0.9777, 3 pts)",
        ],
        "infsup": [
            "slope gamma_n vs k | method=infsup domain=interval p=1: -1.010 "
            "(r2=1.0000, 4 pts)",
        ],
        "approx": [
            "slope err_1k_rel vs p | method=approx_ghp domain=square k=8.0 "
            "h=0.47140452079103173: -3.877 (r2=0.9608, 4 pts)",
            "slope err_1k_rel vs p | method=approx_pw domain=square k=8.0 "
            "h=0.47140452079103173: -4.847 (r2=0.9608, 4 pts)",
        ],
    }

    @pytest.mark.parametrize("method", sorted(WANT))
    def test_lines_are_pinned(self, method):
        rows = slope_rows()[method]
        assert cli.series_slopes(rows, cli._METHODS[method]) == \
            self.WANT[method]


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

    def test_every_element_count_meshes_that_many_elements(self, tmp_path):
        # in floating point 1 / (1/49) is 49.00000000000001, not 49
        out = tmp_path / "res.csv"
        path = write_config(tmp_path, f"method = fem\ndomain = interval\n"
                            f"k = 10\np = 1\nn_elements = 48,49,50\n"
                            f"out = {out}\n")
        assert cli.main(["run", path]) == 0
        assert [r["dofs"] for r in _read_rows(out)] == ["48", "49", "50"]

    def test_infsup_meshes_k_over_khp_elements(self, tmp_path):
        # at khp = 0.25, p = 1: 49 and 50 elements, one Dirichlet end
        out = tmp_path / "res.csv"
        path = write_config(tmp_path, f"preset = infsup_1d\nk = 12.25,12.5\n"
                            f"p = 1\nout = {out}\n")
        assert cli.main(["run", path]) == 0
        assert [r["dofs"] for r in _read_rows(out)] == ["49", "50"]

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "res.csv"
        path = write_config(tmp_path, SMALL_1D.format(out=out))
        assert cli.main(["run", path]) == 0
        first = out.read_bytes()
        assert cli.main(["run", path]) == 0
        assert out.read_bytes() == first

    def test_thread_count_does_not_change_csv(self, tmp_path, monkeypatch):
        monkeypatch.delenv("HELMHOLTZ_THREADS", raising=False)
        for template in (SMALL_1D, SMALL_UWVF):
            outputs = []
            for threads in (1, 2):
                out = tmp_path / f"res{threads}.csv"
                text = template.format(out=out) + f"threads = {threads}\n"
                path = write_config(tmp_path, text)
                assert cli.main(["run", path]) == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_exit_2(self, tmp_path, capsys, key):
        out = tmp_path / "res.csv"
        path = write_config(tmp_path,
                            SMALL_1D.format(out=out) + f"{key} = 1\n")
        assert cli.main(["run", path]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("alpha", "-1"), ("alpha", "0"), ("beta", "0"), ("beta", "nan"),
        ("delta", "0"), ("delta", "1"), ("delta", "1.5")])
    def test_flux_parameter_out_of_range_exit_2(self, tmp_path, capsys,
                                                key, value):
        flux = dict({"alpha": "0.5", "beta": "0.5", "delta": "0.5"},
                    **{key: value})
        text = SMALL_UWVF.format(out=tmp_path / "res.csv") + "".join(
            f"{name} = {v}\n" for name, v in flux.items())
        path = write_config(tmp_path, text)
        assert cli.main(["run", path]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("method, key, value", [
        ("ls", "flux", "uwvf"), ("ls", "alpha", "0.5"), ("ls", "beta", "0.5"),
        ("ls", "delta", "0.5"), ("fem", "flux", "hmp"),
        ("uwvf", "w1", "2"), ("uwvf", "w2", "2"), ("fem", "w1", "2"),
        ("ls", "khp", "9"), ("fem", "khp", "0.25"),
    ])
    def test_key_the_method_never_reads_exit_2(self, tmp_path, capsys,
                                               method, key, value):
        text = {"fem": SMALL_1D, "uwvf": SMALL_UWVF,
                "ls": SMALL_UWVF.replace("method = uwvf", "method = ls")}
        out = tmp_path / "res.csv"
        path = write_config(tmp_path, text[method].format(out=out)
                            + f"{key} = {value}\n")
        assert cli.main(["run", path]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method, key, value", [
        ("ls", "w1", "-2"), ("ls", "w1", "0"), ("ls", "w2", "-1"),
        ("ls", "svd_cutoff", "-1"), ("ls", "svd_cutoff", "0"),
        ("approx", "svd_cutoff", "-1e-12"),
        ("fem", "svd_cutoff", "1e-10"), ("approx", "strategy", "dense_lu"),
        ("infsup", "strategy", "dense_lu"), ("nodal", "p", "2"),
        ("infsup", "h", "0.1"), ("infsup", "n_elements", "8"),
        ("nodal", "h", "0"), ("nodal", "h", "-0.5"), ("nodal", "h", "1e-320"),
        ("approx", "robin_sign", "1"), ("fem", "corners", "0,0"),
        ("fem", "corners", "1"), ("approx", "h", "0.5,0.25"),
        ("fem", "h", "0"), ("fem", "h", ""), ("nodal", "n_elements", ""),
        ("fem", "k", "nan"), ("fem", "sigma", "inf"),
        ("fem", "robin_sign", "0.5"), ("nodal", "robin_sign", "-2"),
    ])
    def test_key_refused_exit_2(self, tmp_path, capsys, method, key, value):
        base = {"fem": "method = fem\ndomain = lshape\nk = 2\np = 1\n"
                       "h = 0.5\nsigma = 0.5\nlayers = 1\n",
                "nodal": "method = nodal\nk = 10\nh = 0.0625\n",
                "infsup": "method = infsup\nk = 4\np = 1\n",
                "ls": "method = ls\nk = 4\np = 3\nh = 0.5\n",
                "approx": "method = approx\nk = 4\np = 1,2\n"}[method]
        if key == "corners" and value == "0,0":
            # a corner list without grading is never read
            base = base.replace("sigma = 0.5\nlayers = 1\n", "")
        out = tmp_path / "res.csv"
        lines = [line for line in base.splitlines()
                 if not line.startswith(f"{key} =")]
        path = write_config(tmp_path, "\n".join(lines) + f"\n{key} = {value}"
                            f"\nout = {out}\n")
        assert cli.main(["run", path]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_preset_key_refused_for_overriding_method(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.build_config({"preset": "fig1_1d_pollution",
                              "method": "nodal"})
        assert err.value.key == "p"
        assert "preset 'fig1_1d_pollution'" in str(err.value)

    def test_graded_2d_fem_reads_corners(self):
        cfg = cli.build_config({"method": "fem", "domain": "lshape",
                                "k": "2", "p": "1", "h": "0.5",
                                "sigma": "0.5", "layers": "1",
                                "corners": "0,0; 1,1"})
        assert cfg["corners"] == [(0.0, 0.0), (1.0, 1.0)]

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

    def test_each_approx_row_times_itself(self, tmp_path):
        out = tmp_path / "res.csv"
        path = write_config(tmp_path, f"method = approx\nk = 4\np = 1,2,3\n"
                                      f"h = 0.5\ntiming = true\n"
                                      f"out = {out}\n")
        assert cli.main(["run", path]) == 0
        rows = _read_rows(out)
        assert len(rows) == 6
        times = [float(r["wall_ms"]) for r in rows]
        assert all(t > 0.0 for t in times)
        # one study per row: no row copies another row's time
        assert len(set(times)) == len(times)

    def test_approx_failure_flags_only_its_row(self, tmp_path, monkeypatch):
        real = cli.methods.best_approximation_1k

        def fail_at_p2(exact, space, svd_cutoff):
            if space.local.p == 2:
                raise RuntimeError("no basis")
            return real(exact, space, svd_cutoff)

        monkeypatch.setattr(cli.methods, "best_approximation_1k", fail_at_p2)
        out = tmp_path / "res.csv"
        path = write_config(tmp_path, f"method = approx\nk = 4\np = 1,2,3\n"
                                      f"h = 0.5\nout = {out}\n")
        assert cli.main(["run", path]) == 3
        rows = _read_rows(out)
        assert [(r["method"], r["p"]) for r in rows if r["error"]] == [
            ("approx_ghp", "2"), ("approx_pw", "2")]
        assert all(r["err_1k_rel"] for r in rows if not r["error"])


class TestPresets:
    def test_all_presets_expand_to_tasks(self):
        for name in cli.PRESETS:
            cfg = cli.build_config({"preset": name})
            tasks = cli.expand_runs(cfg)
            assert tasks, name

    def test_approx_trefftz_expands_to_one_task_per_row(self):
        tasks = cli.expand_runs(cli.build_config({"preset": "approx_trefftz"}))
        assert len(tasks) == 20
        assert sorted((t["kind"], t["p"]) for t in tasks) == sorted(
            (kind, p) for kind in ("pw", "ghp") for p in range(1, 11))
        assert all(t["method"] == "approx" and t["k"] == 8.0 for t in tasks)

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

    @pytest.mark.parametrize("domain", cli._DOMAINS)
    def test_dump_meshes_the_default_problem_polygon(self, capsys, domain):
        assert cli.main(["mesh-dump", domain, "0.5"]) == 0
        polygon = cli._PROBLEMS[domain, cli._exacts(domain)[0]](1.0).domain
        want = meshing.mesh_to_text(meshing.triangulate(polygon, 0.5))
        assert capsys.readouterr().out == want

    def test_bad_domain_exit_2(self, capsys):
        assert cli.main(["mesh-dump", "cube", "0.5"]) == 2
        assert "domain" in capsys.readouterr().err

    def test_bad_grade_exit_2(self, capsys):
        assert cli.main(["mesh-dump", "square", "0.5", "--grade",
                         "bogus"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("args, key", [
        ("square nan", "h"), ("interval 1e-320", "h"), ("square inf", "h"),
        ("square 0", "h"), ("lshape -0.5", "h"), ("square x", "h"),
        ("square 0.5,0.25", "h"),
        ("square 0.5 --grade nan,2", "grade"),
        ("square 0.5 --grade 0.5,2.5", "grade"),
        ("square 0.5 --grade 2,2", "grade"),
        ("square 0.5 --grade 0.5,0", "grade"),
        ("square 0.5 --grade 0.5,2,1", "grade"),
    ])
    def test_bad_value_exit_2_with_key_named(self, capsys, args, key):
        assert cli.main(["mesh-dump"] + args.split()) == 2
        captured = capsys.readouterr()
        assert f"key '{key}'" in captured.err
        assert captured.out == ""


# Small configs of every method for the thread-count invariance: k <= 4,
# p <= 3, h = 0.5, and on fem every (domain, exact) pair.
@st.composite
def small_configs(draw):
    method = draw(st.sampled_from(sorted(cli._METHODS)))
    reads = cli._METHODS[method].reads
    ks = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2,
                       unique=True))
    raw = {"method": method, "k": ",".join(map(str, ks))}
    if "p" in reads:
        ps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2,
                           unique=True))
        raw["p"] = ",".join(map(str, ps))
    if "h" in reads and method != "infsup":
        raw["h"] = "0.5"
    if method == "fem":
        raw["domain"], raw["exact"] = draw(st.sampled_from(
            sorted(cli._PROBLEMS)))
    if "robin_sign" in reads:
        raw["robin_sign"] = draw(st.sampled_from(["1", "-1"]))
    return raw


class TestThreadInvariance:
    @settings(derandomize=True, deadline=None, database=None,
              max_examples=30)
    @given(small_configs())
    def test_csv_bytes_do_not_depend_on_thread_count(self, raw):
        cfg = cli.build_config(raw)
        tasks = cli.expand_runs(cfg)
        outputs = []
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.dict(os.environ):
            os.environ.pop("HELMHOLTZ_THREADS", None)
            for threads in (1, 3):
                cfg["threads"] = threads
                cfg["out"] = os.path.join(tmp, f"res{threads}.csv")
                rows, _ = cli.run_config(cfg, echo=lambda line: None)
                # one task, one CSV row
                assert len(rows) == len(tasks)
                with open(cfg["out"], "rb") as fh:
                    outputs.append(fh.read())
        assert outputs[0] == outputs[1]


def blas_thread_counts():
    return [get() for get, _ in cli._blas_thread_controls()[0]]


class TestBlasThreads:
    def test_csv_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # on two OpenBLAS threads the high-degree GHP rows of this preset
        # take other roundoff unless the run pins BLAS to one thread
        src = os.path.dirname(os.path.dirname(helmholtz_lab.__file__))
        outputs = []
        for blas in ("2", "1"):
            out = tmp_path / f"res{blas}.csv"
            path = write_config(tmp_path, "preset = approx_trefftz\n"
                                f"p = 7,8,9,10\nout = {out}\n")
            env = dict(os.environ, PYTHONPATH=src, HELMHOLTZ_THREADS="1",
                       OPENBLAS_NUM_THREADS=blas)
            proc = subprocess.run(
                [sys.executable, "-m", "helmholtz_lab.cli", "run", path],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ""
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.fixture
    def two_blas_threads(self):
        # a count other than 1, so that restoring it is seen
        found, _ = cli._blas_thread_controls()
        before = blas_thread_counts()
        for _, put in found:
            put(2)
        yield [2] * len(found)
        for (_, put), count in zip(found, before):
            put(count)

    def test_run_config_pins_and_restores_blas_threads(self, tmp_path,
                                                       two_blas_threads):
        during = []
        execute_runs = cli.execute_runs

        def spy(cfg, tasks):
            during.append(blas_thread_counts())
            return execute_runs(cfg, tasks)

        cfg = cli.build_config(cli.parse_config_text(
            SMALL_1D.format(out=tmp_path / "res.csv")))
        with mock.patch.object(cli, "execute_runs", spy):
            cli.run_config(cfg, echo=lambda line: None)
        assert during == [[1] * len(two_blas_threads)]
        assert blas_thread_counts() == two_blas_threads

    def test_a_row_run_on_its_own_is_pinned(self, monkeypatch,
                                            two_blas_threads):
        during = []

        def record(problem, space):
            during.append(blas_thread_counts())
            raise RuntimeError("recorded")

        monkeypatch.setattr(cli.methods, "solve_fem", record)
        cfg = cli.build_config(cli.parse_config_text(
            SMALL_1D.format(out="unused.csv")))
        row = cli._run_task(cfg, cli.expand_runs(cfg)[0], cli._Shared())
        assert row["error"] == "RuntimeError: recorded"
        assert during == [[1] * len(two_blas_threads)]
        assert blas_thread_counts() == two_blas_threads

    def test_missing_library_runs_unpinned_with_a_note(self, tmp_path,
                                                       capsys, monkeypatch):
        monkeypatch.setattr(cli, "_BLAS_LIBRARIES", (
            ("numpy._core._multiarray_umath", "no_such_symbol_{}"),
            ("helmholtz_lab.no_such_module", "no_such_symbol_{}")))
        out = tmp_path / "res.csv"
        assert cli.main(["run", write_config(
            tmp_path, SMALL_1D.format(out=out))]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "not pinned" in err[0]
        assert "helmholtz_lab.no_such_module" in err[0]
        assert len(_read_rows(out)) == 6


def _readme_text():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        return fh.read()


def _readme_blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", _readme_text(), re.S)


def test_readme_samples_run(capsys):
    # the python samples run in order in one namespace, and every config
    # sample parses and builds
    python, ini = _readme_blocks("python"), _readme_blocks("ini")
    assert python and ini
    namespace = {"__name__": "readme"}
    for block in python:
        exec(compile(block, "README.md", "exec"), namespace)
    for block in ini:
        assert cli.expand_runs(cli.build_config(cli.parse_config_text(block)))
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


# -- rows that share a mesh and a space ----------------------------------------


def count_builds(monkeypatch, refs=None):
    """Count the meshes and spaces a run builds, by builder name, and
    append a weak reference to each to `refs` when given."""
    counts = collections.Counter()
    builders = ((meshing, "triangulate"), (meshing, "geometric_refine"),
                (spaces, "h1_space"), (spaces, "nodally_exact_space_1d"),
                (spaces, "trefftz_space"))
    for module, name in builders:
        def counted(*args, _build=getattr(module, name), _name=name):
            counts[_name] += 1
            built = _build(*args)
            if refs is not None:
                refs.append(weakref.ref(built))
            return built
        monkeypatch.setattr(module, name, counted)
    return counts


GRADED_FEM = {"method": "fem", "domain": "lshape", "k": "2,3", "p": "1,2",
              "h": "0.5", "sigma": "0.5", "layers": "2"}


def one_task_at_a_time(cfg):
    """The CSV text and slope lines of a config run one task at a time,
    each task building a space of its own."""
    rows = sorted((cli._run_task(cfg, task, cli._Shared())
                   for task in cli.expand_runs(cfg)), key=cli._sort_key)
    return (cli.rows_to_csv_text(rows),
            cli.series_slopes(rows, cli._METHODS[cfg["method"]]))


class TestSharedSpaces:
    def test_fem_sweep_builds_each_space_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HELMHOLTZ_THREADS", "2")
        counts = count_builds(monkeypatch)
        cfg = cli.build_config({"preset": "fig1_1d_pollution",
                                "out": str(tmp_path / "fig1.csv")})
        rows, code = cli.run_config(cfg, echo=lambda line: None)
        # 13 element counts x 4 orders, each at k = 1, 10, 100
        assert code == 0 and len(rows) == 156
        assert counts == {"triangulate": 52, "h1_space": 52}

    @pytest.mark.parametrize("raw, n_rows, builds", [
        ({"method": "nodal", "k": "2,3", "n_elements": "8,16"}, 4,
         {"triangulate": 4, "nodally_exact_space_1d": 4}),
        ({"method": "infsup", "k": "4,8", "p": "1,2"}, 4,
         {"triangulate": 4, "h1_space": 4}),
        ({"method": "ls", "k": "3,4", "p": "3", "h": "0.5"}, 2,
         {"triangulate": 2, "trefftz_space": 2}),
        ({"method": "uwvf", "k": "3,4", "p": "3", "h": "0.5"}, 2,
         {"triangulate": 2, "trefftz_space": 2}),
        ({"method": "approx", "k": "3,4", "p": "1,2", "h": "0.5"}, 8,
         {"triangulate": 8, "trefftz_space": 8}),
        (GRADED_FEM, 4,
         {"triangulate": 2, "geometric_refine": 2, "h1_space": 2}),
    ], ids=["nodal", "infsup", "ls", "uwvf", "approx", "fem_graded"])
    def test_only_fem_rows_share_builds(self, tmp_path, monkeypatch, raw,
                                        n_rows, builds):
        counts = count_builds(monkeypatch)
        cfg = cli.build_config(dict(raw, out=str(tmp_path / "res.csv")))
        rows, code = cli.run_config(cfg, echo=lambda line: None)
        assert code == 0 and len(rows) == n_rows
        assert counts == builds

    def test_graded_rows_record_their_grading(self, tmp_path):
        cfg = cli.build_config(dict(GRADED_FEM, out=str(tmp_path / "r.csv")))
        rows, _ = cli.run_config(cfg, echo=lambda line: None)
        assert [(row["sigma"], row["L"]) for row in rows] == [(0.5, 2)] * 4

    def test_failed_shared_build_flags_its_group(self, tmp_path,
                                                 monkeypatch):
        built = []
        real = spaces.h1_space

        def refuse_p2(mesh, p):
            built.append((mesh.n_elements, p))
            if p == 2:
                raise RuntimeError(f"no space on {mesh.n_elements} elements")
            return real(mesh, p)

        monkeypatch.setattr(spaces, "h1_space", refuse_p2)
        cfg = cli.build_config({"method": "fem", "domain": "interval",
                                "k": "1,2,3", "p": "1,2,3",
                                "n_elements": "4,8",
                                "out": str(tmp_path / "res.csv")})
        rows, code = cli.run_config(cfg, echo=lambda line: None)
        assert code == 3 and len(rows) == 18
        # one build per (p, n), the failed ones included
        assert sorted(built) == sorted((n, p) for n in (4, 8)
                                       for p in (1, 2, 3))
        for row in rows:
            n = round(1.0 / row["h"])
            if row["p"] == 2:
                assert row["error"] == (f"RuntimeError: no space on {n} "
                                        f"elements")
                assert row["err_h1semi_rel"] is None
            else:
                assert row["error"] == "" and row["err_h1semi_rel"] > 0.0

    @pytest.mark.parametrize("name", list(cli.PRESETS))
    def test_preset_equals_one_task_at_a_time(self, name, tmp_path,
                                              monkeypatch):
        cfg = cli.build_config({"preset": name})
        want_text, want_lines = one_task_at_a_time(cfg)
        for threads in ("1", "2"):
            monkeypatch.setenv("HELMHOLTZ_THREADS", threads)
            cfg["out"] = str(tmp_path / f"{name}_{threads}.csv")
            lines = []
            cli.run_config(cfg, echo=lines.append)
            with open(cfg["out"], "rb") as fh:
                assert fh.read() == want_text.encode()
            assert lines[1:] == want_lines

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_nothing_built_outlives_run_config(self, tmp_path, monkeypatch,
                                               threads):
        monkeypatch.setenv("HELMHOLTZ_THREADS", threads)
        refs = []
        count_builds(monkeypatch, refs)
        volume_parts = assembly._volume_parts

        def recorded(*args, **kwargs):
            parts = volume_parts(*args, **kwargs)
            refs.extend(weakref.ref(data) for data in parts[:2]
                        if data is not None)
            return parts

        monkeypatch.setattr(assembly, "_volume_parts", recorded)
        for raw in ({"preset": "fig1_1d_pollution", "n_elements": "4,8"},
                    GRADED_FEM, {"preset": "infsup_1d"}):
            cfg = cli.build_config(dict(raw, out=str(tmp_path / "res.csv")))
            cli.run_config(cfg, echo=lambda line: None)
        gc.collect()
        assert len(refs) > 20
        assert [ref() for ref in refs if ref() is not None] == []
