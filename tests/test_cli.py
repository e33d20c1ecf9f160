import ast
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from ddispatch import cli as cli_module
from ddispatch.cli import main
from ddispatch.design import load_family
from ddispatch.errors import SingularSystem
from ddispatch.fileio import read_json, write_json
from ddispatch.loads import load_model
from ddispatch import sim as sim_module
from ddispatch.sim import SignalSet


def run(args):
    try:
        return main([str(a) for a in args])
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(6)
    spec = {
        "entries": rng.dirichlet(np.ones(4) * 2.0, size=4).tolist(),
        "util": np.linspace(0.5, 2.0, 4).tolist(),
        "gamma": 0.3,
        "units": "kW",
    }
    spec_path = root / "chain.json"
    write_json(spec_path, spec)
    model_path = root / "model.json"
    assert run(["model", "--kind", "custom", "--spec", spec_path,
                "--out", model_path]) == 0
    family_path = root / "family.json"
    assert run(["design", "--model", model_path, "--kind", "ipd",
                "--zeta-max", "0.8", "--step", "0.02", "--route", "compose",
                "--out", family_path]) == 0
    return {"root": root, "spec": spec_path, "model": model_path,
            "family": family_path}


class TestModel:
    def test_pool_defaults(self, tmp_path, capsys):
        out = tmp_path / "pool.json"
        assert run(["model", "--kind", "pool", "--out", out]) == 0
        model = load_model(out)
        assert model.dim == 96
        text = capsys.readouterr().out
        assert "states=96" in text
        assert "irreducible=True" in text

    def test_tcl_build(self, tmp_path):
        out = tmp_path / "tcl.json"
        assert run(["model", "--kind", "tcl", "--out", out,
                    "--samples", "2000", "--seed", "1"]) == 0
        model = load_model(out)
        assert model.dim == 42

    def test_samples_below_minimum(self, tmp_path, capsys):
        assert run(["model", "--kind", "tcl", "--samples", "999",
                    "--out", tmp_path / "m.json"]) == 2
        assert ("argument --samples: must be an integer of at least 1000"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("samples", ["10000001", "1000000000000"])
    def test_samples_above_maximum(self, tmp_path, capsys, samples):
        assert run(["model", "--kind", "tcl", "--samples", samples,
                    "--out", tmp_path / "m.json"]) == 2
        assert ("argument --samples: must be an integer of at least 1000 and at "
                "most 10000000" in capsys.readouterr().err)
        assert not (tmp_path / "m.json").exists()

    def test_spec_override(self, tmp_path):
        spec = tmp_path / "spec.json"
        write_json(spec, {"rungs": 24, "gamma": 0.25, "slot_minutes": 10.0})
        out = tmp_path / "pool.json"
        assert run(["model", "--kind", "pool", "--spec", spec,
                    "--out", out]) == 0
        assert load_model(out).dim == 48

    def test_non_numeric_spec_field(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        write_json(spec, {"rungs": "x"})
        assert run(["model", "--kind", "pool", "--spec", spec,
                    "--out", tmp_path / "x.json"]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_spec_not_an_object(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        write_json(spec, [{"rungs": 24}])
        assert run(["model", "--kind", "pool", "--spec", spec,
                    "--out", tmp_path / "x.json"]) == 3
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [{"rungs": True}, {"power_kw": False},
                                     {"power_kw": "1.1"}],
                             ids=["int_field_true", "float_field_false",
                                  "float_field_text"])
    def test_boolean_spec_field(self, tmp_path, capsys, doc):
        spec = tmp_path / "spec.json"
        write_json(spec, doc)
        assert run(["model", "--kind", "pool", "--spec", spec,
                    "--out", tmp_path / "x.json"]) == 3
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("kind,doc", [
        ("tcl", {"power_kw": 1.0}),
        ("tcl", {"band_low": 21.0}),
        ("tcl", {"sample_period_s": 0.0}),
        ("pool", {"slot_minutes": 0.0}),
        ("pool", {"hazard_shape": 0.0}),
        ("tcl", {"noise_var": -1.0}),
        ("tcl", {"gamma": 0.0}),
        ("tcl", {"rho": 0.0}),
        ("tcl", {"power_kw": 6.125}),
        ("tcl", {"broadcast_period_s": 25.0}),
    ], ids=["tcl_cannot_cool", "tcl_band_empty", "tcl_sample_period_zero",
            "pool_slot_minutes_zero", "pool_hazard_shape_zero", "tcl_noise_var_negative",
            "tcl_gamma_zero", "tcl_rho_zero", "tcl_band_uncrossable",
            "tcl_broadcast_period_not_whole"])
    def test_spec_field_out_of_range(self, tmp_path, capsys, kind, doc):
        spec = tmp_path / "spec.json"
        write_json(spec, doc)
        assert run(["model", "--kind", kind, "--spec", spec, "--samples", "1000",
                    "--out", tmp_path / "x.json"]) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_unknown_spec_field(self, tmp_path):
        spec = tmp_path / "spec.json"
        write_json(spec, {"rung_count": 24})
        assert run(["model", "--kind", "pool", "--spec", spec,
                    "--out", tmp_path / "x.json"]) == 3

    def test_malformed_json(self, tmp_path):
        spec = tmp_path / "broken.json"
        spec.write_text("{ this is not json")
        assert run(["model", "--kind", "pool", "--spec", spec,
                    "--out", tmp_path / "x.json"]) == 2

    def test_missing_spec_file(self, tmp_path):
        assert run(["model", "--kind", "tcl", "--spec", tmp_path / "no.json",
                    "--out", tmp_path / "x.json"]) == 2

    def test_custom_not_stochastic(self, tmp_path):
        spec = tmp_path / "bad.json"
        write_json(spec, {"entries": [[0.5, 0.6], [0.2, 0.8]],
                          "util": [0.0, 1.0]})
        assert run(["model", "--kind", "custom", "--spec", spec,
                    "--out", tmp_path / "x.json"]) == 3

    @pytest.mark.parametrize("doc", [
        {"entries": [[0.5, 0.5], [True, 0.0]], "util": [0.0, 1.0]},
        {"entries": [[0.5, 0.5], [0.5, 0.5]], "util": [0.0, "1.0"]},
    ], ids=["entries_true", "util_text"])
    def test_custom_arrays_take_numbers_only(self, tmp_path, capsys, doc):
        spec = tmp_path / "spec.json"
        write_json(spec, doc)
        assert run(["model", "--kind", "custom", "--spec", spec,
                    "--out", tmp_path / "x.json"]) == 3
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("units", [[1, 2], 7, None], ids=["list", "number", "null"])
    def test_malformed_custom_units(self, workdir, tmp_path, capsys, units):
        spec = tmp_path / "spec.json"
        write_json(spec, dict(read_json(workdir["spec"]), units=units))
        assert run(["model", "--kind", "custom", "--spec", spec,
                    "--out", tmp_path / "x.json"]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_custom_needs_spec(self, tmp_path):
        assert run(["model", "--kind", "custom",
                    "--out", tmp_path / "x.json"]) == 3

    def test_infeasible_pool(self, tmp_path):
        spec = tmp_path / "spec.json"
        write_json(spec, {"rungs": 10})
        assert run(["model", "--kind", "pool", "--spec", spec,
                    "--out", tmp_path / "x.json"]) == 4

    def test_no_command_prints_help(self, capsys):
        assert run([]) == 2
        assert "usage" in capsys.readouterr().out.lower()


class TestDesign:
    def test_family_file(self, workdir):
        family = load_family(workdir["family"])
        assert family.kind == "ipd"
        assert family.zeta_grid[0] == pytest.approx(-0.8)
        assert family.structure.sampling == "composed"

    def test_generator_kind(self, workdir, tmp_path):
        out = tmp_path / "myopic.json"
        assert run(["design", "--model", workdir["model"], "--kind", "myopic",
                    "--zeta-max", "1.0", "--step", "0.05", "--out", out]) == 0
        assert load_family(out).kind == "myopic"

    def test_non_numeric_is_argument_error(self, workdir, tmp_path, capsys):
        assert run(["design", "--model", workdir["model"], "--kind", "ipd",
                    "--zeta-max", "abc", "--out", tmp_path / "f.json"]) == 2
        assert "argument --zeta-max: 'abc' is not a number" in capsys.readouterr().err

    def test_step_nonpositive_is_argument_error(self, workdir, tmp_path):
        assert run(["design", "--model", workdir["model"], "--kind", "ipd",
                    "--zeta-max", "0.5", "--step", "0",
                    "--out", tmp_path / "f.json"]) == 2

    @pytest.mark.parametrize("flag,value", [("--zeta-max", "inf"), ("--zeta-max", "nan"),
                                            ("--step", "nan"), ("--step", "inf")])
    def test_non_finite_is_argument_error(self, workdir, tmp_path, capsys, flag,
                                          value):
        args = {"--zeta-max": "0.5", "--step": "0.05", flag: value}
        assert run(["design", "--model", workdir["model"], "--kind", "ipd",
                    *(a for item in args.items() for a in item),
                    "--out", tmp_path / "f.json"]) == 2
        assert f"argument {flag}: must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("zeta_max", ["1e5", "1e9"])
    def test_grid_above_maximum(self, workdir, tmp_path, capsys, zeta_max):
        out = tmp_path / "f.json"
        assert run(["design", "--model", workdir["model"], "--kind", "myopic",
                    "--zeta-max", zeta_max, "--step", "0.01", "--out", out]) == 3
        err = capsys.readouterr().err
        assert "points, more than 60001" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_raw_pool_ipd_reaches_wide_grids(self, tmp_path):
        # no --util-scale: the design rate solves no invariant pmf
        model, out = tmp_path / "pool.json", tmp_path / "f.json"
        assert run(["model", "--kind", "pool", "--out", model]) == 0
        assert run(["design", "--model", model, "--kind", "ipd", "--zeta-max", "3",
                    "--step", "0.05", "--out", out]) == 0
        assert load_family(out).zeta_grid[0] == pytest.approx(-3.0)

    def test_missing_model(self, tmp_path):
        assert run(["design", "--model", tmp_path / "no.json", "--kind", "ipd",
                    "--zeta-max", "0.5", "--out", tmp_path / "f.json"]) == 2

    def test_model_without_kind(self, workdir, tmp_path, capsys):
        doc = read_json(workdir["model"])
        del doc["kind"]
        write_json(tmp_path / "m.json", doc)
        assert run(["design", "--model", tmp_path / "m.json", "--kind", "ipd",
                    "--zeta-max", "0.5", "--out", tmp_path / "f.json"]) == 3
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["space", "spec", "diagnostics"])
    def test_model_field_not_an_object(self, workdir, tmp_path, capsys, key):
        doc = read_json(workdir["model"])
        doc[key] = []
        write_json(tmp_path / "m.json", doc)
        assert run(["design", "--model", tmp_path / "m.json", "--kind", "ipd",
                    "--zeta-max", "0.5", "--out", tmp_path / "f.json"]) == 3
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("format_version", 1.5),
        ("format_version", True),
        ("gamma", True),
        ("gamma", "0.3"),
        ("s0", [[0.25, 0.25, 0.25, "0.25"]] + [[0.25] * 4] * 3),
        ("gamma", 0.0),
        ("gamma", 1.5),
        ("s0", [[0.5, 0.5], [0.5, 0.5]]),
    ], ids=["format_version_fractional", "format_version_true", "gamma_true",
            "gamma_text", "s0_text", "gamma_zero", "gamma_above_one", "s0_wrong_size"])
    def test_model_field_wrong_number(self, workdir, tmp_path, capsys, key, value):
        doc = read_json(workdir["model"])
        doc[key] = value
        write_json(tmp_path / "m.json", doc)
        assert run(["design", "--model", tmp_path / "m.json", "--kind", "ipd",
                    "--zeta-max", "0.5", "--out", tmp_path / "f.json"]) == 3
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("fields,message", [
        ({"n_control": 0}, "state space dimensions must be positive"),
        ({"n_control": 2, "n_exo": 2, "exo_kernel": [[0.5, 0.5]] * 3},
         "exo_kernel shape (3, 2) != (4, 2)"),
    ], ids=["n_control_zero", "exo_kernel_rows_short"])
    def test_model_space_out_of_range(self, workdir, tmp_path, capsys, fields, message):
        # the 4-state test model's space, re-declared inconsistently
        doc = read_json(workdir["model"])
        doc["space"].update(fields)
        write_json(tmp_path / "m.json", doc)
        assert run(["design", "--model", tmp_path / "m.json", "--kind", "ipd",
                    "--zeta-max", "0.5", "--out", tmp_path / "f.json"]) == 3
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "f.json").exists()

    def test_malformed_model_units(self, workdir, tmp_path, capsys):
        doc = read_json(workdir["model"])
        doc["space"]["util_units"] = [3]
        write_json(tmp_path / "m.json", doc)
        assert run(["design", "--model", tmp_path / "m.json", "--kind", "ipd",
                    "--zeta-max", "0.5", "--util-scale", "2",
                    "--out", tmp_path / "f.json"]) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "f.json").exists()

    def test_spd_on_cycle_rejected(self, tmp_path, capsys):
        spec = tmp_path / "cycle.json"
        write_json(spec, {
            "entries": np.roll(np.eye(4), 1, axis=1).tolist(),
            "util": [0.0, 1.0, 2.0, 3.0],
        })
        model = tmp_path / "cycle_model.json"
        assert run(["model", "--kind", "custom", "--spec", spec,
                    "--out", model]) == 0
        code = run(["design", "--model", model, "--kind", "spd",
                    "--zeta-max", "0.5", "--out", tmp_path / "f.json"])
        assert code == 4
        assert "AdjointProductReducible" in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path, capsys):
        spec = tmp_path / "steep.json"
        write_json(spec, {"entries": [[0.5, 0.5], [0.5, 0.5]],
                          "util": [0.0, 800.0]})
        model = tmp_path / "steep_model.json"
        assert run(["model", "--kind", "custom", "--spec", spec,
                    "--out", model]) == 0
        code = run(["design", "--model", model, "--kind", "ipd",
                    "--zeta-max", "2.0", "--step", "0.01",
                    "--route", "direct", "--out", tmp_path / "f.json"])
        assert code == 5
        assert "last good command" in capsys.readouterr().err

    def test_util_scale_numeric_is_units_change(self, tmp_path, capsys):
        spec = tmp_path / "steep.json"
        write_json(spec, {"entries": [[0.5, 0.5], [0.5, 0.5]],
                          "util": [0.0, 800.0]})
        model = tmp_path / "steep_model.json"
        assert run(["model", "--kind", "custom", "--spec", spec,
                    "--out", model]) == 0
        scaled = tmp_path / "scaled.json"
        assert run(["design", "--model", model, "--kind", "ipd",
                    "--zeta-max", "1.6", "--step", "0.01", "--route", "direct",
                    "--util-scale", "800", "--out", scaled]) == 0
        assert "utility scaled by 1/800" in capsys.readouterr().out
        raw = tmp_path / "raw.json"
        assert run(["design", "--model", model, "--kind", "ipd",
                    "--zeta-max", "0.002", "--step", "0.001",
                    "--route", "direct", "--out", raw]) == 0
        fs, fr = load_family(scaled), load_family(raw)
        # same family in rescaled command units, output scale included
        assert 800.0 * fs.ubar_at(0.8) == pytest.approx(fr.ubar_at(0.001),
                                                        rel=1e-6)

    def test_util_scale_auto_reaches_wide_grids(self, workdir, tmp_path):
        out = tmp_path / "wide.json"
        assert run(["design", "--model", workdir["model"], "--kind", "ipd",
                    "--zeta-max", "3.0", "--step", "0.01",
                    "--util-scale", "auto", "--out", out]) == 0
        assert load_family(out).zeta_grid[-1] == pytest.approx(3.0)

    def test_failing_grid_point_writes_nothing(self, workdir, tmp_path, capsys,
                                               monkeypatch):
        design = importlib.import_module("ddispatch.design")
        checked = design._checked_invariant_raw

        def failing(p, where=""):
            if where == " at command 0.4":
                raise SingularSystem(f"injected failure{where}")
            return checked(p, where)

        monkeypatch.setattr(design, "_checked_invariant_raw", failing)
        out = tmp_path / "f.json"
        assert run(["design", "--model", workdir["model"], "--kind", "ipd",
                    "--zeta-max", "0.8", "--step", "0.02", "--out", out]) == 4
        assert "injected failure at command 0.4" in capsys.readouterr().err
        assert not out.exists()

    def test_util_scale_rejects_garbage(self, workdir, tmp_path):
        for bad in ("nope", "0", "-3", "inf", "nan"):
            assert run(["design", "--model", workdir["model"], "--kind",
                        "ipd", "--zeta-max", "0.5", "--util-scale", bad,
                        "--out", tmp_path / "f.json"]) == 3


class TestAnalyze:
    def test_bode_and_passivity(self, workdir, tmp_path):
        out = tmp_path / "bode.csv"
        assert run(["analyze", "--family", workdir["family"],
                    "--zeta", "0", "0.4", "--theta-count", "64",
                    "--out", out]) == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header[0] == "theta_rad"
        assert any(c.startswith("z0_") for c in header)
        report = read_json(str(out) + ".passivity.json")
        assert report["payload"] == "passivity"
        assert len(report["results"]) == 2

    def test_zeta_outside_grid(self, workdir, tmp_path):
        assert run(["analyze", "--family", workdir["family"], "--zeta", "5",
                    "--out", tmp_path / "b.csv"]) == 4

    def test_every_command_checked_before_the_first_sweep(self, workdir, tmp_path,
                                                          capsys, monkeypatch):
        swept = []
        monkeypatch.setattr(cli_module, "positive_real_check",
                            lambda model, **kw: swept.append(model.zeta))
        assert run(["analyze", "--family", workdir["family"], "--zeta", "0", "0.5", "5",
                    "--out", tmp_path / "b.csv"]) == 4
        assert "OutOfGrid: command 5 outside" in capsys.readouterr().err
        assert swept == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("period", ["inf", "nan"])
    def test_sample_period_must_be_finite(self, workdir, tmp_path, period):
        assert run(["analyze", "--family", workdir["family"], "--zeta", "0",
                    "--sample-period", period, "--out", tmp_path / "b.csv"]) == 2

    @pytest.mark.parametrize("zetas", [["nan"], ["inf"], ["0", "inf"]],
                             ids=["nan", "inf", "0_inf"])
    def test_zeta_must_be_finite(self, workdir, tmp_path, capsys, zetas):
        assert run(["analyze", "--family", workdir["family"], "--zeta", *zetas,
                    "--out", tmp_path / "b.csv"]) == 2
        assert "argument --zeta: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "1"])
    def test_theta_count_below_minimum(self, workdir, tmp_path, capsys, count):
        assert run(["analyze", "--family", workdir["family"], "--zeta", "0",
                    "--theta-count", count, "--out", tmp_path / "b.csv"]) == 2
        err = capsys.readouterr().err
        assert "argument --theta-count: must be an integer of at least 2" in err
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("count", ["500001", "1000000000000"])
    def test_theta_count_above_maximum(self, workdir, tmp_path, capsys, count):
        assert run(["analyze", "--family", workdir["family"], "--zeta", "0",
                    "--theta-count", count, "--out", tmp_path / "b.csv"]) == 2
        err = capsys.readouterr().err
        assert ("argument --theta-count: must be an integer of at least 2 and at "
                "most 500000" in err)
        assert not (tmp_path / "b.csv").exists()

    def test_angles_above_run_maximum(self, workdir, tmp_path, capsys, monkeypatch):
        # commands x --theta-count is bounded as a whole, before the family is read
        read = []
        monkeypatch.setattr(cli_module, "load_family", lambda path: read.append(path))
        assert run(["analyze", "--family", workdir["family"], "--zeta", "0", "0.1", "0.2",
                    "0.3", "--theta-count", "500000", "--out", tmp_path / "b.csv"]) == 2
        assert ("4 commands of 500000 angles hold 2000000 angles, more than 1500000"
                in capsys.readouterr().err)
        assert read == []
        assert not (tmp_path / "b.csv").exists()
        monkeypatch.undo()
        monkeypatch.setattr(cli_module, "MAX_ANALYZE_ANGLES", 64)
        for zetas, code in ((["0", "0.1"], 0), (["0", "0.1", "0.2"], 2)):
            assert run(["analyze", "--family", workdir["family"], "--zeta", *zetas,
                        "--theta-count", "32", "--out", tmp_path / "b.csv"]) == code

    def test_zeta_required(self, workdir, tmp_path):
        assert run(["analyze", "--family", workdir["family"],
                    "--out", tmp_path / "b.csv"]) == 2

    @pytest.mark.parametrize("key,value", [
        ("kind", None),
        ("format_version", "x"),
        ("zeta_grid", "abc"),
        ("space", []),
        ("structure", []),
        ("format_version", 1.5),
        ("format_version", True),
        ("format_version", "1"),
        ("model_hash", [1]),
        ("synthesis", [["a", 1]]),
        # the working family has 81 grid points, -0.8 to 0.8, and 4 states
        ("zeta_grid", [-0.8 + 0.02 * i for i in range(80)] + [0.9]),
        ("zeta_grid", [0.8 - 0.02 * i for i in range(81)]),
        ("h_grid", [[0.0] * 4] * 80),
        ("base", [[0.5, 0.5], [0.5, 0.5]]),
    ], ids=["no_kind", "format_version_text", "zeta_grid_text", "space_list",
            "structure_list", "format_version_fractional", "format_version_true",
            "format_version_number_text", "model_hash_list", "synthesis_list",
            "zeta_grid_not_uniform", "zeta_grid_decreasing", "h_grid_row_short",
            "base_wrong_size"])
    def test_malformed_family(self, workdir, tmp_path, capsys, key, value):
        doc = read_json(workdir["family"])
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        write_json(tmp_path / "f.json", doc)
        assert run(["analyze", "--family", tmp_path / "f.json", "--zeta", "0",
                    "--out", tmp_path / "b.csv"]) == 3
        assert "Traceback" not in capsys.readouterr().err


    @pytest.mark.parametrize("section,key,value", [
        ("space", "anchor", 1.5),
        ("space", "anchor", True),
        ("space", "n_control", 4.5),
        ("structure", "gamma", True),
        ("h_grid", 1, [0.0, True, 0.0, 0.0]),
        ("zeta_grid", 0, "-0.8"),
        ("zeta_grid", -1, float("nan")),
        ("space", "util", [0.5, 1.0, 1.5, "2.0"]),
        ("space", "util_units", [3]),
    ], ids=["anchor_fractional", "anchor_true", "n_control_fractional",
            "gamma_true",
            "h_grid_true", "zeta_grid_entry_text", "zeta_grid_last_nan",
            "util_entry_text", "util_units_list"])
    def test_malformed_nested_family_field(self, workdir, tmp_path, capsys,
                                           section, key, value):
        doc = read_json(workdir["family"])
        doc[section][key] = value
        write_json(tmp_path / "f.json", doc)
        assert run(["analyze", "--family", tmp_path / "f.json", "--zeta", "0",
                    "--out", tmp_path / "b.csv"]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_reducible_base(self, workdir, tmp_path, capsys):
        write_json(tmp_path / "f.json",
                   dict(read_json(workdir["family"]), base=np.eye(4).tolist()))
        assert run(["analyze", "--family", tmp_path / "f.json", "--zeta", "0",
                    "--out", tmp_path / "b.csv"]) == 4
        assert "NotIrreducible" in capsys.readouterr().err

    def test_one_point_family(self, workdir, tmp_path):
        # a command within the snap slack of the one grid point reads that point
        doc = read_json(workdir["family"])
        write_json(tmp_path / "f.json", dict(doc, zeta_grid=[0.25], h_grid=doc["h_grid"][:1]))
        assert run(["analyze", "--family", tmp_path / "f.json", "--zeta", "0.2500001",
                    "--theta-count", "16", "--out", tmp_path / "b.csv"]) == 0

    @pytest.mark.parametrize("row", [0, -1], ids=["first_row", "last_row"])
    def test_grid_point_checked_where_used(self, workdir, tmp_path, capsys, row):
        doc = read_json(workdir["family"])
        bad = doc["zeta_grid"][row]
        doc["h_grid"][row] = [0.0, 800.0, 0.0, 0.0]  # the tilt underflows there
        family = tmp_path / "f.json"
        write_json(family, doc)
        load_family(family)
        assert run(["analyze", "--family", family, "--zeta", "0",
                    "--theta-count", "16", "--out", tmp_path / "b.csv"]) == 0
        capsys.readouterr()
        assert run(["analyze", "--family", family, "--zeta", f"{bad:g}",
                    "--theta-count", "16", "--out", tmp_path / "b.csv"]) == 4
        assert "underflowed" in capsys.readouterr().err

    def test_passivity_report_has_residual(self, workdir, tmp_path):
        out = tmp_path / "bode.csv"
        assert run(["analyze", "--family", workdir["family"],
                    "--zeta", "0", "0.4", "--theta-count", "300",
                    "--out", out]) == 0
        for entry in read_json(str(out) + ".passivity.json")["results"]:
            assert set(entry) == {"zeta", "realness_margin", "max_residual",
                                  "sigma2", "positive_real"}
            assert 0.0 <= entry["max_residual"] <= 1e-8


class TestSimulate:
    def test_constant_scenario(self, workdir, tmp_path):
        scenario = workdir["root"] / "const.json"
        write_json(scenario, {
            "format_version": 1, "payload": "scenario", "mode": "constant",
            "family": "family.json", "zeta": 0.3, "steps": 150,
        })
        out = tmp_path / "signals.csv"
        assert run(["simulate", "--scenario", scenario, "--out", out]) == 0
        metrics = read_json(str(out) + ".metrics.json")["metrics"]
        assert metrics["final_gap"] < 1e-6
        signals = SignalSet.from_csv(out.read_text())
        assert signals.length == 150

    def test_track_scenario(self, workdir, tmp_path):
        scenario = workdir["root"] / "track.json"
        write_json(scenario, {
            "format_version": 1, "payload": "scenario", "mode": "track",
            "family": "family.json", "steps": 200, "seed": 2,
            "reference": {"kind": "square", "amplitude": 0.04,
                          "period_steps": 80},
            "controller": {"kind": "pi"},
        })
        out = tmp_path / "track.csv"
        assert run(["simulate", "--scenario", scenario, "--out", out,
                    "--metrics", tmp_path / "m.json"]) == 0
        metrics = read_json(tmp_path / "m.json")["metrics"]
        assert "rms_error" in metrics

    def test_track_without_antiwindup(self, workdir, tmp_path):
        # a reference out of reach holds the command at its limit; without
        # anti-windup the integrator keeps it there after the reference drops
        zetas = {}
        for anti_windup in (True, False):
            scenario = workdir["root"] / f"windup_{anti_windup}.json"
            write_json(scenario, {
                "format_version": 1, "payload": "scenario", "mode": "track",
                "family": "family.json", "steps": 120,
                "reference": {"kind": "square", "amplitude": 2.0, "period_steps": 120},
                "controller": {"kind": "pi", "anti_windup": anti_windup},
            })
            out = tmp_path / f"{anti_windup}.csv"
            assert run(["simulate", "--scenario", scenario, "--out", out]) == 0
            zetas[anti_windup] = SignalSet.from_csv(out.read_text())["zeta"]
        limit = zetas[True].max()
        assert (zetas[False][60:] == limit).sum() > (zetas[True][60:] == limit).sum()

    def test_sine_reference_column(self, workdir, tmp_path):
        scenario = workdir["root"] / "sine.json"
        write_json(scenario, {
            "format_version": 1, "payload": "scenario", "mode": "track",
            "family": "family.json", "steps": 120,
            "reference": {"kind": "sine", "amplitude": 0.03, "period_steps": 50},
        })
        out = tmp_path / "run.csv"
        assert run(["simulate", "--scenario", scenario, "--out", out]) == 0
        ubar0 = load_family(workdir["family"]).ubar_at(0.0)
        expected = ubar0 * (1.0 + 0.03 * np.sin(2.0 * np.pi * np.arange(120) / 50.0))
        assert np.array_equal(SignalSet.from_csv(out.read_text())["reference"], expected)

    def test_fleet_reproducible(self, workdir, tmp_path):
        scenario = workdir["root"] / "fleet.json"
        write_json(scenario, {
            "format_version": 1, "payload": "scenario", "mode": "constant",
            "family": "family.json", "plant": "fleet", "n": 60,
            "zeta": 0.2, "steps": 80, "seed": 7,
        })
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["simulate", "--scenario", scenario, "--out", a]) == 0
        assert run(["simulate", "--scenario", scenario, "--out", b]) == 0
        assert a.read_text() == b.read_text()

    def test_trajectory_scenario(self, tmp_path):
        scenario = tmp_path / "traj.json"
        write_json(scenario, {
            "format_version": 1, "payload": "scenario", "mode": "trajectory",
            "steps": 1500, "tcl": {"noise_var": 0.0},
        })
        out = tmp_path / "traj.csv"
        assert run(["simulate", "--scenario", scenario, "--out", out]) == 0
        metrics = read_json(str(out) + ".metrics.json")["metrics"]
        assert set(metrics) >= {"epochs", "overrides", "override_rate"}
        assert out.read_text().startswith("time_s,theta_c,mode,zeta")

    def test_bad_payload(self, tmp_path):
        scenario = tmp_path / "bad.json"
        write_json(scenario, {"payload": "nope"})
        assert run(["simulate", "--scenario", scenario,
                    "--out", tmp_path / "x.csv"]) == 3

    @pytest.mark.parametrize("doc", [
        {"mode": "constant"},
        {"mode": "constant", "family": None, "steps": "abc"},
        [{"payload": "scenario"}],
        {"mode": "track", "family": None, "controller": [1]},
        {"mode": "constant", "family": None, "steps": -5},
        {"mode": "track", "family": None, "steps": 20, "settle": 20},
        {"mode": "track", "family": None, "steps": 20, "settle": -3},
        {"mode": "constant", "family": None, "plant": "fleet", "seed": -1},
        {"mode": "constant", "family": None, "plant": "fleet", "seed": 1.5},
        {"mode": "constant", "family": None, "zeta": "nan"},
        {"mode": "track", "family": None,
         "reference": {"kind": "sine", "amplitude": "inf"}},
        {"mode": "track", "family": None,
         "reference": {"kind": "sine", "amplitude": 0.01, "period_steps": 0}},
        {"mode": "track", "family": None, "controller": {"anti_windup": "no"}},
        {"mode": "constant", "family": None, "plant": "counts"},
        {"mode": "constant", "family": None, "steps": True},
        {"mode": "constant", "family": None, "zeta": False},
        {"mode": "constant", "family": None, "steps": True, "zeta": False},
        {"mode": "constant", "family": None, "period_s": True},
        {"mode": "constant", "family": None, "steps": "50"},
        {"mode": "constant", "family": None, "format_version": "1"},
        {"mode": "constant", "family": None, "period_s": "300"},
        {"mode": "track", "family": None, "controller": {"kp": True}},
        {"mode": "track", "family": None, "controller": {"ki": False}},
        {"mode": "track", "family": None, "controller": {"zeta_limit": True}},
        {"payload": "scenario", "mode": "constant", "family": 5},
        {"payload": "scenario", "mode": "constant", "family": None},
        {"payload": "scenario", "mode": "constant", "family": ["f.json"]},
        {"mode": "track", "family": None, "steps": 3000, "period_s": 0},
        {"mode": "track", "family": None, "steps": 3000, "period_s": -5},
        {"mode": "track", "family": None, "steps": 10**6 + 1},
        {"mode": "constant", "family": None, "steps": 10**12},
        {"mode": "trajectory", "steps": 10**12},
        {"mode": "constant", "family": None, "plant": "fleet", "n": 0},
        {"mode": "constant", "family": None, "plant": "fleet", "n": 10**7 + 1},
        {"mode": "track", "family": None, "plant": "fleet", "n": 10**12},
        {"mode": "track", "family": None, "plant": "fleet", "n": 50, "steps": 30,
         "period_s": -5},
        {"mode": "track", "family": None, "reference": {"kind": "triangle"}},
        {"mode": "trajectory", "family": None, "steps": 100},
    ], ids=["no_family", "steps_not_integer", "top_level_list", "controller_list",
            "steps_negative", "settle_not_below_steps", "settle_negative",
            "seed_negative", "seed_fractional", "zeta_nan", "amplitude_inf",
            "period_steps_zero", "anti_windup_text", "plant_unknown",
            "steps_true", "zeta_false", "steps_true_zeta_false", "period_s_true",
            "steps_text", "format_version_text", "period_s_text", "kp_true",
            "ki_false", "zeta_limit_true", "family_number", "family_null",
            "family_list", "period_s_zero", "period_s_negative",
            "steps_above_maximum", "steps_huge", "trajectory_steps_huge",
            "fleet_n_zero", "fleet_n_above_maximum", "fleet_n_huge",
            "fleet_period_s_negative", "reference_kind_unknown",
            "trajectory_family_off_lattice"])
    def test_malformed_scenario(self, workdir, tmp_path, capsys, monkeypatch, doc):
        # a document that names its payload is written as it is; in the
        # others a "family" key names the working family.  Every field is
        # checked before the plant takes a step.
        if isinstance(doc, dict) and "payload" not in doc:
            doc = dict({"format_version": 1, "payload": "scenario"}, **doc)
            if "family" in doc:
                doc["family"] = str(workdir["family"])
        scenario = tmp_path / "s.json"
        write_json(scenario, doc)
        steps = []
        for name in ("meanfield_step", "fleet_step"):
            monkeypatch.setattr(sim_module, name, lambda *args: steps.append(1))
        assert run(["simulate", "--scenario", scenario,
                    "--out", tmp_path / "x.csv"]) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert steps == []

    def test_missing_family(self, tmp_path):
        scenario = tmp_path / "s.json"
        write_json(scenario, {"format_version": 1, "payload": "scenario",
                              "mode": "constant", "family": "absent.json"})
        assert run(["simulate", "--scenario", scenario,
                    "--out", tmp_path / "x.csv"]) == 2


class TestDecompose:
    def make_signal(self, path):
        rng = np.random.default_rng(3)
        values = 4.0 + 0.5 * np.sin(np.arange(3000) / 200.0) \
            + 0.1 * rng.normal(size=3000)
        SignalSet(period_s=60.0, samples={"g_r": values}).to_csv(path)
        return values

    def test_decompose_file(self, tmp_path):
        sig = tmp_path / "sig.csv"
        values = self.make_signal(sig)
        out = tmp_path / "bands.csv"
        assert run(["decompose", "--signal", sig, "--lp-cutoff", "1e-4",
                    "--hp-cutoff", "1e-3", "--out", out]) == 0
        bands = SignalSet.from_csv(out.read_text())
        assert list(bands.samples) == ["g_r", "g_lp", "g_mp", "g_hp"]
        total = bands["g_lp"] + bands["g_mp"] + bands["g_hp"]
        assert np.allclose(total, values, atol=1e-10)

    def test_inverted_cutoffs(self, tmp_path):
        sig = tmp_path / "sig.csv"
        self.make_signal(sig)
        assert run(["decompose", "--signal", sig, "--lp-cutoff", "1e-3",
                    "--hp-cutoff", "1e-4", "--out", tmp_path / "o.csv"]) == 3

    def test_unknown_column(self, tmp_path):
        sig = tmp_path / "sig.csv"
        self.make_signal(sig)
        assert run(["decompose", "--signal", sig, "--column", "wind",
                    "--lp-cutoff", "1e-4", "--hp-cutoff", "1e-3",
                    "--out", tmp_path / "o.csv"]) == 3

    @pytest.mark.parametrize("text", [
        "# period_s=60.0\nt_s,g\n0,1.0\n60,abc\n",
        "# period_s=60.0\nt_s,g\n0,1.0\n60,1.0,2.0\n",
        "# period_s=60.0\nt_s,g\n0,1.0\n60\n",
        "# period_s=abc\nt_s,g\n0,1.0\n60,2.0\n",
        "# period_s=60.0\nt_s,g\n0,1.0\n60,inf\n120,1.0\n",
        "# period_s=nan\nt_s,g\n0,1.0\n60,2.0\n",
        "t_s,g\n0,1.0\n",
    ], ids=["cell_not_numeric", "row_too_wide", "row_too_narrow",
            "period_not_numeric", "sample_not_finite", "period_not_finite",
            "period_not_inferable"])
    def test_malformed_signal(self, tmp_path, capsys, text):
        sig = tmp_path / "sig.csv"
        sig.write_text(text)
        assert run(["decompose", "--signal", sig, "--lp-cutoff", "1e-4",
                    "--hp-cutoff", "1e-3", "--out", tmp_path / "o.csv"]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_unsupported_signal_version(self, tmp_path, capsys):
        sig = tmp_path / "sig.csv"
        self.make_signal(sig)
        text = sig.read_text()
        assert text.startswith("# format_version=1\n")
        sig.write_text(text.replace("format_version=1", "format_version=99", 1))
        out = tmp_path / "o.csv"
        assert run(["decompose", "--signal", sig, "--lp-cutoff", "1e-4",
                    "--hp-cutoff", "1e-3", "--out", out]) == 3
        assert "unsupported format version 99" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_signal_file(self, tmp_path):
        assert run(["decompose", "--signal", tmp_path / "no.csv",
                    "--lp-cutoff", "1e-4", "--hp-cutoff", "1e-3",
                    "--out", tmp_path / "o.csv"]) == 2


class TestDeterminism:
    def test_chain_writes_identical_bytes(self, tmp_path, monkeypatch):
        # two runs of one chain in two directories write the same files
        def chain(work):
            work.mkdir()
            monkeypatch.chdir(work)
            assert run(["model", "--kind", "pool", "--out", "model.json"]) == 0
            assert run(["design", "--model", "model.json", "--kind", "ipd",
                        "--zeta-max", "0.2", "--step", "0.05", "--out", "family.json"]) == 0
            assert run(["analyze", "--family", "family.json", "--zeta", "-0.1", "0", "0.1",
                        "--theta-count", "16", "--out", "bode.csv"]) == 0
            for plant in ("meanfield", "fleet"):
                write_json(work / f"{plant}.json", {
                    "format_version": 1, "payload": "scenario", "mode": "track",
                    "family": "family.json", "steps": 50, "seed": 4, "plant": plant,
                    "n": 500, "reference": {"kind": "sine", "amplitude": 0.03,
                                            "period_steps": 20},
                })
                assert run(["simulate", "--scenario", f"{plant}.json",
                            "--out", f"{plant}.csv"]) == 0
            return {p.name: p.read_bytes() for p in work.iterdir()}

        first, second = chain(tmp_path / "a"), chain(tmp_path / "b")
        assert set(first) == {"model.json", "family.json", "bode.csv",
                              "bode.csv.passivity.json", "meanfield.json", "fleet.json",
                              "meanfield.csv", "meanfield.csv.metrics.json",
                              "fleet.csv", "fleet.csv.metrics.json"}
        assert first == second


class TestEntryPoint:
    def test_thread_cap_env(self, monkeypatch):
        from ddispatch import _apply_thread_cap

        monkeypatch.setenv("DDISPATCH_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        _apply_thread_cap()
        import os

        assert os.environ["OMP_NUM_THREADS"] == "2"

    def test_module_invocation_help(self):
        proc = subprocess.run([sys.executable, "-m", "ddispatch", "--help"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "decompose" in proc.stdout

    def test_thread_cap_applies_on_import(self):
        # numpy reads the BLAS variables when it loads, so the package must
        # set them before it imports numpy, not when main() runs
        blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas}
        env["DDISPATCH_THREADS"] = "3"
        code = ("import os, sys; import ddispatch; "
                "print(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["3", "True"]

    def test_import_graph_has_no_scipy(self):
        code = "\n".join([
            "import runpy, sys",
            "import ddispatch",
            "sys.argv = ['ddispatch', '--help']",
            "try:",
            "    runpy.run_module('ddispatch', run_name='__main__')",
            "except SystemExit as exc:",
            "    assert exc.code == 0, exc.code",
            "print('loaded:', [m for m in sys.modules",
            "                  if m == 'scipy' or m.startswith('scipy.')])",
        ])
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "decompose" in proc.stdout
        assert proc.stdout.splitlines()[-1] == "loaded: []"

    def test_cli_import_loads_no_hashlib(self):
        # only the stages that print a digest hash, so hashlib loads when
        # a digest is taken, not with the package
        code = "\n".join([
            "import sys",
            "import numpy",
            "before = set(sys.modules)",
            "import ddispatch.cli",
            "print(sorted(m for m in set(sys.modules) - before if 'hashlib' in m))",
            "from ddispatch.fileio import model_digest",
            "model_digest({})",
            "print('hashlib' in sys.modules)",
        ])
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "True"]

    def test_process_entry_freezes_the_import_heap(self):
        # ``python -m ddispatch`` runs cli.run, which freezes what the
        # imports made, and still ends in SystemExit with main's code
        code = "\n".join([
            "import gc, runpy, sys",
            "sys.argv = ['ddispatch', '--help']",
            "try:",
            "    runpy.run_module('ddispatch', run_name='__main__')",
            "except SystemExit as exc:",
            "    assert exc.code == 0, exc.code",
            "print('frozen:', gc.get_freeze_count() > 0)",
        ])
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "frozen: True"

    def test_main_freezes_nothing(self, tmp_path):
        # in-process callers keep collecting their garbage
        import gc

        before = gc.get_freeze_count()
        assert run(["model", "--kind", "pool", "--out", tmp_path / "m.json"]) == 0
        assert gc.get_freeze_count() == before

    def test_console_script_is_the_module_entry(self):
        # the installed ``ddispatch`` script and ``python -m ddispatch``
        # call the same function
        tomllib = pytest.importorskip("tomllib")
        package = pathlib.Path(importlib.import_module("ddispatch").__file__).parent
        with open(package.parent.parent / "pyproject.toml", "rb") as f:
            script = tomllib.load(f)["project"]["scripts"]["ddispatch"]
        tree = ast.parse((package / "__main__.py").read_text())
        source = {a.name: ("ddispatch." if node.level else "") + node.module
                  for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for a in node.names}
        called = [node.args[0].func.id for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and ast.unparse(node.func) == "sys.exit"]
        assert [f"{source[name]}:{name}" for name in called] == [script]

    def test_cli_module_runs_once(self):
        # importing the package leaves the CLI out, so ``python -m
        # ddispatch.cli`` runs one copy of the module and runpy stays quiet
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                               "ddispatch.cli", "--help"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "decompose" in proc.stdout
        proc = subprocess.run([sys.executable, "-c", "import sys, ddispatch; "
                               "print('ddispatch.cli' in sys.modules)"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    def test_only_the_module_entry_imports_cli(self):
        # the CLI sits on top of the package: no module but __main__ imports it
        package = pathlib.Path(importlib.import_module("ddispatch").__file__).parent
        found = []
        for path in sorted(package.glob("*.py")):
            if path.name == "__main__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = {a.name for a in node.names}
                elif isinstance(node, ast.ImportFrom):
                    module = "." * node.level + (node.module or "")
                    prefix = module if module.endswith(".") else module + "."
                    names = {module} | {prefix + a.name for a in node.names}
                else:
                    continue
                if names & {"ddispatch.cli", ".cli"}:
                    found.append(f"{path.name}:{node.lineno} imports cli")
        assert found == []

    def test_package_names_are_the_layers_all(self):
        # each layer's __all__ is the one list of its public names, and the
        # package republishes exactly those and the error classes
        # (``ddispatch.linearize`` is the function, so modules come by path)
        import ddispatch

        exported = {}
        for module in ("markov", "design", "linearize", "loads", "sim"):
            layer = importlib.import_module(f"ddispatch.{module}")
            assert isinstance(vars(layer).get("__all__"), list), module
            for name in layer.__all__:
                exported[name] = getattr(layer, name)
        for name, value in vars(importlib.import_module("ddispatch.errors")).items():
            if not name.startswith("_"):
                assert isinstance(value, type) and issubclass(value, Exception), name
                exported[name] = value
        public = {name: value for name, value in vars(ddispatch).items()
                  if not name.startswith("_")}
        others = {name for name, value in public.items()
                  if name not in exported and not (
                      isinstance(value, type(ddispatch))
                      and value.__name__ == f"ddispatch.{name}")}
        assert others == {"os"}
        assert {name for name in exported if public.get(name) is not exported[name]} == set()

    def test_every_public_name_has_a_reader(self):
        # a layer's public function, class, method or property is read by
        # package code (its own definition and __all__ entry do not count),
        # or named by the README, the benchmark or an acceptance criterion
        package = pathlib.Path(importlib.import_module("ddispatch").__file__).parent
        root = package.parent.parent
        read = set()
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
        named = "\n".join(path.read_text() for path in [
            root / "README.md", root / "tests" / "test_acceptance.py",
            *sorted((root / "bench").glob("*.py"))])
        unread = []
        for module in ("markov", "design", "linearize", "loads", "sim"):
            layer = importlib.import_module(f"ddispatch.{module}")
            names = list(layer.__all__)
            for value in map(vars(layer).get, layer.__all__):
                if isinstance(value, type):
                    names += [name for name, member in vars(value).items()
                              if not name.startswith("_") and isinstance(
                                  member, (property, classmethod, staticmethod,
                                           type(run)))]
            unread += [f"{module}.{name}" for name in dict.fromkeys(names)
                       if name not in read and not re.search(rf"\b{name}\b", named)]
        assert unread == []

    def test_no_hidden_module_state(self):
        # no module rebinds its globals at run time, and only the package
        # init touches the environment (the thread cap, before numpy loads)
        package = pathlib.Path(importlib.import_module("ddispatch").__file__).parent
        found = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Global):
                    found.append(f"{path.name}:{node.lineno} global {', '.join(node.names)}")
                elif path.name != "__init__.py" and (
                        isinstance(node, ast.Attribute) and ast.unparse(node) == "os.environ"
                        or isinstance(node, ast.ImportFrom) and node.module == "os"
                        and "environ" in {a.name for a in node.names}):
                    found.append(f"{path.name}:{node.lineno} os.environ")
        assert found == []

    def test_every_import_is_used(self):
        # a name a module imports is read in it or republished by its __all__
        package = pathlib.Path(importlib.import_module("ddispatch").__file__).parent
        found = []
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text())
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update({a.asname or a.name.partition(".")[0]: node.lineno
                                     for a in node.names})
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    imported.update({a.asname or a.name: node.lineno
                                     for a in node.names if a.name != "*"})
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in tree.body:
                if (isinstance(node, ast.Assign)
                        and [ast.unparse(t) for t in node.targets] == ["__all__"]):
                    used.update(ast.literal_eval(node.value))
            found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                      if name not in used]
        assert found == []

    def test_only_fileio_writes_or_hashes(self):
        # the on-disk formats live in one module: no other module writes a
        # file, encodes JSON or hashes a document
        package = pathlib.Path(importlib.import_module("ddispatch").__file__).parent
        found = []
        for path in sorted(package.glob("*.py")):
            if path.name == "fileio.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = {a.name for a in node.names} | {getattr(node, "module", None)}
                    if names & {"hashlib", "atomic_write_text"}:
                        found.append(f"{path.name}:{node.lineno} imports {names - {None}}")
                elif isinstance(node, ast.Call):
                    call = ast.unparse(node.func)
                    modes = node.args[1:2] + [k.value for k in node.keywords
                                              if k.arg == "mode"]
                    if call in ("atomic_write_text", "json.dump", "json.dumps") \
                            or call.startswith("hashlib.") \
                            or call.endswith(("write_text", "write_bytes")) \
                            or call.endswith("open") and any(
                                not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                                for m in modes):
                        found.append(f"{path.name}:{node.lineno} calls {call}")
        assert found == []
