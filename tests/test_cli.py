import json
import subprocess
import sys

import numpy as np
import pytest

from ddispatch.cli import main
from ddispatch.design import load_family
from ddispatch.fileio import read_json, write_json
from ddispatch.loads import load_model
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
        assert model.r0 is not None

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

    def test_step_nonpositive_is_argument_error(self, workdir, tmp_path):
        assert run(["design", "--model", workdir["model"], "--kind", "ipd",
                    "--zeta-max", "0.5", "--step", "0",
                    "--out", tmp_path / "f.json"]) == 2

    def test_missing_model(self, tmp_path):
        assert run(["design", "--model", tmp_path / "no.json", "--kind", "ipd",
                    "--zeta-max", "0.5", "--out", tmp_path / "f.json"]) == 2

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

    def test_util_scale_rejects_garbage(self, workdir, tmp_path):
        for bad in ("nope", "0", "-3"):
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

    def test_zeta_required(self, workdir, tmp_path):
        assert run(["analyze", "--family", workdir["family"],
                    "--out", tmp_path / "b.csv"]) == 2


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
    ], ids=["no_family", "steps_not_integer", "top_level_list", "controller_list"])
    def test_malformed_scenario(self, workdir, tmp_path, capsys, doc):
        if isinstance(doc, dict):
            doc = dict(doc, format_version=1, payload="scenario")
            if "family" in doc:
                doc["family"] = str(workdir["family"])
        scenario = tmp_path / "s.json"
        write_json(scenario, doc)
        assert run(["simulate", "--scenario", scenario,
                    "--out", tmp_path / "x.csv"]) == 3
        assert "Traceback" not in capsys.readouterr().err

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

    def test_missing_signal_file(self, tmp_path):
        assert run(["decompose", "--signal", tmp_path / "no.csv",
                    "--lp-cutoff", "1e-4", "--hp-cutoff", "1e-3",
                    "--out", tmp_path / "o.csv"]) == 2


class TestEntryPoint:
    def test_thread_cap_env(self, monkeypatch):
        from ddispatch.cli import _apply_thread_cap

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
