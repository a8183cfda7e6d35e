"""End-to-end driver checks: every scenario runs from a config file,
reruns are byte-identical, and every failure mode exits with the right
code and a usable diagnostic."""

import json
import math
import os
import shutil
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
import yaml

from trajlab import cli, interference
from trajlab.interference import NBodySystem
from trajlab.scenarios import SCENARIOS, OutputBundle, _fmt

FAST_PARAMS = {
    "bernoulli": {"n_traj": 200, "n_steps": 100},
    "scattering": {"n_theta": 9, "n_s": 7},
    "flipper": {"n_centers": 27, "n_traj": 30, "n_encounters": 5,
                "n_bins": 4},
    "decay": {"n_life_samples": 2000, "n_profile": 50},
    "stern-gerlach": {"n_table": 11},
    "epr": {"n_pairs": 2000, "scan_points": 9},
    "two-slit": {"bins": 64},
    "bigbang": {"t_max": 4096.0, "tolerance": 0.00001},
}


def write_config(path, scenario, parameters=None, seed=None, out=None,
                 extra_top=None):
    lines = [f"scenario: {scenario}"]
    if seed is not None:
        lines.append(f"seed: {seed}")
    if out is not None:
        lines.append(f"out: {out}")
    if extra_top:
        lines.extend(extra_top)
    params = parameters if parameters is not None else {}
    if params:
        lines.append("parameters:")
        for k, v in params.items():
            # yaml 1.1 floats need a dot; plain str(1e-5) would not parse
            text = (yaml.safe_dump(v).partition("\n")[0]
                    if isinstance(v, float) else v)
            lines.append(f"  {k}: {text}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def with_first_number(default, text):
    """YAML text of ``default`` with its first number replaced by ``text``."""
    if not isinstance(default, list):
        return text
    return "[" + ", ".join([with_first_number(default[0], text)]
                           + [json.dumps(v) for v in default[1:]]) + "]"


def run(args):
    return cli.main([str(a) for a in args])


def read_rows(path):
    rows = {}
    with open(path) as f:
        header = f.readline()
        for line in f:
            key, value = line.rstrip("\n").split(",", 1)
            rows[key] = value
    return header, rows


class TestEveryScenarioRuns:
    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_runs_and_writes_outputs(self, name, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml", name,
                           parameters=FAST_PARAMS[name],
                           seed=11 if SCENARIOS[name].stochastic else None)
        out = tmp_path / "out"
        assert run(["run", name, "--config", cfg, "--out", out]) == 0
        files = sorted(os.listdir(out))
        assert "results.csv" in files
        assert "manifest.json" in files
        assert not any(f.endswith(".tmp") or ".tmp" in f for f in files)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario"] == name
        assert sorted(manifest["outputs"]) == sorted(
            f for f in files if f != "manifest.json")
        # resolved defaults are echoed back alongside the overrides
        for k, v in FAST_PARAMS[name].items():
            assert manifest["parameters"][k] == v
        for k in SCENARIOS[name].schema:
            assert k in manifest["parameters"]


class TestDeterministicReruns:
    def test_same_config_same_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml", "epr",
                           parameters=FAST_PARAMS["epr"], seed=4)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["run", "epr", "--config", cfg, "--out", out_a]) == 0
        assert run(["run", "epr", "--config", cfg, "--out", out_b]) == 0
        names = sorted(os.listdir(out_a))
        assert names == sorted(os.listdir(out_b))
        for name in names:
            if name == "manifest.json":
                continue  # carries the run timestamp
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_manifests_differ_only_in_timestamp(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml", "bernoulli",
                           parameters=FAST_PARAMS["bernoulli"], seed=2)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(["run", "bernoulli", "--config", cfg, "--out", out_a])
        run(["run", "bernoulli", "--config", cfg, "--out", out_b])
        ma = json.loads((out_a / "manifest.json").read_text())
        mb = json.loads((out_b / "manifest.json").read_text())
        ma.pop("created_utc")
        mb.pop("created_utc")
        assert ma == mb

    def test_seed_override_changes_samples(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml", "bernoulli",
                           parameters=FAST_PARAMS["bernoulli"], seed=2)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["run", "bernoulli", "--config", cfg, "--out", out_a]) == 0
        assert run(["run", "bernoulli", "--config", cfg, "--out", out_b,
                    "--seed", 3]) == 0
        a = (out_a / "results.csv").read_bytes()
        b = (out_b / "results.csv").read_bytes()
        assert a != b
        mb = json.loads((out_b / "manifest.json").read_text())
        assert mb["seed"] == 3


#: settings under which a key is read at all, added to both runs
ENABLING = {
    ("scattering", "strength"): {"potential": "screened-coulomb"},
    ("scattering", "screening_length"): {"potential": "screened-coulomb"},
    ("decay", "life_low"): {"life_distribution": "uniform"},
    ("decay", "life_high"): {"life_distribution": "uniform"},
    ("bigbang", "bump_radius"): {"interaction": "bump"},
    ("bigbang", "bump_center"): {"interaction": "bump"},
    ("bigbang", "t_max"): {"tolerance": 0.0},
}

#: keys whose small moves can leave every output as it was
MOVED_TO = {
    # a floor above the 5 encounters each fast trajectory follows
    ("flipper", "min_encounters"): 6,
    # loose enough that the pair settles a checkpoint sooner
    ("bigbang", "tolerance"): 1e-3,
}


def perturbed(value):
    """``value`` moved off itself: an int by one, a float by a tenth (or to
    1e-3 from zero), a list in its first number."""
    if isinstance(value, list):
        return [perturbed(value[0])] + value[1:]
    if isinstance(value, int):
        return value + 1
    return value * 1.1 if value else 1e-3


class TestEveryKeyReachesAnOutput:
    """A schema key whose change moves no output byte and no exit code is
    an option nothing reads."""

    def outputs(self, tmp_path, name, params):
        cfg = write_config(tmp_path / "cfg.yaml", name, parameters=params,
                           seed=1 if SCENARIOS[name].stochastic else None)
        out = tmp_path / "o"
        code = run(["run", name, "--config", cfg, "--out", out])
        files = {f.name: f.read_bytes() for f in out.iterdir()
                 if f.name != "manifest.json"} if out.exists() else {}
        shutil.rmtree(out, ignore_errors=True)
        return code, files

    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_every_key_moves_an_output(self, tmp_path, capsys, name):
        schema = SCENARIOS[name].schema
        unread = []
        for key, spec in schema.items():
            base = dict(FAST_PARAMS[name], **ENABLING.get((name, key), {}))
            value = base.get(key, spec.default)
            if (name, key) in MOVED_TO:
                changed = MOVED_TO[name, key]
            elif spec.choices:
                changed = next(c for c in spec.choices if c != value)
            else:
                changed = perturbed(value)
            moved = dict(base, **{key: changed})
            if (self.outputs(tmp_path, name, base)
                    == self.outputs(tmp_path, name, moved)):
                unread.append(key)
        capsys.readouterr()
        assert not unread, f"{name}: no output reads {unread}"


class TestEprNumbers:
    def test_analytic_chsh_in_csv(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml", "epr",
                           parameters=FAST_PARAMS["epr"], seed=1)
        out = tmp_path / "out"
        assert run(["run", "epr", "--config", cfg, "--out", out]) == 0
        header, rows = read_rows(out / "results.csv")
        assert header.strip() == "quantity,value"
        s = float(rows["S_analytic"])
        assert abs(s - 2.0 * math.sqrt(2.0)) < 1e-6
        assert float(rows["marginal_a_plus"]) == 0.5
        assert abs(float(rows["S_deterministic_max"])) == 2.0


class TestOutputResolution:
    def test_env_base_directory(self, tmp_path, monkeypatch):
        base = tmp_path / "envbase"
        monkeypatch.setenv(cli.ENV_OUT, str(base))
        cfg = write_config(tmp_path / "cfg.yaml", "stern-gerlach",
                           parameters=FAST_PARAMS["stern-gerlach"])
        assert run(["run", "stern-gerlach", "--config", cfg]) == 0
        assert (base / "stern-gerlach" / "results.csv").exists()

    def test_cli_out_beats_env_and_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUT, str(tmp_path / "envbase"))
        cfg = write_config(tmp_path / "cfg.yaml", "stern-gerlach",
                           parameters=FAST_PARAMS["stern-gerlach"],
                           out=str(tmp_path / "cfgout"))
        chosen = tmp_path / "flag"
        assert run(["run", "stern-gerlach", "--config", cfg,
                    "--out", chosen]) == 0
        assert (chosen / "results.csv").exists()
        assert not (tmp_path / "envbase").exists()
        assert not (tmp_path / "cfgout").exists()

    def test_config_out_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUT, str(tmp_path / "envbase"))
        cfg = write_config(tmp_path / "cfg.yaml", "stern-gerlach",
                           parameters=FAST_PARAMS["stern-gerlach"],
                           out=str(tmp_path / "cfgout"))
        assert run(["run", "stern-gerlach", "--config", cfg]) == 0
        assert (tmp_path / "cfgout" / "results.csv").exists()


class TestErrorExits:
    def test_unknown_scenario(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml", "bernoulli", seed=1)
        assert run(["run", "warp-drive", "--config", cfg]) == 2
        assert "unknown scenario" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_unknown_parameter_key_names_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scenario: bernoulli\n"
                       "seed: 1\n"
                       "parameters:\n"
                       "  n_traj: 50\n"
                       "  n_stepz: 10\n")
        assert run(["run", "bernoulli", "--config", cfg,
                    "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "n_stepz" in err and "line 5" in err
        assert not (tmp_path / "o").exists()
        # the two-slit grid sizes are gone with the histogram push-forward
        for key in ("push_grid", "fit_grid"):
            cfg.write_text("scenario: two-slit\n"
                           "parameters:\n"
                           "  bins: 64\n"
                           f"  {key}: 20001\n")
            assert run(["run", "two-slit", "--config", cfg,
                        "--out", tmp_path / "o"]) == 2
            err = capsys.readouterr().err.strip()
            assert "unknown parameter" in err and f"parameters.{key}" in err
            assert "line 4" in err and "\n" not in err
            assert not (tmp_path / "o").exists()

    def test_flipper_energy_refused(self, tmp_path, capsys):
        # a hard sphere's deflection does not depend on the energy, so the
        # flipper has no energy key
        params = dict(FAST_PARAMS["flipper"], energy=2.0)
        cfg = write_config(tmp_path / "cfg.yaml", "flipper", parameters=params,
                           seed=1)
        out = tmp_path / "o"
        assert run(["run", "flipper", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err.strip()
        assert "unknown parameter" in err and "parameters.energy" in err
        assert "\n" not in err
        assert not out.exists()

    def test_stern_gerlach_azimuth_refused(self, tmp_path, capsys):
        # the device field lies along z, so the incoming ray's azimuth only
        # turns the phase of a component no output reads
        params = dict(FAST_PARAMS["stern-gerlach"], spin_phi_deg=30.0)
        cfg = write_config(tmp_path / "cfg.yaml", "stern-gerlach",
                           parameters=params)
        out = tmp_path / "o"
        assert run(["run", "stern-gerlach", "--config", cfg,
                    "--out", out]) == 2
        err = capsys.readouterr().err.strip()
        assert "unknown parameter" in err and "parameters.spin_phi_deg" in err
        assert "\n" not in err
        assert not out.exists()

    def test_wrong_type(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml", "bernoulli",
                           parameters={"n_traj": "plenty"}, seed=1)
        assert run(["run", "bernoulli", "--config", cfg,
                    "--out", tmp_path / "o"]) == 2
        assert "n_traj" in capsys.readouterr().err

    def test_missing_seed_for_stochastic(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml", "bernoulli",
                           parameters=FAST_PARAMS["bernoulli"])
        assert run(["run", "bernoulli", "--config", cfg,
                    "--out", tmp_path / "o"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_deterministic_scenario_needs_no_seed(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml", "scattering",
                           parameters=FAST_PARAMS["scattering"])
        assert run(["run", "scattering", "--config", cfg,
                    "--out", tmp_path / "o"]) == 0

    def test_runtime_failure_leaves_no_files(self, tmp_path, capsys):
        params = dict(FAST_PARAMS["decay"])
        params["x_b2"] = "[100.0, 0.0, 0.0]"
        params["x_b3"] = "[-100.0, 0.0, 0.0]"
        params["t_b"] = 1.0
        cfg = write_config(tmp_path / "cfg.yaml", "decay",
                           parameters=params, seed=1)
        out = tmp_path / "o"
        assert run(["run", "decay", "--config", cfg, "--out", out]) == 1
        assert "NoSolutionError" in capsys.readouterr().err
        assert not out.exists()

    def test_screen_at_zero_is_before_exit_plane(self, tmp_path, capsys):
        # 0.0 is a plane like any other, not a request for the default
        cfg = write_config(tmp_path / "cfg.yaml", "stern-gerlach",
                           parameters={"screen_x": 0.0})
        out = tmp_path / "o"
        assert run(["run", "stern-gerlach", "--config", cfg,
                    "--out", out]) == 1
        assert ("screen must sit at or beyond the exit plane"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("scenario, key, value, bound", [
        ("decay", "n_profile", -1, ">= 0"),
        ("epr", "scan_points", -1, ">= 0"),
        ("bernoulli", "bias", 2.0, "<= 1"),
        ("bernoulli", "bias", -0.5, ">= 0"),
    ])
    def test_table_size_and_bias_bounds_refused(self, tmp_path, capsys,
                                                scenario, key, value, bound):
        # -1 ended in numpy's "Number of samples, -1, must be non-negative"
        # and a bias of 2 in biased_measure's target_rate range; neither
        # named the key
        params = dict(FAST_PARAMS[scenario], **{key: value})
        cfg = write_config(tmp_path / "cfg.yaml", scenario, parameters=params,
                           seed=1)
        out = tmp_path / "o"
        assert run(["run", scenario, "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err.strip()
        assert f"parameters.{key}" in err and bound in err
        assert f"line {4 + list(params).index(key)}" in err
        assert "\n" not in err
        assert not out.exists()

    @pytest.mark.parametrize("scenario, key, table", [
        ("decay", "n_profile", "action_profile.dat"),
        ("epr", "scan_points", "chsh_scan.dat"),
    ])
    def test_empty_table_is_its_header(self, tmp_path, scenario, key, table):
        params = dict(FAST_PARAMS[scenario], **{key: 0})
        cfg = write_config(tmp_path / "cfg.yaml", scenario, parameters=params,
                           seed=1)
        out = tmp_path / "o"
        assert run(["run", scenario, "--config", cfg, "--out", out]) == 0
        lines = (out / table).read_text().splitlines()
        assert len(lines) == 2 and all(ln.startswith("# ") for ln in lines)

    @pytest.mark.parametrize("scenario, key", [
        ("two-slit", "source_to_wire"),
        ("stern-gerlach", "speed"),
    ])
    def test_subnormal_length_or_speed_names_its_key(self, tmp_path, capsys,
                                                    scenario, key):
        # 5e-324 gave a fringe spacing over a separation that underflows to
        # 0 (a bare ZeroDivisionError), and a flight to the entry plane
        # that overflows ("segments must be contiguous in time")
        params = dict(FAST_PARAMS[scenario], **{key: 5e-324})
        cfg = write_config(tmp_path / "cfg.yaml", scenario, parameters=params)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["run", scenario, "--config", cfg, "--out", out]) == 1
        assert not caught
        err = capsys.readouterr().err.strip()
        assert err.startswith("error [") and "\n" not in err
        assert f"{key} = 5e-324" in err and "out of float range" in err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["run", "bernoulli", "--config",
                    tmp_path / "nope.yaml"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_duplicate_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scenario: bernoulli\nseed: 1\nseed: 2\n")
        assert run(["run", "bernoulli", "--config", cfg]) == 2
        assert "seed" in capsys.readouterr().err

    def test_scenario_name_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml", "epr", seed=1)
        assert run(["run", "bernoulli", "--config", cfg]) == 2
        assert "scenario" in capsys.readouterr().err

    def test_root_must_be_mapping(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("- just\n- a\n- list\n")
        assert run(["run", "bernoulli", "--config", cfg]) == 2

    def test_unparseable_yaml_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scenario: bernoulli\n  bad indent: [\n")
        assert run(["run", "bernoulli", "--config", cfg]) == 2

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml", "bernoulli", seed=1,
                           extra_top=["notes: hello"])
        assert run(["run", "bernoulli", "--config", cfg]) == 2
        assert "notes" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, key", [
        ("flipper", "n_bins"),
        ("flipper", "n_centers"),
        ("scattering", "n_theta"),
        ("two-slit", "bins"),
        ("bernoulli", "orbit_denominator"),
        ("scattering", "n_s"),
        ("stern-gerlach", "n_table"),
        ("bernoulli", "n_steps"),
        ("bernoulli", "orbit_steps"),
        ("bernoulli", "n_traj"),
        ("flipper", "n_traj"),
        ("flipper", "n_encounters"),
        ("decay", "n_life_samples"),
        ("epr", "n_pairs"),
    ])
    def test_count_below_minimum_refused(self, tmp_path, capsys, scenario,
                                         key):
        # each of these crashed inside the scenario before it had a minimum
        params = dict(FAST_PARAMS[scenario])
        params[key] = 0
        stochastic = SCENARIOS[scenario].stochastic
        cfg = write_config(tmp_path / "cfg.yaml", scenario, parameters=params,
                           seed=1 if stochastic else None)
        out = tmp_path / "o"
        assert run(["run", scenario, "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err.strip()
        assert f"parameters.{key}" in err and ">= 1" in err
        assert f"line {3 + stochastic + list(params).index(key)}" in err
        assert "\n" not in err
        assert not out.exists()


    def test_centers_above_maximum_refused(self, tmp_path, capsys):
        # placement scales with n_centers, so the schema bounds it; the
        # listing shows the bound
        params = dict(FAST_PARAMS["flipper"], n_centers=16_385)
        cfg = write_config(tmp_path / "cfg.yaml", "flipper", parameters=params,
                           seed=1)
        out = tmp_path / "o"
        assert run(["run", "flipper", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err.strip()
        assert "parameters.n_centers" in err and "<= 16384" in err
        assert "\n" not in err
        assert not out.exists()
        assert run(["list-scenarios"]) == 0
        assert "int >= 1 <= 16384" in capsys.readouterr().out

    @pytest.mark.parametrize("theta_min, theta_max", [(3.0, 0.2), (1.0, 1.0)])
    def test_empty_angle_range_refused(self, tmp_path, capsys, theta_min,
                                       theta_max):
        # a reversed range used to exit 0 with a negative solid-angle mass
        params = dict(FAST_PARAMS["scattering"], theta_min=theta_min,
                      theta_max=theta_max)
        cfg = write_config(tmp_path / "cfg.yaml", "scattering",
                           parameters=params)
        out = tmp_path / "o"
        assert run(["run", "scattering", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err.strip()
        assert "parameters.theta_max" in err and "> theta_min" in err
        assert f"line {3 + list(params).index('theta_max')}" in err
        assert "\n" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text", [".nan", ".inf", "-.inf", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "int-beyond-float"])
    @pytest.mark.parametrize("scenario, key", [
        (name, key) for name, scen in SCENARIOS.items()
        for key, spec in scen.schema.items()
        if spec.kind in ("float", "vec3", "floats", "vectors")])
    def test_non_finite_number_refused(self, tmp_path, capsys, scenario, key,
                                       text):
        # .nan used to hang flipper (action_range) and bigbang (width),
        # scattering wrote "energy": NaN into manifest.json, and float() of
        # an integer beyond the float range raised OverflowError
        stochastic = SCENARIOS[scenario].stochastic
        value = with_first_number(SCENARIOS[scenario].schema[key].default,
                                  text)
        cfg = write_config(tmp_path / "cfg.yaml", scenario,
                           parameters={key: value},
                           seed=1 if stochastic else None)
        out = tmp_path / "o"
        assert run(["run", scenario, "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err.strip()
        assert f"parameters.{key}" in err and "must be finite" in err
        assert f"line {3 + stochastic}" in err
        assert "\n" not in err
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["bernoulli", "two-slit"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_refused(self, tmp_path, capsys, scenario, source):
        # -1 used to reach the stream derivation (exit 1) or, for a
        # deterministic scenario, land in manifest.json
        cfg = write_config(tmp_path / "cfg.yaml", scenario,
                           seed=-3 if source == "config" else None)
        args = ["run", scenario, "--config", cfg, "--out", tmp_path / "o"]
        if source == "flag":
            args += ["--seed", -1]
        assert run(args) == 2
        err = capsys.readouterr().err.strip()
        assert "nonnegative" in err and "key 'seed'" in err
        assert ("line 2" in err) == (source == "config")
        assert "\n" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("scenario, text, key_path, line", [
        ("scattering", "parameters:\n  potential: 3", "parameters.potential", 3),
        ("scattering", "parameters:\n  potential: cube",
         "parameters.potential", 3),
        ("decay", "seed: 1\nparameters:\n  x_a: [1, 2]", "parameters.x_a", 4),
        ("bigbang", "parameters:\n  masses: []", "parameters.masses", 3),
        ("bigbang", "parameters:\n  velocities: [[1, 2]]",
         "parameters.velocities", 3),
        ("two-slit", "parameters: [1]", "'parameters'", 2),
        ("bernoulli", "seed: 1.5", "'seed'", 2),
        ("two-slit", "out: 3", "'out'", 2),
    ], ids=["str", "choice", "vec3", "floats", "vectors", "parameters-list",
            "float-seed", "int-out"])
    def test_malformed_value_refused(self, tmp_path, capsys, monkeypatch,
                                     scenario, text, key_path, line):
        # no --out, which would override the config's out
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.ENV_OUT, raising=False)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"scenario: {scenario}\n{text}\n")
        assert run(["run", scenario, "--config", cfg]) == 2
        err = capsys.readouterr().err.strip()
        assert key_path in err and f"line {line}" in err
        assert "\n" not in err
        assert os.listdir(tmp_path) == ["cfg.yaml"]

    def test_no_subcommand_is_one_config_error_line(self, capsys):
        # like every other config error: exit 2, one stderr line, no
        # traceback; the usage stays behind --help
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run([sys.executable, "-m", "trajlab.cli"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 2
        assert proc.stdout == ""
        err, = proc.stderr.splitlines()
        assert err.startswith("config error:")
        assert "run" in err and "list-scenarios" in err
        assert "Traceback" not in proc.stderr
        with pytest.raises(SystemExit) as exit_:
            run(["--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: trajlab")


class TestSmoothScattering:
    @pytest.mark.parametrize("potential", ["inverse-square",
                                           "screened-coulomb"])
    def test_smooth_potentials_run(self, tmp_path, potential):
        params = dict(FAST_PARAMS["scattering"], potential=potential)
        cfg = write_config(tmp_path / "cfg.yaml", "scattering",
                           parameters=params)
        out = tmp_path / "o"
        assert run(["run", "scattering", "--config", cfg, "--out", out]) == 0
        _, rows = read_rows(out / "results.csv")
        s_beam = float(rows["s_max"])
        s, theta = np.loadtxt(out / "deflection.dat").T
        assert np.all((s > 0) & (s <= s_beam))
        assert np.all(np.diff(theta) < 0) and theta[-1] > 0.2
        rho = np.loadtxt(out / "transfer.dat")[:, 1]
        assert np.all(rho > 0)

    @pytest.mark.parametrize("screening_length", [0.02, 0.1, 0.3, 0.5])
    def test_short_screening_lengths_run(self, tmp_path, screening_length):
        # the far construction probe reaches theta clipped to 0 and jitter
        # of about 1e-11 there; neither may read as a rise
        params = dict(potential="screened-coulomb",
                      screening_length=screening_length)
        cfg = write_config(tmp_path / "cfg.yaml", "scattering",
                           parameters=params)
        out = tmp_path / "o"
        assert run(["run", "scattering", "--config", cfg, "--out", out]) == 0
        s, theta = np.loadtxt(out / "deflection.dat").T
        assert len(s) == 50 and np.all(np.diff(theta) < 0)

    def test_inverse_square_is_rutherford_over_beam_disk(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml", "scattering",
                           parameters={"potential": "inverse-square"})
        out = tmp_path / "o"
        assert run(["run", "scattering", "--config", cfg, "--out", out]) == 0
        _, rows = read_rows(out / "results.csv")
        s_beam = float(rows["s_max"])
        # k = E = 1: s = cot(theta / 2) / 2, the beam reaches theta_min = 0.2
        assert s_beam == pytest.approx(0.5 / math.tan(0.1), rel=1e-9)
        theta, rho = np.loadtxt(out / "transfer.dat").T
        assert len(theta) == 100 and theta[0] == 0.2 and theta[-1] == 3.0
        rutherford = (1.0 / 4.0) ** 2 / np.sin(theta / 2.0) ** 4
        assert np.allclose(rho, rutherford / (math.pi * s_beam ** 2),
                           rtol=1e-3, atol=0.0)


class TestFloatSyntax:
    def _bigbang(self, tmp_path, tolerance):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scenario: bigbang\n"
                       "parameters:\n"
                       "  t_max: 4096.0\n"
                       f"  tolerance: {tolerance}\n")
        out = tmp_path / "o"
        return run(["run", "bigbang", "--config", cfg, "--out", out]), out

    def test_exponent_without_dot_is_a_float(self, tmp_path):
        code, out = self._bigbang(tmp_path, "1e-5")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["tolerance"] == 1e-5
        # a dot with an unsigned exponent, or no digit before the dot
        for text in ("1.0e10", "-1.0e300", ".5e3", "2.5E-3", "1.6777216e7"):
            cfg = tmp_path / "num.yaml"
            cfg.write_text(f"x: {text}\n")
            assert cli.load_config(str(cfg))[0] == {"x": float(text)}

    def test_quoted_exponent_stays_a_string(self, tmp_path, capsys):
        code, out = self._bigbang(tmp_path, '"1e-5"')
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert "parameters.tolerance" in err and "line 4" in err
        assert "'1e-5'" in err
        assert not out.exists()

    def test_loader_reads_only_numbers_as_floats(self):
        doc = yaml.load("a: 1e-8\nb: -3E+5\nc: e5\nd: 1e\ne: 12\n",
                        Loader=cli._Loader)
        assert doc == {"a": 1e-8, "b": -3e5, "c": "e5", "d": "1e", "e": 12}


class TestBigbangAtRest:
    def test_zero_initial_energy_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scenario: bigbang\n"
                       "parameters:\n"
                       "  masses: [1.0]\n"
                       "  velocities: [[0.0, 0.0, 0.0]]\n")
        out = tmp_path / "o"
        assert run(["run", "bigbang", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err.strip()
        assert "ValueError" in err and "energy" in err
        assert "\n" not in err
        assert not out.exists()

    def test_velocity_count_mismatch_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("scenario: bigbang\n"
                       "parameters:\n"
                       "  masses: [1.0, 2.0]\n"
                       "  velocities: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]\n")
        out = tmp_path / "o"
        assert run(["run", "bigbang", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err.strip()
        assert "3 vectors" in err and "2 masses" in err
        assert "\n" not in err
        assert not out.exists()


class TestDecayTimeEdges:
    def test_uniform_life_distribution(self, tmp_path):
        params = dict(FAST_PARAMS["decay"], life_distribution="uniform",
                      life_low=0.5, life_high=3.0)
        cfg = write_config(tmp_path / "cfg.yaml", "decay", parameters=params,
                           seed=11)
        out = tmp_path / "o"
        assert run(["run", "decay", "--config", cfg, "--out", out]) == 0
        _, rows = read_rows(out / "results.csv")
        mean, stderr = float(rows["mean_life"]), float(rows["mean_life_stderr"])
        assert stderr > 0 and abs(mean - 1.75) <= 4 * stderr

    # 1e-9 of a 1e-8 span is below one ulp of t_a, so the bracket's lower
    # end would sit on t_a; at t_b = 1e-300 the slope overflows
    @pytest.mark.parametrize("times", [{"t_a": 9.99999999},
                                       {"t_b": 1.0e-300}])
    def test_degenerate_interval_exits_1(self, tmp_path, capsys, times):
        cfg = write_config(tmp_path / "cfg.yaml", "decay",
                           parameters=times, seed=1)
        out = tmp_path / "o"
        assert run(["run", "decay", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error [NoSolutionError]")
        assert "\n" not in err
        assert not out.exists()

    def test_huge_masses_write_a_finite_momentum_residual(self, tmp_path):
        # the residual's length used to overflow to inf at these masses
        params = dict(FAST_PARAMS["decay"], m1=4.0e290, m2=1.0e290,
                      m3=2.0e290, t_a=9.999999, x_b2="[1.0e-7, 0, 0]",
                      x_b3="[-1.0e-7, 0, 0]")
        cfg = write_config(tmp_path / "cfg.yaml", "decay", parameters=params,
                           seed=1)
        out = tmp_path / "o"
        assert run(["run", "decay", "--config", cfg, "--out", out]) == 0
        _, rows = read_rows(out / "results.csv")
        assert 0 < float(rows["momentum_residual"]) < 1e276


class TestNumericFailures:
    # the overflows and divisions by zero, whose line names the parameter
    OUT_OF_FLOAT_RANGE = {
        ("scattering", "radius", 1.0e-300),
        ("scattering", "radius", 1.0e+300),
        ("flipper", "action_range", 1.0e+300),
        ("decay", "c", 1.0e+300),
        ("bigbang", "width", 1.0e+300),
    }

    # overflow, underflow or NaN on the way to a failure: exit 1 with the
    # one error line, no traceback, no floating-point warning, no files
    @pytest.mark.parametrize("scenario,params", [
        ("scattering", {"radius": 1.0e-300}),
        ("scattering", {"radius": 1.0e+300}),
        ("flipper", {"action_range": 1.0e+300}),
        ("flipper", {"action_range": 1.0e-300}),
        ("decay", {"c": 1.0e+300}),
        ("decay", {"x_a": "[1.0e+300, 0.0, 0.0]"}),
        ("stern-gerlach", {"base_field": 1.0e+300}),
        ("two-slit", {"source_to_screen": 1.0e+300}),
        ("bigbang", {"width": 1.0e+300}),
        ("bigbang", {"width": 1.0e-300}),
        ("bigbang", {"masses": "[1.0e-300, 1.0]"}),
    ])
    def test_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch,
                                   scenario, params):
        # width 1e-300 gives a NaN force, on which DOP853 once stepped for
        # ever: a capped call count makes a regression fail, not hang
        calls = []
        acc = NBodySystem.accelerations

        def counted(self, positions):
            calls.append(None)
            assert len(calls) <= 100_000
            return acc(self, positions)

        monkeypatch.setattr(NBodySystem, "accelerations", counted)
        seed = 1 if SCENARIOS[scenario].stochastic else None
        cfg = write_config(tmp_path / "cfg.yaml", scenario,
                           parameters=params, seed=seed)
        out = tmp_path / "o"
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["run", scenario, "--config", cfg, "--out", out]) == 1
        assert time.perf_counter() - start < 5.0
        assert not caught
        err = capsys.readouterr().err.strip()
        assert err.startswith("error [") and "\n" not in err
        assert "Traceback" not in err
        assert not out.exists()
        (key, value), = params.items()
        if (scenario, key, value) in self.OUT_OF_FLOAT_RANGE:
            assert "out of float range" in err
            assert f"{key} = {value!r}" in err

    @pytest.mark.parametrize("scenario", ["bernoulli", "flipper"])
    def test_more_trajectories_than_streams_exits_1(self, tmp_path, capsys,
                                                     scenario):
        # past 2**32 seed streams, refused before the first trajectory
        cfg = write_config(tmp_path / "cfg.yaml", scenario,
                           parameters={"n_traj": 5_000_000_000}, seed=1)
        out = tmp_path / "o"
        start = time.perf_counter()
        assert run(["run", scenario, "--config", cfg, "--out", out]) == 1
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err.strip()
        assert err.startswith("error [ValueError]: 5000000000 trajectories")
        assert "\n" not in err
        assert not out.exists()


def refuse_to_integrate(*args, **kwargs):
    raise AssertionError("the schedule was not refused before integrating")


class TestBigbangSchedule:
    @pytest.mark.parametrize("interaction", ["gaussian", "none"])
    def test_stalled_checkpoint_schedule_exits_1(self, tmp_path, capsys,
                                                 monkeypatch, interaction):
        # growth one ulp above 1 never reaches t_max in any real time; the
        # run must stop before integrating, so a regression fails, not hangs
        monkeypatch.setattr(NBodySystem, "integrate", refuse_to_integrate)
        cfg = write_config(tmp_path / "cfg.yaml", "bigbang", parameters={
            "interaction": interaction, "growth": 1.0000000000000002,
            "t0": 1.5, "tolerance": 0.0})
        out = tmp_path / "o"
        start = time.perf_counter()
        assert run(["run", "bigbang", "--config", cfg, "--out", out]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err.strip()
        assert "ValueError" in err and "checkpoints" in err
        assert "\n" not in err
        assert not out.exists()

    @pytest.mark.parametrize("interaction", ["gaussian", "none"])
    def test_fine_schedule_converging_early_runs(self, tmp_path,
                                                 interaction):
        # growth 1.001 to the default t_max is 16,640 checkpoints; the
        # sweep settles long before the last and must stop there
        cfg = write_config(tmp_path / "cfg.yaml", "bigbang", parameters={
            "interaction": interaction, "growth": 1.001})
        out = tmp_path / "o"
        assert run(["run", "bigbang", "--config", cfg, "--out", out]) == 0
        _, rows = read_rows(out / "results.csv")
        assert rows["converged"] == "1"
        assert int(rows["n_checkpoints"]) < 16_641
        assert float(rows["t_final"]) < 1e3


class TestTwoSlitFineFringes:
    def test_tiny_wavelength_exits_1(self, tmp_path, capsys, monkeypatch):
        # about 6e9 fringes cross the aperture; halving panels onto them
        # must be refused, and a regression fails here instead of
        # allocating panels until memory runs out
        node_values = interference._node_values

        def bounded_node_values(f, lo, hi):
            assert len(lo) <= 1 << 16, "panel halving is unbounded"
            return node_values(f, lo, hi)

        monkeypatch.setattr(interference, "_node_values", bounded_node_values)
        cfg = write_config(tmp_path / "cfg.yaml", "two-slit",
                           parameters={"wavelength": 1e-12})
        out = tmp_path / "o"
        start = time.perf_counter()
        assert run(["run", "two-slit", "--config", cfg, "--out", out]) == 1
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err.strip()
        assert err.startswith("error [UnsupportedInputError]")
        assert "panels" in err and "\n" not in err
        assert not out.exists()

    def test_bins_wider_than_half_a_fringe_exit_1(self, tmp_path, capsys):
        # 0.87 of the default 256 bins per fringe: the histogram would
        # alias the fringes into a spacing several times too large
        cfg = write_config(tmp_path / "cfg.yaml", "two-slit",
                           parameters={"wavelength": 1e-6})
        out = tmp_path / "o"
        assert run(["run", "two-slit", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error [UnsupportedInputError]")
        assert "bins" in err and "\n" not in err
        assert not out.exists()

    def test_enough_bins_resolve_fine_fringes(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml", "two-slit",
                           parameters={"wavelength": 1e-6, "bins": 1024})
        out = tmp_path / "o"
        assert run(["run", "two-slit", "--config", cfg, "--out", out]) == 0
        _, rows = read_rows(out / "results.csv")
        assert float(rows["spacing_rel_error"]) < 0.02


class TestListing:
    def test_listing_is_stable_and_complete(self, capsys):
        assert run(["list-scenarios"]) == 0
        first = capsys.readouterr().out
        assert run(["list-scenarios"]) == 0
        assert capsys.readouterr().out == first
        for name in SCENARIOS:
            assert name in first
        for key in ("m1", "m2", "m3", "c"):
            assert key in first

    def test_console_script_available(self):
        # the checkout's source, whatever the caller's path holds; the
        # installed `trajlab` script has its own smoke step in CI
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run([sys.executable, "-m", "trajlab.cli",
                               "list-scenarios"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0
        assert "bernoulli" in proc.stdout


class TestDatFormat:
    # every kind of numeric cell a table can hold, one row per kind
    ROWS = [
        (0, 1, -7, 2 ** 53),
        (-(2 ** 53), 123456789012345, 2 ** 52 + 1, 10 ** 15),
        (0.0, -0.0, math.nan, math.inf),
        (-math.inf, 5e-324, 1e300, -1e-300),
        (0.1, 1 / 3, math.pi, -2.5e-17),
        (np.float32(0.1), np.float32(-3.25e38), np.int64(-42),
         np.int64(2 ** 53 - 1)),
        (np.bool_(True), np.bool_(False), True, np.float64(2.0 ** -1074)),
    ]

    @staticmethod
    def body(text):
        return "".join(ln + "\n" for ln in text.splitlines()
                       if not ln.startswith("#"))

    def test_template_prints_each_cell_as_fmt(self):
        # the rule the one template replaced: _fmt per cell, joined
        want = "".join(" ".join(_fmt(c) for c in row) + "\n"
                       for row in self.ROWS)
        table = np.array(self.ROWS, dtype=float)
        # the rows as written, a 2-d array, and a list of 1-d row arrays
        # (what the benchmark tracer passes on)
        for rows in (self.ROWS, table, list(table)):
            out = OutputBundle()
            out.add_dat("t.dat", ["a comment", "columns: a, b, c, d"], rows)
            (name, text), = out.files()
            assert name == "t.dat"
            assert text.startswith("# a comment\n# columns: a, b, c, d\n")
            assert self.body(text) == want
