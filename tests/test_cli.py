"""End-to-end CLI checks that one parameters-only config cannot state:
flags, output directories, raw YAML, sweeps over the schema, hang guards,
the manifest, the listing and table formatting. Each single-config run or
refusal is an entry of ``scripts/catalog.py`` instead."""

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

    def test_loader_reads_only_numbers_as_floats(self):
        doc = yaml.load("a: 1e-8\nb: -3E+5\nc: e5\nd: 1e\ne: 12\n",
                        Loader=cli._Loader)
        assert doc == {"a": 1e-8, "b": -3e5, "c": "e5", "d": "1e", "e": 12}


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

    def test_far_screen_runs_or_names_its_key(self, tmp_path, capsys):
        # from about 1.3e154 the pull-back's quadratic overflowed, and each
        # run ended in "fewer than two fringe peaks found"
        for exponent in range(150, 309):
            distance = float(f"1e{exponent}")
            cfg = write_config(tmp_path / "cfg.yaml", "two-slit",
                               parameters={"source_to_screen": distance})
            out = tmp_path / str(exponent)
            code = run(["run", "two-slit", "--config", cfg, "--out", out])
            err = capsys.readouterr().err.strip()
            if code == 0:
                rows = dict(ln.split(",") for ln in
                            (out / "results.csv").read_text().split())
                assert float(rows["spacing_rel_error"]) < 0.02, distance
            else:
                assert code == 1 and "\n" not in err, distance
                assert f"source_to_screen = {distance!r}" in err


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
        # placement scales with n_centers, so the schema bounds it
        assert "int >= 1 <= 16384" in first

    def test_console_script_available(self):
        # the checkout's source, whatever the caller's path holds; CI runs
        # the installed `trajlab` script in the step that installs it
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run([sys.executable, "-m", "trajlab.cli",
                               "list-scenarios"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0
        assert "bernoulli" in proc.stdout


class TestOneParserPerProcess:
    RUN_HELP = """\
usage: trajlab run [-h] --config CONFIG [--seed SEED] [--out OUT] scenario

positional arguments:
  scenario         scenario name (see list-scenarios)

options:
  -h, --help       show this help message and exit
  --config CONFIG  YAML config file
  --seed SEED      override the config seed
  --out OUT        output directory (default: config 'out', then
                   $TRAJLAB_OUT/<scenario>, then runs/<scenario>)
"""

    def test_repeated_calls_give_the_same_exits_and_outputs(self, tmp_path,
                                                             capsys):
        cfg = write_config(tmp_path / "cfg.yaml", "two-slit",
                           parameters=FAST_PARAMS["two-slit"])
        calls = [["list-scenarios"], [], ["run", "no-such", "--config", cfg],
                 ["run", "two-slit", "--config", tmp_path / "missing.yaml"]]
        seen = []
        for out in ("a", "b"):
            res = [(run(args), capsys.readouterr()) for args in calls]
            res.append((run(["run", "two-slit", "--config", cfg, "--out",
                             tmp_path / out]), capsys.readouterr()))
            res.append({f.name: f.read_bytes() for f in
                        sorted((tmp_path / out).iterdir())
                        if f.name != "manifest.json"})
            seen.append(res)
        assert seen[0] == seen[1]
        assert [code for code, _ in seen[0][:-1]] == [0, 2, 2, 2, 0]
        assert cli._parser() is cli._parser()

    def test_run_help_text(self, capsys, monkeypatch):
        # argparse wraps help to the terminal width it reads from COLUMNS
        monkeypatch.setenv("COLUMNS", "80")
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                run(["run", "--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == self.RUN_HELP


class TestNoMaskedArrays:
    def test_default_runs_leave_numpy_ma_unloaded(self, tmp_path):
        # numpy 2.4's np.unique and np.union1d import numpy.ma, about 10 ms
        # of start-up for a run that uses none of it
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = (
            "import sys\n"
            "from trajlab import cli\n"
            "for name in ('stern-gerlach', 'two-slit'):\n"
            "    assert cli.main(['run', name, '--config', '/dev/null',\n"
            "                     '--seed', '7', '--out', name]) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


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
