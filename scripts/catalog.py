"""One list of `trajlab run` configs, run in one interpreter per tree:
``--rerun`` runs it on this tree forward and in reverse, compares every
output, ``manifest.json`` without its ``created_utc``, and holds each entry
to its manifest, its check or its pinned refusal line; ``--against REV``
runs it on this tree and on REV's ``src`` and prints every output file,
exit code and stderr that differ. Both fail if this tree's list, or its
scenario listing, loads scipy."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# Runs argv[1]'s entries in order through cli.main, then the listing, and
# prints as JSON name -> (exit code, stderr, {file: latin-1 text, the
# manifest without its timestamp} or None, [its scenario's schema keys, the
# parameters its config sets as the loader reads them]) and each loaded scipy
# module -> the step that loaded it.
CHILD = r"""
import contextlib, io, json, sys, traceback, warnings
from pathlib import Path
from trajlab import cli
from trajlab.scenarios import SCENARIOS
results, scipy = {}, {}

def loaded(step):
    scipy.update((m, step) for m in list(sys.modules)
                 if m.partition(".")[0] == "scipy" and m not in scipy)

loaded("import trajlab.cli")
for name, scenario, seed, config in json.loads(sys.argv[1]):
    Path(f"{name}.yaml").write_text(config)
    warnings.simplefilter("always")
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = cli.main(["run", scenario, "--config", f"{name}.yaml",
                             "--out", name]
                            + ([] if seed is None else ["--seed", str(seed)]))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = traceback.print_exc() or 1
    files = None if not Path(name).exists() else {
        f.name: f.read_text("latin-1") for f in sorted(Path(name).iterdir())}
    if "manifest.json" in (files or {}):
        manifest = json.loads(files["manifest.json"])
        manifest.pop("created_utc", None)
        files["manifest.json"] = json.dumps(manifest, indent=2) + "\n"
    given = cli.load_config(f"{name}.yaml")[0]["parameters"] or {}
    results[name] = (code, err.getvalue(), files,
                     [list(SCENARIOS[scenario].schema), given])
    loaded(name)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["list-scenarios"]) == 0
loaded("list-scenarios")
print(json.dumps([results, scipy]))
"""


class Run(NamedTuple):
    name: str
    scenario: str
    params: dict = {}  # key -> value, whose str() is its YAML text
    refused: tuple = ()  # (exit code, its whole stderr line)
    check: Callable = None  # (files, every run's files) -> (ok, note)
    seed: int = 7  # None runs without --seed


def results(files):
    return dict(ln.split(",") for ln in files["results.csv"].split())


def table(files, name):
    return [[float(x) for x in ln.split()]
            for ln in files[name].splitlines() if not ln.startswith("#")]


def smooth(files, done):
    # n_s rows inside the beam disk, whose edge deflects to theta_min = 0.2;
    # theta clipped to 0 or jitter of about 1e-11 at the far construction
    # probe may not read as a rise
    s_max = float(results(files)["s_max"])
    s, theta = zip(*table(files, "deflection.dat"))
    rho = [r for _, r in table(files, "transfer.dat")]
    rises = sum(a <= b for a, b in zip(theta, theta[1:]))
    ok = (len(s) == 50 and all(0 < x <= s_max for x in s) and theta[-1] > 0.2
          and not rises and min(rho) > 0)
    return ok, f"theta from {theta[0]:.4g} to {theta[-1]:.4g}, {rises} rises"


def inverse_square(files, done):
    # k = E = 1: theta(s) = 2 atan(1/(2s)), so the beam disk, whose edge
    # deflects to theta_min = 0.2, has radius s_max = cot(0.1)/2, and the
    # transfer density is Rutherford's (1/4)^2 / sin^4(theta/2) over its area
    s_max = float(results(files)["s_max"])
    theta_err = max(abs(t / (2 * math.atan(1 / (2 * s))) - 1)
                    for s, t in table(files, "deflection.dat"))
    rows = table(files, "transfer.dat")
    rho_err = max(abs(r * math.pi * s_max ** 2 * 16 * math.sin(t / 2) ** 4 - 1)
                  for t, r in rows)
    ok = (smooth(files, done)[0] and theta_err <= 1e-12 and len(rows) == 100
          and abs(s_max - 0.5 / math.tan(0.1)) <= 1e-9 * s_max
          and (rows[0][0], rows[-1][0]) == (0.2, 3.0) and rho_err <= 1e-3)
    return ok, f"theta max rel err {theta_err:.1e}, rho {rho_err:.1e}"


def two_body(files, done):
    # radial relative motion at speed sqrt(2E/mu), the centre of mass fixed
    (m1, m2), (u1, u2) = (1.5, 0.5), ([0.8, 0.1, 0.0], [-2.4, -0.3, 0.0])
    mu, rel = m1 * m2 / (m1 + m2), [a - b for a, b in zip(u1, u2)]
    r0 = math.hypot(*rel)
    scale = math.sqrt(r0 * r0 + 4.0 * math.exp(-r0 * r0 / 2) / mu) / r0
    cm = [(m1 * a + m2 * b) / (m1 + m2) for a, b in zip(u1, u2)]
    want = {f"v{i}{c}": x + f / (m1 + m2) * scale * r for i, f in
            ((1, m2), (2, -m1)) for c, x, r in zip("xyz", cm, rel)}
    worst = max(abs(float(results(files)[k]) - x) for k, x in want.items())
    return worst <= 1e-10, f"v max err {worst:.1e} vs closed form"


def row(key, prefix):
    return lambda files, done: (results(files)[key].startswith(prefix),
                                f"{key},{results(files)[key]}")


def within(key, lo, hi):
    return lambda files, done: (lo < float(results(files)[key]) < hi,
                                f"{key},{results(files)[key]}")


def chsh(files, done):
    r = results(files)
    s = float(r["S_analytic"])
    return (files["results.csv"].startswith("quantity,value\n")
            and abs(s - 2 * math.sqrt(2)) < 1e-6
            and float(r["marginal_a_plus"]) == 0.5
            and abs(float(r["S_deterministic_max"])) == 2.0), f"S_analytic {s}"


def uniform_life(files, done):
    # uniform lives on [0.5, 3.0] have mean 1.75
    mean, err = (float(results(files)[k])
                 for k in ("mean_life", "mean_life_stderr"))
    return (err > 0 and abs(mean - 1.75) <= 4 * err,
            f"mean life {(mean - 1.75) / err:+.2f} stderr from 1.75")


def settles_early(files, done):
    # growth 1.001 up to the default t_max is 16,640 checkpoints, and the
    # sweep must stop once it settles
    r = results(files)
    ok = (r["converged"] == "1" and int(r["n_checkpoints"]) < 16_641
          and float(r["t_final"]) < 1e3)
    return ok, f"t_final {r['t_final']}, {r['n_checkpoints']} checkpoints"


def same_as(other, *but):
    """The check that the files, bar ``but``, are ``other``'s bytes."""
    def check(files, done):
        kept = [{k: v for k, v in fs.items() if k not in but}
                for fs in (files, done[other])]
        return kept[0] == kept[1], f"the bytes of {other}"
    return check


def header_only(name):
    return lambda files, done: ([ln[:2] for ln in files[name].splitlines()]
                                == ["# ", "# "], f"{name} is its header")


RUNS = [
    Run("bernoulli", "bernoulli"),
    Run("scattering", "scattering"),
    Run("flipper", "flipper"),
    Run("decay", "decay"),
    Run("stern-gerlach", "stern-gerlach"),
    Run("epr", "epr", check=chsh),
    # the exact TV distance of the default bench; a grid rule reads 0.6052191
    Run("two-slit", "two-slit", check=row("tv_distance", "0.6052252940")),
    Run("bigbang", "bigbang", check=two_body),
    # the default horizon written with a dot and an unsigned exponent
    Run("t-max", "bigbang", {"t_max": "1.6777216e7"},
        check=same_as("bigbang")),
    # a deterministic scenario runs without a seed, and records seed 0
    Run("seedless", "scattering", seed=None,
        check=same_as("scattering", "manifest.json")),
    # the bump settles once both bodies have left its support
    Run("bump", "bigbang", {"interaction": "bump"},
        check=row("converged", "1")),
    Run("free", "bigbang", {"interaction": "none"}),
    # a biased measure, odd rows, and more streams than one chunk of 256
    Run("biased", "bernoulli", {"bias": 0.8, "n_steps": 1001, "n_traj": 4099}),
    Run("epr-scan", "epr", {"scan_points": 100000}),
    Run("decay-profile", "decay", {"n_profile": 100000}),
    # a table of no rows is its two comment lines
    Run("scan-zero", "epr", {"scan_points": 0},
        check=header_only("chsh_scan.dat")),
    Run("profile-zero", "decay", {"n_profile": 0},
        check=header_only("action_profile.dat")),
    Run("uniform", "decay", {"life_distribution": "uniform"}),
    Run("uniform-0.5-3", "decay", {"life_distribution": "uniform",
                                   "life_low": 0.5, "life_high": 3.0},
        check=uniform_life),
    # the momentum residual's length used to overflow to inf
    Run("huge-masses", "decay", {"m1": "4.0e+290", "m2": "1.0e+290",
                                 "m3": "2.0e+290", "t_a": 9.999999,
                                 "x_b2": "[1.0e-7, 0, 0]",
                                 "x_b3": "[-1.0e-7, 0, 0]"},
        check=within("momentum_residual", 0, 1e276)),
    Run("equal", "stern-gerlach", {"weight_model": "equal"}),
    # 8 centres on a grid of 2 cells a side, 4,096 on 20, and 16,384 with
    # the per-centre candidate cap
    Run("flipper-8", "flipper", {"n_centers": 8}),
    Run("flipper-4096", "flipper",
        {"n_centers": 4096, "n_traj": 16, "n_encounters": 2}),
    Run("flipper-16384", "flipper",
        {"n_centers": 16384, "n_traj": 16, "n_encounters": 2}),
    Run("inverse-square", "scattering", {"potential": "inverse-square"},
        check=inverse_square),
    Run("screened", "scattering", {"potential": "screened-coulomb"},
        check=smooth),
    *(Run(f"screening-{a}", "scattering", {"potential": "screened-coulomb",
                                           "screening_length": a},
          check=smooth) for a in (0.02, 0.1, 0.3, 0.5)),
    *(Run(f"growth-{kind}", "bigbang", {"interaction": kind, "growth": 1.001},
          check=settles_early) for kind in ("gaussian", "none")),
    # about 2.05 fringes in the window the spacing is read from
    Run("wavelength-7.9e-5", "two-slit", {"wavelength": "7.9e-05"}),
    Run("fine-fringes", "two-slit", {"wavelength": "1.0e-6", "bins": 1024},
        check=within("spacing_rel_error", -math.inf, 0.02)),
    # each refusal pins its whole stderr line, as printed
    Run("short", "decay", {"t_a": 9.99999999}, (1,
        "error [NoSolutionError]: time interval t_a = 9.99999999, t_b = 10.0 is too short to bracket a split time strictly inside it in floating point")),
    Run("slope-overflow", "decay", {"t_b": "1.0e-300"}, (1,
        "error [NoSolutionError]: the reduced action's slope overflows at the ends of the time interval t_a = 0.0, t_b = 1e-300: the endpoints are too far apart for its length")),
    Run("split-at-once", "decay", {"x_b2": "[100, 0, 0]",
                                   "x_b3": "[-100, 0, 0]", "t_b": 1.0}, (1,
        "error [NoSolutionError]: endpoint data admits no interior split: the products would need more kinetic energy than the decay releases, so the action is minimised by splitting immediately, for x_a = [0.0, 0.0, 0.0], t_a = 0.0, x_b2 = [100.0, 0.0, 0.0], x_b3 = [-100.0, 0.0, 0.0], t_b = 1.0")),
    Run("split-never", "decay", {"x_b2": "[0, 0, 0]", "x_b3": "[0, 0, 0]"},
        (1, "error [NoSolutionError]: endpoint data admits no interior split: the action keeps falling all the way to the final time, for x_a = [0.0, 0.0, 0.0], t_a = 0.0, x_b2 = [0.0, 0.0, 0.0], x_b3 = [0.0, 0.0, 0.0], t_b = 10.0")),
    Run("alias", "two-slit", {"wavelength": "1.0e-6"}, (1,
        "error [UnsupportedInputError]: 256 screen bins are fewer than the 589 that put two in each fringe spacing; raise bins")),
    Run("radius", "scattering", {"radius": "1.0e-300"}, (1,
        "error [ZeroDivisionError]: the beam disk density 1/(pi s_max^2) is out of float range for radius = 1e-300")),
    # these three wrote nan or inf and exited 0
    Run("theta-min-tiny", "scattering", {"theta_min": "5.0e-324"}, (1,
        "error [OverflowError]: the transfer density is out of float range for theta_min = 5e-324")),
    Run("tau0-huge", "decay", {"tau0": "1.0e+300"}, (1,
        "error [OverflowError]: the mean life or its standard error is out of float range for tau0 = 1e+300")),
    Run("life-high-huge", "decay", {"life_distribution": "uniform",
                                    "life_high": "1.0e+300"}, (1,
        "error [OverflowError]: the mean life or its standard error is out of float range for life_low = 0.0, life_high = 1e+300")),
    Run("negative", "bernoulli", seed=-1, refused=(2,
        "config error: seed must be a nonnegative integer, got -1 at key 'seed'")),
    Run("seed-missing", "bernoulli", seed=None, refused=(2,
        "config error: seed is required for the stochastic scenario 'bernoulli'; set it in the config or pass --seed at key 'seed'")),
    Run("energy", "flipper", {"energy": 2.0}, (2,
        "config error: unknown parameter 'energy' at key 'parameters.energy' (line 2)")),
    Run("phi", "stern-gerlach", {"spin_phi_deg": 30.0}, (2,
        "config error: unknown parameter 'spin_phi_deg' at key 'parameters.spin_phi_deg' (line 2)")),
    Run("profile-neg", "decay", {"n_profile": -1}, (2,
        "config error: must be >= 0, got -1 at key 'parameters.n_profile' (line 2)")),
    Run("scan-neg", "epr", {"scan_points": -1}, (2,
        "config error: must be >= 0, got -1 at key 'parameters.scan_points' (line 2)")),
    Run("bias", "bernoulli", {"bias": 2.0}, (2,
        "config error: must be <= 1, got 2.0 at key 'parameters.bias' (line 2)")),
    Run("bias-neg", "bernoulli", {"bias": -0.5}, (2,
        "config error: must be >= 0, got -0.5 at key 'parameters.bias' (line 2)")),
    Run("unknown-key", "bernoulli", {"n_stepz": 10}, (2,
        "config error: unknown parameter 'n_stepz' at key 'parameters.n_stepz' (line 2)")),
    # the two-slit grid sizes went with the histogram push-forward
    *(Run(key.replace("_", "-"), "two-slit", {key: 20001}, (2,
          f"config error: unknown parameter '{key}' at key 'parameters.{key}' (line 2)"))
      for key in ("push_grid", "fit_grid")),
    Run("wrong-type", "bernoulli", {"n_traj": "plenty"}, (2,
        "config error: expected an integer, got 'plenty' at key 'parameters.n_traj' (line 2)")),
    Run("quoted-exponent", "bigbang", {"tolerance": '"1e-5"'}, (2,
        "config error: value must be a number, got '1e-5' at key 'parameters.tolerance' (line 2)")),
    Run("centers-max", "flipper", {"n_centers": 16385}, (2,
        "config error: must be <= 16384, got 16385 at key 'parameters.n_centers' (line 2)")),
    # more seed streams than one 32-bit index holds
    *(Run(f"streams-{name}", name, {"n_traj": 5000000000}, (2,
          "config error: must be <= 4294967296, got 5000000000 at key 'parameters.n_traj' (line 2)"))
      for name in ("bernoulli", "flipper")),
    # a reversed range used to exit 0 with a negative solid-angle mass
    *(Run(f"angles-{lo}-{hi}", "scattering",
          {"theta_min": lo, "theta_max": hi}, (2, f"config error: must be > theta_min ({lo}), got {hi} at key 'parameters.theta_max' (line 3)"))
      for lo, hi in ((3.0, 0.2), (1.0, 1.0))),
    # 0.0 is a plane like any other, not a request for the default
    Run("screen-zero", "stern-gerlach", {"screen_x": 0.0}, (1,
        "error [ValueError]: screen must sit at or beyond the exit plane, at a finite x; got screen_x = 0.0, exit_x = 2.0")),
    Run("at-rest", "bigbang", {"masses": "[1.0]",
                               "velocities": "[[0.0, 0.0, 0.0]]"}, (1,
        "error [ValueError]: initial energy is zero, so the relative energy error is undefined, for masses = [1.0], velocities = [[0.0, 0.0, 0.0]]")),
    Run("velocity-count", "bigbang", {"masses": "[1.0, 2.0]", "velocities":
                                      "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]"},
        (1, "error [ValueError]: need one velocity 3-vector per mass, got 3 vectors for 2 masses: masses = [1.0, 2.0], velocities = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]")),
    # a bound start has no late-time velocity: without the start check these
    # ran to t_max, for hours at the default, and wrote converged,0
    Run("bound-pair", "bigbang", {"amplitude": -2.0, "t_max": "1.0e3",
                                  "velocities": "[[0.1, 0, 0], [-0.3, 0, 0]]"},
        (1, "error [ValueError]: the internal energy -1.8162326927732715 is below 0, so the start is bound and has no late-time velocity, for masses = [1.5, 0.5], velocities = [[0.1, 0.0, 0.0], [-0.3, 0.0, 0.0]], amplitude = -2.0, width = 1.0")),
    Run("bound-bump", "bigbang", {"interaction": "bump", "amplitude": -2.0,
                                  "t_max": "1.0e3",
                                  "velocities": "[[0.1, 0, 0], [-0.3, 0, 0]]"},
        (1, "error [ValueError]: body 1's energy -1.987493744794953 is below 0, so the start is bound and has no late-time velocity, for masses = [1.5, 0.5], velocities = [[0.1, 0.0, 0.0], [-0.3, 0.0, 0.0]], amplitude = -2.0, bump_radius = 2.0, bump_center = [0.0, 0.0, 0.0]")),
    # the cube of 10 action_range underflows to 0
    Run("range-tiny", "flipper", {"action_range": "1.0e-300"}, (1,
        "error [ValueError]: n_centers = 216, action_range = 1e-300 give no periodic cell: its size must be positive")),
    # the pull-back's quadratic overflows past about 1.3e154
    Run("screen-far", "two-slit", {"source_to_screen": "1.0e+155"}, (1,
        "error [ValueError]: the screen-to-emission map is out of float range for source_to_screen = 1e+155")),
    Run("wire", "two-slit", {"source_to_wire": "5.0e-324"}, (1,
        "error [ValueError]: the fringe spacing is out of float range for wavelength = 2e-05, source_to_wire = 5e-324, kick_angle = 0.02")),
    # the bench's own checks, each naming its keys
    Run("wire-past-screen", "two-slit", {"source_to_wire": 2.0}, (1,
        "error [ValueError]: need 0 < source_to_wire < source_to_screen < inf, got source_to_wire = 2.0, source_to_screen = 1.0")),
    Run("wire-radius-neg", "two-slit", {"wire_radius": -1.0}, (1,
        "error [ValueError]: need wire_radius >= 0, got wire_radius = -1.0")),
    Run("aperture-wide", "two-slit", {"aperture": 0.6}, (1,
        "error [ValueError]: need 0 < aperture < 0.5 rad, got aperture = 0.6")),
    Run("kick-zero", "two-slit", {"kick_angle": 0.0}, (1,
        "error [ValueError]: need kick_angle > 0 for fringes, got kick_angle = 0.0")),
    Run("kick-wide", "two-slit", {"kick_angle": 2.0}, (1,
        "error [ValueError]: need 0 <= kick_angle < pi/2 - aperture, got kick_angle = 2.0, aperture = 0.03")),
    Run("wavelength-neg", "two-slit", {"wavelength": -1.0}, (1,
        "error [ValueError]: need 0 < wavelength < inf, got wavelength = -1.0")),
    Run("shadow", "two-slit", {"wire_radius": 0.1}, (1,
        "error [ValueError]: need atan(wire_radius / source_to_wire) < aperture, got wire_radius = 0.1, source_to_wire = 0.25, aperture = 0.03")),
    Run("speed", "stern-gerlach", {"speed": "5.0e-324"}, (1,
        "error [OverflowError]: the flight time to the entry plane is out of float range for speed = 5e-324")),
    # fewer than two fringes in the window the spacing is read from, or at
    # 8e-5 about 2.02, whose outer peaks sit on the window's edge
    Run("wire-far", "two-slit", {"source_to_wire": "1.0e-300"}, (1,
        "error [UnsupportedInputError]: fewer than two fringes of the predicted spacing 5e+296 fall in the middle of the screen window where the spacing is measured, for wavelength = 2e-05, source_to_wire = 1e-300, kick_angle = 0.02")),
    Run("wire-near", "two-slit", {"source_to_wire": "1.0e-6"}, (1,
        "error [UnsupportedInputError]: fewer than two fringes of the predicted spacing 500.00000000000006 fall in the middle of the screen window where the spacing is measured, for wavelength = 2e-05, source_to_wire = 1e-06, kick_angle = 0.02")),
    Run("wavelength-8e-5", "two-slit", {"wavelength": "8.0e-05"}, (1,
        "error [UnsupportedInputError]: fewer than two fringes of the predicted spacing 0.008 fall in the middle of the screen window where the spacing is measured, for wavelength = 8e-05, source_to_wire = 0.25, kick_angle = 0.02")),
    # the squared speed, or the kinetic energy, overflows
    Run("speed-huge", "stern-gerlach", {"speed": "1.0e+300"}, (1,
        "error [OverflowError]: the squared speed is out of float range for speed = 1e+300")),
    Run("mass-huge", "stern-gerlach", {"speed": "1.0e+150", "mass": "1.0e+10"},
        (1, "error [OverflowError]: the kinetic energy is out of float range for speed = 1e+150, mass = 10000000000.0")),
]


def passes(tmp, *trees):
    """The CHILD results of each (src, jobs), each in its own interpreter
    with that ``src`` alone on its path, all at once."""
    procs = [subprocess.Popen([sys.executable, "-c", CHILD, json.dumps(jobs)],
                              cwd=tempfile.mkdtemp(dir=tmp),
                              env={**os.environ, "PYTHONPATH": str(src)},
                              stdout=subprocess.PIPE) for src, jobs in trees]
    done = [json.loads(proc.communicate()[0] or "null") for proc in procs]
    if any(proc.returncode for proc in procs):
        sys.exit("a catalog interpreter failed; its stderr is above")
    return done


def contract(run, res, done):
    """(ok, note) for one run's result against its refusal, or against its
    manifest, cells and check: the manifest names the scenario, the seed (0
    when none was given), the other files and one parameter per schema key,
    the config's among them, and no cell reads nan or inf."""
    code, err, files, (keys, given) = res
    if run.refused:
        want, line = run.refused
        return (code, err, files) == (want, line + "\n", None), err.strip()
    if code or err:
        return False, err.strip()
    manifest = json.loads(files.get("manifest.json", "{}"))
    params = manifest.get("parameters", {})
    written = sorted(files.keys() - {"manifest.json"})
    faults = [f"manifest {key}" for key, ok in (
        ("scenario", manifest.get("scenario") == run.scenario),
        ("seed", manifest.get("seed") == (run.seed or 0)),
        ("outputs", manifest.get("outputs") == written
         and "results.csv" in written),
        ("parameters", sorted(params) == sorted(keys)
         and given.items() <= params.items())) if not ok]
    faults += [f"nan or inf in {name}" for name, text in files.items()
               if {"nan", "inf", "infinity"} & {
                   cell.lstrip("+-") for cell in re.split(r"[\s,]+",
                                                          text.lower())}]
    if faults:
        return False, "bad " + ", ".join(faults)
    return run.check(files, done) if run.check else (True, "")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--rerun", action="store_true")
    mode.add_argument("--against", metavar="REV")
    args = parser.parse_args()
    jobs = [(run.name, run.scenario, run.seed, "parameters:\n" + "".join(
        f"  {k}: {v}\n" for k, v in run.params.items())) for run in RUNS]
    with tempfile.TemporaryDirectory() as tmp:
        tmp, base = Path(tmp), ROOT / "src"
        if args.against:
            archive = subprocess.check_output(
                ["git", "archive", args.against, "src"], cwd=ROOT)
            subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive,
                           check=True)
            base = tmp / "src"
        # the second pass on this tree runs in reverse, so an output that
        # hangs on an earlier entry in the same interpreter differs
        (first, _), (now, scipy) = passes(
            tmp, (base, jobs[::-1] if args.rerun else jobs),
            (ROOT / "src", jobs))
    done, failed = {name: res[2] for name, res in now.items()}, []
    for run in RUNS:
        ok, note = contract(run, now[run.name], done)
        (code0, err0, files0, _), (code, err, files, _) = (first[run.name],
                                                           now[run.name])
        diff = [f"exit {code0} -> {code}"] * (code != code0)
        diff += [f"stderr {err0!r} -> {err!r}"] * (err != err0)
        files0, files = files0 or {}, files or {}
        diff += [f"{name} differs" for name in sorted(files0.keys()
                 | files.keys()) if files0.get(name) != files.get(name)]
        print(f"{'ok  ' if ok and not diff else 'FAIL'} {run.name} {note}"
              .rstrip() + "".join(f"\n    {d}" for d in diff))
        failed += [run.name] * (not ok or bool(diff))
    steps = {}
    for module, step in sorted(scipy.items()):
        steps.setdefault(step, []).append(module)
    for step, modules in steps.items():
        print(f"FAIL {step} loaded {len(modules)} scipy modules: "
              f"{', '.join(modules[:3])}" + ", ..." * (len(modules) > 3))
    print(f"{len(RUNS) - len(failed)} of {len(RUNS)} runs pass; failed: "
          f"{', '.join(failed) or 'none'}; scipy loaded by "
          f"{', '.join(steps) or 'none'}")
    return 1 if failed or steps else 0


if __name__ == "__main__":
    sys.exit(main())
