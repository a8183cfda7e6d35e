"""One list of `trajlab run` configs, run in one interpreter per tree:
``--rerun`` runs it on this tree forward and in reverse, compares every
output but ``manifest.json`` and holds each entry to its check or its pinned
refusal line; ``--against REV`` runs it on this tree and on REV's ``src`` and
prints every output file, exit code and stderr that differ."""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# Runs argv[1]'s entries in order through cli.main and prints name -> (exit
# code, stderr, {file: latin-1 text} but the manifest, or None) as JSON.
CHILD = r"""
import contextlib, io, json, sys, traceback, warnings
from pathlib import Path
from trajlab import cli
results = {}
for name, scenario, seed, config in json.loads(sys.argv[1]):
    Path(f"{name}.yaml").write_text(config)
    warnings.simplefilter("always")
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = cli.main(["run", scenario, "--config", f"{name}.yaml",
                             "--seed", str(seed), "--out", name])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = traceback.print_exc() or 1
    files = None if not Path(name).exists() else {
        f.name: f.read_text("latin-1") for f in sorted(Path(name).iterdir())
        if f.name != "manifest.json"}
    results[name] = code, err.getvalue(), files
print(json.dumps(results))
"""


class Run(NamedTuple):
    name: str
    scenario: str
    params: dict = {}  # key -> value, whose str() is its YAML text
    refused: tuple = ()  # (exit code, its whole stderr line)
    check: Callable = None  # (files, every run's files) -> (ok, note)
    seed: int = 7


def inverse_square(files, done):
    # theta(s) of k/r^2 at k = E = 1 is the closed form 2 atan(1/(2s))
    rows = [ln.split() for ln in files["deflection.dat"].splitlines()
            if not ln.startswith("#")]
    worst = max(abs(float(t) / (2 * math.atan(1 / (2 * float(s)))) - 1)
                for s, t in rows)
    return worst <= 1e-12, f"theta max rel err {worst:.1e}"


def results(files):
    return dict(ln.split(",") for ln in files["results.csv"].split())


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


RUNS = [
    Run("bernoulli", "bernoulli"),
    Run("scattering", "scattering"),
    Run("flipper", "flipper"),
    Run("decay", "decay"),
    Run("stern-gerlach", "stern-gerlach"),
    Run("epr", "epr"),
    # the exact TV distance of the default bench; a grid rule reads 0.6052191
    Run("two-slit", "two-slit", check=row("tv_distance", "0.6052252940")),
    Run("bigbang", "bigbang", check=two_body),
    # the default horizon written with a dot and an unsigned exponent
    Run("t-max", "bigbang", {"t_max": "1.6777216e7"},
        check=lambda files, done: (files == done["bigbang"], "same bytes")),
    # the bump settles once both bodies have left its support
    Run("bump", "bigbang", {"interaction": "bump"},
        check=row("converged", "1")),
    Run("free", "bigbang", {"interaction": "none"}),
    # a biased measure, odd rows, and more streams than one chunk of 256
    Run("biased", "bernoulli", {"bias": 0.8, "n_steps": 1001, "n_traj": 4099}),
    Run("epr-scan", "epr", {"scan_points": 100000}),
    Run("decay-profile", "decay", {"n_profile": 100000}),
    Run("uniform", "decay", {"life_distribution": "uniform"}),
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
    Run("screened", "scattering", {"potential": "screened-coulomb"}),
    # about 2.05 fringes in the window the spacing is read from
    Run("wavelength-7.9e-5", "two-slit", {"wavelength": "7.9e-05"}),
    # each refusal pins its whole stderr line, as printed
    Run("short", "decay", {"t_a": 9.99999999}, (1,
        "error [NoSolutionError]: time interval t_a = 9.99999999, t_b = 10.0 is too short to bracket a split time strictly inside it in floating point")),
    Run("slope-overflow", "decay", {"t_b": "1.0e-300"}, (1,
        "error [NoSolutionError]: the reduced action's slope overflows at the ends of the time interval t_a = 0.0, t_b = 1e-300: the endpoints are too far apart for its length")),
    Run("alias", "two-slit", {"wavelength": "1.0e-6"}, (1,
        "error [UnsupportedInputError]: 256 screen bins are fewer than the 589 that put two in each fringe spacing; raise bins")),
    Run("radius", "scattering", {"radius": "1.0e-300"}, (1,
        "error [ZeroDivisionError]: the beam disk density 1/(pi s_max^2) is out of float range for radius = 1e-300")),
    Run("negative", "bernoulli", seed=-1, refused=(2,
        "config error: seed must be a nonnegative integer, got -1 at key 'seed'")),
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
    Run("wire", "two-slit", {"source_to_wire": "5.0e-324"}, (1,
        "error [ValueError]: the fringe spacing is out of float range for wavelength = 2e-05, source_to_wire = 5e-324, kick_angle = 0.02")),
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
    done = [json.loads(proc.communicate()[0] or "{}") for proc in procs]
    if any(proc.returncode for proc in procs):
        sys.exit("a catalog interpreter failed; its stderr is above")
    return done


def contract(run, res, done):
    """(ok, note) for one run's result against its check or refusal."""
    code, err, files = res
    if run.refused:
        want, line = run.refused
        return (code, err, files) == (want, line + "\n", None), err.strip()
    if code or err or not run.check:
        return code == 0 and not err, err.strip()
    return run.check(files, done)


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
        first, now = passes(tmp, (base, jobs[::-1] if args.rerun else jobs),
                            (ROOT / "src", jobs))
    done, failed = {name: res[2] for name, res in now.items()}, []
    for run in RUNS:
        ok, note = contract(run, now[run.name], done)
        (code0, err0, files0), (code, err, files) = (first[run.name],
                                                     now[run.name])
        diff = [f"exit {code0} -> {code}"] * (code != code0)
        diff += [f"stderr {err0!r} -> {err!r}"] * (err != err0)
        files0, files = files0 or {}, files or {}
        diff += [f"{name} differs" for name in sorted(files0.keys()
                 | files.keys()) if files0.get(name) != files.get(name)]
        print(f"{'ok  ' if ok and not diff else 'FAIL'} {run.name} {note}"
              .rstrip() + "".join(f"\n    {d}" for d in diff))
        failed += [run.name] * (not ok or bool(diff))
    print(f"{len(RUNS) - len(failed)} of {len(RUNS)} runs pass; failed: "
          f"{', '.join(failed) or 'none'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
