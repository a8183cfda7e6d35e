"""One list of `trajlab run` configs: ``--rerun`` runs each twice on this
tree, compares every output but ``manifest.json`` and holds each entry to its
check or refusal contract; ``--against REV`` runs each on this tree and on
REV's ``src`` and prints every output file, exit code and stderr that differ.
"""

import argparse
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Run(NamedTuple):
    name: str
    scenario: str
    params: dict = {}  # key -> value, whose str() is its YAML text
    refused: tuple = ()  # (exit code, text its stderr line holds, or None)
    check: Callable = None  # (files, earlier runs' files) -> (ok, note)
    seed: int = 7


def inverse_square(files, done):
    # theta(s) of k/r^2 at k = E = 1 is the closed form 2 atan(1/(2s))
    rows = [ln.split() for ln in files["deflection.dat"].decode().splitlines()
            if not ln.startswith("#")]
    worst = max(abs(float(t) / (2 * math.atan(1 / (2 * float(s)))) - 1)
                for s, t in rows)
    return worst <= 1e-12, f"theta max rel err {worst:.1e}"


def results(files):
    return dict(ln.split(",") for ln in files["results.csv"].decode().split())


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
    # the interval is named by its ends' values, not by t_a and t_b
    Run("short", "decay", {"t_a": 9.99999999}, (1, None)),
    Run("alias", "two-slit", {"wavelength": "1.0e-6"}, (1, "bins")),
    Run("radius", "scattering", {"radius": "1.0e-300"},
        (1, "radius = 1e-300")),
    Run("negative", "bernoulli", refused=(2, "seed"), seed=-1),
    Run("energy", "flipper", {"energy": 2.0}, (2, "parameters.energy")),
    Run("phi", "stern-gerlach", {"spin_phi_deg": 30.0},
        (2, "parameters.spin_phi_deg")),
    Run("profile-neg", "decay", {"n_profile": -1},
        (2, "parameters.n_profile")),
    Run("scan-neg", "epr", {"scan_points": -1}, (2, "parameters.scan_points")),
    Run("bias", "bernoulli", {"bias": 2.0}, (2, "parameters.bias")),
    Run("wire", "two-slit", {"source_to_wire": "5.0e-324"},
        (1, "source_to_wire = 5e-324")),
    Run("speed", "stern-gerlach", {"speed": "5.0e-324"},
        (1, "speed = 5e-324")),
    # fewer than two fringes in the window the spacing is read from
    Run("wire-far", "two-slit", {"source_to_wire": "1.0e-300"},
        (1, "source_to_wire = 1e-300")),
    Run("wire-near", "two-slit", {"source_to_wire": "1.0e-6"},
        (1, "source_to_wire = 1e-06")),
    # the squared speed, or the kinetic energy, overflows
    Run("speed-huge", "stern-gerlach", {"speed": "1.0e+300"},
        (1, "speed = 1e+300")),
    Run("mass-huge", "stern-gerlach", {"speed": "1.0e+150", "mass": "1.0e+10"},
        (1, "mass = 10000000000.0")),
]


def result(src, run, tmp):
    """(exit code, stderr, {file: bytes} or None without an output dir)."""
    out = Path(tempfile.mkdtemp(dir=tmp)) / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "trajlab.cli", "run", run.scenario, "--config",
         "/dev/stdin", "--seed", str(run.seed), "--out", str(out)],
        input="parameters:\n" + "".join(f"  {k}: {v}\n" for k, v in
                                        run.params.items()),
        cwd=tmp, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True)
    return proc.returncode, proc.stderr, None if not out.exists() else {
        f.name: f.read_bytes() for f in sorted(out.iterdir())
        if f.name != "manifest.json"}


def contract(run, res, done):
    """(ok, note) for one run's result against its check or refusal."""
    code, err, files = res
    if run.refused:
        want, key = run.refused
        return (code == want and len(err.splitlines()) == 1 and files is None
                and "Traceback" not in err and (key or "") in err), err.strip()
    if code or not run.check:
        return code == 0, err.strip()
    return run.check(files, done)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--rerun", action="store_true")
    mode.add_argument("--against", metavar="REV")
    args = parser.parse_args()
    failed, done = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp, base = Path(tmp), ROOT / "src"
        if args.against:
            archive = subprocess.check_output(
                ["git", "archive", args.against, "src"], cwd=ROOT)
            subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive,
                           check=True)
            base = tmp / "src"
        for run in RUNS:
            first, now = result(base, run, tmp), result(ROOT / "src", run, tmp)
            done[run.name] = now[2]
            ok, note = contract(run, now, done) if args.rerun else (True, "")
            (code0, err0, files0), (code, err, files) = first, now
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
