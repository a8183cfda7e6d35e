"""scipy stays off trajlab's path.

Importing scipy's integrate and optimize modules costs more than
everything else a ``trajlab`` run does at start-up, and trajlab needs
neither: its N-body integrator is an in-package DOP853 stepper, and scipy
is only a test dependency, a reference for the package's own solvers. This
runs the package in a fresh interpreter and checks that importing it,
listing the scenarios, default decay and Bernoulli runs, one decay vertex
solve, and ``bigbang`` runs at the defaults and with the bump field leave
scipy unloaded.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import numpy as np
import trajlab, trajlab.cli
from trajlab import cli
from trajlab.decay import DecayMasses, sample_boundary, solve_decay_vertex

out, config, bump = sys.argv[1], sys.argv[2], sys.argv[3]
RUNS = {"decay": config, "bernoulli": config, "bigbang": config,
        "bigbang-bump": bump}
assert cli.main(["list-scenarios"]) == 0
for run, run_config in RUNS.items():
    assert cli.main(["run", run.partition("-")[0], "--config", run_config,
                     "--seed", "7", "--out", f"{out}/{run}"]) == 0
masses = DecayMasses(4.0, 1.0, 2.0)
solve_decay_vertex(masses, sample_boundary(masses,
                                           np.random.default_rng(7))[0])
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
print(loaded)
"""


def test_scipy_not_imported(tmp_path):
    config = tmp_path / "empty.yaml"
    config.write_text("")
    bump = tmp_path / "bump-field.yaml"
    bump.write_text("parameters:\n  interaction: bump\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path / "out"), str(config),
         str(bump)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    for run in ("decay", "bernoulli", "bigbang", "bigbang-bump"):
        assert (tmp_path / "out" / run / "manifest.json").is_file()
