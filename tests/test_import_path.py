"""scipy stays off trajlab's import path.

Importing scipy's integrate and optimize modules costs about as much as
everything else a ``trajlab`` run does at start-up. Only the integration of
an interacting N-body system needs scipy, and it imports it on first use.
This runs the package in a fresh interpreter and checks that importing it,
listing the scenarios, default decay and Bernoulli runs and one decay
vertex solve leave scipy unloaded.
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

out, config = sys.argv[1], sys.argv[2]
assert cli.main(["list-scenarios"]) == 0
for name in ("decay", "bernoulli"):
    assert cli.main(["run", name, "--config", config, "--seed", "7",
                     "--out", f"{out}/{name}"]) == 0
masses = DecayMasses(4.0, 1.0, 2.0)
solve_decay_vertex(masses, sample_boundary(masses,
                                           np.random.default_rng(7))[0])
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
print(loaded)
"""


def test_scipy_not_imported(tmp_path):
    config = tmp_path / "empty.yaml"
    config.write_text("")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path / "out"), str(config)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    for name in ("decay", "bernoulli"):
        assert (tmp_path / "out" / name / "manifest.json").is_file()
