import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fingerprints import PATH, environment_difference

SRC = Path(__file__).resolve().parents[1] / "src"


def test_seeded_runs_match_recorded_fingerprints():
    """The five seeded runs in fingerprints.json repeat bit for bit. They run
    in a child process on one BLAS thread; in another numpy/BLAS build the
    comparison is skipped, naming the difference."""
    recorded = json.loads(PATH.read_text())
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=pythonpath)
    proc = subprocess.run(
        [sys.executable, str(PATH.with_suffix(".py"))], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    current = json.loads(proc.stdout)
    difference = environment_difference(recorded["environment"], current["environment"])
    if difference:
        pytest.skip(f"fingerprints were recorded in another environment: {difference}")
    assert current["runs"] == recorded["runs"]
