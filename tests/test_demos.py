import os
import subprocess
import sys
from pathlib import Path

import pytest

import sigpath as sp

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    # the child imports the same sigpath as this process, with BLAS on one thread
    src = os.path.dirname(os.path.dirname(sp.__file__))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
