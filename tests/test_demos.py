"""The demo scripts run as written.

Each runs from a copy under tmp_path, so that it writes its out/ next to
the copy and never into demos/out/ of the checkout.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          cwd=tmp_path, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    out = done.stdout.splitlines()[-1].removeprefix("outputs in ")
    assert Path(out).parent == tmp_path / "out"
    assert os.listdir(out)
