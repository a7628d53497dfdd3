"""Every demo script runs to completion, warning-free, and prints exactly its
recorded output in ``demos/expected/<name>.txt``."""

import glob
import os
import subprocess
import sys

import pytest

from test_harness import subprocess_env

DEMO_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
DEMOS = sorted(glob.glob(os.path.join(DEMO_DIR, "*.py")))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    """Under the test suite's warning policy, with nothing on stderr. The
    demos print 3-6 significant digits, so last-bit rounding differences in
    BLAS cannot change their output."""
    res = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", path],
        env=subprocess_env(os.environ),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    name = os.path.splitext(os.path.basename(path))[0]
    with open(os.path.join(DEMO_DIR, "expected", f"{name}.txt"), encoding="utf-8") as fh:
        assert res.stdout == fh.read()
