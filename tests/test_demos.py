"""Every demo script runs to completion, warning-free."""

import glob
import os
import subprocess
import sys

import pytest

from test_harness import subprocess_env

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos", "*.py")))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    """Under the test suite's warning policy, with nothing on stderr."""
    res = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", path],
        env=subprocess_env(os.environ),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
