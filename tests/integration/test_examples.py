"""Every example script must run to completion as a subprocess."""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples")
SRC_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)


def run_example(name, *args):
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, name))
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, path, *args],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "aggregate verified" in out


def test_sync_femnist_cnn():
    out = run_example("sync_femnist_cnn.py", "--rounds", "1")
    assert "lightsecagg" in out
    assert "accuracy gap" in out


def test_async_buffered_fl():
    out = run_example("async_buffered_fl.py", "--rounds", "2")
    assert "async-lightsecagg" in out


def test_privacy_attack_demo():
    out = run_example("privacy_attack_demo.py")
    assert "success=True" in out
    assert "success=False" in out


def test_straggler_resilience():
    out = run_example("straggler_resilience.py")
    assert "on critical path: False" in out


def test_paper_example_3users():
    out = run_example("paper_example_3users.py")
    assert "eq. 4" in out or "ONE subtraction" in out
    assert "verified exactly" in out
