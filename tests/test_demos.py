"""The demos run to completion as scripts.

Demo 04 trains for 3000 slots and stays a manual run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "name",
    [
        "01_channel_playground.py",
        "02_classical_beamformers.py",
        "03_agent_anatomy.py",
        "05_harness_pipeline.py",
    ],
)
def test_demo_exits_zero(name):
    env = dict(os.environ)
    env.pop("CBFLAB_OUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
