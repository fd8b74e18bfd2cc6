"""The example scripts run end to end against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# both wide three-box meters read the weak marginal +1
WIDE_THREE_BOX = ("first-path indicator : +1.000000", "third-path indicator : +1.000000")
# the sweep's narrowest default width reads the accurate mean
ACCURATE_END = ("      0.01        0.495025",)


@pytest.mark.parametrize(
    "name, args, lines",
    [
        ("weak_value_sweep.py", (), ACCURATE_END),
        ("three_box_demo.py", (), WIDE_THREE_BOX),
        ("quantum_vs_classical.py", ("--trials", "2000"), ()),
    ],
)
def test_script_runs(name, args, lines):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    for line in lines:
        assert line in done.stdout
