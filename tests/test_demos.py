"""Every script under demos/ runs to completion in a fresh interpreter and
prints what it printed when pinned.

The pins are sha256 prefixes of each demo's stdout.  The demos print floats
from dense factorisations, so a numpy or LAPACK build that rounds
differently can move them; re-pin only after checking that the numbers the
demo prints did not change beyond their last digit.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "demo_duality": "dbdc00975cc4",
    "demo_grid": "a96a1d1f09d6",
    "demo_packing": "eef0b51ac9b2",
    "demo_positivity": "c618fc151a21",
    "demo_widths": "d9428fa7cc5f",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == [path.stem for path in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest()[:12] == STDOUT_SHA256[demo.stem]
