"""Every demo runs to the end with nothing on stderr, and prints exactly the
report recorded below (sha256 of its stdout)."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "bass_and_small_support": "4979f12c96739e26ac896bddf606910e52c4c37c39bca9c77102dc83e26088ea",
    "characteristic_dependence": "d3f8ab4959266a14c969de9115428cd9dfc94c97bc8e79300dbd907acda41fd4",
    "cycle_ideals": "43a20850ed489a27786e0feab54bdaba2398a29b2594ef3d3eb19ed96f0d51ed",
    "dual_bass_and_strands": "7e2c408d9c9509e7fe13a72624cb6b9ab40e58690e0602147ab3b5282dcce333",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
