"""The stdout of the scripts, byte for byte, each run in a fresh process:
a refactor of the library must leave the weight table and the scan
distributions unchanged.  Timings are dropped from the weight table."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,md5", [
    ("scan_small_codes.py", "f070922d6cce0325e077c33e7c7d16c2"),
    ("weight_table.py", "0e558b3f3077b887267008faeb81dea7"),
])
def test_script_stdout_pinned(script, md5):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path)).stdout
    out = re.sub(r"\([0-9.]*s\)", "", out)
    assert hashlib.md5(out.encode()).hexdigest() == md5
