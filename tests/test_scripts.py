"""The stdout of the scripts, byte for byte, each run in a fresh process:
a refactor of the library must leave the answer table, its weights and
its scan distributions unchanged.  Timings are dropped.  Every script
has a pin, so none lands unchecked."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PINS = {"answer_table.py": "8da268b59b3b59ad8520b12400ec1c20"}


@pytest.mark.parametrize("script,md5", sorted(PINS.items()))
def test_script_stdout_pinned(script, md5):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path)).stdout
    out = re.sub(r"\([0-9.]*s\)", "", out)
    assert hashlib.md5(out.encode()).hexdigest() == md5


def test_every_script_is_pinned():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(PINS)
