"""Module boundaries: the production path never loads the cross-checks."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_production_modules_do_not_import_identities():
    code = ("import sys, comppat, comppat.cli; "
            "print('comppat.identities' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert res.stdout.strip() == "False"
