"""Import footprint: a ymlab process loads scipy for its FFTs only."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg",
         "scipy.spatial")


def test_ymlab_imports_no_heavy_scipy_subpackage():
    """scipy.integrate would pull in the others: about 24 MB of resident
    memory and 0.3 s of start-up in every CLI run."""
    code = ("import sys\n"
            "import ymlab, ymlab.cli, ymlab.runner, ymlab.mkg, ymlab.diagnostics\n"
            "print(' '.join(sorted(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "ymlab.diagnostics" in out and "scipy.fft" in out
    loaded = [m for m in out if any(m == h or m.startswith(h + ".") for h in HEAVY)]
    assert loaded == []
