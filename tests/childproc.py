"""Run Python in a child process that imports the package from this checkout.

The end-to-end tests must not depend on an installed ``genocchi`` script
being on PATH, so they start ``sys.executable -S`` with the checkout's
``src`` alone on ``PYTHONPATH``. ``-S`` drops site-packages, so every child
runs with the standard library alone: an import from outside it fails there
as it would before any install. ``src`` is found from this file's location,
not from the working directory.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def run_python(
    *args: str, env: dict[str, str] | None = None, stdout=subprocess.PIPE
) -> subprocess.CompletedProcess:
    """``python -S *args`` with ``src`` alone on ``PYTHONPATH``; output captured
    as text, unless ``stdout`` names another file descriptor for it. ``env``
    adds variables to the inherited environment."""
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-S", *args], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env
    )
