"""Run Python in a child process that imports the package from this checkout.

The end-to-end tests must not depend on an installed ``genocchi`` script
being on PATH, so they start ``sys.executable`` with the checkout's ``src``
prepended to ``PYTHONPATH``. ``src`` is found from this file's location,
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
    """``python *args`` with ``src`` first on ``PYTHONPATH``; output captured as
    text, unless ``stdout`` names another file descriptor for it. ``env`` adds
    variables to the inherited environment."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **(env or {}), "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env
    )
