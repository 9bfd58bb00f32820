"""Let ``python -m cfcool`` in test subprocesses import the source tree under test."""

import os
from pathlib import Path


def pytest_configure(config):
    src = str(Path(__file__).resolve().parents[1] / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
