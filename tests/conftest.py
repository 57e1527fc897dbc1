"""Make the package under src/ importable in the processes a test starts,
as ``pythonpath`` in pyproject.toml does for the test process itself."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
