"""Let the tests that start `python -m gskit.cli` in a subprocess import the
package from this source tree, installed or not (pyproject's pytest
`pythonpath` covers only the test process itself)."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
