"""Put the program under test on ``sys.path`` (the benchmark imports it
from ``src``, as ``perfbench/run.py`` does)."""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
