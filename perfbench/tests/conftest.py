"""Put the benchmark's modules and the checkout's ``src`` on the path."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parents[1] / "src", HERE.parent):
    sys.path.insert(0, str(path))
