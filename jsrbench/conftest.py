"""Make the library under ``src/`` and this directory's modules importable
for ``python3 -m pytest jsrbench``."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
