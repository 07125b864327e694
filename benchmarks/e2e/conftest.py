"""Self-test configuration: ``python -m pytest benchmarks/e2e -q``.

Not part of tier-1 (``testpaths = ["tests"]``). Puts ``src/`` on the
import path and confines the compiled-kernel cache and temp files to
``benchmarks/e2e/out/`` exactly as ``run.py`` does.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent, HERE.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from e2e.run import confine_writes  # noqa: E402

confine_writes()
