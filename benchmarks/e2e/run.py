"""Entry point of the end-to-end benchmark (see README.md beside it).

Puts the benchmark package and the repository's ``src/`` on the import
path and keeps everything the program writes — compiled kernels,
compiler probe files — inside ``benchmarks/e2e/out/``, so a run reads
and writes nothing outside its checkout.
"""

import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SRC = ROOT / "src"


def confine_writes() -> None:
    for sub in ("ckernels", "tmp"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CKERNEL_CACHE"] = str(OUT / "ckernels")
    os.environ["TMPDIR"] = str(OUT / "tmp")
    tempfile.tempdir = None       # re-read TMPDIR on next use


if __name__ == "__main__":
    # The script's own directory comes first on sys.path; replace it
    # with the directory that makes ``e2e`` importable as a package.
    if not (SRC / "repro" / "__init__.py").is_file():
        # Never fall back to some other installed copy of the program.
        sys.exit(f"e2e: nothing to measure: {SRC / 'repro'} is missing")
    sys.path[0] = str(HERE.parent)
    sys.path.insert(1, str(SRC))
    confine_writes()
    from e2e.cli import main

    sys.exit(main())
