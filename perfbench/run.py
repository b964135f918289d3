"""motif-poisson benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the library is imported from the
``src/`` directory beside this one, and without it the benchmark exits
non-zero and prints no result.  ``--trace 1`` writes its spans to
``perfbench/out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a failed
correctness check exits 1.  See ``README.md`` for the workloads and metrics.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

if __name__ == "__main__":
    if not (SRC / "motif_poisson" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import motif_poisson

    if Path(motif_poisson.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: imported {motif_poisson.__file__}, not {SRC}")
    from runner import main

    sys.exit(main())
