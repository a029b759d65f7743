"""Fresh-interpreter side of the benchmark.

    python child.py stage MARK_FILE SSWAVE_ARGS...
        Imports sswave.cli, writes time.perf_counter() at that moment to
        MARK_FILE, then runs the CLI exactly as the `sswave` console script
        does.  perf_counter is CLOCK_MONOTONIC, shared with the parent, so
        the parent turns the mark into the stage's set-up time.

    python child.py imports
        Import-split probe: times numpy, then the scipy submodules sswave
        uses, then sswave.cli, and prints one JSON object.
"""

import sys
import time


def _stage(mark: str, argv: list) -> int:
    import sswave.cli
    done = time.perf_counter()
    with open(mark, "w", encoding="utf-8") as fh:
        fh.write(repr(done))
    return sswave.cli.main(argv)


def _imports() -> int:
    import json
    t0 = time.perf_counter()
    import numpy
    t1 = time.perf_counter()
    import scipy
    import scipy.integrate
    import scipy.interpolate
    import scipy.special
    t2 = time.perf_counter()
    import sswave.cli
    t3 = time.perf_counter()
    print(json.dumps({"numpy_s": t1 - t0, "scipy_s": t2 - t1, "sswave_s": t3 - t2,
                      "done": t3, "python": sys.version.split()[0],
                      "numpy": numpy.__version__, "scipy": scipy.__version__,
                      "sswave_file": sswave.cli.__file__}))
    return 0


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "stage":
        sys.exit(_stage(sys.argv[2], sys.argv[3:]))
    if sys.argv[1:] == ["imports"]:
        sys.exit(_imports())
    print(__doc__, file=sys.stderr)
    sys.exit(2)
