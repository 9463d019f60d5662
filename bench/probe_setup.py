"""One benchmark set-up in a fresh interpreter; prints its seconds.

    python3 bench/probe_setup.py WORKLOAD SEED WORKDIR
    python3 bench/probe_setup.py --reference

Times what a user pays before the first instance: importing sumcore and
the CLI, building (and validating) every model, and generating the
corpus with its input files.  With ``--reference`` it times what no
change to sumcore can move: importing numpy and eight rounds of the
reference loop of speed.py.  run.py pairs each set-up with a reference to
scale set-up time to nominal machine speed.  Run from the repository root.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

if sys.argv[1] == "--reference":
    import speed  # noqa: E402  (imports numpy)

    for _ in range(8):
        speed._reference()
else:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    import sumcore  # noqa: E402,F401
    import sumcore.cli  # noqa: E402,F401

    import corpus  # noqa: E402

    corpus.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(time.perf_counter() - t0)
