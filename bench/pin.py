"""Record the canonical answers of the default seed in pinned.json.

    python3 bench/pin.py

Run from the repository root.  Every instance is solved once and must
pass its checks before its answer is pinned.  Canonical outputs are meant
to survive every optimisation, so re-pinning is only for a change to the
corpus itself.
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import corpus as C  # noqa: E402
import pipeline  # noqa: E402


def main():
    pinned = {}
    for workload in C.WORKLOADS:
        corpus = C.build(workload, C.DEFAULT_SEED, C.workdir(workload, C.DEFAULT_SEED))
        rng = random.Random(0)
        pinned[workload] = {}
        for inst in corpus.instances:
            out = pipeline.solve(inst, corpus.models[inst.model], corpus.workdir)
            pipeline.check(inst, out, corpus.files, rng)
            pinned[workload][inst.id] = pipeline.answer_digest(out)
            print(workload, inst.id, pinned[workload][inst.id], flush=True)
    (HERE / "pinned.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
