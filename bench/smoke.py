"""The benchmark's own smoke check.

    python3 bench/smoke.py

Run from the repository root; it takes a few minutes.  For every workload
it runs bench/run.py for one round (``--seconds 1``) on the default seed,
whose answers are pinned, and requires a correct result with every
end-to-end metric by name and unit.  A traced run of every workload must
give every per-layer metric, and a nonzero value for each layer the
workload is meant to exercise (LAYERS): a wrapper that stops catching its
calls would otherwise show up only as a silent 0.  Then it corrupts square
witnesses (every b shifted by one) and requires the run to count failed
instances.  Exits 0 when all of that holds.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
from sumcore import witness  # noqa: E402

EVERY = ["setspec.parse_ms", "setspec.generate_ms", "model.build_ms", "cli.startup_ms",
         "cli.serialize_ms", "cli.report_bytes"]
CAYLEY = ["model.quotient_ms", "model.quotient_calls", "model.translate_ms",
          "model.translate_calls"]
# per-layer metrics that must be nonzero in a traced run of each workload
LAYERS = {
    "materialize": EVERY + [
        "setspec.generate_ms.m16", "setspec.generate_ms.m18", "setspec.bits_per_s",
        "model.members_ms", "model.members_ms.m16", "model.members_ms.m18",
        "model.views_ms", "model.setfile_write_ms", "model.setfile_read_ms",
        "density.window_ms", "density.regular_point_ms", "density.verify_ms"],
    "refute": EVERY + CAYLEY + [
        "witness.square_refuted_ms", "witness.growth_ms", "witness.triangular_ms",
        "witness.definable_ms", "ladder.search_ms", "ladder.nodes", "ladder.nodes_per_s",
        "ladder.exact_frac", "cover.exact_ms", "cover.bound_ms"],
    "certify": EVERY + CAYLEY + [
        "witness.square_found_ms", "witness.greedy_ms", "witness.upgrade_ms",
        "witness.verify_ms", "ladder.verify_ms", "cover.greedy_ms", "cover.verify_ms"],
}


def bench(workload, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(corpus.DEFAULT_SEED),
                         "--seconds", "1", "--trace", str(trace)])
    text = buf.getvalue()
    if code != 0:
        raise SystemExit(f"{workload}: exit code {code}\n{text}")
    return json.loads(text.strip().splitlines()[-1]), text


def expect_metrics(result, wanted, label):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    if got != want:
        raise SystemExit(f"{label}: metrics {sorted(got.items())} != {sorted(want.items())}")


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for workload in corpus.WORKLOADS:
        for trace in (0, 1):
            label = f"{workload}, trace {trace}"
            result, text = bench(workload, trace)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{label}: not correct\n{text}")
            expect_metrics(result, spec["per_layer" if trace else "end_to_end"], label)
            if trace:
                zero = [m for m in LAYERS[workload] if not result["metrics"][m]["value"] > 0]
                if zero:
                    raise SystemExit(f"{label}: layers not exercised: {', '.join(zero)}")
            print(f"{label}: {result['attempted']} attempted, all metrics present", flush=True)

    honest = witness.find_square_witness

    def shifted(*args, **kwargs):
        res = honest(*args, **kwargs)
        if isinstance(res, witness.SquareWitness):
            res = witness.SquareWitness(tuple(b + 1 for b in res.b), res.c)
        return res

    witness.find_square_witness = shifted
    try:
        result, text = bench("certify", 0)
    finally:
        witness.find_square_witness = honest
    if result["correct"] or not result["failed"]:
        raise SystemExit(f"corrupted square witnesses went unnoticed\n{text}")
    print(f"corrupted witnesses: {result['failed']} of {result['attempted']} failed, "
          "as required")
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
