#!/usr/bin/env python3
"""The sumcore benchmark.

    python3 bench/run.py --workload {materialize,refute,certify} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  One process, one caller: instances run one
after another, with no worker threads (a closed loop with one client).
The run sets up the seeded corpus, then repeats rounds until
``--seconds`` are spent.  A round is one pass over the library instances
and one pass over the CLI cases; with ``--trace 1`` it is one library pass
that solves each instance once untraced and once traced, back to back.
Every answer is checked (see pipeline.py); a wrong, unverified or
non-exhaustive answer, an exception or a hit wall-clock limit counts as a
failed instance and is never dropped.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Lines before it explain the run.  Spans and scaling rows of a traced run
are written under ``.bench_out/``.
"""

import argparse
import gc
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from speed import SETUP_REF_NOMINAL_S, PASS_ELASTICITY, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = Path(".bench_out")

# Everything, set-up and subprocesses included, ends by this many seconds
# after start; work not started by then counts as failed.
RUN_DEADLINE_S = 140.0
# Cap on any one instance or CLI case.  A regression to a runaway search
# shows up as a failure instead of a hung run.
INSTANCE_LIMIT_S = 20.0
SETUP_REPEATS = 10
STARTUP_REPEATS = 5
TAIL_BEYOND = 10
REPEAT_S = 0.1
MAX_REPEATS = 5


class InstanceTimeout(BaseException):
    """Raised by SIGALRM when an instance hits its wall-clock limit."""


def _alarm(signum, frame):
    raise InstanceTimeout()


class Run:
    def __init__(self, corpus, pinned, speed):
        self.corpus = corpus
        self.pinned = pinned
        self.speed = speed
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.timed_out = set()
        self.rng = random.Random(f"check:{corpus.seed}")

    def remaining(self):
        return RUN_DEADLINE_S - (time.perf_counter() - self.start)

    def fail(self, what, why):
        self.failed += 1
        if len(self.failures) < 50:
            self.failures.append(f"{what}: {why}")

    def solve(self, inst, tracer=None):
        """Solve one instance, check its answer; returns (seconds, outcome).

        With a tracer, its wrappers are in place for the solve only."""
        import pipeline

        corpus = self.corpus
        if tracer is not None:
            tracer.instance = inst.id
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = pipeline.solve(inst, corpus.models[inst.model], corpus.workdir)
            elapsed = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        pipeline.check(inst, out, corpus.files, self.rng, self.pinned)
        return elapsed, out

    def library_pass(self, tracer=None):
        """Solve and check every instance once per pass.

        Without a tracer, an instance is repeated while its repeats add up
        to less than REPEAT_S (at most MAX_REPEATS times): one sample of a
        millisecond-scale instance mostly measures scheduler noise.  With a
        tracer, each instance is solved once untraced and once traced, in
        alternating order, so the two sides of ``trace.overhead_frac`` are
        measured alike.  A
        reference sample sits between any two instances (see speed.py).
        Returns (seconds, {id: [seconds of each repeat]}, {id: traced
        seconds}, bytes, factor), all at nominal machine speed: seconds is
        the pass's total (the sum of each instance's median repeat),
        divided by ``factor`` ** PASS_ELASTICITY; the per-instance times
        are divided by ``factor``, the pass's slowdown.
        """
        import pipeline

        corpus = self.corpus
        times, traced = {}, {}
        report_bytes = 0
        gc.collect()
        mark = self.speed.mark()
        self.speed.sample(3)
        for n, inst in enumerate(corpus.instances):
            self.speed.sample()
            self.attempted += 1
            if inst.id in self.timed_out or self.remaining() < 0:
                self.fail(inst.id, "wall-clock limit" if inst.id in self.timed_out
                          else "not started before the run deadline")
                continue
            signal.setitimer(signal.ITIMER_REAL, min(INSTANCE_LIMIT_S,
                                                     max(self.remaining(), 0.01)))
            reps = []
            # with a tracer, every other instance is solved traced first, so
            # the second solve's warm caches favour neither side
            traced_first = tracer is not None and n % 2 == 1
            try:
                if traced_first:
                    traced[inst.id], out = self.solve(inst, tracer)
                while True:
                    elapsed, out = self.solve(inst)
                    reps.append(elapsed)
                    if (tracer is not None or len(reps) == MAX_REPEATS
                            or sum(reps) >= REPEAT_S):
                        break
                if tracer is not None and not traced_first:
                    traced[inst.id], out = self.solve(inst, tracer)
            except InstanceTimeout:
                self.timed_out.add(inst.id)
                self.fail(inst.id, "hit its wall-clock limit")
                continue
            except pipeline.Mismatch as exc:
                self.fail(inst.id, str(exc))
                continue
            except Exception as exc:  # any error is a failed instance
                self.fail(inst.id, f"{type(exc).__name__}: {exc}")
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            times[inst.id] = reps
            report_bytes += len(out.text.encode())
        self.speed.sample()
        factor = self.speed.factor(mark)
        total = sum(statistics.median(ts) for ts in times.values())
        return (total / factor ** PASS_ELASTICITY,
                {i: [t / factor for t in ts] for i, ts in times.items()},
                {i: t / factor for i, t in traced.items()}, report_bytes, factor)

    def cli_pass(self):
        """Run every CLI case as a subprocess; returns total wall seconds."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        total = 0.0
        for case in self.corpus.cli_cases:
            self.attempted += 1
            limit = min(INSTANCE_LIMIT_S, self.remaining())
            if limit <= 0:
                self.fail(f"cli:{case.id}", "not started before the run deadline")
                continue
            t0 = time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, "-m", "sumcore.cli", *case.argv],
                                      env=env, capture_output=True, text=True,
                                      timeout=limit)
            except subprocess.TimeoutExpired:
                total += time.perf_counter() - t0
                self.fail(f"cli:{case.id}", "hit its wall-clock limit")
                continue
            total += time.perf_counter() - t0
            why = check_cli(case, proc)
            if why:
                self.fail(f"cli:{case.id}", why)
        return total


def check_cli(case, proc):
    """Exit code as the README defines it, and the report's content."""
    from sumcore import cli, model, setspec

    if proc.returncode != case.exit_code:
        return f"exit code {proc.returncode}, expected {case.exit_code}: {proc.stderr[-300:]}"
    exp = case.expect
    if "file" in exp:
        members, _ = model.read_set_file(exp["file"])
        argv = case.argv
        mdl = cli.parse_model_arg(argv[argv.index("--model") + 1])
        A = setspec.generate_set(mdl, setspec.parse_set_spec(argv[argv.index("--set") + 1]))
        if not np.array_equal(np.asarray(members, dtype=np.int64), np.flatnonzero(A.to_numpy())):
            return "gen output differs from the generated set"
        return None
    try:
        rep = json.loads(proc.stdout)
    except ValueError:
        return "stdout is not a JSON report"
    if rep.get("certificate") is not None and rep.get("verified") is not True:
        return "certificate not verified"
    res = rep.get("result", {})
    for key, want in exp.items():
        if key == "densities":
            got = [r["density"] for r in res["schedule"]]
        elif key == "t" and "certificate" in rep and rep["certificate"]:
            got = len(rep["certificate"]["translates"])
        else:
            got = res.get(key)
        if got != want:
            return f"{key}={got!r}, expected {want!r}"
    return None


def _probe(args, timeout):
    proc = subprocess.run([sys.executable, str(HERE / "probe_setup.py"), *args],
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload, seed, deadline_s):
    """Fresh-interpreter set-ups (import, model build, corpus), each right
    before a reference probe (probe_setup.py --reference).  Returns the median
    over pairs of set-up / reference, times SETUP_REF_NOMINAL_S: the set-up
    at nominal machine speed (see speed.py).  Also returns the raw set-ups
    and references.
    """
    setups, refs = [], []
    timeout = max(deadline_s / (2 * SETUP_REPEATS), 1.0)
    for _ in range(SETUP_REPEATS):
        setups.append(_probe([workload, str(seed), str(OUT / f"setup-probe-{workload}")],
                             timeout))
        refs.append(_probe(["--reference"], timeout))
    ratio = statistics.median(s / r for s, r in zip(setups, refs))
    return ratio * SETUP_REF_NOMINAL_S, setups, refs


def measure_startup():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    vals = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sumcore.cli"], env=env,
                       check=True, timeout=60)
        vals.append(1000.0 * (time.perf_counter() - t0))
    return statistics.median(vals)


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    i = max(n - 1 - TAIL_BEYOND, 0)
    return vals[i], 100.0 * (i + 1) / n, n


def per_instance_medians(pass_times):
    """Each instance's median over all its repeats in all passes."""
    ids = set().union(*pass_times) if pass_times else set()
    return {i: statistics.median([x for t in pass_times for x in t.get(i, ())])
            for i in ids}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("materialize", "refute", "certify"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sumcore" / "__init__.py").is_file():
        print(f"sumcore sources not found under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.perf_counter()
    OUT.mkdir(exist_ok=True)

    setup_s, setup_vals, setup_refs = measure_setup(args.workload, args.seed,
                                                    RUN_DEADLINE_S / 3)

    sys.path.insert(0, str(SRC))
    import corpus as C
    import pipeline
    import tracing

    workdir = C.workdir(args.workload, args.seed)
    corpus = C.build(args.workload, args.seed, workdir)
    pinned = None
    if args.seed == C.DEFAULT_SEED:
        pinned = json.loads((HERE / "pinned.json").read_text()).get(args.workload, {})
    signal.signal(signal.SIGALRM, _alarm)
    speed = Speed()
    run = Run(corpus, pinned, speed)
    run.start = started

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        mark = speed.mark()
        speed.sample(3)
        tracer.install()
        tracer.instance = "setup"
        C.build(args.workload, args.seed, workdir)
        tracer.uninstall()
        speed.sample(3)
        setup_layers = tracing.layer_metrics(tracer.spans, 0, speed.factor(mark))

    solve, overheads, pass_times, cli_times = [], [], [], []
    layer_passes, row_passes, factors = [], [], []
    t_measure = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        mark = len(tracer.spans) if tracer is not None else 0
        total, times, traced, report_bytes, factor = run.library_pass(tracer)
        solve.append(total)
        pass_times.append(times)
        factors.append(factor)
        if tracer is None:
            cli_times.append(run.cli_pass())
        else:
            both = traced.keys() & times.keys()
            overheads.append(sum(traced[i] for i in both) / sum(times[i][0] for i in both) - 1)
            spans = tracer.spans[mark:]
            layer_passes.append(tracing.layer_metrics(spans, report_bytes, factor))
            row_passes.append(tracing.scaling_rows(spans, corpus.instances, factor))
        now = time.perf_counter()
        # another round only if it would end within half a round of --seconds
        if now - t_measure + (now - r0) / 2 > args.seconds or run.remaining() < 2 * (now - r0):
            break

    inst_med = per_instance_medians(pass_times)
    p50 = statistics.median(inst_med.values()) if inst_med else float("nan")
    tail_v, tail_pct, tail_n = tail(inst_med.values()) if inst_med else (float("nan"), 0, 0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = run.attempted, run.failed

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} instances={len(corpus.instances)} "
          f"cli_cases={len(corpus.cli_cases)} passes={len(solve)} "
          f"pinned={'yes' if pinned is not None else 'no'}")
    values = {
        "solve_s": statistics.median(solve),
        "instance_p50_ms": 1000.0 * p50,
        "instance_tail_ms": 1000.0 * tail_v,
        "cli_s": statistics.median(cli_times) if cli_times else float("nan"),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "solve_s": f"median of {len(solve)} passes over {len(corpus.instances)} instances",
        "instance_p50_ms": f"median of {len(inst_med)} per-instance medians",
        "instance_tail_ms": f"p{tail_pct:.1f} of {tail_n} per-instance medians "
                            f"({TAIL_BEYOND} beyond)",
        "cli_s": f"median of {len(cli_times)} passes over {len(corpus.cli_cases)} CLI cases",
        "setup_s": f"median of {len(setup_vals)} set-up/reference ratios x "
                   f"{SETUP_REF_NOMINAL_S}; raw set-ups "
                   + ", ".join(f"{v:.4f}" for v in setup_vals) + "; references "
                   + ", ".join(f"{v:.4f}" for v in setup_refs),
        "peak_rss_mb": "ru_maxrss of this process",
    }
    print("  library times are at nominal machine speed (speed.py); slowdown factor "
          "per pass: " + ", ".join(f"{f:.3f}" for f in factors))
    print("  passes (s): " + ", ".join(f"{v:.4f}" for v in solve))
    for iid, v in sorted(inst_med.items(), key=lambda kv: kv[1]):
        print(f"  instance {iid:28s} {1000.0 * v:12.3f} ms")
    for name, v in values.items():
        if tracer is not None and name == "cli_s":
            continue
        print(f"  {name:18s} {v!r:>22} {notes[name]}")
    frac = failed / attempted if attempted else 1.0
    print(f"  failed_frac        {frac!r:>22} {failed} of {attempted} attempted "
          f"(library and CLI)")
    for line in run.failures:
        print(f"  FAILED {line}")

    if tracer is None:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    else:
        layers = {}
        for key in set().union(*layer_passes):
            layers[key] = statistics.median(p.get(key, 0) for p in layer_passes)
        layers["model.build_ms"] = setup_layers.get("model.build_ms", 0.0)
        layers["cli.startup_ms"] = measure_startup()
        layers["trace.overhead_frac"] = statistics.median(overheads)
        metrics = {}
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
        absent = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
        if absent:
            print("  not exercised by this workload (reported as 0): " + ", ".join(absent))
        rows = tracing.median_rows(row_passes, corpus.instances)
        for row in rows:
            print(f"  row {row['instance']:24s} {row['op']:22s} {row['self_ms']:10.3f} ms  "
                  f"{row['model']} {row['set']}")
        tracer.dump(OUT / f"trace-{args.workload}-s{args.seed}.jsonl")
        (OUT / f"rows-{args.workload}-s{args.seed}.json").write_text(json.dumps(rows, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
