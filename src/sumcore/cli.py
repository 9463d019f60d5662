"""Command line surface: parse a model and a set expression, dispatch one
operation, emit a reproducible machine-readable report.

Every subcommand shares one JSON schema:

    {
      "kind": <subcommand>,
      "parameters": {model, set, seed, budget, ...},
      "result": {"status": ..., payload...},
      "certificate": {...} | null,
      "verified": true | false | null,
      "wall_time_ms": <float>
    }

Rationals are serialized as strings "p/q".  Exit codes: 0 = found /
computed, 1 = NotFound / Infeasible / certificate-of-failure (still a
valid run), 2 = error.  Reports are byte-identical across runs with the
same arguments and seed, except for the wall_time_ms field.
"""

import argparse
import csv
import io
import json
import sys
import time
import traceback
from fractions import Fraction

from . import cover as cover_mod
from . import density as density_mod
from . import ladder as ladder_mod
from . import witness as witness_mod
from .errors import SumcoreError
from .ladder import LadderCertificate
from .model import build_model, cyclic_table, set_file_text, write_set_file
from .setspec import generate_set, parse_set_spec, spec_to_text


def parse_model_arg(text):
    """zwindow:M:L | zmod:n | cayley:<path to JSON table>."""
    parts = text.split(":")
    if parts[0] == "zwindow" and len(parts) == 3:
        return build_model({"kind": "zwindow", "M": int(parts[1]), "L": int(parts[2])})
    if parts[0] == "zmod" and len(parts) == 2:
        return build_model({"kind": "cayley", "table": cyclic_table(int(parts[1]))})
    if parts[0] == "cayley" and len(parts) >= 2:
        path = text.split(":", 1)[1]
        with open(path) as fh:
            table = json.load(fh)
        return build_model({"kind": "cayley", "table": table})
    raise SumcoreError(f"cannot parse model {text!r}")


def parse_fraction(text):
    return Fraction(text)


def parse_pair(text):
    a, b = text.split(",")
    return int(a), int(b)


def to_jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) <= {int}:
            return list(obj)  # certificates hold long lists of plain ints
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "__dataclass_fields__"):
        out = {"type": type(obj).__name__}
        for name in obj.__dataclass_fields__:
            out[name] = to_jsonable(getattr(obj, name))
        return out
    return repr(obj)


def emit(report, args, rows=None):
    """Write the report (json) or tabular rows (csv) to --output/stdout."""
    if args.out == "csv" and rows is not None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_report(kind, params, result, certificate, verified, t0):
    return {
        "kind": kind,
        "parameters": to_jsonable(params),
        "result": to_jsonable(result),
        "certificate": to_jsonable(certificate),
        "verified": verified,
        "wall_time_ms": round((time.perf_counter() - t0) * 1000.0, 3),
    }


def common_params(args, **extra):
    params = {
        "model": args.model,
        "set": args.set,
        "seed": args.seed,
        "budget": args.budget,
    }
    params.update(extra)
    return params


def load_instance(args):
    model = parse_model_arg(args.model)
    spec = parse_set_spec(args.set)
    A = generate_set(model, spec)
    return model, A


# --- subcommand handlers -----------------------------------------------------


def cmd_gen(args):
    model, A = load_instance(args)
    if args.output:
        write_set_file(args.output, A.members(), size=model.carrier_size,
                       fmt=args.format)
    else:
        sys.stdout.write(set_file_text(A.members(), size=model.carrier_size,
                                       fmt=args.format))
    return 0


def cmd_density(args):
    t0 = time.perf_counter()
    model, A = load_instance(args)
    if args.schedule:
        lengths = [int(x) for x in args.schedule.split(",")]
        reports = density_mod.density_schedule(A, lengths)
        result = {"status": "computed", "schedule": reports}
        rows = [("n", "best_start", "count", "density")]
        rows += [(r.window_length, r.best_start, r.count,
                  f"{r.density.numerator}/{r.density.denominator}")
                 for r in reports]
        report = build_report("density",
                              common_params(args, schedule=args.schedule),
                              result, None, None, t0)
        emit(report, args, rows=rows)
        return 0
    n = args.n if args.n is not None else min(model.carrier_size, 1000)
    rep = density_mod.banach_density(A, n)
    report = build_report("density", common_params(args, n=args.n),
                          {"status": "computed", "report": rep}, None, None, t0)
    emit(report, args)
    return 0


def cmd_find_point(args):
    t0 = time.perf_counter()
    model, A = load_instance(args)
    interval = parse_pair(args.interval) if args.interval else (0, model.carrier_size)
    res = density_mod.find_regular_point(A, interval, args.alpha, args.N)
    params = common_params(args, interval=list(interval),
                           alpha=args.alpha, N=args.N)
    if isinstance(res, density_mod.GoodPoint):
        verified = density_mod.verify_good_point(res, A)
        report = build_report("find-point", params,
                              {"status": "good_point", "x": res.x},
                              res, verified, t0)
        emit(report, args)
        return 0
    verified = density_mod.verify_density_certificate(res, A)
    report = build_report("find-point", params,
                          {"status": "partition", "blocks": len(res.block_counts)},
                          res, verified, t0)
    emit(report, args)
    return 1


def cmd_ladder(args):
    t0 = time.perf_counter()
    model, A = load_instance(args)
    res = ladder_mod.max_ladder(A, model, args.k_max, budget=args.budget)
    verified = None
    if res.certificate is not None:
        verified = ladder_mod.verify_ladder(res.certificate, A, model)
    report = build_report(
        "ladder", common_params(args, k_max=args.k_max),
        {"status": "computed", "k": res.k,
         "lower_bound_only": res.lower_bound_only},
        res.certificate, verified, t0)
    emit(report, args)
    return 0


def cmd_witness(args):
    t0 = time.perf_counter()
    model, A = load_instance(args)
    res = witness_mod.find_square_witness(A, model, args.k, mode=args.mode,
                                          budget=args.budget)
    params = common_params(args, k=args.k, mode=args.mode)
    if isinstance(res, witness_mod.SquareWitness):
        verified = witness_mod.verify_square_witness(res, A, model)
        report = build_report("witness", params,
                              {"status": "found", "k": args.k}, res, verified, t0)
        emit(report, args)
        return 0
    report = build_report("witness", params,
                          {"status": "not_found", "exhaustive": res.exhaustive},
                          None, None, t0)
    emit(report, args)
    return 1


def cmd_triangular(args):
    t0 = time.perf_counter()
    model, A = load_instance(args)
    scorer = None if args.scorer == "exact" else args.scorer
    res = witness_mod.find_triangular_witness(A, model, args.m, scorer=scorer,
                                              budget=args.budget, seed=args.seed)
    params = common_params(args, m=args.m, scorer=args.scorer)
    if isinstance(res, witness_mod.TriangularWitness):
        verified = witness_mod.verify_triangular_witness(res, A, model)
        report = build_report("triangular", params,
                              {"status": "found", "m": args.m}, res, verified, t0)
        emit(report, args)
        return 0
    report = build_report("triangular", params,
                          {"status": "not_found", "exhaustive": res.exhaustive},
                          None, None, t0)
    emit(report, args)
    return 1


def cmd_upgrade(args):
    t0 = time.perf_counter()
    model, A = load_instance(args)
    b = tuple(int(x) for x in args.b.split(","))
    c = tuple(int(x) for x in args.c.split(","))
    tri = witness_mod.TriangularWitness(b, c)
    res = witness_mod.ramsey_upgrade(tri, A, model)
    verified = witness_mod.verify_upgrade(res, A, model)
    report = build_report("upgrade", common_params(args, b=list(b), c=list(c)),
                          {"status": "computed", "tag": res.tag,
                           "homogeneous_size": len(res.indices)},
                          res, verified, t0)
    emit(report, args)
    return 0


def cmd_defwitness(args):
    t0 = time.perf_counter()
    model, A = load_instance(args)
    res = witness_mod.definable_witness_search(A, model, args.family, args.n,
                                               budget=args.budget,
                                               step_max=args.step_max)
    params = common_params(args, family=args.family, n=args.n,
                           step_max=args.step_max)
    if isinstance(res, witness_mod.DefinableWitness):
        verified = witness_mod.verify_definable_witness(res, A, model)
        report = build_report("defwitness", params,
                              {"status": "found"}, res, verified, t0)
        emit(report, args)
        return 0
    report = build_report("defwitness", params,
                          {"status": "not_found", "exhaustive": res.exhaustive},
                          None, None, t0)
    emit(report, args)
    return 1


def cmd_growth(args):
    t0 = time.perf_counter()
    model, A = load_instance(args)
    curve = witness_mod.growth_curve(A, model, args.k_max, mode=args.mode,
                                     budget=args.budget)
    rows = [("k", "found", "exhaustive")]
    rows += [(p.k, int(p.found), int(p.exhaustive)) for p in curve]
    report = build_report("growth",
                          common_params(args, k_max=args.k_max, mode=args.mode),
                          {"status": "computed", "curve": curve}, None, None, t0)
    emit(report, args, rows=rows)
    return 0


def cmd_syndetic(args):
    t0 = time.perf_counter()
    model, A = load_instance(args)
    core = parse_pair(args.core) if args.core else None
    shifts = None
    if args.shifts:
        lo, hi = parse_pair(args.shifts)
        shifts = range(lo, hi)
    res = cover_mod.min_translate_cover(A, model, core=core, shifts=shifts,
                                        t_max=args.t_max, mode=args.mode)
    params = common_params(args, core=args.core, shifts=args.shifts,
                           t_max=args.t_max, mode=args.mode)
    if isinstance(res, cover_mod.CoverCertificate):
        verified = cover_mod.verify_cover(res, A, model)
        report = build_report("syndetic", params,
                              {"status": "covered", "t": res.t,
                               "optimal": res.optimal},
                              res, verified, t0)
        emit(report, args)
        return 0
    report = build_report("syndetic", params,
                          {"status": "infeasible",
                           "lower_bound": res.lower_bound,
                           "uncovered_element": res.uncovered_element},
                          None, None, t0)
    emit(report, args)
    return 1


# --- argument parsing ----------------------------------------------------------


def add_common(p, needs_set=True):
    p.add_argument("--model", required=True, help="zwindow:M:L | zmod:n | cayley:<path>")
    if needs_set:
        p.add_argument("--set", required=True, help="set expression in the DSL")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None, help="search node limit")
    p.add_argument("--out", choices=["json", "csv"], default="json")
    p.add_argument("--output", default=None, help="write the report to a file")


def make_parser():
    ap = argparse.ArgumentParser(
        prog="sumcore",
        description="search and certification for sumset/productset structure",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="materialize a set expression to a set file")
    add_common(p)
    p.add_argument("--format", choices=["list", "rle"], default="list")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("density", help="best window density (exact rational)")
    add_common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--schedule", default=None, help="comma-separated window lengths")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("find-point", help="regular point or partition certificate")
    add_common(p)
    p.add_argument("--interval", default=None, help="a,b (default: whole carrier)")
    p.add_argument("--alpha", type=parse_fraction, required=True)
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=cmd_find_point)

    p = sub.add_parser("ladder", help="longest order-property ladder")
    add_common(p)
    p.add_argument("--k-max", type=int, default=8)
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("witness", help="square witness search")
    add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "heuristic"], default="exact")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("triangular", help="one-sided (triangular) witness search")
    add_common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--scorer",
                   choices=["exact", "pool_size", "density_weighted", "random"],
                   default="exact")
    p.set_defaults(func=cmd_triangular)

    p = sub.add_parser("upgrade", help="triangular-to-square Ramsey upgrade")
    add_common(p)
    p.add_argument("--b", required=True, help="comma-separated b sequence")
    p.add_argument("--c", required=True, help="comma-separated c sequence")
    p.set_defaults(func=cmd_upgrade)

    p = sub.add_parser("defwitness", help="family-restricted witness search")
    add_common(p)
    p.add_argument("--family", choices=["intervals", "aps"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--step-max", type=int, default=None)
    p.set_defaults(func=cmd_defwitness)

    p = sub.add_parser("growth", help="witness growth curve over k")
    add_common(p)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "heuristic"], default="exact")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("syndetic", help="minimal translate cover")
    add_common(p)
    p.add_argument("--core", default=None, help="a,b core region (ZWindow)")
    p.add_argument("--shifts", default=None, help="a,b shift range (ZWindow)")
    p.add_argument("--t-max", type=int, default=16)
    p.add_argument("--mode", choices=["exact", "greedy"], default="exact")
    p.set_defaults(func=cmd_syndetic)

    return ap


def _report_error(exc):
    """Write the error report for ``exc``; its exit code is 2."""
    err = {"kind": "error", "error": {"type": type(exc).__name__,
                                      "message": str(exc)}}
    sys.stdout.write(json.dumps(err, indent=2, sort_keys=True) + "\n")
    return 2


def run(argv=None):
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (SumcoreError, ValueError, OSError) as exc:
        return _report_error(exc)
    except Exception as exc:
        # an internal fault (e.g. RecursionError) is an error, never exit 1
        traceback.print_exc(file=sys.stderr)
        return _report_error(exc)


def main(argv=None):
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
