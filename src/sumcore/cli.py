"""Command line surface: parse a model and a set expression, dispatch one
operation, emit a reproducible machine-readable report.

Every subcommand shares one JSON schema:

    {
      "kind": <subcommand>,
      "parameters": {model, set, <the subcommand's options>},
      "result": {"status": ..., payload...},
      "certificate": {...} | null,
      "verified": true | false | null,
      "wall_time_ms": <float>
    }

Rationals are serialized as strings "p/q".  Each subcommand's handler
only answers: it returns (result, certificate, verified[, csv rows]).
One runner times, loads, reports, writes and picks the exit code for all
of them: 1 iff result["status"] is a definite negative (not_found,
infeasible, partition), else 0; 2 = error.  Reports are byte-identical
across runs with the same arguments, except for the wall_time_ms field.
"""

import argparse
import csv
import io
import json
import re
import sys
import time
import traceback
from fractions import Fraction

import numpy as np

from . import cover as cover_mod
from . import density as density_mod
from . import ladder as ladder_mod
from . import witness as witness_mod
from .errors import BadBounds, SumcoreError
from .model import CayleyGroup, build_model, cyclic_table, set_file_text
from .setspec import generate_set, parse_rational, parse_set_spec


_INT = re.compile(r"-?[0-9]+")


def parse_int(text):
    """An ASCII decimal integer, -?[0-9]+; anything else (``1_0``, ``+5``,
    ``٢``, spaces) raises SumcoreError."""
    if not _INT.fullmatch(text):
        raise SumcoreError(f"{text!r} is not an ASCII decimal integer (-?[0-9]+)")
    return int(text)


def parse_model_arg(text):
    """zwindow:M:L | zmod:n | cayley:<path to JSON table>, with M, L and n
    ASCII decimal integers (``parse_int``)."""
    kind, colon, rest = text.partition(":")
    fields = rest.split(":")
    if all(_INT.fullmatch(f) for f in fields):
        sizes = [int(f) for f in fields]
        if kind == "zwindow" and len(sizes) == 2:
            return build_model({"kind": "zwindow", "M": sizes[0], "L": sizes[1]})
        if kind == "zmod" and len(sizes) == 1:
            n = sizes[0]
            if n < 1:
                raise BadBounds(f"zmod:n needs n >= 1, got n={n}")
            group = CayleyGroup(cyclic_table(n))  # a Latin square by construction
            vars(group)["is_group"] = True  # and a group: Light's test need not run
            return group
    if kind == "cayley" and colon:
        with open(rest) as fh:
            table = json.load(fh)
        return build_model({"kind": "cayley", "table": table})
    raise SumcoreError(f"cannot parse model {text!r}")


def _int_list(text):
    """'a,b,...' as a list of ints."""
    return [parse_int(x) for x in text.split(",")]


def parse_pair(text):
    a, b = text.split(",")
    return parse_int(a), parse_int(b)


def to_jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, float, str)):
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
    raise TypeError(f"no JSON form for {type(obj).__name__} {obj!r}")


def build_report(kind, params, result, certificate, verified, t0):
    return {
        "kind": kind,
        "parameters": to_jsonable(params),
        "result": to_jsonable(result),
        "certificate": to_jsonable(certificate),
        "verified": verified,
        "wall_time_ms": round((time.perf_counter() - t0) * 1000.0, 3),
    }


# --- subcommand handlers -----------------------------------------------------
#
# Each takes (args, model, A) and returns (result, certificate, verified),
# followed by its CSV rows where it has them; only ``gen`` writes output.


def _write(path, text):
    """Write text to the file at path, or to stdout when path is None."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _not_found(res):
    return {"status": "not_found", "exhaustive": res.exhaustive}, None, None


def cmd_gen(args, model, A):
    members = np.flatnonzero(A.to_numpy())
    _write(args.output, set_file_text(members, size=model.carrier_size, fmt=args.format))


def cmd_density(args, model, A):
    if args.schedule:
        reports = density_mod.density_schedule(A, args.schedule)
        rows = [("n", "best_start", "count", "density")]
        rows += [(r.window_length, r.best_start, r.count,
                  f"{r.density.numerator}/{r.density.denominator}")
                 for r in reports]
        return {"status": "computed", "schedule": reports}, None, None, rows
    n = args.n if args.n is not None else min(model.carrier_size, 1000)
    return {"status": "computed", "report": density_mod.banach_density(A, n)}, None, None


def cmd_find_point(args, model, A):
    interval = args.interval or (0, model.carrier_size)
    res = density_mod.find_regular_point(A, interval, args.alpha, args.N)
    if isinstance(res, density_mod.GoodPoint):
        return ({"status": "good_point", "x": res.x}, res,
                density_mod.verify_good_point(res, A))
    return ({"status": "partition", "blocks": len(res.block_counts)}, res,
            density_mod.verify_density_certificate(res, A))


def cmd_ladder(args, model, A):
    res = ladder_mod.max_ladder(A, model, args.k_max, budget=args.budget)
    verified = None
    if res.certificate is not None:
        verified = ladder_mod.verify_ladder(res.certificate, A, model)
    return ({"status": "computed", "k": res.k,
             "lower_bound_only": res.lower_bound_only},
            res.certificate, verified)


def cmd_witness(args, model, A):
    res = witness_mod.find_square_witness(A, model, args.k, mode=args.mode,
                                          budget=args.budget)
    if isinstance(res, witness_mod.SquareWitness):
        return ({"status": "found", "k": args.k}, res,
                witness_mod.verify_square_witness(res, A, model))
    return _not_found(res)


def cmd_triangular(args, model, A):
    scorer = None if args.scorer == "exact" else args.scorer
    res = witness_mod.find_triangular_witness(A, model, args.m, scorer=scorer,
                                              budget=args.budget, seed=args.seed)
    if isinstance(res, witness_mod.TriangularWitness):
        return ({"status": "found", "m": args.m}, res,
                witness_mod.verify_triangular_witness(res, A, model))
    return _not_found(res)


def cmd_upgrade(args, model, A):
    tri = witness_mod.TriangularWitness(tuple(args.b), tuple(args.c))
    res = witness_mod.ramsey_upgrade(tri, A, model)
    return ({"status": "computed", "tag": res.tag,
             "homogeneous_size": len(res.indices)},
            res, witness_mod.verify_upgrade(res, A, model))


def cmd_defwitness(args, model, A):
    res = witness_mod.definable_witness_search(A, model, args.family, args.n,
                                               budget=args.budget,
                                               step_max=args.step_max)
    if isinstance(res, witness_mod.DefinableWitness):
        return {"status": "found"}, res, witness_mod.verify_definable_witness(res, A, model)
    return _not_found(res)


def cmd_growth(args, model, A):
    curve = witness_mod.growth_curve(A, model, args.k_max, mode=args.mode,
                                     budget=args.budget)
    rows = [("k", "found", "exhaustive")]
    rows += [(p.k, int(p.found), int(p.exhaustive)) for p in curve]
    return {"status": "computed", "curve": curve}, None, None, rows


def cmd_syndetic(args, model, A):
    shifts = range(*args.shifts) if args.shifts else None
    res = cover_mod.min_translate_cover(A, model, core=args.core, shifts=shifts,
                                        t_max=args.t_max, mode=args.mode)
    if isinstance(res, cover_mod.CoverCertificate):
        return ({"status": "covered", "t": res.t, "optimal": res.optimal},
                res, cover_mod.verify_cover(res, A, model))
    return ({"status": "infeasible", "lower_bound": res.lower_bound,
             "uncovered_element": res.uncovered_element}, None, None)


# --- argument parsing ----------------------------------------------------------


def make_parser():
    ap = argparse.ArgumentParser(
        prog="sumcore",
        description="search and certification for sumset/productset structure",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--model", required=True, help="zwindow:M:L | zmod:n | cayley:<path>")
    instance.add_argument("--set", required=True, help="set expression in the DSL")
    instance.add_argument("--output", default=None, help="write to a file, not stdout")

    def command(name, func, help, budget=False, csv_rows=False):
        # no prefixes: `--out` must not pass for `--output` where it is absent
        p = sub.add_parser(name, parents=[instance], help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        if budget:
            p.add_argument("--budget", type=parse_int, default=None, help="search node limit")
        if csv_rows:
            p.add_argument("--out", choices=["json", "csv"], default="json")
        return p

    p = command("gen", cmd_gen, "materialize a set expression to a set file")
    p.add_argument("--format", choices=["list", "rle"], default="list")

    p = command("density", cmd_density, "best window density (exact rational)",
                csv_rows=True)
    p.add_argument("--n", type=parse_int, default=None)
    p.add_argument("--schedule", type=_int_list, default=None,
                   help="comma-separated window lengths")

    p = command("find-point", cmd_find_point, "regular point or partition certificate")
    p.add_argument("--interval", type=parse_pair, default=None,
                   help="a,b (default: whole carrier)")
    p.add_argument("--alpha", type=parse_rational, required=True)
    p.add_argument("--N", type=parse_int, required=True)

    p = command("ladder", cmd_ladder, "longest order-property ladder", budget=True)
    p.add_argument("--k-max", type=parse_int, default=8)

    p = command("witness", cmd_witness, "square witness search", budget=True)
    p.add_argument("--k", type=parse_int, required=True)
    p.add_argument("--mode", choices=["exact", "heuristic"], default="exact")

    p = command("triangular", cmd_triangular, "one-sided (triangular) witness search",
                budget=True)
    p.add_argument("--m", type=parse_int, required=True)
    p.add_argument("--scorer",
                   choices=["exact", "pool_size", "density_weighted", "random"],
                   default="exact")
    p.add_argument("--seed", type=parse_int, default=0, help="drives the random scorer")

    p = command("upgrade", cmd_upgrade, "triangular-to-square Ramsey upgrade")
    p.add_argument("--b", type=_int_list, required=True, help="comma-separated b sequence")
    p.add_argument("--c", type=_int_list, required=True, help="comma-separated c sequence")

    p = command("defwitness", cmd_defwitness, "family-restricted witness search",
                budget=True)
    p.add_argument("--family", choices=["intervals", "aps"], required=True)
    p.add_argument("--n", type=parse_int, required=True)
    p.add_argument("--step-max", type=parse_int, default=None)

    p = command("growth", cmd_growth, "witness growth curve over k", budget=True,
                csv_rows=True)
    p.add_argument("--k-max", type=parse_int, required=True)
    p.add_argument("--mode", choices=["exact", "heuristic"], default="exact")

    p = command("syndetic", cmd_syndetic, "minimal translate cover")
    p.add_argument("--core", type=parse_pair, default=None, help="a,b core region (ZWindow)")
    p.add_argument("--shifts", type=parse_pair, default=None,
                   help="a,b shift range (ZWindow)")
    p.add_argument("--t-max", type=parse_int, default=16)
    p.add_argument("--mode", choices=["exact", "greedy"], default="exact")

    return ap


# --- the runner ------------------------------------------------------------------

_NEGATIVE = {"not_found", "infeasible", "partition"}
_NOT_PARAMETERS = {"command", "func", "out", "output"}

# (subcommand, flag, why it is not read, whether it was given): usage errors
_UNREAD = [
    ("density", "--n", "not read with --schedule", lambda a: a.n is not None and a.schedule),
    ("density", "--out", "csv needs --schedule", lambda a: a.out == "csv" and not a.schedule),
    ("witness", "--budget", "not read with --mode heuristic",
     lambda a: a.budget is not None and a.mode == "heuristic"),
    ("growth", "--budget", "not read with --mode heuristic",
     lambda a: a.budget is not None and a.mode == "heuristic"),
    ("triangular", "--budget", "not read with a greedy --scorer",
     lambda a: a.budget is not None and a.scorer != "exact"),
    # intervals have step 1: the family never reads --step-max
    ("defwitness", "--step-max", "not allowed with --family intervals",
     lambda a: a.step_max is not None and a.family == "intervals"),
]


def _run(args):
    """Load the instance, run the subcommand, write its report; the exit code."""
    t0 = time.perf_counter()
    model = parse_model_arg(args.model)
    A = generate_set(model, parse_set_spec(args.set))
    got = args.func(args, model, A)
    if got is None:  # gen wrote its set file
        return 0
    result, certificate, verified, *rows = got
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    report = build_report(args.command, params, result, certificate, verified, t0)
    if rows and args.out == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(rows[0])
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    _write(args.output, text)
    return 1 if result["status"] in _NEGATIVE else 0


def _report_error(exc):
    """Write the error report for ``exc``; its exit code is 2."""
    err = {"kind": "error", "error": {"type": type(exc).__name__,
                                      "message": str(exc)}}
    sys.stdout.write(json.dumps(err, indent=2, sort_keys=True) + "\n")
    return 2


def main(argv=None):
    parser = make_parser()
    try:
        # a number flag that is not ASCII digits raises SumcoreError here
        args = parser.parse_args(argv)
        for command, flag, why, given in _UNREAD:
            if args.command == command and given(args):
                parser.error(f"argument {flag}: {why}")
        return _run(args)
    except (SumcoreError, ValueError, OSError) as exc:
        return _report_error(exc)
    except Exception as exc:
        # an internal fault (a bug, not bad input) is an error, never exit 1
        traceback.print_exc(file=sys.stderr)
        return _report_error(exc)


if __name__ == "__main__":
    sys.exit(main())
