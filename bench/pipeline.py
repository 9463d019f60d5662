"""One instance end to end, and the checks on its answer.

``solve`` is the timed part: parse -> generate -> search -> verify ->
serialize, every step through sumcore's public functions, looked up on
their modules at call time so the tracer can wrap them.  ``check`` is the
untimed part: it re-checks each answer independently of the library's own
verifiers, and raises ``Mismatch`` on any disagreement.
"""

import hashlib
import json
import os
import time
from fractions import Fraction

import numpy as np

from sumcore import cli, cover, density, ladder, model, setspec, witness


class Mismatch(Exception):
    """An answer that is wrong, unverified or not exhaustive."""


class Outcome:
    __slots__ = ("A", "result", "report", "text", "extra")

    def __init__(self, A, result, report, text, extra=None):
        self.A = A
        self.result = result
        self.report = report
        self.text = text
        self.extra = extra or {}


def serialize(kind, inst, result, certificate, verified, t0):
    """The CLI's report for an answer, as the CLI writes it."""
    params = {"model": inst.model, "set": inst.spec, **inst.params}
    report = cli.build_report(kind, params, result, certificate, verified, t0)
    return report, json.dumps(report, indent=2, sort_keys=True)


# --- solve ------------------------------------------------------------------------


def _materialize(inst, A, mdl, t0, workdir):
    p = inst.params
    M = mdl.carrier_size
    members = A.members()
    A.to_numpy()
    A.prefix_counts()
    list_path = os.path.join(workdir, f"{inst.id}.set")
    rle_path = os.path.join(workdir, f"{inst.id}.rle")
    model.write_set_file(list_path, members, size=M, fmt="list")
    model.write_set_file(rle_path, members, size=M, fmt="rle")
    back_list, _ = model.read_set_file(list_path)
    back_rle, rle_size = model.read_set_file(rle_path)
    schedule = density.density_schedule(A, p["lengths"])
    low = density.min_window_density(A, p["min_window"])
    point = density.find_regular_point(A, tuple(p["interval"]), Fraction(p["alpha"]), p["N"])
    if isinstance(point, density.GoodPoint):
        verified = density.verify_good_point(point, A)
    else:
        verified = density.verify_density_certificate(point, A)
    result = {"status": type(point).__name__, "cardinality": len(A),
              "schedule": schedule, "min_window": low}
    report, text = serialize("materialize", inst, result, point, verified, t0)
    return Outcome(A, point, report, text, {
        "members": members, "back_list": back_list, "back_rle": back_rle,
        "rle_size": rle_size, "schedule": schedule, "low": low})


def _square(inst, A, mdl, t0):
    p = inst.params
    res = witness.find_square_witness(A, mdl, p["k"], mode=p.get("mode", "exact"))
    verified = None
    if isinstance(res, witness.SquareWitness):
        verified = witness.verify_square_witness(res, A, mdl)
    report, text = serialize("witness", inst, {"status": type(res).__name__}, res, verified, t0)
    return Outcome(A, res, report, text)


def _growth(inst, A, mdl, t0):
    curve = witness.growth_curve(A, mdl, inst.params["k_max"])
    verified = all(witness.verify_square_witness(pt.witness, A, mdl)
                   for pt in curve if pt.found)
    report, text = serialize("growth", inst, {"status": "computed", "curve": curve},
                             None, verified, t0)
    return Outcome(A, curve, report, text)


def _ladder(inst, A, mdl, t0):
    res = ladder.max_ladder(A, mdl, inst.params["k_max"])
    verified = None
    if res.certificate is not None:
        verified = ladder.verify_ladder(res.certificate, A, mdl)
    # as the CLI reports it: the search statistic ``nodes`` is not part of
    # the answer (the tracer records it)
    result = {"status": "computed", "k": res.k, "lower_bound_only": res.lower_bound_only}
    report, text = serialize("ladder", inst, result, res.certificate, verified, t0)
    return Outcome(A, res, report, text)


def _triangular(inst, A, mdl, t0):
    p = inst.params
    res = witness.find_triangular_witness(A, mdl, p["m"], scorer=p.get("scorer"))
    verified = None
    if isinstance(res, witness.TriangularWitness):
        verified = witness.verify_triangular_witness(res, A, mdl)
    report, text = serialize("triangular", inst, {"status": type(res).__name__}, res, verified, t0)
    return Outcome(A, res, report, text)


def _definable(inst, A, mdl, t0):
    p = inst.params
    res = witness.definable_witness_search(A, mdl, p["family"], p["n"],
                                           step_max=p.get("step_max"))
    verified = None
    if isinstance(res, witness.DefinableWitness):
        verified = witness.verify_definable_witness(res, A, mdl)
    report, text = serialize("defwitness", inst, {"status": type(res).__name__}, res, verified, t0)
    return Outcome(A, res, report, text)


def _greedy(inst, A, mdl, t0):
    p = inst.params
    res = witness.greedy_back_and_forth(A, mdl, p["k"], scorer=p["scorer"], seed=p["seed"])
    verified = None
    if isinstance(res, witness.SquareWitness):
        verified = witness.verify_square_witness(res, A, mdl)
    report, text = serialize("greedy", inst, {"status": type(res).__name__}, res, verified, t0)
    return Outcome(A, res, report, text)


def _cover(inst, A, mdl, t0):
    p = inst.params
    core = tuple(p["core"]) if "core" in p else None
    shifts = range(*p["shifts"]) if "shifts" in p else None
    res = cover.min_translate_cover(A, mdl, core=core, shifts=shifts,
                                    t_max=p["t_max"], mode=p["mode"])
    extra = {"bound": cover.counting_lower_bound(A, mdl, core, shifts=shifts)}
    if p["mode"] == "exact" and isinstance(res, cover.CoverCertificate):
        # the user's bracket: greedy above, counting bound below
        extra["greedy"] = cover.min_translate_cover(A, mdl, core=core, shifts=shifts,
                                                    t_max=p["t_max"], mode="greedy")
    verified = None
    if isinstance(res, cover.CoverCertificate):
        verified = cover.verify_cover(res, A, mdl)
    report, text = serialize("syndetic", inst, {"status": type(res).__name__, **extra},
                             res, verified, t0)
    return Outcome(A, res, report, text, extra)


def _upgrade(inst, A, mdl, t0):
    p = inst.params
    tri = witness.TriangularWitness(tuple(p["b"]), tuple(p["c"]))
    res = witness.ramsey_upgrade(tri, A, mdl)
    verified = witness.verify_upgrade(res, A, mdl)
    report, text = serialize("upgrade", inst, {"status": "computed", "tag": res.tag,
                                            "homogeneous_size": len(res.indices)},
                             res, verified, t0)
    return Outcome(A, res, report, text)


SOLVERS = {"square": _square, "growth": _growth, "ladder": _ladder,
           "triangular": _triangular, "definable": _definable, "greedy": _greedy,
           "cover": _cover, "upgrade": _upgrade}


def solve(inst, mdl, workdir):
    t0 = time.perf_counter()
    spec = setspec.parse_set_spec(inst.spec)
    A = setspec.generate_set(mdl, spec)
    if inst.kind == "materialize":
        return _materialize(inst, A, mdl, t0, workdir)
    return SOLVERS[inst.kind](inst, A, mdl, t0)


# --- independent checks -----------------------------------------------------------


def _require(cond, what):
    if not cond:
        raise Mismatch(what)


def _member(A, x):
    return 0 <= x < A.model.carrier_size and (A.bits >> x) & 1 == 1


def _grid(A, mdl, bs, cs):
    """g[i, j] = (b_i * c_j lies in A), or None if an operand is invalid."""
    L = mdl.operand_mask.bit_length()
    if (len(set(bs)) != len(bs) or len(set(cs)) != len(cs)
            or not all(0 <= x < L for x in bs + cs)):
        return None
    n = mdl.carrier_size
    raw = np.frombuffer(A.bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    mem = np.unpackbits(raw, bitorder="little")[:n].astype(bool)
    if isinstance(mdl, model.ZWindow):
        # operands below L <= M/2 keep every sum inside the window
        return mem[np.add.outer(np.asarray(bs, dtype=np.int64), np.asarray(cs, dtype=np.int64))]
    table = np.asarray(mdl.table, dtype=np.int64)
    return mem[table[np.ix_(list(bs), list(cs))]]


def _square_ok(A, mdl, bs, cs):
    g = _grid(A, mdl, bs, cs)
    return g is not None and bool(g.all())


def _triangular_ok(A, mdl, bs, cs):
    g = _grid(A, mdl, bs, cs)
    return g is not None and bool(g[np.triu_indices(len(bs))].all())


def _ladder_ok(A, mdl, bs, cs):
    g = _grid(A, mdl, bs, cs)
    return g is not None and bool((g == np.triu(np.ones_like(g))).all())


def _spec_member(node, x, M, files):
    """Scalar membership, straight from the DSL definitions in setspec."""
    if not 0 <= x < M:
        return False
    if isinstance(node, setspec.Multiples):
        return x % node.q == node.offset % node.q
    if isinstance(node, setspec.PowersOf2):
        return x >= 1 and x & (x - 1) == 0
    if isinstance(node, setspec.Bernoulli):
        mask = (1 << 64) - 1
        z = (node.seed + (x + 1) * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        return node.delta >= 1 or z < (node.delta.numerator << 64) // node.delta.denominator
    if isinstance(node, setspec.BohrSet):
        r = (x * node.num) % node.den
        return Fraction(min(r, node.den - r), node.den) < node.eps
    if isinstance(node, setspec.Threshold):
        return x >= node.t
    if isinstance(node, setspec.Explicit):
        return x in node.members
    if isinstance(node, setspec.FileSet):
        return x in files[node.path]
    if isinstance(node, setspec.Union):
        return _spec_member(node.left, x, M, files) or _spec_member(node.right, x, M, files)
    if isinstance(node, setspec.Intersect):
        return _spec_member(node.left, x, M, files) and _spec_member(node.right, x, M, files)
    if isinstance(node, setspec.Translate):
        return _spec_member(node.child, x - node.k, M, files)
    if isinstance(node, setspec.Complement):
        return not _spec_member(node.child, x, M, files)
    raise Mismatch(f"unknown spec node {node!r}")


def _check_generation(inst, A, files, rng):
    """Sampled membership against the scalar DSL definitions."""
    M = A.model.carrier_size
    tree = setspec.parse_set_spec(inst.spec)
    fsets = {path: set(members) for path, members in files.items()}
    xs = [rng.randrange(M) for _ in range(128)]
    if A.bits:
        xs += [int(x) for x in rng.choices(np.flatnonzero(A.to_numpy()), k=64)]
    for x in xs:
        _require(_member(A, x) == _spec_member(tree, x, M, fsets),
                 f"membership of {x} disagrees with the DSL definition")


def _check_materialize(inst, out, files, rng):
    A, e = out.A, out.extra
    M = A.model.carrier_size
    members = e["members"]
    flat = np.flatnonzero(A.to_numpy())
    _require(len(members) == len(A) == A.bits.bit_count(), "cardinality")
    _require(np.array_equal(np.asarray(members, dtype=np.int64), flat), "members() vs bitset")
    _require(e["back_list"] == members, "list set file round trip")
    _require(e["back_rle"] == members and e["rle_size"] == M, "RLE set file round trip")
    p = np.concatenate(([0], np.cumsum(np.bincount(flat, minlength=M))))
    for rep in list(e["schedule"]) + [e["low"]]:
        n = rep.window_length
        counts = p[n:] - p[:-n]
        want = counts.min() if rep is e["low"] else counts.max()
        _require(rep.count == want and counts[rep.best_start] == want
                 and rep.density == Fraction(int(want), n), f"window density n={n}")
    _require(out.report["verified"] is True, "regular point certificate failed its verifier")
    pt = out.result
    if isinstance(pt, density.GoodPoint):
        base = p[pt.x]
        _require(all(2 * int(p[pt.x + n] - base) * pt.alpha.denominator
                     >= pt.alpha.numerator * n for n in range(1, pt.horizon + 1)),
                 "good point has a sparse prefix")
    else:
        _require(sum(pt.block_counts) == int(p[pt.cuts[-1]] - p[pt.cuts[0]]),
                 "partition block counts")
    _check_generation(inst, A, files, rng)


def _check_search(inst, out):
    A, res, exp = out.A, out.result, inst.expect
    mdl = A.model
    rep = out.report
    kind = inst.kind
    if kind == "square":
        found = isinstance(res, witness.SquareWitness)
        if found:
            _require(rep["verified"] is True, "square witness failed its verifier")
            _require(len(res.b) == inst.params["k"] and _square_ok(A, mdl, res.b, res.c),
                     "square witness fails the direct check")
        else:
            _require(res == witness.NotFound(exhaustive=True), f"non-exhaustive answer {res}")
        if "found" in exp:
            _require(found == exp["found"], f"found={found}, expected {exp['found']}")
    elif kind == "growth":
        col = [pt.found for pt in res]
        _require(all(pt.exhaustive for pt in res), "non-exhaustive growth point")
        _require(col == sorted(col, reverse=True), f"growth column not monotone: {col}")
        _require(all(_square_ok(A, mdl, pt.witness.b, pt.witness.c) and pt.witness.k == pt.k
                     for pt in res if pt.found), "growth witness fails the direct check")
        _require(rep["verified"] is True, "growth witness failed its verifier")
        if "found" in exp:
            _require(col == exp["found"], f"growth column {col}")
    elif kind == "ladder":
        _require(not res.lower_bound_only, "ladder answer is a lower bound only")
        _require((res.certificate is None) == (res.k == 0), "ladder k without a certificate")
        if res.certificate is not None:
            _require(rep["verified"] is True, "ladder failed its verifier")
            _require(res.certificate.k == res.k
                     and _ladder_ok(A, mdl, res.certificate.b, res.certificate.c),
                     "ladder fails the direct check")
        if "k" in exp:
            _require(res.k == exp["k"], f"ladder k={res.k}, expected {exp['k']}")
    elif kind in ("triangular", "definable", "greedy"):
        found = not isinstance(res, (witness.NotFound, witness.Stuck))
        if found:
            _require(rep["verified"] is True, f"{kind} witness failed its verifier")
            if kind == "triangular":
                ok = len(res.b) == inst.params["m"] and _triangular_ok(A, mdl, res.b, res.c)
            elif kind == "definable":
                ok = (res.theta1.length == res.theta2.length == inst.params["n"]
                      and _square_ok(A, mdl, res.set1, res.set2))
            else:
                ok = len(res.b) == inst.params["k"] and _square_ok(A, mdl, res.b, res.c)
            _require(ok, f"{kind} witness fails the direct check")
        else:
            _require(res == witness.NotFound(exhaustive=True), f"non-exhaustive answer {res}")
        if "found" in exp:
            _require(found == exp["found"], f"found={found}, expected {exp['found']}")
    elif kind == "cover":
        _check_cover(inst, out)
    elif kind == "upgrade":
        _require(rep["verified"] is True, "upgrade failed its verifier")
        I = res.indices
        bs = tuple(inst.params["b"][i] for i in I)
        cs = tuple(inst.params["c"][i] for i in I)
        if res.tag == "square":
            _require(res.square.b == bs and res.square.c == cs and _square_ok(A, mdl, bs, cs),
                     "upgrade square fails the direct check")
        else:
            _require(res.ladder.b == bs and res.ladder.c == cs and _ladder_ok(A, mdl, bs, cs),
                     "upgrade ladder fails the direct check")
        _require(len(I) >= exp.get("min_size", 0), f"homogeneous set too small: {len(I)}")
        if "tag" in exp:
            _require(res.tag == exp["tag"] and len(I) == exp["size"],
                     f"upgrade gave {res.tag}/{len(I)}")
    else:
        raise Mismatch(f"unknown instance kind {kind}")


def _check_cover(inst, out):
    A, res, exp, p = out.A, out.result, inst.expect, inst.params
    mdl = A.model
    bound = out.extra["bound"]
    if exp.get("below"):
        _require(isinstance(res, cover.Infeasible) and res.uncovered_element is None,
                 f"expected Infeasible below the optimum, got {res}")
        _require(res.lower_bound == exp["t"] == max(bound, p["t_max"] + 1),
                 f"Infeasible lower bound {res.lower_bound}")
        return
    _require(isinstance(res, cover.CoverCertificate), f"no cover: {res}")
    _require(out.report["verified"] is True, "cover failed its verifier")
    lo, hi = res.core
    sets = [model.translate(A, g).bits for g in res.translates]
    _require(all(any((s >> e) & 1 for s in sets) for e in range(lo, hi)),
             "cover leaves a core element uncovered")
    _require(res.t <= p["t_max"] and res.t >= bound, f"cover size {res.t} vs bound {bound}")
    if p["mode"] == "exact":
        _require(res.optimal and res.method == "exact", "exact cover not marked optimal")
        greedy = out.extra["greedy"]
        _require(isinstance(greedy, cover.CoverCertificate) and greedy.t >= res.t,
                 "greedy cover smaller than the exact optimum")
    if "t" in exp:
        _require(res.t == exp["t"], f"cover size {res.t}, expected {exp['t']}")


def answer_digest(out):
    """Canonical answer: the report without its wall time.

    A ladder's canonical answer is its length and exactness: max_ladder
    promises the longest ladder, not which one (the tests compare only k),
    so a search that picks another ladder of the same length is still
    right.  Its certificate is checked above, by the verifier and directly.
    """
    answer = dict(out.report)
    answer.pop("wall_time_ms", None)
    if answer["kind"] == "ladder":
        answer.pop("certificate")
    text = json.dumps(answer, sort_keys=True)
    if "members" in out.extra:
        text += json.dumps(out.extra["members"])
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def check(inst, out, files, rng, pinned=None):
    if inst.kind == "materialize":
        _check_materialize(inst, out, files, rng)
    else:
        _check_search(inst, out)
    json.loads(out.text)
    if pinned is not None:
        want = pinned.get(inst.id)
        got = answer_digest(out)
        _require(want == got, f"canonical answer {got} differs from pinned {want}")
