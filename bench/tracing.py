"""Spans around calls into each sumcore module, taken from outside.

``Tracer.install`` replaces public functions on their modules (and the
names other modules imported them under, such as ``sumcore.cover.translate``
and ``sumcore.witness.quotient``) with wrappers that record a span:
name, start, end, parent span and instance id.  Spans stay in memory and
are written out when the run ends.  A span's self time is its duration
minus the durations of its direct children, so nested calls such as
``growth_curve -> find_square_witness`` and ``ramsey_upgrade ->
verify_triangular_witness`` are not counted twice.
"""

import json
import statistics
import time

from sumcore import cli, cover, density, ladder, model, setspec, witness

import pipeline


def _carrier(args, kwargs, out):
    return args[0].carrier_size


def _set_carrier(args, kwargs, out):
    return args[0].model.carrier_size


def _square_note(args, kwargs, out):
    return "found" if isinstance(out, witness.SquareWitness) else "refuted"


def _ladder_note(args, kwargs, out):
    return (out.nodes, out.lower_bound_only)


def _cover_note(args, kwargs, out):
    return kwargs.get("mode", "exact")


# (owner, attribute, span name, note) -- an owner is a module or DenseSet
WRAPPED = [
    (setspec, "parse_set_spec", "setspec.parse", None),
    (setspec, "generate_set", "setspec.generate", _carrier),
    (model, "build_model", "model.build", None),
    (cli, "build_model", "model.build", None),
    (cli, "parse_model_arg", "model.build", None),
    (model.DenseSet, "members", "model.members", _set_carrier),
    (model.DenseSet, "to_numpy", "model.views", None),
    (model.DenseSet, "prefix_counts", "model.views", None),
    (model, "write_set_file", "model.setfile_write", None),
    (model, "read_set_file", "model.setfile_read", None),
    (setspec, "read_set_file", "model.setfile_read", None),
    (model, "quotient", "model.quotient", None),
    (witness, "quotient", "model.quotient", None),
    (ladder, "quotient", "model.quotient", None),
    (model, "translate", "model.translate", None),
    (cover, "translate", "model.translate", None),
    (density, "banach_density", "density.window", None),
    (density, "min_window_density", "density.window", None),
    (density, "density_schedule", "density.window", None),
    (density, "find_regular_point", "density.regular_point", None),
    (density, "verify_good_point", "density.verify", None),
    (density, "verify_density_certificate", "density.verify", None),
    (witness, "find_square_witness", "witness.square", _square_note),
    (witness, "growth_curve", "witness.growth", None),
    (witness, "find_triangular_witness", "witness.triangular", None),
    (witness, "definable_witness_search", "witness.definable", None),
    (witness, "greedy_back_and_forth", "witness.greedy", None),
    (witness, "ramsey_upgrade", "witness.upgrade", None),
    (witness, "verify_square_witness", "witness.verify", None),
    (witness, "verify_triangular_witness", "witness.verify", None),
    (witness, "verify_definable_witness", "witness.verify", None),
    (witness, "verify_upgrade", "witness.verify", None),
    (ladder, "max_ladder", "ladder.search", _ladder_note),
    (ladder, "verify_ladder", "ladder.verify", None),
    (cover, "min_translate_cover", "cover.search", _cover_note),
    (cover, "counting_lower_bound", "cover.bound", None),
    (cover, "verify_cover", "cover.verify", None),
    (pipeline, "serialize", "cli.serialize", None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "instance", "note", "child_s")

    def __init__(self, name, start, parent, instance):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.instance = instance
        self.note = None
        self.child_s = 0.0

    @property
    def self_s(self):
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.instance = None
        self._saved = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, time.perf_counter(), parent, self.instance)
            spans.append(span)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
                if note is not None:
                    span.note = note(args, kwargs, out)
                return out
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, name, note in WRAPPED:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, note))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def dump(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": index.get(id(s.parent)), "instance": s.instance,
                    "self_ms": 1000.0 * s.self_s, "note": s.note,
                }, default=str) + "\n")


# --- per-layer metrics ------------------------------------------------------------

M16, M18 = 1 << 16, 1 << 18


def layer_metrics(spans, report_bytes, factor):
    """Per-layer totals for one traced pass (ms are self time, divided by
    the pass's slowdown factor: see speed.py)."""
    ms = {}
    counts = {"model.quotient_calls": 0, "model.translate_calls": 0,
              "ladder.nodes": 0, "ladder.calls": 0, "ladder.exact": 0}
    gen_bits = 0

    def add(key, s):
        ms[key] = ms.get(key, 0.0) + 1000.0 * s / factor

    for s in spans:
        t = s.self_s
        name = s.name
        if name == "witness.square":
            add(f"witness.square_{s.note}_ms", t)
        elif name == "cover.search":
            add(f"cover.{s.note}_ms", t)
        else:
            add(f"{name}_ms", t)
        if name in ("setspec.generate", "model.members"):
            if s.note in (M16, M18):
                add(f"{name}_ms.m{s.note.bit_length() - 1}", t)
            if name == "setspec.generate":
                gen_bits += s.note
        elif name == "model.quotient":
            counts["model.quotient_calls"] += 1
        elif name == "model.translate":
            counts["model.translate_calls"] += 1
        elif name == "ladder.search":
            counts["ladder.calls"] += 1
            counts["ladder.nodes"] += s.note[0]
            counts["ladder.exact"] += not s.note[1]
    out = dict(ms)
    out["setspec.bits_per_s"] = gen_bits / (ms["setspec.generate_ms"] / 1000.0) \
        if ms.get("setspec.generate_ms") else 0.0
    out["model.quotient_calls"] = counts["model.quotient_calls"]
    out["model.translate_calls"] = counts["model.translate_calls"]
    out["ladder.nodes"] = counts["ladder.nodes"]
    out["ladder.nodes_per_s"] = counts["ladder.nodes"] / (ms["ladder.search_ms"] / 1000.0) \
        if ms.get("ladder.search_ms") else 0.0
    out["ladder.exact_frac"] = counts["ladder.exact"] / counts["ladder.calls"] \
        if counts["ladder.calls"] else 0.0
    out["cli.report_bytes"] = report_bytes
    return out


def scaling_rows(spans, instances, factor):
    """Per-instance, per-operation self time for the pinned ROADMAP rows."""
    rows = {}
    pinned = {inst.id: inst for inst in instances if inst.row}
    for s in spans:
        if s.instance in pinned and s.name not in ("setspec.parse", "cli.serialize"):
            key = (s.instance, s.name)
            rows.setdefault(key, []).append(1000.0 * s.self_s / factor)
    return rows


def median_rows(per_pass_rows, instances):
    by_id = {inst.id: inst for inst in instances}
    out = []
    keys = sorted(set().union(*per_pass_rows)) if per_pass_rows else []
    for key in keys:
        vals = [sum(r[key]) for r in per_pass_rows if key in r]
        inst = by_id[key[0]]
        out.append({"instance": key[0], "model": inst.model, "set": inst.spec,
                    "kind": inst.kind, "params": {k: v for k, v in inst.params.items()
                                                  if k not in ("b", "c")},
                    "op": key[1], "self_ms": statistics.median(vals)})
    return out
