"""Seeded instance corpora for the three benchmark workloads.

An instance is one question a user of sumcore would ask: a model, a set
expression in the DSL, an operation and its parameters.  Every instance is
built from the run seed, so the same seed always gives the same corpus.

The seed moves offsets, translates and Bernoulli seeds, but not the scale
of an instance: exact searches have heavy-tailed cost on random inputs
(a width-20 translate cover on ``bernoulli(1/4,s)`` takes 20 ms for one s
and more than 8 s for another), so a seed must not decide how much work
a pass does.  Searches on random sets are therefore kept small, and the
large searches run on structured sets whose cost does not depend on the
offset the seed picks.  Instances flagged ``row`` are seed-independent:
they are the scaling rows of the ROADMAP re-anchor table, pinned so the
table can be reproduced.
"""

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

WORKLOADS = ("materialize", "refute", "certify")
DEFAULT_SEED = 1


@dataclass
class Instance:
    id: str
    kind: str
    model: str            # CLI model text: zwindow:M:L or zmod:n
    spec: str             # DSL text
    params: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)   # known-by-construction answers
    row: bool = False     # a pinned ROADMAP scaling row


@dataclass
class CliCase:
    id: str
    argv: list
    exit_code: int
    expect: dict = field(default_factory=dict)


@dataclass
class Corpus:
    workload: str
    seed: int
    workdir: str
    instances: list
    cli_cases: list
    models: dict = field(default_factory=dict)   # model text -> model object
    files: dict = field(default_factory=dict)    # path -> members written there


def workdir(workload, seed):
    """Where a run keeps its input and output files, relative to the root.

    File paths appear in the DSL text and so in the canonical answers;
    run.py and pin.py must agree on them.
    """
    return os.path.join(".bench_out", f"{workload}-s{seed}")


def zw(M):
    return f"zwindow:{M}:{M // 2}"


BOHR = "bohr(665857/470832,1/4)"


# --- input files --------------------------------------------------------------


def _write_list(path, members):
    with open(path, "w") as fh:
        fh.write("".join(f"{m}\n" for m in members))


def _bits_file(corpus, name, members):
    path = os.path.join(corpus.workdir, name)
    members = sorted(set(int(m) for m in members))
    _write_list(path, members)
    corpus.files[path] = members
    return path


def _triangular_input(corpus, name, rng, mlen, uniform=None):
    """Criterion-4 style instance: random triangular witness inside a
    random 40% set; ``uniform`` builds the forced square/ladder inputs."""
    if uniform == "square":
        M = 16 * mlen
        b = tuple(range(mlen))
        c = tuple(range(mlen, 2 * mlen))
        return zw(M), "threshold(0)", b, c
    if uniform == "ladder":
        M = 16 * mlen
        b = tuple(4 * mlen - i for i in range(1, mlen + 1))
        c = tuple(range(1, mlen + 1))
        return zw(M), f"threshold({4 * mlen})", b, c
    L = max(2 * mlen, 64)
    M = 4 * L
    b = tuple(rng.sample(range(L), mlen))
    c = tuple(rng.sample(range(L), mlen))
    mask = np.random.RandomState(rng.getrandbits(31)).rand(M) < 0.4
    cs = np.asarray(c)
    for i in range(mlen):
        mask[b[i] + cs[i:]] = True   # b_i + c_j for every j >= i
    path = _bits_file(corpus, name, np.flatnonzero(mask).tolist())
    # model M is 4L with operands below 2L, as in the acceptance criterion
    return f"zwindow:{M}:{2 * L}", f"file({path})", b, c


# --- workloads ----------------------------------------------------------------


def _materialize(corpus, rng):
    """Big carriers, every DSL leaf and combinator; search is absent."""
    s16, s17, s18 = 1 << 16, 1 << 17, 1 << 18
    r = lambda q: rng.randrange(q)          # noqa: E731
    seedv = lambda: rng.randrange(1 << 30)  # noqa: E731
    shift = lambda: rng.randrange(1, 64)    # noqa: E731
    out = []

    def add(iid, M, spec, row=False, **expect):
        N = 64
        a = rng.randrange(M // 4)
        out.append(Instance(
            iid, "materialize", zw(M), spec,
            params={"lengths": [16, 256, 4096 if M >= 8192 else M // 2],
                    "min_window": 64, "interval": [a, M - a],
                    "alpha": "1/2", "N": N},
            expect=expect, row=row))

    # pinned scaling rows (ROADMAP: generate_set / members per M)
    add("row-multiples3-m16", s16, "multiples(3)", row=True)
    add("row-multiples3-m17", s17, "multiples(3)", row=True)
    add("row-multiples3-m18", s18, "multiples(3)", row=True)
    add("row-bohr-m16", s16, BOHR, row=True)
    add("row-pow2-m18", s18, "pow2", row=True)

    add("mult5", s16, f"multiples(5,{r(5)})")
    add("mult7", s16, f"multiples(7,{r(7)})")
    add("mult11-m17", s17, f"multiples(11,{r(11)})")
    add("bohr-tr", s16, f"translate({BOHR},{shift()})")
    add("bohr-thin", s16, f"bohr(355/113,1/{rng.choice((16, 20, 24))})")
    add("bern4", s16, f"bernoulli(1/4,{seedv()})")
    add("bern16", s16, f"bernoulli(1/16,{seedv()})")
    add("bern-dec", s16, f"bernoulli(0.125,{seedv()})")
    add("bern32-m18", s18, f"bernoulli(1/32,{seedv()})")
    add("bern8-m17", s17, f"bernoulli(1/8,{seedv()})")
    add("pow2", s16, "pow2")
    add("pow2-tr-m18", s18, f"translate(pow2,{shift()})")
    add("union-mult-pow2", s16, f"union(multiples(9,{r(9)}),translate(pow2,{shift()}))")
    add("intersect-bern-mult", s16, f"intersect(bernoulli(1/2,{seedv()}),multiples(4,{r(4)}))")
    add("complement-bern", s16, f"complement(bernoulli(3/4,{seedv()}))")
    add("complement-thr", s16, f"complement(threshold({s16 // 8 + r(64)}))")
    add("thr-tail", s16, f"threshold({s16 - s16 // 16 - r(64)})")
    add("tr-neg", s16, f"translate(multiples(6,{r(6)}),-{shift()})")
    add("union-bern-bohr", s16,
        f"intersect(union(bernoulli(1/8,{seedv()}),multiples(13)),{BOHR})")
    explicit = sorted(rng.sample(range(s16), 64))
    add("explicit", s16, "explicit(" + ",".join(map(str, explicit)) + ")")
    fpath = _bits_file(corpus, "materialize-list.set",
                       rng.sample(range(s16), s16 // 32))
    add("file-list", s16, f"file({fpath})")
    fpath = _bits_file(corpus, "materialize-m17.set",
                       [x for x in range(s17) if rng.random() < 0.05])
    add("file-m17", s17, f"file({fpath})")
    add("file-union", s16, f"union(file({fpath}),multiples(17,{r(17)}))")
    return out


def _refute(corpus, rng):
    """Every answer needs an exhausted tree; generation is negligible."""
    out = []
    P = 1 << 16
    shift = lambda: rng.randrange(14, 25)  # noqa: E731
    r = lambda q: rng.randrange(1, q)      # cosets other than the subgroup  # noqa: E731

    def add(iid, kind, model, spec, row=False, expect=None, **params):
        out.append(Instance(iid, kind, model, spec, params=params,
                            expect=expect or {}, row=row))

    # pinned scaling rows
    add("row-pow2-square-m16", "square", zw(P), "pow2", row=True, k=2,
        expect={"found": False})
    add("row-pow2-growth-m16", "growth", zw(P), "pow2", row=True, k_max=3,
        expect={"found": [True, False, False]})
    add("row-ladder-mult3-M300", "ladder", zw(300), "multiples(3)",
        row=True, k_max=2, expect={"k": 1})
    add("row-ladder-mult3-M600", "ladder", zw(600), "multiples(3)",
        row=True, k_max=2, expect={"k": 1})
    add("row-cover-bern-w30", "cover", zw(1000), "bernoulli(1/4,11)", row=True,
        core=[400, 430], shifts=[-60, 60], t_max=16, mode="exact")

    # square refutations: any 2x2 sum square in a translate of pow2 forces a
    # power quadruple 2^a + 2^d = 2^b + 2^c with {a,d} != {b,c}
    for e in (0, 1, 2, 3):
        add(f"pow2-tr-square-m{16 - e}", "square", zw(P >> e), f"translate(pow2,{shift()})",
            k=2, expect={"found": False})
    # exact triangular refutations on sparse sets
    for e in (12, 13, 14):
        add(f"pow2-triangular-m{e}", "triangular", zw(1 << e),
            f"translate(pow2,{shift()})", m=3, expect={"found": False})
    # a second shift of the 2^13 refutations: the median instance then sits
    # inside a run of similar-cost instances, not at the edge of one
    add("pow2-tr-square-m13-b", "square", zw(P >> 3), f"translate(pow2,{shift()})",
        k=2, expect={"found": False})
    add("pow2-triangular-m13-b", "triangular", zw(1 << 13),
        f"translate(pow2,{shift()})", m=3, expect={"found": False})
    # multiples(q) carry no ladder longer than 1 (acceptance criterion 5)
    add("ladder-mult5-M300", "ladder", zw(300), f"multiples(5,{r(5)})",
        k_max=2, expect={"k": 1})
    # definable-family refutations
    for tag in ("", "-b"):
        add(f"pow2-defwitness-aps{tag}", "definable", zw(1 << 12),
            f"translate(pow2,{shift()})", family="aps", n=3, step_max=16,
            expect={"found": False})
    add("pow2-defwitness-intervals", "definable", zw(1 << 13), f"translate(pow2,{shift()})",
        family="intervals", n=2, expect={"found": False})
    add("bern-defwitness-aps", "definable", zw(1 << 10), f"bernoulli(1/8,{rng.randrange(1 << 30)})",
        family="aps", n=4, step_max=8)
    # Cayley refutations: a coset of the subgroup 4Z_n holds no k x k square
    # for k > n/4, and cosets carry no ladder longer than 1
    for n in (48, 56, 64, 72, 80, 96):
        add(f"zmod{n}-coset-square", "square", f"zmod:{n}", f"multiples(4,{r(4)})",
            k=n // 4 + 1, expect={"found": False})
    for n in (64, 80, 96):
        add(f"zmod{n}-coset-ladder", "ladder", f"zmod:{n}", f"multiples(4,{r(4)})",
            k_max=4, expect={"k": 1})
    for i in range(2):
        add(f"zmod32-bern-square-{i}", "square", "zmod:32",
            f"bernoulli(1/2,{rng.randrange(1 << 30)})", k=5)
    add("zmod48-bern-ladder", "ladder", "zmod:48", f"bernoulli(1/2,{rng.randrange(1 << 30)})",
        k_max=5)
    # exact covers: structured Cayley covers (optimum = subgroup index), a
    # t_max below the optimum, and small random ZWindow cores
    for n in (64, 80, 96):
        add(f"zmod{n}-coset-cover", "cover", f"zmod:{n}", f"multiples(4,{r(4)})",
            t_max=n, mode="exact", expect={"t": 4})
    add("zmod64-coset-cover-below", "cover", "zmod:64",
        f"multiples(4,{r(4)})", t_max=3, mode="exact", expect={"t": 4, "below": True})
    add("zw-mult-cover", "cover", zw(4096), f"multiples(5,{r(5)})",
        core=[1000, 1080], shifts=[-12, 12], t_max=8,
        mode="exact", expect={"t": 5})
    for i in range(4):
        lo = rng.randrange(200, 700)
        add(f"zw-bern-cover-{i}", "cover", zw(1000), f"bernoulli(1/4,{rng.randrange(1 << 30)})",
            core=[lo, lo + 5], shifts=[-30, 30], t_max=16, mode="exact")
    return out


def _certify(corpus, rng):
    """Yes instances: the canonical first hit, verified and serialized."""
    out = []
    s16 = 1 << 16
    g = 1 << 14
    shift = lambda: rng.randrange(1, 32)  # noqa: E731
    r = lambda q: rng.randrange(q)        # noqa: E731

    def add(iid, kind, model, spec, expect=None, **params):
        out.append(Instance(iid, kind, model, spec, params=params,
                            expect=expect or {}))

    # acceptance criterion 8b: exact k=6 witnesses at 2^16
    add("8b-multiples3", "square", zw(s16), f"multiples(3,{r(3)})", k=6,
        expect={"found": True})
    t = 1000
    add("8b-threshold", "square", zw(s16), f"threshold({t + r(t // 2)})", k=6,
        expect={"found": True})
    add("8b-bohr", "square", zw(s16), f"translate({BOHR},{shift()})", k=6,
        expect={"found": True})
    for scorer in ("pool_size", "density_weighted", "random"):
        add(f"greedy-{scorer}", "greedy", zw(g), f"translate({BOHR},{shift()})",
            k=6, scorer=scorer, seed=rng.randrange(1 << 20), expect={"found": True})
    add("heuristic-square", "square", zw(g // 2), f"translate({BOHR},{shift()})",
        k=4, mode="heuristic")
    add("triangular-mult3", "triangular", zw(4096), f"multiples(3,{r(3)})", m=8,
        expect={"found": True})
    add("triangular-threshold", "triangular", zw(4096), f"threshold({900 + r(200)})", m=8,
        expect={"found": True})
    add("triangular-scored", "triangular", zw(4096), f"threshold({900 + r(200)})", m=6,
        scorer="density_weighted", expect={"found": True})
    add("definable-aps", "definable", zw(1024), f"multiples(3,{r(3)})",
        family="aps", n=10, step_max=8, expect={"found": True})
    add("definable-intervals", "definable", zw(2048), f"threshold({300 + r(100)})",
        family="intervals", n=8, expect={"found": True})
    for k in (16, 32, 48):
        add(f"ladder-threshold-k{k}", "ladder", zw(8 * k), f"threshold({4 * k})",
            k_max=k, expect={"k": k})
    add("growth-mult3", "growth", zw(4096), f"multiples(3,{r(3)})", k_max=5,
        expect={"found": [True] * 5})
    for n in (64, 96):
        add(f"zmod{n}-square", "square", f"zmod:{n}",
            f"union(multiples(4,{r(4)}),multiples(6))", k=5,
            expect={"found": True})
        add(f"zmod{n}-greedy-cover", "cover", f"zmod:{n}", f"multiples(4,{r(4)})",
            t_max=n, mode="greedy")
    add("zw-greedy-cover", "cover", zw(4096), f"bernoulli(1/2,{rng.randrange(1 << 30)})",
        core=[1024, 2560], shifts=[-64, 64], t_max=64, mode="greedy")
    # Ramsey upgrades on criterion-4 style inputs, plus the forced outcomes
    for mlen in (64, 256, 1024, 2048, 4096):
        model, spec, b, c = _triangular_input(corpus, f"tri-{mlen}.set", rng, mlen)
        add(f"upgrade-m{mlen}", "upgrade", model, spec, b=b, c=c,
            expect={"min_size": (mlen.bit_length() - 1) // 2})
    for tag in ("square", "ladder"):
        mlen = 257
        model, spec, b, c = _triangular_input(corpus, None, rng, mlen, uniform=tag)
        add(f"upgrade-{tag}-m{mlen}", "upgrade", model, spec, b=b, c=c,
            expect={"tag": tag, "size": mlen})
    return out


# --- CLI cases ----------------------------------------------------------------


def _frac(p, q):
    f = Fraction(p, q)
    return f"{f.numerator}/{f.denominator}"


def _cli_cases(corpus, rng):
    w = corpus.workload
    out_dir = corpus.workdir
    s16, s17 = 1 << 16, 1 << 17
    if w == "materialize":
        f1 = os.path.join(out_dir, "cli-gen.set")
        f2 = os.path.join(out_dir, "cli-gen.rle")
        return [
            CliCase("gen-list", ["gen", "--model", zw(s16), "--set", BOHR,
                                 "--output", f1], 0, {"file": f1}),
            CliCase("gen-rle", ["gen", "--model", zw(s17), "--set",
                                f"bernoulli(1/8,{rng.randrange(1 << 30)})",
                                "--format", "rle", "--output", f2], 0, {"file": f2}),
            CliCase("density-schedule", ["density", "--model", zw(s17), "--set",
                                         f"multiples(3,{rng.randrange(3)})",
                                         "--schedule", "16,256,1024"], 0,
                    # best window of length n over multiples of 3 holds ceil(n/3)
                    {"densities": [_frac(-(-n // 3), n) for n in (16, 256, 1024)]}),
            CliCase("find-point-partition", ["find-point", "--model", zw(s16), "--set",
                                             "pow2", "--alpha", "1/2", "--N", "64"], 1,
                    {"status": "partition"}),
        ]
    if w == "refute":
        n = 64
        return [
            CliCase("witness-pow2", ["witness", "--model", zw(s16), "--set", "pow2",
                                     "--k", "2"], 1, {"status": "not_found", "exhaustive": True}),
            CliCase("ladder-mult3", ["ladder", "--model", zw(300),
                                     "--set", f"multiples(3,{rng.randrange(3)})",
                                     "--k-max", "2"], 0, {"k": 1, "lower_bound_only": False}),
            CliCase("syndetic-coset", ["syndetic", "--model", f"zmod:{n}", "--set",
                                       f"multiples(4,{rng.randrange(4)})",
                                       "--t-max", str(n)], 0, {"t": 4, "optimal": True}),
            CliCase("syndetic-below", ["syndetic", "--model", f"zmod:{n}", "--set",
                                       f"multiples(4,{rng.randrange(4)})",
                                       "--t-max", "3"], 1, {"status": "infeasible"}),
            CliCase("defwitness-pow2", ["defwitness", "--model", zw(4096), "--set",
                                        f"translate(pow2,{rng.randrange(1, 32)})",
                                        "--family", "aps", "--n", "3", "--step-max", "16"],
                    1, {"status": "not_found", "exhaustive": True}),
        ]
    k = 32
    return [
        CliCase("witness-8b", ["witness", "--model", zw(s16), "--set",
                               f"multiples(3,{rng.randrange(3)})", "--k", "6"], 0,
                {"status": "found"}),
        CliCase("triangular-scored", ["triangular", "--model", zw(4096), "--set",
                                      f"threshold({900 + rng.randrange(200)})", "--m", "6",
                                      "--scorer", "pool_size"], 0, {"status": "found"}),
        CliCase("ladder-threshold", ["ladder", "--model", zw(8 * k), "--set",
                                     f"threshold({4 * k})", "--k-max", str(k)], 0,
                {"k": k, "lower_bound_only": False}),
        CliCase("upgrade", ["upgrade", "--model", zw(400), "--set", "multiples(2)",
                            "--b", "0,2,4,6,8,10", "--c", "12,14,16,18,20,22"], 0,
                {"tag": "square"}),
        CliCase("syndetic-greedy", ["syndetic", "--model", "zmod:96",
                                    "--set", f"multiples(4,{rng.randrange(4)})",
                                    "--mode", "greedy", "--t-max", "8"], 0, {"t": 4}),
    ]


BUILDERS = {"materialize": _materialize, "refute": _refute, "certify": _certify}


def build(workload, seed, workdir):
    """Generate the corpus for (workload, seed) and write its input files.

    This is the benchmark's set-up: it imports nothing heavy itself, but
    building the models parses and validates every model (for ``zmod:n``
    that includes the Latin-square check).
    """
    from sumcore import cli, setspec

    os.makedirs(workdir, exist_ok=True)
    # the seed text is the one the corpus was first pinned with
    rng = random.Random(f"{workload}:{seed}:full")
    corpus = Corpus(workload, seed, workdir, [], [])
    corpus.instances = BUILDERS[workload](corpus, rng)
    corpus.cli_cases = _cli_cases(corpus, rng)
    for inst in corpus.instances:
        if inst.model not in corpus.models:
            corpus.models[inst.model] = cli.parse_model_arg(inst.model)
        # parse_set_spec / spec_to_text must round-trip on every corpus spec
        tree = setspec.parse_set_spec(inst.spec)
        if setspec.parse_set_spec(setspec.spec_to_text(tree)) != tree:
            raise ValueError(f"{inst.id}: DSL text does not round-trip: {inst.spec}")
    return corpus
