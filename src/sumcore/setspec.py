"""Set generator expressions and their textual DSL.

A ``SetSpec`` is an expression tree built from leaf generators

    multiples(q[,r])      arithmetic progression r, r+q, r+2q, ...
    pow2                  the powers of two inside the carrier
    bernoulli(delta,seed) i.i.d. coin flips, reproducible (see below)
    bohr(p/q,eps)         { x : ||x * p/q|| < eps }, exact rationals
    threshold(t)          { x : x >= t }
    explicit(...)         a literal list of elements
    file(path)            members read from a set file

and combinators ``union``, ``intersect``, ``translate(e,k)`` and
``complement``.  Generation is pure: the same (model, spec) pair always
yields the same bitset.

The Bernoulli generator is pinned for bit-exact reproducibility across
platforms: element ``i`` is a member iff

    splitmix64(seed + (i+1) * 0x9E3779B97F4A7C15)  <  floor(delta * 2^64)

with all arithmetic mod 2^64 and ``splitmix64`` the standard finalizer
(xor-shift 30 / 27 / 31 with multipliers 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB).
"""

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParseError, SpecOutOfRange
from .model import DenseSet, bits_of, from_mask, read_set_file

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x):
    x &= MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & MASK64
    return x ^ (x >> 31)


def splitmix_stream(seed):
    """Infinite stream of 64-bit draws from a seed."""
    i = 0
    while True:
        i += 1
        yield splitmix64(seed + i * GOLDEN)


# --- expression tree ---------------------------------------------------------


@dataclass(frozen=True)
class Multiples:
    q: int
    offset: int = 0


@dataclass(frozen=True)
class PowersOf2:
    pass


@dataclass(frozen=True)
class Bernoulli:
    delta: Fraction
    seed: int


@dataclass(frozen=True)
class BohrSet:
    # theta approximated by num/den; membership ||x*theta|| < eps, exact
    num: int
    den: int
    eps: Fraction


@dataclass(frozen=True)
class Threshold:
    t: int


@dataclass(frozen=True)
class Explicit:
    members: tuple


@dataclass(frozen=True)
class FileSet:
    path: str


@dataclass(frozen=True)
class Union:
    left: object
    right: object


@dataclass(frozen=True)
class Intersect:
    left: object
    right: object


@dataclass(frozen=True)
class Translate:
    child: object
    k: int


@dataclass(frozen=True)
class Complement:
    child: object


def _bernoulli_mask(n, delta, seed):
    threshold = (delta.numerator << 64) // delta.denominator
    if threshold >= 1 << 64:
        return np.ones(n, dtype=bool)
    idx = np.arange(1, n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = np.uint64(seed & MASK64) + idx * np.uint64(GOLDEN)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return x < np.uint64(threshold)


def _bohr_mask(n, p, q, eps):
    """{x : min(r, q - r) * ed < en * q} with r = x*p mod q, exactly.

    int64 holds every intermediate when max(n, ed, en) * q < 2^62;
    otherwise the same expression runs on Python ints (dtype object).
    """
    en, ed = eps.numerator, eps.denominator
    dtype = np.int64 if max(n, ed, en) * q < 1 << 62 else object
    r = np.arange(n, dtype=dtype) * p % q
    return np.minimum(r, q - r) * ed < en * q


def generate_set(model, spec) -> DenseSet:
    """Evaluate a SetSpec over the model's carrier indices.

    Leaves are built as bool masks (``from_mask``); combinators are
    big-int operations on the leaves' bitsets.
    """
    n = model.carrier_size
    full = (1 << n) - 1

    def ev(node):
        if isinstance(node, Multiples):
            if node.q <= 0:
                raise SpecOutOfRange("multiples step must be positive")
            mask = np.zeros(n, dtype=bool)
            mask[node.offset % node.q::node.q] = True
            return from_mask(mask)
        if isinstance(node, PowersOf2):
            # 1, 2, 4, ... below n: exponents 0 .. bit_length(n - 1) - 1
            mask = np.zeros(n, dtype=bool)
            mask[1 << np.arange((n - 1).bit_length())] = True
            return from_mask(mask)
        if isinstance(node, Bernoulli):
            if not (0 <= node.delta <= 1):
                raise SpecOutOfRange("bernoulli density must lie in [0,1]")
            return from_mask(_bernoulli_mask(n, Fraction(node.delta), node.seed))
        if isinstance(node, BohrSet):
            if node.den <= 0:
                raise SpecOutOfRange("bohr denominator must be positive")
            if not (0 < node.eps < 1):
                raise SpecOutOfRange("bohr radius must lie in (0,1)")
            return from_mask(_bohr_mask(n, node.num % node.den, node.den,
                                        Fraction(node.eps)))
        if isinstance(node, Threshold):
            if node.t <= 0:
                return full
            if node.t >= n:
                return 0
            return full ^ ((1 << node.t) - 1)
        if isinstance(node, Explicit):
            for x in node.members:
                if not (0 <= x < n):
                    raise SpecOutOfRange(f"explicit member {x} outside carrier")
            return bits_of(node.members)
        if isinstance(node, FileSet):
            members, _ = read_set_file(node.path)
            # sorted and non-negative: members >= n are ignored
            return bits_of(members[:bisect_left(members, n)])
        if isinstance(node, Union):
            return ev(node.left) | ev(node.right)
        if isinstance(node, Intersect):
            return ev(node.left) & ev(node.right)
        if isinstance(node, Translate):
            b = ev(node.child)
            if node.k >= 0:
                return (b << node.k) & full
            return b >> (-node.k)
        if isinstance(node, Complement):
            return full ^ ev(node.child)
        raise SpecOutOfRange(f"unknown spec node {node!r}")

    return DenseSet(model, ev(spec))


# --- DSL ----------------------------------------------------------------------


def spec_to_text(spec) -> str:
    """Render a SetSpec in the DSL; parse_set_spec inverts this exactly."""
    if isinstance(spec, Multiples):
        if spec.offset:
            return f"multiples({spec.q},{spec.offset})"
        return f"multiples({spec.q})"
    if isinstance(spec, PowersOf2):
        return "pow2"
    if isinstance(spec, Bernoulli):
        return f"bernoulli({_frac_text(spec.delta)},{spec.seed})"
    if isinstance(spec, BohrSet):
        return f"bohr({spec.num}/{spec.den},{_frac_text(spec.eps)})"
    if isinstance(spec, Threshold):
        return f"threshold({spec.t})"
    if isinstance(spec, Explicit):
        return "explicit(" + ",".join(str(m) for m in spec.members) + ")"
    if isinstance(spec, FileSet):
        return f"file({_path_text(spec.path)})"
    if isinstance(spec, Union):
        return f"union({spec_to_text(spec.left)},{spec_to_text(spec.right)})"
    if isinstance(spec, Intersect):
        return f"intersect({spec_to_text(spec.left)},{spec_to_text(spec.right)})"
    if isinstance(spec, Translate):
        return f"translate({spec_to_text(spec.child)},{spec.k})"
    if isinstance(spec, Complement):
        return f"complement({spec_to_text(spec.child)})"
    raise SpecOutOfRange(f"unknown spec node {spec!r}")


def _path_text(path: str) -> str:
    """The path bare, or quoted when the parser would stop inside it."""
    if path and not any(c in "(),\"'" or c.isspace() for c in path):
        return path
    for quote in "\"'":
        if quote not in path:
            return f"{quote}{path}{quote}"
    raise SpecOutOfRange(f"file path {path!r} holds both quote characters")


def _frac_text(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, expected):
        raise ParseError(self.text, self.pos, expected)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch):
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == ch:
            self.pos += 1
            return
        self.error([repr(ch)])

    def name(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            self.error(["generator name"])
        return self.text[start:start + (self.pos - start)]

    def integer(self):
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        token = self.text[start:self.pos]
        if not token or token in "+-":
            self.pos = start
            self.error(["integer"])
        return int(token)

    def rational(self):
        """Integer, p/q, or decimal literal -- parsed exactly as a Fraction."""
        self.skip_ws()
        start = self.pos
        num = self.integer()
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            self.pos += 1
            den = self.integer()
            if den == 0:
                self.pos = start
                self.error(["nonzero denominator"])
            return Fraction(num, den)
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.pos += 1
            dstart = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            digits = self.text[dstart:self.pos]
            if not digits:
                self.error(["decimal digits"])
            frac = Fraction(int(digits), 10 ** len(digits))
            # the sign is read from the text: "-0.5" has integer part 0
            return Fraction(num) + (-frac if self.text[start] == "-" else frac)
        return Fraction(num)

    def path(self):
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] in "\"'":
            quote = self.text[self.pos]
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos] != quote:
                self.pos += 1
            if self.pos >= len(self.text):
                self.error(["closing quote"])
            token = self.text[start:self.pos]
            self.pos += 1
            return token
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in "(),\"'" and not self.text[self.pos].isspace():
            self.pos += 1
        if self.pos == start:
            self.error(["file path"])
        return self.text[start:self.pos]

    def expr(self):
        name = self.name()
        if name == "pow2":
            return PowersOf2()
        if name == "multiples":
            self.expect("(")
            q = self.integer()
            offset = 0
            self.skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == ",":
                self.pos += 1
                offset = self.integer()
            self.expect(")")
            return Multiples(q, offset)
        if name == "bernoulli":
            self.expect("(")
            delta = self.rational()
            self.skip_ws()
            if self.pos >= len(self.text) or self.text[self.pos] != ",":
                self.error(["',' (bernoulli requires an explicit seed)"])
            self.pos += 1
            seed = self.integer()
            self.expect(")")
            return Bernoulli(delta, seed)
        if name == "bohr":
            self.expect("(")
            theta = self.rational()
            self.expect(",")
            eps = self.rational()
            self.expect(")")
            return BohrSet(theta.numerator, theta.denominator, eps)
        if name == "threshold":
            self.expect("(")
            t = self.integer()
            self.expect(")")
            return Threshold(t)
        if name == "explicit":
            self.expect("(")
            self.skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == ")":
                self.pos += 1
                return Explicit(())
            members = [self.integer()]
            self.skip_ws()
            while self.pos < len(self.text) and self.text[self.pos] == ",":
                self.pos += 1
                members.append(self.integer())
                self.skip_ws()
            self.expect(")")
            return Explicit(tuple(members))
        if name == "file":
            self.expect("(")
            p = self.path()
            self.expect(")")
            return FileSet(p)
        if name == "union":
            self.expect("(")
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect(")")
            return Union(a, b)
        if name == "intersect":
            self.expect("(")
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect(")")
            return Intersect(a, b)
        if name == "translate":
            self.expect("(")
            a = self.expr()
            self.expect(",")
            k = self.integer()
            self.expect(")")
            return Translate(a, k)
        if name == "complement":
            self.expect("(")
            a = self.expr()
            self.expect(")")
            return Complement(a)
        self.pos -= len(name)
        self.error([
            "multiples", "pow2", "bernoulli", "bohr", "threshold",
            "explicit", "file", "union", "intersect", "translate", "complement",
        ])


def parse_set_spec(text: str):
    """Parse the DSL into a SetSpec tree (whitespace-insensitive)."""
    p = _Parser(text)
    tree = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        p.error(["end of input"])
    return tree
