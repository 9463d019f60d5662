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

import re
from fractions import Fraction

import numpy as np

from .errors import ParseError, SpecOutOfRange
from .model import DenseSet, Record, _read_set, bits_of, from_mask, shift_bits
# bench/tracing.py wraps ``sumcore.setspec.read_set_file`` by name
from .model import read_set_file  # noqa: F401

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


class Multiples(Record):
    q: int
    offset: int = 0


class PowersOf2(Record):
    pass


class Bernoulli(Record):
    delta: Fraction
    seed: int


class BohrSet(Record):
    # theta approximated by num/den; membership ||x*theta|| < eps, exact
    num: int
    den: int
    eps: Fraction


class Threshold(Record):
    t: int


class Explicit(Record):
    members: tuple


class FileSet(Record):
    path: str


class Union(Record):
    left: object
    right: object


class Intersect(Record):
    left: object
    right: object


class Translate(Record):
    child: object
    k: int


class Complement(Record):
    child: object


# Elements per block of the Bernoulli and Bohr kernels: each block's work
# arrays stay in cache, and the Python loop runs once per block.
_BLOCK = 1 << 14
# Row length of the Bohr kernel: x = j·_ROW + i.
_ROW = 256


def _bernoulli_mask(n, delta, seed):
    """The splitmix64 draws of elements 0 … n − 1 against floor(delta·2^64),
    one block at a time in two reused uint64 arrays (all ops ``out=``)."""
    threshold = (delta.numerator << 64) // delta.denominator
    if threshold >= 1 << 64:
        return np.ones(n, dtype=bool)
    block = max(1, min(n, _BLOCK))
    steps = np.arange(1, block + 1, dtype=np.uint64) * np.uint64(GOLDEN)
    x = np.empty(block, dtype=np.uint64)
    t = np.empty(block, dtype=np.uint64)
    out = np.empty(n, dtype=bool)
    m1, m2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
    s30, s27, s31 = np.uint64(30), np.uint64(27), np.uint64(31)
    for lo in range(0, n, block):
        m = min(block, n - lo)
        xs, ts = x[:m], t[:m]
        # element lo + i draws seed + (lo + i + 1)·GOLDEN, mod 2^64
        np.add(steps[:m], np.uint64((seed + lo * GOLDEN) & MASK64), out=xs)
        np.bitwise_xor(xs, np.right_shift(xs, s30, out=ts), out=xs)
        np.multiply(xs, m1, out=xs)
        np.bitwise_xor(xs, np.right_shift(xs, s27, out=ts), out=xs)
        np.multiply(xs, m2, out=xs)
        np.bitwise_xor(xs, np.right_shift(xs, s31, out=ts), out=xs)
        np.less(xs, np.uint64(threshold), out=out[lo:lo + m])
    return out


def _bohr_mask(n, p, q, eps):
    """{x : ||x·p/q|| < eps} for 0 <= x < n and 0 <= p < q, exactly.

    With r = x·p mod q and T = (en·q − 1) // ed for eps = en/ed,
    ||r/q|| < en/ed iff r <= T or r >= q − T, that is iff
    (r + T) mod q <= 2T.  Row j of x = j·_ROW + i has
    (r + T) mod q = (i·p mod q) + ((j·(_ROW·p mod q) + T) mod q), less
    one q where that sum reaches q: no division per element.  The sums
    lie below 2q, so int32 holds them when 2q < 2^31; int64 holds every
    product when max(_ROW, rows)·q < 2^63; past that the same code runs
    on Python ints (dtype object).
    """
    en, ed = eps.numerator, eps.denominator
    T = (en * q - 1) // ed
    rows = -(-n // _ROW)
    wide = np.int64 if max(_ROW, rows) * q < 1 << 63 else object
    dtype = np.int32 if 2 * q < 1 << 31 else wide
    base = (np.arange(_ROW, dtype=wide) * p % q).astype(dtype)
    shifts = ((np.arange(rows, dtype=wide) * (_ROW * p % q) + T) % q).astype(dtype)
    out = np.empty((rows, _ROW), dtype=bool)
    step = _BLOCK // _ROW
    for j in range(0, rows, step):
        r = base + shifts[j:j + step, None]
        r = np.where(r >= q, r - q, r)
        np.less_equal(r, 2 * T, out=out[j:j + step])
    return out.reshape(-1)[:n]


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
            members = _read_set(node.path, n)[0]
            # sorted and non-negative: members >= n are ignored
            return bits_of(members[:np.searchsorted(members, n)].astype(np.int64, copy=False))
        if isinstance(node, Union):
            return ev(node.left) | ev(node.right)
        if isinstance(node, Intersect):
            return ev(node.left) & ev(node.right)
        if isinstance(node, Translate):
            return shift_bits(ev(node.child), node.k, n)
        if isinstance(node, Complement):
            return full ^ ev(node.child)
        raise SpecOutOfRange(f"unknown spec node {node!r}")

    return DenseSet(model, ev(spec))


# --- DSL ----------------------------------------------------------------------

# The DSL's syntax, read by both parse_set_spec and spec_to_text: each
# generator's node class and the kinds of its arguments, in field order.
#   int, rational, path, spec   one argument of that kind
#   ratio                       p/q as written, into two fields (num, den)
#   int?                        an optional ',' and integer, left out when 0
#   int*                        integers separated by ',', possibly none
# A generator with no argument kinds (pow2) takes no argument list.
GRAMMAR = {
    "multiples": (Multiples, "int", "int?"),
    "pow2": (PowersOf2,),
    "bernoulli": (Bernoulli, "rational", "int"),
    "bohr": (BohrSet, "ratio", "rational"),
    "threshold": (Threshold, "int"),
    "explicit": (Explicit, "int*"),
    "file": (FileSet, "path"),
    "union": (Union, "spec", "spec"),
    "intersect": (Intersect, "spec", "spec"),
    "translate": (Translate, "spec", "int"),
    "complement": (Complement, "spec"),
}
_NAMES = {cls: name for name, (cls, *_) in GRAMMAR.items()}

_WS = re.compile(r"\s*")
_NAME = re.compile(r"\w+")
_INT = re.compile(r"[+-]?[0-9]+")
_DIGITS = re.compile(r"[0-9]+")
_BARE_PATH = re.compile(r"""[^\s(),"']+""")
_QUOTED_PATH = re.compile(r"""(["'])(.*?)\1""", re.DOTALL)


def spec_to_text(spec) -> str:
    """Render a SetSpec in the DSL; parse_set_spec inverts this exactly."""
    name = _NAMES.get(type(spec))
    if name is None:
        raise SpecOutOfRange(f"unknown spec node {spec!r}")
    _, *kinds = GRAMMAR[name]
    if not kinds:
        return name
    values = iter([getattr(spec, name) for name in spec._fields])
    args = []
    for kind, value in zip(kinds, values):
        if kind == "spec":
            args.append(spec_to_text(value))
        elif kind == "path":
            args.append(_path_text(value))
        elif kind == "rational":
            args.append(str(Fraction(value)))
        elif kind == "ratio":
            args.append(f"{value}/{next(values)}")
        elif kind == "int*":
            args += map(str, value)
        elif value or kind == "int":
            args.append(str(value))
    return f"{name}({','.join(args)})"


def _path_text(path: str) -> str:
    """The path bare, or quoted when the parser would stop inside it."""
    if _BARE_PATH.fullmatch(path):
        return path
    for quote in "\"'":
        if quote not in path:
            return f"{quote}{path}{quote}"
    raise SpecOutOfRange(f"file path {path!r} holds both quote characters")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.read = {"int": self.integer, "int*": self.integers, "path": self.path,
                     "rational": self.rational, "ratio": self.ratio, "spec": self.expr}

    def error(self, expected, pos=None):
        raise ParseError(self.text, self.pos if pos is None else pos, expected)

    def skip_ws(self):
        self.pos = _WS.match(self.text, self.pos).end()
        return self.pos

    def token(self, regex, expected):
        """Step past the match of regex after any whitespace."""
        m = regex.match(self.text, self.skip_ws())
        if m is None:
            self.error(expected)
        self.pos = m.end()
        return m

    def take(self, ch):
        """Step past ch if it comes next after any whitespace."""
        found = self.text.startswith(ch, self.skip_ws())
        self.pos += found
        return found

    def expect(self, ch):
        if not self.take(ch):
            self.error([repr(ch)])

    def literal(self, convert, start):
        """convert() of the literal from start to here, which may be too long."""
        try:
            return convert(self.text[start:self.pos])
        except ValueError:  # longer than the interpreter's int-string limit
            self.error(["a literal within the interpreter's int-string limit"], start)

    def integer(self):
        return self.literal(int, self.token(_INT, ["integer"]).start())

    def integers(self):
        if self.text.startswith(")", self.skip_ws()):
            return ()
        items = [self.integer()]
        while self.take(","):
            items.append(self.integer())
        return tuple(items)

    def ratio(self):
        """An integer, p/q or decimal literal as (p, q); p/q is kept as written."""
        start = self.skip_ws()
        p = self.integer()
        if self.text.startswith("/", self.pos):
            self.pos += 1
            q = self.integer()
            if q == 0:
                self.error(["nonzero denominator"], start)
            return (-p, -q) if q < 0 else (p, q)
        if self.text.startswith(".", self.pos):
            self.pos += 1
            m = _DIGITS.match(self.text, self.pos)
            if m is None:
                self.error(["decimal digits"])
            self.pos = m.end()
            f = self.literal(Fraction, start)
            return f.numerator, f.denominator
        return p, 1

    def rational(self):
        return Fraction(*self.ratio())

    def path(self):
        """A bare path, or any text between single or double quotes."""
        if not self.text.startswith(("'", '"'), self.skip_ws()):
            return self.token(_BARE_PATH, ["file path"]).group()
        m = _QUOTED_PATH.match(self.text, self.pos)
        if m is None:
            self.error(["closing quote"], len(self.text))
        self.pos = m.end()
        return m.group(2)

    def expr(self):
        m = self.token(_NAME, ["generator name"])
        if m.group() not in GRAMMAR:
            self.error(list(GRAMMAR), m.start())
        cls, *kinds = GRAMMAR[m.group()]
        if not kinds:
            return cls()
        self.expect("(")
        args = []
        for i, kind in enumerate(kinds):
            if kind == "int?":
                args += [self.integer()] if self.take(",") else []
                continue
            if i and not self.take(","):
                field = cls._fields[len(args)]
                self.error([f"',' ({m.group()} requires an explicit {field})"])
            value = self.read[kind]()
            args += value if kind == "ratio" else [value]
        self.expect(")")
        return cls(*args)


def parse_rational(text: str):
    """The DSL's rational literal (an integer, p/q or decimal in ASCII
    digits) as a Fraction; text past it, or no literal, raises ParseError."""
    p = _Parser(text)
    value = p.rational()
    if p.skip_ws() != len(text):
        p.error(["end of input"])
    return value


def parse_set_spec(text: str):
    """Parse the DSL into a SetSpec tree; bad text raises ParseError."""
    p = _Parser(text)
    try:
        tree = p.expr()
    except RecursionError:  # nested deeper than the interpreter's recursion limit
        raise ParseError(text, p.pos, ["nesting within the recursion limit"]) from None
    if p.skip_ws() != len(text):
        p.error(["end of input"])
    return tree
