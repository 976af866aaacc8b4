"""Exact arithmetic for weights and characters.

Everything lives in one Laurent-polynomial ring with integer coefficients in
the variables Y[i,s] (i = node index, s = integer spectral shift relative to a
formal base point a, which is never stored).  The letter variables z[c,s] are
pushed through the type-dependent monomial substitution ``f_hom`` at
construction time, so the generating relations between the z's hold
automatically and equality is plain structural equality.  The images of a
type's letters are derived from one rule: they form a Frenkel-Mukhin string,
in which each image is an earlier one times A_{i,a}^{-1} (``_a_inverse``).

A ring element stores each monomial as one packed integer key (Monagan and
Pearce's packed exponent vectors).  The exponent of Y[i,s] is a balanced
w-bit digit at slot (s - lo) * n + i - 1: spectral shift major, node index
minor, with lo, the stride n and the width w (4, 8, 16, ...) kept per
element.  The stored key is that vector times one odd constant, _SPREAD:
vectors that differ only in high digits share their low bits, and so their
dict buckets, while their multiples do not.  Sums and left shifts of keys
are sums and shifts of vectors, so multiplying two monomials is still one
integer add, and a spectral shift is O(1): it moves lo and shares the key
dict.  Only the encodes, the decode and the bound check multiply or
divide by _SPREAD.
Operands of + and * are aligned first (a lower lo is a left shift of the
keys; a larger w alone is a bulk widening of each key's bytes, and a larger
n a re-packing of its digits), a determinant's entries only where they meet
a nonzero minor.  == compares the dicts of one layout; where the layouts
differ in lo alone, it looks the higher side's keys, shifted, up in the
other's dict, and elsewhere it aligns them too.  Each element tracks a
bound b < 2**(w - 1) on its exponents; when a product could exceed the digit
range, the operands are re-encoded at twice the width, so a digit never
wraps.  Products are accumulated in one
fresh dict (``RingElem.sum_products``, ``RingElem.determinant``) by the
ring's one pair loop (``_add_product``, whose first term into an empty dict
is a comprehension); a sum is a sum of products with 1 (``RingElem.sum``).
A key leaves the dict where its coefficient cancels, so it is the result,
unfiltered.
No stored dict is ever mutated, so shifted elements may share one.  The
(i, s, e) tuple form, ``RingElem.terms``, is decoded only when read (text,
JSON, classical projection) and cached; a decode builds one (i, s, e) tuple
per (slot, exponent), which all its monomials share.

The bounds come from the letter images.  A row word, a row of a path or
tableau tuple and a term of h_k or e_k are each a product of letter images
at distinct shifts 0, 2 delta, 4 delta, ..., so their exponents are within
``row_bound(t)`` (1 or 2, read off the images).  The series build declares
it on each finished coefficient, and on an operand whose product with the
next factor could otherwise leave its digits (``RingElem.widens``), after
``RingElem.bounded`` has checked every key (an ArithmeticError if one is
outside), so an l-row determinant holds l row bounds and packs at 4 bits
up to 3 rows.  The path and tableau models sum weights over tuples of
rows.  A weight is a product of letter images, so its key is a sum of
letter keys, one cached per (type, width):
``word_keys`` adds them per row word, in pairs (``_placed_sum``), at the
width of a shape's ``Placement`` (``row_bound(t)`` per row), which shifts the keys of a
tuple's rows so that their sum is the key of the tuple's weight, and reads
such keys as a ``RingElem``; ``paths._table_keys`` packs each h-path table.

Letters are encoded as ints: k > 0 is the unbarred letter k, 0 is the type-B
zero letter, -k is the barred letter k-bar.  ``letters(t)`` is the one
definition of a type's alphabet order: ``letter_order`` looks a letter up in
it, the path layer labels the heights of its band with it, and the tableau
layer reads those heights back from it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from typing import Iterable, NamedTuple


class AlgType(NamedTuple):
    """A classical family tag and rank, e.g. AlgType('C', 2)."""

    family: str  # 'A', 'B', 'C' or 'D'
    rank: int

    def __str__(self):
        return f"{self.family}{self.rank}"


FAMILIES = ("A", "B", "C", "D")


def make_type(family: str, rank: int) -> AlgType:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if rank < 1 or (family == "D" and rank < 2):
        raise ValueError(f"rank {rank} too small for family {family}")
    return AlgType(family, rank)


def delta(t: AlgType) -> int:
    """Spectral step unit: 2 for B, 1 otherwise."""
    return 2 if t.family == "B" else 1


@lru_cache(maxsize=None)
def letters(t: AlgType) -> tuple[int, ...]:
    """The alphabet in increasing order: 1 < ... < n+1 for A, else
    1 < ... < n (< 0 for B) < n-bar < ... < 1-bar."""
    n = t.rank
    if t.family == "A":
        return tuple(range(1, n + 2))
    return (*range(1, n + 1), *((0,) if t.family == "B" else ()), *range(-n, 0))


@lru_cache(maxsize=None)
def _positions(t: AlgType) -> dict[int, int]:
    """Each letter's position in letters(t)."""
    return {c: p for p, c in enumerate(letters(t))}


def letter_order(t: AlgType, letter: int) -> int:
    """Position of a letter in the alphabet order (0-based); ValueError for a
    letter outside the alphabet."""
    p = _positions(t).get(letter)
    if p is None:
        raise ValueError(f"letter {letter} not in alphabet of {t}")
    return p


def letter_str(letter: int) -> str:
    return f"{-letter}b" if letter < 0 else str(letter)


# ---------------------------------------------------------------------------
# Ring elements


def terms_text(terms: Iterable[tuple[list[str], int]]) -> str:
    """Signed-sum text of (factor strings, coefficient) pairs, in the given
    order; "0" for no terms."""
    parts = []
    for factors, c in terms:
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        elif c == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append("*".join([str(c)] + factors))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


class RingElem:
    """Sparse Laurent polynomial in the Y[i,s] variables.

    Stored form: a dict from packed monomial keys (see the module docstring)
    to nonzero integer coefficients, with the layout's base shift lo, stride
    n (the largest index i), width w, and a bound b < 2**(w - 1) on every
    |e|.  Constants (key 0) fit every layout.

    ``terms`` is the decoded form: a dict from monomials, each a tuple of
    (i, s, e) factors with nonzero exponent e sorted by (i, s), to
    coefficients.  It is decoded on first use and cached, and is read-only.
    ``RingElem(pairs)`` encodes (factors, coefficient) pairs, such as the
    items of a ``terms`` dict, in one pass that adds repeated monomials.
    """

    __slots__ = ("_keys", "_lo", "_n", "_w", "_b", "_terms")

    def __init__(self, terms: Iterable[tuple[Iterable[tuple[int, int, int]], int]] = ()):
        if isinstance(terms, dict):  # iterating one would read a two-factor monomial as a pair
            raise TypeError("RingElem takes (factors, coefficient) pairs: pass a dict's .items()")
        self._keys, self._lo, self._n, self._w, self._b = _encode([(_exponents(m), c) for m, c in terms])
        self._terms = None

    @staticmethod
    def _make(keys: dict, lo: int, n: int, w: int, b: int) -> "RingElem":
        x = object.__new__(RingElem)
        x._keys, x._lo, x._n, x._w, x._b, x._terms = keys, lo, n, w, b, None
        return x

    # -- constructors

    @staticmethod
    def const(c: int) -> "RingElem":
        return RingElem._make({0: c} if c else {}, 0, 1, _W0, 0)

    @staticmethod
    def monomial(factors: Iterable[tuple[int, int, int]], coef: int = 1) -> "RingElem":
        return RingElem([(factors, coef)])

    @property
    def terms(self) -> dict:
        if self._terms is None:
            lo, n, w = self._lo, self._n, self._w
            shared: dict = {}  # (slot, e) -> the one (i, s, e) tuple of this decode
            terms = {}
            for key, c in self._keys.items():
                factors = []
                for slot, e in enumerate(_digits(key, w)):
                    if e:
                        f = shared.get((slot, e))
                        if f is None:
                            f = shared[slot, e] = (slot % n + 1, slot // n + lo, e)
                        factors.append(f)
                factors.sort()
                terms[tuple(factors)] = c
            self._terms = terms
        return self._terms

    # -- sums and products

    @staticmethod
    def sum(elems: Iterable["RingElem"]) -> "RingElem":
        """The sum of elems, as products with 1: ``sum_products`` of
        (1, x, ONE), whose constant leaves the layout as it is."""
        return RingElem.sum_products((1, x, ONE) for x in elems)

    @staticmethod
    def sum_products(triples: Iterable[tuple[int, "RingElem", "RingElem"]]) -> "RingElem":
        """sum of c * a * b over (c, a, b), accumulated in one new dict by
        ``_add_product``, the pair loop that the determinant shares."""
        triples = [(c, x, y) for c, x, y in triples if c and x._keys and y._keys]
        bound = max((x._b + y._b for _, x, y in triples), default=0)
        keys, lo, n, w = _align([z for _, x, y in triples for z in (x, y)], bound)
        acc: dict = {}
        for (c, _x, _y), ka, kb in zip(triples, keys[0::2], keys[1::2]):
            acc = _add_product(acc, c, ka, kb)
        return RingElem._make(acc, lo, n, w, bound)

    @staticmethod
    def determinant(matrix: list[list["RingElem"]]) -> "RingElem":
        """Exact determinant of a square matrix by cofactor expansion along
        the rows; the ring has no division, so elimination is not an option.

        One scan of the entries fixes the layout of ``_align``, in a width
        that holds the sum over the rows of the row's largest exponent
        bound, which bounds every product in the expansion.  The minor on
        rows i.. and the columns in mask is a key dict keyed by the bitmask;
        a last-row minor is its entry's keys.  The minors are built up the
        rows without recursion: row i's nonzero entry in column j, times
        each nonzero minor of rows i+1.. that misses column j, is added to
        the minor with column j put back, in the order of j, which is the
        expansion of that minor along its first row.  A minor whose other
        columns have no nonzero entry in the rows above is never needed and
        is not made.  An entry's keys are moved into the layout (``_moved``)
        once, and only where the entry meets a nonzero minor.
        """
        l = len(matrix)
        if l == 0:
            return ONE
        bound, lo, n, w = 0, None, 1, _W0
        full, held = (1 << l) - 1, 0
        nonzero, bare = [], []  # per row: the columns of its nonzero entries, and those with none in the rows above
        for row in matrix:
            if len(row) != l:
                raise ValueError(f"determinant of a non-square matrix: row lengths {[len(row) for row in matrix]}")
            rb, js = 0, []
            bare.append(full ^ held)
            for j, x in enumerate(row):
                if x._keys:
                    js.append(j)
                    held |= 1 << j
                    if x._b > rb:
                        rb = x._b
                    if not _is_const(x):
                        if lo is None or x._lo < lo:
                            lo = x._lo
                        n, w = max(n, x._n), max(w, x._w)
            bound += rb
            nonzero.append(js)
        if held != full:
            return ZERO
        lo, w = lo or 0, max(w, _width(bound))
        memo, last = {}, matrix[l - 1]
        for j in nonzero[l - 1]:
            if not (full ^ 1 << j) & bare[l - 1]:
                memo[1 << j] = _moved(last[j], lo, n, w)
        for i in range(l - 2, -1, -1):
            row, minors, off = matrix[i], {}, bare[i]
            for j in nonzero[i]:
                bit, keys = 1 << j, None
                for mask, sub in memo.items():
                    if sub and not mask & bit and not (full ^ mask ^ bit) & off:
                        if keys is None:
                            keys = _moved(row[j], lo, n, w)
                        up = mask | bit
                        minors[up] = _add_product(minors.get(up) or {}, -1 if (up & bit - 1).bit_count() & 1 else 1, keys, sub)
            memo = minors
        return RingElem._make(memo.get(full) or {}, lo, n, w, bound)

    # -- ring operations

    def __add__(self, other: "RingElem") -> "RingElem":
        return RingElem.sum((self, other))

    def __neg__(self) -> "RingElem":
        return self.scalar_mul(-1)

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def __mul__(self, other: "RingElem") -> "RingElem":
        return RingElem.sum_products(((1, self, other),))

    def scalar_mul(self, c: int) -> "RingElem":
        if c == 0:
            return RingElem.const(0)
        return RingElem._make({k: c * cc for k, cc in self._keys.items()}, self._lo, self._n, self._w, self._b)

    def bounded(self, b: int) -> "RingElem":
        """self, declared to have every |exponent| at most b, after a check of
        every key (``_within``): ArithmeticError if an exponent exceeds b.
        A bound no smaller than the one self carries holds already; at digits
        wider than 8 bits, which no series build reaches, none is declared.
        Either way self is returned as it is."""
        if b >= self._b or self._w > 8:
            return self
        if not _within(self._keys, self._w, b):
            raise ArithmeticError(f"an exponent exceeds the declared bound {b}: {self.to_text()[:200]}")
        return RingElem._make(self._keys, self._lo, self._n, self._w, b)

    def widens(self, other: "RingElem") -> bool:
        """Whether a product with other could hold exponents past the digits
        of self's width, by the bounds they carry: where it could, a tighter
        bound declared first (``bounded``) may keep it at that width."""
        return self._b + other._b >= 1 << (self._w - 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElem):
            return False
        if len(self._keys) != len(other._keys):
            return False
        if self._n == other._n and self._w == other._w:
            if self._lo == other._lo:
                return self._keys == other._keys
            # one layout but for lo: the higher side's keys, shifted, read in place
            hi, lo = (self, other) if self._lo > other._lo else (other, self)
            sh, get = hi._w * hi._n * (hi._lo - lo._lo), lo._keys.get
            return all(get(k << sh) == c for k, c in hi._keys.items())
        a, b = _align((self, other), 0)[0]
        return a == b

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def num_terms(self) -> int:
        """Number of monomials counted with multiplicity (sum of |coef|)."""
        return sum(abs(c) for c in self._keys.values())

    # -- shifts and projections

    def shift_spectral(self, d: int) -> "RingElem":
        """Translate every spectral shift by d: a new base, the same keys
        (the dict is shared, never mutated)."""
        if d == 0:
            return self
        return RingElem._make(self._keys, self._lo + d, self._n, self._w, self._b)

    def beta(self) -> "RingElem":
        """Classical projection: forget spectral shifts, Y[i,s] -> y_i.

        The result is represented as a RingElem with all shifts zero,
        i.e. a Laurent polynomial in y_1..y_n.
        """
        items = [(_exponents((i, 0, e) for i, _s, e in m), c) for m, c in self.terms.items()]
        return RingElem._make(*_encode(items, self._n))

    # -- serialization

    def sorted_terms(self) -> list[tuple[tuple, int]]:
        return sorted(self.terms.items())

    def to_text(self) -> str:
        return terms_text(
            ([f"Y[{i},{s}]" + (f"^{e}" if e != 1 else "") for i, s, e in m], c)
            for m, c in self.sorted_terms()
        )

    def to_json_obj(self) -> dict:
        return {
            "terms": [
                {"coef": c, "factors": [{"i": i, "s": s, "e": e} for i, s, e in m]}
                for m, c in self.sorted_terms()
            ]
        }

    def __repr__(self):
        return f"RingElem({self.to_text()})"


# ---------------------------------------------------------------------------
# Packed keys


_W0 = 4  # digit width of a new element; doubled while the bound needs it
# A stored key is its packed vector times this odd constant.  Sums and left
# shifts of keys are sums and shifts of vectors, so products and spectral
# shifts never see it; only the encodes (_encode, _letter_keys, _recode),
# the decode (_digits) and the bound check (_within) multiply or divide by
# it.  It spreads the hashes: packed vectors that differ only in high digits
# share their low bits, and so their dict buckets.  It is 2**30 over the
# golden ratio, made odd: below 2**30 it is one CPython digit, which divides
# fastest.
_SPREAD = 0x278DDE6D


def _width(bound: int) -> int:
    """Smallest width (4, 8, 16, ...) whose balanced digits hold |e| <= bound."""
    w = _W0
    while bound >= 1 << (w - 1):
        w *= 2
    return w


def _exponents(factors: Iterable[tuple[int, int, int]]) -> dict[tuple[int, int], int]:
    """{(i, s): e} of a product of factors, repeated (i, s) added."""
    acc: dict[tuple[int, int], int] = {}
    for i, s, e in factors:
        acc[(i, s)] = acc.get((i, s), 0) + e
    return acc


def _encode(items: list[tuple[dict, int]], n: int = 1) -> tuple[dict, int, int, int, int]:
    """Packed (keys, lo, n, w, b) of the sum of coef * monomial over
    ({(i, s): e}, coef) items; lo is the least shift with a nonzero exponent."""
    items = [({k: e for k, e in exps.items() if e}, c) for exps, c in items if c]
    slots = [k for exps, _ in items for k in exps]
    if any(i < 1 for i, _ in slots):
        raise ValueError(f"variable index must be positive: {min(i for i, _ in slots)}")
    n = max([n] + [i for i, _ in slots])
    lo = min((s for _, s in slots), default=0)
    b = max((abs(e) for exps, _ in items for e in exps.values()), default=0)
    w = _width(b)
    keys: dict[int, int] = {}
    for exps, c in items:
        key = _SPREAD * sum(e << (w * ((s - lo) * n + i - 1)) for (i, s), e in exps.items())
        keys[key] = keys.get(key, 0) + c
    return {k: c for k, c in keys.items() if c}, lo, n, w, b


# Byte tables of the bulk digit reads: a hex character of an offset 4-bit
# digit to its signed value (_HEX); a byte of two offset 4-bit digits to each
# digit offset at 8 bits, d + 8 -> d + 128 (_LOW8, _HIGH8); an offset 8-bit
# digit to its signed value, which is also the low byte of the digit offset
# at 16 bits (_FLIP); and the top byte of an offset digit to the other bytes
# (_FILL) and the top byte (_TOP) of the high half of that digit offset at
# twice the width.
_HEX = bytes((int(chr(x), 16) - 8) & 255 if chr(x) in "0123456789abcdef" else 0 for x in range(256))
_LOW8 = bytes((x & 15) + 120 for x in range(256))
_HIGH8 = bytes((x >> 4) + 120 for x in range(256))
_FLIP = bytes(x ^ 128 for x in range(256))
_FILL = bytes(0 if x & 128 else 255 for x in range(256))
_TOP = bytes(128 if x & 128 else 127 for x in range(256))


@lru_cache(maxsize=256)
def _offset(w: int, size: int) -> int:
    """The int whose size bytes hold half a digit, 2**(w - 1), at every
    w-bit place."""
    unit = b"\x88" if w == 4 else (1 << (w - 1)).to_bytes(w // 8, "little")
    return int.from_bytes(unit * (size // len(unit)), "little")


def _offset_bytes(key: int, w: int) -> bytes:
    """The packed vector of a stored key, half a digit added at every w-bit
    place (w = 4 or a multiple of 8), little-endian: each balanced digit e
    becomes e + 2**(w - 1) >= 0, with no carry, so the digits are the
    nibbles or bytes.  The places run one past the top digit, and fill
    whole bytes."""
    v = key // _SPREAD
    size = v.bit_length() // 8 + 1 if w <= 8 else (v.bit_length() // w + 1) * (w // 8)
    return (v + _offset(w, size)).to_bytes(size, "little")


def _digits(key: int, w: int) -> list[int]:
    """Balanced base-2**w digits of a stored key's packed vector, least
    significant first, read off its offset bytes (``_offset_bytes``): by
    table, from the hex form for w = 4 and from the bytes for w = 8."""
    raw = _offset_bytes(key, w)
    if w == 4:
        return memoryview(raw[::-1].hex().encode()[::-1].translate(_HEX)).cast("b").tolist()
    if w == 8:
        return memoryview(raw.translate(_FLIP)).cast("b").tolist()
    nb, half = w // 8, 1 << (w - 1)
    return [int.from_bytes(raw[j : j + nb], "little") - half for j in range(0, len(raw), nb)]


def _doubled(raw: bytes, w: int) -> bytearray:
    """Offset bytes at width w re-read at width 2w: each digit's bytes
    interleaved with its new high half.  A 4-bit digit d + 8 becomes the
    byte d + 128; a wider digit keeps its bytes, top bit flipped, and gains
    the high half of its sign, offset."""
    out = bytearray(2 * len(raw))
    if w == 4:
        out[0::2], out[1::2] = raw.translate(_LOW8), raw.translate(_HIGH8)
        return out
    nb = w // 8
    tops = raw[nb - 1 :: nb]
    for j in range(nb - 1):
        out[j :: 2 * nb] = raw[j::nb]
        out[nb + j :: 2 * nb] = tops.translate(_FILL)
    out[nb - 1 :: 2 * nb] = tops.translate(_FLIP)
    out[2 * nb - 1 :: 2 * nb] = tops.translate(_TOP)
    return out


@lru_cache(maxsize=None)
def _allowed(w: int, b: int) -> bytes:
    """The byte values of offset w-bit digits (w = 4 or 8) within [-b, b]:
    one digit e + 128 per byte at 8 bits, two digits e + 8 at 4."""
    ok = range((1 << (w - 1)) - b, (1 << (w - 1)) + b + 1)
    return bytes(ok) if w == 8 else bytes(hi << 4 | lo for hi in ok for lo in ok)


def _within(keys, w: int, b: int) -> bool:
    """Whether every balanced w-bit digit (w = 4 or 8) of every key is within
    [-b, b], by three big-int operations per key and a few passes over them
    all.  Each key plus _SPREAD times half a digit at every place is cut to
    one byte size for all, 4 bytes more than its vector needs, as _SPREAD <
    2**30; the pieces, read as one int and divided by _SPREAD, hold each
    digit e as e + 2**(w - 1), and 0 in the 4 bytes.  Deleting the bytes of
    digits within b leaves those zero bytes alone, as b < 2**(w - 1)."""
    size = max(map(int.bit_length, keys), default=0) // 8 + 1  # past every vector's top place, as _SPREAD > 2**29
    lift = _SPREAD * _offset(w, size)
    pieces = b"".join(map(int.to_bytes, map(lift.__add__, keys), repeat(size + 4), repeat("little")))
    raw = (int.from_bytes(pieces, "little") // _SPREAD).to_bytes(len(pieces), "little")
    return raw.translate(None, _allowed(w, b)) == bytes(4 * len(keys))


def _is_const(x: RingElem) -> bool:
    keys = x._keys
    return not keys or (len(keys) == 1 and 0 in keys)


def _add_product(acc: dict, c: int, ka: dict, kb: dict) -> dict:
    """acc + c * ka * kb for key dicts in one layout, the smaller operand
    in the outer loop: the ring's one pair-product loop, which adds to acc
    and returns it.  A key leaves acc where its coefficient cancels, so acc
    holds only live monomials.  Into an empty acc, the first term of the
    smaller operand writes a new dict, a copy for the constant 1: within
    one term no two keys meet and none cancels."""
    if len(ka) > len(kb):
        ka, kb = kb, ka
    items, terms = kb.items(), iter(ka.items())
    if not acc and ka:
        k1, c1 = next(terms)
        c1 *= c
        acc = kb.copy() if k1 == 0 and c1 == 1 else {k1 + k2: c1 * c2 for k2, c2 in items}
    get = acc.get
    for k1, c1 in terms:
        c1 *= c
        for k2, c2 in items:
            k = k1 + k2
            if v := get(k, 0) + c1 * c2:
                acc[k] = v
            else:
                del acc[k]
    return acc


def _moved(x: RingElem, lo: int, n: int, w: int) -> dict:
    """x's keys in the layout (lo, n, w), with lo <= x._lo, n >= x._n and
    w >= x._w; a constant's keys, and keys already in the layout, are
    returned as they are, not copied."""
    if x._lo == lo and x._n == n and x._w == w or _is_const(x):
        return x._keys
    if x._n != n or x._w != w:
        return _recode(x, lo, n, w)
    sh = w * n * (x._lo - lo)
    return {k << sh: c for k, c in x._keys.items()}


def _align(elems, bound: int) -> tuple[list[dict], int, int, int]:
    """The keys of elems, each by ``_moved``, in one layout (lo, n, w): the
    least lo, the largest n, and the largest w, widened until bound fits."""
    live = [x for x in elems if not _is_const(x)]
    if not live:
        return [x._keys for x in elems], 0, 1, _width(bound)
    lo, n, w = min(x._lo for x in live), max(x._n for x in live), max(_width(bound), max(x._w for x in live))
    return [_moved(x, lo, n, w) for x in elems], lo, n, w


def _recode(x: RingElem, lo: int, n: int, w: int) -> dict:
    """x's keys in the layout (lo, n, w), with lo <= x._lo, n >= x._n and
    w >= x._w.  In x's own stride, each key is widened in bulk, w -> 2w
    (``_doubled``) until it has width w, and shifted; in a larger stride,
    each digit is re-packed at its new slot."""
    sh = w * n * (x._lo - lo)
    if x._n == n:
        out = {}
        for key, c in x._keys.items():
            raw, v = _offset_bytes(key, x._w), x._w
            while v < w:
                raw, v = _doubled(raw, v), 2 * v
            out[_SPREAD * (int.from_bytes(raw, "little") - _offset(w, len(raw))) << sh] = c
        return out
    out = {}
    for key, c in x._keys.items():
        new = 0
        for slot, e in enumerate(_digits(key, x._w)):
            if e:
                s, i = divmod(slot, x._n)
                new += e << (w * (s * n + i))
        out[_SPREAD * new << sh] = c
    return out


ZERO = RingElem.const(0)
ONE = RingElem.const(1)


# ---------------------------------------------------------------------------
# The substitution f: z-variables -> Y-monomials
#
# The letters of a type are the monomials of the q-character of its vector
# representation, which form one Frenkel-Mukhin string: from Y_{1,0}
# (Y_{1,-1} Y_{1,1} for B1, Y_{1,0} Y_{2,0} for D2), each letter's image is
# an earlier one times A_{i,a}^{-1}.  Each type's image table is derived
# once, from its string of steps.


def _d(t: AlgType, i: int) -> int:
    """d_i: 2 for the nodes i < n of B and the node n of C, else 1."""
    return 2 if (t.family == "B" and i < t.rank) or (t.family == "C" and i == t.rank) else 1


def _a_inverse(t: AlgType, i: int, a: int) -> list[tuple[int, int, int]]:
    """Y-factors of A_{i,a}^{-1}: Y_{i,a-d_i}^{-1} Y_{i,a+d_i}^{-1}, times
    Y_{j,a} for each Dynkin neighbour j of i with d_j >= d_i, and
    Y_{j,a-1} Y_{j,a+1} for each with d_j < d_i."""
    n, d = t.rank, _d(t, i)
    edges = [(j, j + 1) for j in range(1, n)]
    if t.family == "D":  # the fork: (n-1, n) becomes (n-2, n); D2 has no edge
        edges = edges[:-1] + ([(n - 2, n)] if n >= 3 else [])
    out = [(i, a - d, -1), (i, a + d, -1)]
    for j in [q for p, q in edges if p == i] + [p for p, q in edges if q == i]:
        out += [(j, a, 1)] if _d(t, j) >= d else [(j, a - 1, 1), (j, a + 1, 1)]
    return out


def _string(t: AlgType) -> list[tuple[int, int, int, int]]:
    """The steps (c, c', i, a), z_{c'} = z_c A_{i,a}^{-1}, each letter but 1
    reached once and after its c: up the unbarred letters, through the
    middle of the family, and down the barred ones."""
    n, fam, d = t.rank, t.family, delta(t)
    up = [(c, c + 1, c, d * c) for c in range(1, n + (fam == "A"))]
    if fam == "A":
        return up
    middle = {
        "B": [(n, 0, n, 2 * n), (0, -n, n, 2 * n - 2)],
        "C": [(n, -n, n, n + 1)],
        "D": [(n - 1, -n, n, n - 1), (n, 1 - n, n, n - 1)],
    }[fam]
    top = {"B": 4 * n, "C": 2 * n + 3, "D": 2 * n - 1}[fam]
    return up + middle + [(-i, 1 - i, i - 1, top - d * i) for i in range(n - (fam == "D"), 1, -1)]


@lru_cache(maxsize=None)
def _images(t: AlgType) -> dict[int, tuple[tuple[int, int, int], ...]]:
    """Each letter's image as sorted Y-factors (i, relative shift, exponent)."""
    start = {("B", 1): ((1, -1, 1), (1, 1, 1)), ("D", 2): ((1, 0, 1), (2, 0, 1))}.get(t, ((1, 0, 1),))
    images = {1: start}
    for c, c2, i, a in _string(t):
        (images[c2],) = RingElem.monomial([*images[c], *_a_inverse(t, i, a)]).terms  # its one monomial
    return images


def _f_factors(t: AlgType, letter: int) -> tuple[tuple[int, int, int], ...]:
    """Y-factors (i, relative shift, exponent) of the image of z_{letter,a};
    ValueError for a letter outside the alphabet."""
    letter_order(t, letter)
    return _images(t)[letter]


def f_hom(t: AlgType, letter: int, shift: int = 0) -> RingElem:
    """Image of z_{letter, a+shift} as a Y-monomial."""
    return z_product(t, [(letter, shift)])


def z_product(t: AlgType, zvars: Iterable[tuple[int, int]]) -> RingElem:
    """f-image of a product of z-variables given as (letter, shift) pairs,
    through their summed exponents: the series' letter images, and the
    tests' oracle of ``word_keys`` and of the path and tableau weights."""
    exps = _exponents((i, s + shift, e) for letter, shift in zvars for i, s, e in _f_factors(t, letter))
    return RingElem._make(*_encode([(exps, 1)], t.rank))


def y_monomial(index: int, shift: int, exponent: int = 1) -> RingElem:
    """The bare Y-monomial Y_{index, a+shift}^exponent."""
    return RingElem.monomial([(index, shift, exponent)])


# ---------------------------------------------------------------------------
# Sums over tuples of packed rows


@lru_cache(maxsize=None)
def _key_base(t: AlgType) -> int:
    """The least spectral shift in the image of any letter at shift 0: the
    base of the keys that ``word_keys`` makes."""
    return min((s for c in letters(t) for _i, s, _e in _f_factors(t, c)), default=0)


@lru_cache(maxsize=None)
def row_bound(t: AlgType) -> int:
    """A bound on every |exponent| of a product of letter images at distinct
    shifts 0, 2 delta, 4 delta, ...: a row word, a row of a tuple, a term of
    h_k or e_k.  Such a product gets at most one factor of node i at a slot
    from each letter position, all at relative shifts of one residue mod
    2 delta; so an exponent is at most the sum, over the relative shifts s
    of one node and one residue, of the largest positive exponent of any
    letter at (i, s), and at least minus the like sum of the largest
    negative ones.  The bound is the largest of those sums: 1 for A, B, C1
    and D2, 2 for C2+ and D3+."""
    f, most = 2 * delta(t), {}
    for c in letters(t):
        for i, s, e in _f_factors(t, c):
            most[e > 0, i, s] = max(most.get((e > 0, i, s), 0), abs(e))
    sums: dict[tuple[bool, int, int], int] = {}
    for (sign, i, s), e in most.items():
        sums[sign, i, s % f] = sums.get((sign, i, s % f), 0) + e
    return max(sums.values(), default=0)


@lru_cache(maxsize=None)
def _letter_keys(t: AlgType, w: int) -> dict[int, int]:
    """Each letter's image at shift 0 as one key in the type's layout (base
    _key_base(t), stride t.rank, width w)."""
    lo, n = _key_base(t), t.rank
    return {c: _SPREAD * sum(e << w * ((s - lo) * n + i - 1) for i, s, e in _f_factors(t, c)) for c in letters(t)}


def _placed_sum(keys: list[int], step: int) -> int:
    """The sum of keys[m] << step * m, added in pairs, level by level: a word
    of L letters costs O(L log L) bit operations, not the O(L^2) of adding
    its shifted keys one at a time."""
    while len(keys) > 1:
        if len(keys) & 1:
            keys.append(0)
        pairs = iter(keys)
        keys = [a + (b << step) for a, b in zip(pairs, pairs)]
        step *= 2
    return sum(keys)  # the one key left, or 0 for an empty word


def word_keys(t: AlgType, w: int, words) -> tuple[int, ...]:
    """The key of each row word's weight, letter m at shift 2 delta m, in
    the type's layout (base _key_base(t), stride t.rank, width w): its
    letters' keys, letter m's moved 2 delta m w n bits, added in pairs
    (``_placed_sum``)."""
    lk, step = _letter_keys(t, w), 2 * delta(t) * w * t.rank
    try:
        return tuple(_placed_sum([lk[c] for c in word], step) for word in words)
    except KeyError as e:
        letter_order(t, e.args[0])  # raises ValueError: a letter outside the alphabet
        raise


class Placement:
    """A shape's layout for a sum over tuples of rows: row i's key from
    ``word_keys`` at width w moves shifts[i] spectral steps, a left shift
    by kshift[i] bits, and a tuple's shifted keys add up to the key of its
    product, in a width that holds bound, row_bound(t) per row."""

    __slots__ = ("n", "w", "bound", "lo", "kshift")

    def __init__(self, t: AlgType, shifts):
        x0, self.bound = min(shifts, default=0), row_bound(t) * len(shifts)
        self.n, self.w = t.rank, _width(self.bound)
        self.lo = _key_base(t) + x0
        self.kshift = tuple(self.w * self.n * (x - x0) for x in shifts)

    def elem(self, acc: dict, a_offset: int = 0) -> RingElem:
        """The element of acc, from keys to nonzero coefficients (a key
        leaves acc where it cancels), moved a_offset: acc is its dict."""
        return RingElem._make(acc, self.lo + a_offset, self.n, self.w, self.bound)
