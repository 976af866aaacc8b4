"""Exact arithmetic for weights and characters.

Everything lives in one Laurent-polynomial ring with integer coefficients in
the variables Y[i,s] (i = node index, s = integer spectral shift relative to a
formal base point a, which is never stored).  The letter variables z[c,s] are
pushed through the type-dependent monomial substitution ``f_hom`` at
construction time, so the generating relations between the z's hold
automatically and equality is plain structural equality.

A ring element stores each monomial as one packed integer key (Monagan and
Pearce's packed exponent vectors).  The exponent of Y[i,s] is a balanced
w-bit digit at slot (s - lo) * n + i - 1: spectral shift major, node index
minor, with lo, the stride n and the width w kept per element.  Multiplying
two monomials is then one integer add, and a spectral shift is O(1): it
moves lo and shares the key dict.  Operands of +, * and == are aligned first
(a lower lo is a left shift of the keys; a larger n or w is a re-encoding).
Each element tracks a bound on its exponents; when a product could exceed
the digit range, the operands are re-encoded at twice the width, so a digit
never wraps.  Sums and products are accumulated in one fresh dict
(``RingElem.sum``, ``RingElem.sum_products``); no stored dict is ever
mutated, so shifted elements may share one.  The (i, s, e) tuple form,
``RingElem.terms``, is decoded only when read (text, JSON, classical
projection) and cached.

Letters are encoded as ints: k > 0 is the unbarred letter k, 0 is the type-B
zero letter, -k is the barred letter k-bar.
"""

from __future__ import annotations

from functools import lru_cache
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


def letters(t: AlgType) -> list[int]:
    """The alphabet of letters in increasing order."""
    n = t.rank
    if t.family == "A":
        return list(range(1, n + 2))
    if t.family == "B":
        return list(range(1, n + 1)) + [0] + [-k for k in range(n, 0, -1)]
    # C and D
    return list(range(1, n + 1)) + [-k for k in range(n, 0, -1)]


def letter_order(t: AlgType, letter: int) -> int:
    """Position of a letter in the alphabet order (0-based)."""
    n = t.rank
    if t.family == "A":
        if 1 <= letter <= n + 1:
            return letter - 1
    elif t.family == "B":
        if 1 <= letter <= n:
            return letter - 1
        if letter == 0:
            return n
        if -n <= letter <= -1:
            return 2 * n + 1 + letter  # -k -> 2n+1-k
    else:
        if 1 <= letter <= n:
            return letter - 1
        if -n <= letter <= -1:
            return 2 * n + letter  # -k -> 2n-k
    raise ValueError(f"letter {letter} not in alphabet of {t}")


def letter_str(letter: int) -> str:
    return f"{-letter}b" if letter < 0 else str(letter)


def parse_letter(s: str) -> int:
    return -int(s[:-1]) if s.endswith("b") else int(s)


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
    """

    __slots__ = ("_keys", "_lo", "_n", "_w", "_b", "_terms")

    def __init__(self, terms: dict | None = None):
        self._set(*_encode([(_exponents(m), c) for m, c in (terms or {}).items()]))

    def _set(self, keys: dict, lo: int, n: int, w: int, b: int):
        self._keys, self._lo, self._n, self._w, self._b = keys, lo, n, w, b
        self._terms = None

    @staticmethod
    def _make(keys: dict, lo: int, n: int, w: int, b: int) -> "RingElem":
        x = object.__new__(RingElem)
        x._set(keys, lo, n, w, b)
        return x

    @staticmethod
    def _from_exponents(items: list[tuple[dict, int]], n: int = 1) -> "RingElem":
        """Sum of coef * prod Y[i,s]^e over ({(i, s): e}, coef) items, with
        stride at least n."""
        return RingElem._make(*_encode(items, n))

    # -- constructors

    @staticmethod
    def zero() -> "RingElem":
        return RingElem._make({}, 0, 1, _W0, 0)

    @staticmethod
    def const(c: int) -> "RingElem":
        return RingElem._make({0: c} if c else {}, 0, 1, _W0, 0)

    @staticmethod
    def monomial(factors: Iterable[tuple[int, int, int]], coef: int = 1) -> "RingElem":
        return RingElem._from_exponents([(_exponents(factors), coef)])

    @property
    def terms(self) -> dict:
        if self._terms is None:
            lo, n, w = self._lo, self._n, self._w
            self._terms = {
                tuple(sorted(
                    (slot % n + 1, slot // n + lo, e) for slot, e in enumerate(_digits(key, w)) if e
                )): c
                for key, c in self._keys.items()
            }
        return self._terms

    # -- sums and products

    @staticmethod
    def sum(elems: Iterable["RingElem"]) -> "RingElem":
        """The sum of elems, accumulated in one new dict."""
        elems = list(elems)
        keys, lo, n, w = _align(elems, 0)
        acc: dict = {}
        get = acc.get
        for ks in keys:
            for k, c in ks.items():
                acc[k] = get(k, 0) + c
        b = max((x._b for x in elems), default=0)
        return RingElem._make({k: c for k, c in acc.items() if c}, lo, n, w, b)

    @staticmethod
    def sum_products(triples: Iterable[tuple[int, "RingElem", "RingElem"]]) -> "RingElem":
        """sum of c * a * b over (c, a, b), accumulated in one new dict: the
        ring's only multiplication."""
        triples = [(c, x, y) for c, x, y in triples if c and x._keys and y._keys]
        bound = max((x._b + y._b for _, x, y in triples), default=0)
        keys, lo, n, w = _align([z for _, x, y in triples for z in (x, y)], bound)
        acc: dict = {}
        get = acc.get
        for (c, _x, _y), ka, kb in zip(triples, keys[0::2], keys[1::2]):
            if len(ka) > len(kb):
                ka, kb = kb, ka
            items = kb.items()
            for k1, c1 in ka.items():
                c1 *= c
                for k2, c2 in items:
                    k = k1 + k2
                    acc[k] = get(k, 0) + c1 * c2
        return RingElem._make({k: v for k, v in acc.items() if v}, lo, n, w, bound)

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
            return RingElem.zero()
        return RingElem._make({k: c * cc for k, cc in self._keys.items()}, self._lo, self._n, self._w, self._b)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElem):
            return False
        if len(self._keys) != len(other._keys):
            return False
        a, b = _align((self, other), 0)[0]
        return a == b

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self._keys

    def is_one(self) -> bool:
        return self._keys == {0: 1}

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
        return RingElem._from_exponents(
            [(_exponents((i, 0, e) for i, _s, e in m), c) for m, c in self.terms.items()], self._n
        )

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

    @staticmethod
    def from_json_obj(obj: dict) -> "RingElem":
        return RingElem._from_exponents(
            [(_exponents((f["i"], f["s"], f["e"]) for f in term["factors"]), term["coef"]) for term in obj["terms"]]
        )

    def __repr__(self):
        return f"RingElem({self.to_text()})"


# ---------------------------------------------------------------------------
# Packed keys


_W0 = 8  # digit width of a new element; doubled while the bound needs it


def _width(bound: int) -> int:
    """Smallest width (8, 16, 32, ...) whose balanced digits hold |e| <= bound."""
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
        key = sum(e << (w * ((s - lo) * n + i - 1)) for (i, s), e in exps.items())
        keys[key] = keys.get(key, 0) + c
    return {k: c for k, c in keys.items() if c}, lo, n, w, b


def _digits(key: int, w: int) -> list[int]:
    """Balanced base-2**w digits of key, least significant first (w a
    multiple of 8).  Adding half a digit to every place makes each digit
    non-negative, so the digits are read off the bytes."""
    nb = w // 8
    m = key.bit_length() // w + 1
    half = 1 << (w - 1)
    raw = (key + int.from_bytes(half.to_bytes(nb, "little") * m, "little")).to_bytes(m * nb, "little")
    if nb == 1:
        return [x - half for x in raw]
    return [int.from_bytes(raw[j : j + nb], "little") - half for j in range(0, m * nb, nb)]


def _is_const(x: RingElem) -> bool:
    keys = x._keys
    return not keys or (len(keys) == 1 and 0 in keys)


def _align(elems, bound: int) -> tuple[list[dict], int, int, int]:
    """The keys of elems in one layout (lo, n, w): the least lo, the largest
    n, and the largest w, widened until bound fits.  Keys already in the
    layout are returned as they are, not copied."""
    live = [x for x in elems if not _is_const(x)]
    if not live:
        return [x._keys for x in elems], 0, 1, _width(bound)
    lo = min(x._lo for x in live)
    n = max(x._n for x in live)
    w = max(_width(bound), max(x._w for x in live))
    out = []
    for x in elems:
        keys = x._keys
        if not _is_const(x):
            if x._n != n or x._w != w:
                keys = _recode(x, lo, n, w)
            elif x._lo != lo:
                sh = w * n * (x._lo - lo)
                keys = {k << sh: c for k, c in keys.items()}
        out.append(keys)
    return out, lo, n, w


def _recode(x: RingElem, lo: int, n: int, w: int) -> dict:
    """x's keys in the layout (lo, n, w), with lo <= x._lo, n >= x._n and
    w >= x._w."""
    out = {}
    for key, c in x._keys.items():
        new = 0
        for slot, e in enumerate(_digits(key, x._w)):
            if e:
                s, i = divmod(slot, x._n)
                new += e << (w * ((s + x._lo - lo) * n + i))
        out[new] = c
    return out


ZERO = RingElem.zero()
ONE = RingElem.const(1)


# ---------------------------------------------------------------------------
# The substitution f: z-variables -> Y-monomials


@lru_cache(maxsize=None)
def _f_factors(t: AlgType, letter: int) -> tuple[tuple[int, int, int], ...]:
    """Y-factors (i, relative shift, exponent) of the image of z_{letter,a}."""
    n = t.rank
    fam = t.family
    if fam == "A":
        i = letter
        if not 1 <= i <= n + 1:
            raise ValueError(f"letter {letter} not in alphabet of {t}")
        out = []
        if i <= n:
            out.append((i, i - 1, 1))
        if i >= 2:
            out.append((i - 1, i, -1))
        return tuple(out)
    if fam == "B":
        if letter == 0:
            # z_0 is determined by the generating relation
            # z_{0,a} = prod_k z_{k,a+4n-4k} z_{kbar,a-4n+4k}.
            acc: dict[tuple[int, int], int] = {}
            for k in range(1, n + 1):
                for i, s, e in _f_factors(t, k):
                    acc[(i, s + 4 * n - 4 * k)] = acc.get((i, s + 4 * n - 4 * k), 0) + e
                for i, s, e in _f_factors(t, -k):
                    acc[(i, s - 4 * n + 4 * k)] = acc.get((i, s - 4 * n + 4 * k), 0) + e
            return tuple((i, s, e) for (i, s), e in sorted(acc.items()) if e)
        if 1 <= letter <= n - 1:
            i = letter
            return ((i, 2 * i - 2, 1), (i - 1, 2 * i, -1)) if i >= 2 else ((1, 0, 1),)
        if letter == n:
            out = [(n, 2 * n - 3, 1), (n, 2 * n - 1, 1)]
            if n >= 2:
                out.append((n - 1, 2 * n, -1))
            return tuple(out)
        if letter == -n:
            out = []
            if n >= 2:
                out.append((n - 1, 2 * n - 2, 1))
            out += [(n, 2 * n - 1, -1), (n, 2 * n + 1, -1)]
            return tuple(out)
        if -(n - 1) <= letter <= -1:
            i = -letter
            out = []
            if i >= 2:
                out.append((i - 1, 4 * n - 2 * i - 2, 1))
            out.append((i, 4 * n - 2 * i, -1))
            return tuple(out)
        raise ValueError(f"letter {letter} not in alphabet of {t}")
    if fam == "C":
        if 1 <= letter <= n:
            i = letter
            out = [(i, i - 1, 1)]
            if i >= 2:
                out.append((i - 1, i, -1))
            return tuple(out)
        if -n <= letter <= -1:
            i = -letter
            out = []
            if i >= 2:
                out.append((i - 1, 2 * n - i + 2, 1))
            out.append((i, 2 * n - i + 3, -1))
            return tuple(out)
        raise ValueError(f"letter {letter} not in alphabet of {t}")
    if fam == "D":
        if 1 <= letter <= n - 2:
            i = letter
            out = [(i, i - 1, 1)]
            if i >= 2:
                out.append((i - 1, i, -1))
            return tuple(out)
        if letter == n - 1:
            out = [(n, n - 2, 1), (n - 1, n - 2, 1)]
            if n >= 3:
                out.append((n - 2, n - 1, -1))
            return tuple(out)
        if letter == n:
            return ((n, n - 2, 1), (n - 1, n, -1))
        if letter == -n:
            return ((n - 1, n - 2, 1), (n, n, -1))
        if letter == -(n - 1):
            out = []
            if n >= 3:
                out.append((n - 2, n - 1, 1))
            out += [(n - 1, n, -1), (n, n, -1)]
            return tuple(out)
        if -(n - 2) <= letter <= -1:
            i = -letter
            out = []
            if i >= 2:
                out.append((i - 1, 2 * n - i - 2, 1))
            out.append((i, 2 * n - i - 1, -1))
            return tuple(out)
        raise ValueError(f"letter {letter} not in alphabet of {t}")
    raise ValueError(f"unknown family {fam}")


def f_hom(t: AlgType, letter: int, shift: int = 0) -> RingElem:
    """Image of z_{letter, a+shift} as a Y-monomial."""
    return z_product(t, [(letter, shift)])


def z_product(t: AlgType, zvars: Iterable[tuple[int, int]]) -> RingElem:
    """f-image of a product of z-variables given as (letter, shift) pairs:
    one exponent vector, packed once."""
    exps: dict[tuple[int, int], int] = {}
    get = exps.get
    for letter, shift in zvars:
        for i, s, e in _f_factors(t, letter):
            k = (i, s + shift)
            exps[k] = get(k, 0) + e
    return RingElem._from_exponents([(exps, 1)], t.rank)


# ---------------------------------------------------------------------------
# The inverse substitution g: Y-generators -> z-products (returned in Y-form)


def g_hom(t: AlgType, index: int, shift: int, exponent: int) -> RingElem:
    """Image of Y_{index, a+shift}^{exponent} (exponent = +-1).

    Returned pushed back through f, so g followed by this representation is
    the identity on generator monomials.  For B (index n) and D (indices
    n-1, n) the single Y-variables are not generators of the source ring;
    use g_hom_composite for those.
    """
    n = t.rank
    fam = t.family
    if exponent not in (1, -1):
        raise ValueError("exponent must be +1 or -1")
    if not 1 <= index <= n:
        raise ValueError(f"index {index} out of range for {t}")
    i, a = index, shift
    if fam == "A":
        if exponent == 1:
            zs = [(k, a + i - 2 * k + 1) for k in range(1, i + 1)]
        else:
            zs = [(k, a + i - 2 * k + 1) for k in range(i + 1, n + 2)]
        return z_product(t, zs)
    if fam == "C":
        if exponent == 1:
            zs = [(k, a + i - 2 * k + 1) for k in range(1, i + 1)]
        else:
            zs = [(-k, a - 2 * n - i + 2 * k - 3) for k in range(1, i + 1)]
        return z_product(t, zs)
    if fam == "B":
        if i == n:
            raise ValueError("Y_n for B is only generated in composite pairs")
        if exponent == 1:
            zs = [(k, a + 2 * i - 4 * k + 2) for k in range(1, i + 1)]
        else:
            zs = [(-k, a - 4 * n - 2 * i + 4 * k) for k in range(1, i + 1)]
        return z_product(t, zs)
    if fam == "D":
        if i >= n - 1:
            raise ValueError("Y_{n-1}, Y_n for D are only generated in composite pairs")
        if exponent == 1:
            zs = [(k, a + i - 2 * k + 1) for k in range(1, i + 1)]
        else:
            zs = [(-k, a - 2 * n - i + 2 * k + 1) for k in range(1, i + 1)]
        return z_product(t, zs)
    raise ValueError(f"unknown family {fam}")


def g_hom_composite(t: AlgType, which: str, shift: int, exponent: int) -> RingElem:
    """Composite generator images.

    which = 'nn' : Y_{n,a-1} Y_{n,a+1}         (B and D)
    which = 'n-1,n' : Y_{n-1,a} Y_{n,a}        (D only)
    shift is the base a; exponent = +-1 applies to the whole pair.
    """
    n = t.rank
    a = shift
    if exponent not in (1, -1):
        raise ValueError("exponent must be +1 or -1")
    if t.family == "B" and which == "nn":
        if exponent == 1:
            zs = [(k, a + 2 * n - 4 * k + 2) for k in range(1, n + 1)]
        else:
            zs = [(-k, a - 6 * n + 4 * k) for k in range(1, n + 1)]
        return z_product(t, zs)
    if t.family == "D" and which == "nn":
        if exponent == 1:
            zs = [(k, a + n - 2 * k + 1) for k in range(1, n + 1)]
        else:
            zs = [(-k, a - 3 * n + 2 * k + 1) for k in range(1, n + 1)]
        return z_product(t, zs)
    if t.family == "D" and which == "n-1,n":
        if exponent == 1:
            zs = [(k, a + n - 2 * k) for k in range(1, n)]
        else:
            zs = [(-k, a - 3 * n + 2 * k + 2) for k in range(1, n)]
        return z_product(t, zs)
    raise ValueError(f"no composite generator {which!r} for {t}")


def y_monomial(index: int, shift: int, exponent: int = 1) -> RingElem:
    """The bare Y-monomial Y_{index, a+shift}^exponent."""
    return RingElem.monomial([(index, shift, exponent)])
