"""Exact arithmetic for weights and characters.

Everything lives in one Laurent-polynomial ring with integer coefficients in
the variables Y[i,s] (i = node index, s = integer spectral shift relative to a
formal base point a, which is never stored).  The letter variables z[c,s] are
pushed through the type-dependent monomial substitution ``f_hom`` at
construction time, so the generating relations between the z's hold
automatically and equality is plain structural equality.

Letters are encoded as ints: k > 0 is the unbarred letter k, 0 is the type-B
zero letter, -k is the barred letter k-bar.
"""

from __future__ import annotations

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

    terms maps a monomial to its nonzero integer coefficient; a monomial is a
    tuple of (i, s, e) factors with nonzero exponent e, sorted by (i, s).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms if terms is not None else {}

    # -- constructors

    @staticmethod
    def zero() -> "RingElem":
        return RingElem({})

    @staticmethod
    def const(c: int) -> "RingElem":
        return RingElem({(): c} if c else {})

    @staticmethod
    def monomial(factors: Iterable[tuple[int, int, int]], coef: int = 1) -> "RingElem":
        if coef == 0:
            return RingElem({})
        acc: dict[tuple[int, int], int] = {}
        for i, s, e in factors:
            acc[(i, s)] = acc.get((i, s), 0) + e
        key = tuple(sorted((i, s, e) for (i, s), e in acc.items() if e))
        return RingElem({key: coef})

    # -- ring operations

    def __add__(self, other: "RingElem") -> "RingElem":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            c2 = terms.get(m, 0) + c
            if c2:
                terms[m] = c2
            else:
                del terms[m]
        return RingElem(terms)

    def __neg__(self) -> "RingElem":
        return RingElem({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def __mul__(self, other: "RingElem") -> "RingElem":
        if len(self.terms) > len(other.terms):
            self, other = other, self
        terms: dict = {}
        for m1, c1 in self.terms.items():
            d1 = {(i, s): e for i, s, e in m1}
            for m2, c2 in other.terms.items():
                acc = dict(d1)
                for i, s, e in m2:
                    k = (i, s)
                    e2 = acc.get(k, 0) + e
                    if e2:
                        acc[k] = e2
                    else:
                        del acc[k]
                key = tuple(sorted((i, s, e) for (i, s), e in acc.items()))
                c = terms.get(key, 0) + c1 * c2
                if c:
                    terms[key] = c
                else:
                    del terms[key]
        return RingElem(terms)

    def scalar_mul(self, c: int) -> "RingElem":
        if c == 0:
            return RingElem({})
        return RingElem({m: c * cc for m, cc in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, RingElem) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(): 1}

    def num_terms(self) -> int:
        """Number of monomials counted with multiplicity (sum of |coef|)."""
        return sum(abs(c) for c in self.terms.values())

    # -- shifts and projections

    def shift_spectral(self, d: int) -> "RingElem":
        """Translate every spectral shift by d."""
        if d == 0:
            return self
        return RingElem(
            {tuple((i, s + d, e) for i, s, e in m): c for m, c in self.terms.items()}
        )

    def beta(self) -> "RingElem":
        """Classical projection: forget spectral shifts, Y[i,s] -> y_i.

        The result is represented as a RingElem with all shifts zero,
        i.e. a Laurent polynomial in y_1..y_n.
        """
        terms: dict = {}
        for m, c in self.terms.items():
            acc: dict[int, int] = {}
            for i, _s, e in m:
                e2 = acc.get(i, 0) + e
                if e2:
                    acc[i] = e2
                else:
                    del acc[i]
            key = tuple((i, 0, e) for i, e in sorted(acc.items()))
            c2 = terms.get(key, 0) + c
            if c2:
                terms[key] = c2
            else:
                del terms[key]
        return RingElem(terms)

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
        terms = {}
        for term in obj["terms"]:
            m = tuple(sorted((f["i"], f["s"], f["e"]) for f in term["factors"]))
            terms[m] = term["coef"]
        return RingElem(terms)

    def __repr__(self):
        return f"RingElem({self.to_text()})"


ZERO = RingElem.zero()
ONE = RingElem.const(1)


# ---------------------------------------------------------------------------
# The substitution f: z-variables -> Y-monomials


def _f_factors(t: AlgType, letter: int) -> list[tuple[int, int, int]]:
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
        return out
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
            return [(i, s, e) for (i, s), e in sorted(acc.items()) if e]
        if 1 <= letter <= n - 1:
            i = letter
            return [(i, 2 * i - 2, 1), (i - 1, 2 * i, -1)] if i >= 2 else [(1, 0, 1)]
        if letter == n:
            out = [(n, 2 * n - 3, 1), (n, 2 * n - 1, 1)]
            if n >= 2:
                out.append((n - 1, 2 * n, -1))
            return out
        if letter == -n:
            out = []
            if n >= 2:
                out.append((n - 1, 2 * n - 2, 1))
            out += [(n, 2 * n - 1, -1), (n, 2 * n + 1, -1)]
            return out
        if -(n - 1) <= letter <= -1:
            i = -letter
            out = []
            if i >= 2:
                out.append((i - 1, 4 * n - 2 * i - 2, 1))
            out.append((i, 4 * n - 2 * i, -1))
            return out
        raise ValueError(f"letter {letter} not in alphabet of {t}")
    if fam == "C":
        if 1 <= letter <= n:
            i = letter
            out = [(i, i - 1, 1)]
            if i >= 2:
                out.append((i - 1, i, -1))
            return out
        if -n <= letter <= -1:
            i = -letter
            out = []
            if i >= 2:
                out.append((i - 1, 2 * n - i + 2, 1))
            out.append((i, 2 * n - i + 3, -1))
            return out
        raise ValueError(f"letter {letter} not in alphabet of {t}")
    if fam == "D":
        if 1 <= letter <= n - 2:
            i = letter
            out = [(i, i - 1, 1)]
            if i >= 2:
                out.append((i - 1, i, -1))
            return out
        if letter == n - 1:
            out = [(n, n - 2, 1), (n - 1, n - 2, 1)]
            if n >= 3:
                out.append((n - 2, n - 1, -1))
            return out
        if letter == n:
            return [(n, n - 2, 1), (n - 1, n, -1)]
        if letter == -n:
            return [(n - 1, n - 2, 1), (n, n, -1)]
        if letter == -(n - 1):
            out = []
            if n >= 3:
                out.append((n - 2, n - 1, 1))
            out += [(n - 1, n, -1), (n, n, -1)]
            return out
        if -(n - 2) <= letter <= -1:
            i = -letter
            out = []
            if i >= 2:
                out.append((i - 1, 2 * n - i - 2, 1))
            out.append((i, 2 * n - i - 1, -1))
            return out
        raise ValueError(f"letter {letter} not in alphabet of {t}")
    raise ValueError(f"unknown family {fam}")


_F_CACHE: dict[tuple[AlgType, int], list[tuple[int, int, int]]] = {}


def f_hom(t: AlgType, letter: int, shift: int = 0) -> RingElem:
    """Image of z_{letter, a+shift} as a Y-monomial."""
    key = (t, letter)
    facs = _F_CACHE.get(key)
    if facs is None:
        facs = _f_factors(t, letter)
        _F_CACHE[key] = facs
    return RingElem.monomial((i, s + shift, e) for i, s, e in facs)


def z_product(t: AlgType, zvars: Iterable[tuple[int, int]]) -> RingElem:
    """f-image of a product of z-variables given as (letter, shift) pairs."""
    out = ONE
    for letter, shift in zvars:
        out = out * f_hom(t, letter, shift)
    return out


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
