"""Tableaux for the three classical families, and the path correspondence.

Entries are letters (ints): k>0 plain, 0 (middle letter, second family only),
-k barred.  Orderings and cell rules depend on the family:

* A: semistandard (weak rows, strict columns).
* B: weak rows without a repeated 0, strict columns except a repeated 0.
* C: "HV" rules — weak rows with the single descent (n-bar, n) allowed and
  the triples (n-bar, n-bar, n), (n-bar, n, n) forbidden; strict columns
  except a repeated n whose lower cell has an n-bar on its left, or a
  repeated n-bar whose upper cell has an n on its right.

Each cell rule is a test on letters (`_h_ok`, `_h_triple_ok`, `_v_ok`), shared
by `is_valid` and by the enumeration, which works on whole rows.  The rows of
each (type, length) that obey the horizontal rules are enumerated once, into
one table (``_row_table``), in lexicographic alphabet order: the order in
which a row-major fill of the cells meets them.  Each entry holds its letter
word and its weight, placed from column 0 of row 0, as one packed
``RingElem`` key.  The vertical rule reads only two adjacent rows and the
offset between their starts, so the rows of a table that may lie under one
row form one int bitmask (``_below``), built on first use and cached across
calls.  The depth-first search of the path layer (``paths._search``) runs
over these masks and yields the fillings in row-major order; the C extra
rules below filter complete fillings.  A tableau sum shifts the key of row
i by w * n * 2 delta * (mu_i + 1 - i - x0) (x0 the least mu_i + 1 - i, w the
width that holds the sum of the rows' exponent bounds), adds the keys of
each filling into one dict, and reads the dict as one ``RingElem`` whose
layout base carries x0 and the spectral offset.  No ``Tableau`` is built for
the sum unless an extra rule reads it.

For the C family the generating function identity requires extra rules that
depend on the shape: a two-row block rule and a three-row window rule for
shapes of at most three rows, and one-/two-column rules for shapes of at
most two columns.

The three-row rule reads, for each anchor row r, the columns of rows r, r+1,
r+2 as one word: column (top, mid, bot) has the class (m = n-1)

    L  mid = n,     bot = n-bar, top != n     P  same with top = n
    M  mid = n-bar, bot = n-bar, top != n     Q  same with top = n
    H  top = n, mid = n-bar, bot != n-bar     G  top = n, mid = n, bot != n-bar
    N  (m, n, m-bar)                          B  (m, n-bar, m-bar)

and '.' otherwise.  An odd-width run of columns j0..j1 is forbidden if it is
a whole match of

    [LP]*(N+(BN)*B*|N*(BN)*B+)[HQ]*   unless escape a or escape b holds,
    [MQ]N(BN)*B+[HQ]*                 unless escape a holds,
    [LP]*N+(BN)*B[GP]                 unless escape b holds,

where escape a is a cell (r, j1+1) below (r+1, j1) in the letter order and
escape b a cell (r+2, j0-1) above (r+1, j0).
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from typing import NamedTuple

from .ring import _W0, AlgType, RingElem, _recode, _width, delta, letter_order, letter_str, letters
from .ring import parse_letter, z_product
from .shapes import SkewShape, shape
from .paths import Path, PathTuple, _key_base, _search, band, east_labels, endpoints, no_ordinary_tuples


class Tableau(NamedTuple):
    shape: SkewShape
    cells: tuple  # tuple of rows; row i is a tuple of letters for columns mu_i+1..lam_i

    def entry(self, i: int, j: int):
        """Letter at cell (i, j), or None if the cell is not in the shape."""
        if not (1 <= i <= len(self.cells)):
            return None
        mu_i = self.shape.mu[i]
        row = self.cells[i - 1]
        if not (mu_i + 1 <= j <= mu_i + len(row)):
            return None
        return row[j - mu_i - 1]

    def weight(self, t: AlgType, a_offset: int = 0) -> RingElem:
        d = delta(t)
        factors = []
        for i, row in enumerate(self.cells, start=1):
            mu_i = self.shape.mu[i]
            for m, c in enumerate(row):
                j = mu_i + 1 + m
                factors.append((c, a_offset + 2 * (j - i) * d))
        return z_product(t, factors)

    def to_json_obj(self) -> dict:
        return {
            "lambda": list(self.shape.lam.parts),
            "mu": list(self.shape.mu.parts),
            "rows": [[letter_str(c) for c in row] for row in self.cells],
        }


def tableau_from_rows(s: SkewShape, rows) -> Tableau:
    cells = tuple(
        tuple(c if isinstance(c, int) else parse_letter(c) for c in row) for row in rows
    )
    if len(cells) != len(s.lam):
        raise ValueError(f"{len(cells)} rows given for a shape with {len(s.lam)} rows")
    for i, row in enumerate(cells, start=1):
        if len(row) != s.lam[i] - s.mu[i]:
            raise ValueError(f"row {i} has {len(row)} entries, the shape has {s.lam[i] - s.mu[i]}")
    return Tableau(s, cells)


# ---------------------------------------------------------------------------
# Cell rules


def _cmp(t: AlgType, c1: int, c2: int) -> int:
    return letter_order(t, c1) - letter_order(t, c2)


def _h_ok(t: AlgType, left: int, right: int) -> bool:
    if t.family == "A":
        return left <= right
    if t.family == "B":
        return _cmp(t, left, right) <= 0 and (left, right) != (0, 0)
    n = t.rank
    return _cmp(t, left, right) <= 0 or (left, right) == (-n, n)


def _h_triple_ok(t: AlgType, c1, c2, c3) -> bool:
    if t.family != "C":
        return True
    n = t.rank
    return (c1, c2, c3) not in ((-n, -n, n), (-n, n, n))


def _v_ok(t: AlgType, up: int, dn: int, dn_left, up_right) -> bool:
    """Vertical rule between a letter and the letter below it; dn_left is the
    letter left of the lower cell, up_right the letter right of the upper
    cell (None where there is no cell)."""
    if t.family == "A":
        return up < dn
    if t.family == "B":
        return _cmp(t, up, dn) < 0 or (up, dn) == (0, 0)
    n = t.rank
    return (
        _cmp(t, up, dn) < 0
        or (up == dn == n and dn_left == -n)
        or (up == dn == -n and up_right == n)
    )


def is_valid(t: AlgType, T: Tableau) -> bool:
    """The family's horizontal and vertical rules (no extra rules)."""
    for i, j in T.shape.boxes():
        c = T.entry(i, j)
        r = T.entry(i, j + 1)
        if r is not None:
            if not _h_ok(t, c, r):
                return False
            ll = T.entry(i, j - 1)
            if ll is not None and not _h_triple_ok(t, ll, c, r):
                return False
        dn = T.entry(i + 1, j)
        if dn is not None and not _v_ok(t, c, dn, T.entry(i + 1, j - 1), r):
            return False
    return True


# ---------------------------------------------------------------------------
# Extra rules for the C family


def _block_rows(T: Tableau, i: int):
    """Columns j where both (i, j) and (i+1, j) are cells."""
    s = T.shape
    lo = max(s.mu[i], s.mu[i + 1]) + 1
    hi = min(s.lam[i], s.lam[i + 1])
    return range(lo, hi + 1)


def satisfies_2row_rule(t: AlgType, T: Tableau) -> bool:
    """No odd-width block of n's atop n-bar's without an n to its upper right
    or an n-bar to its lower left."""
    n = t.rank
    for i in range(1, len(T.cells)):
        cols = list(_block_rows(T, i))
        m = 0
        while m < len(cols):
            j = cols[m]
            if T.entry(i, j) == n and T.entry(i + 1, j) == -n:
                k = m
                while (
                    k + 1 < len(cols)
                    and T.entry(i, cols[k + 1]) == n
                    and T.entry(i + 1, cols[k + 1]) == -n
                ):
                    k += 1
                j0, j1 = cols[m], cols[k]
                if (j1 - j0 + 1) % 2 == 1:
                    a_ok = T.entry(i, j1 + 1) == n
                    b_ok = T.entry(i + 1, j0 - 1) == -n
                    if not (a_ok or b_ok):
                        return False
                m = k + 1
            else:
                m += 1
    return True


def _col_class(n: int, top, mid, bot) -> str:
    """The class of a column (top, mid, bot) of a three-row window."""
    if mid not in (n, -n):
        return "."
    up = mid == n
    if (top, bot) == (n - 1, 1 - n):
        return "N" if up else "B"
    if bot == -n:
        return ("P" if up else "Q") if top == n else ("L" if up else "M")
    if top == n:
        return "G" if up else "H"
    return "."


# No word matches two of the patterns (their first or last classes differ), so
# the name of the matching group lists the escapes that lift a violation.
_ROW3 = re.compile(
    r"(?P<ab>[LP]*(?:N+(?:BN)*B*|N*(?:BN)*B+)[HQ]*)"
    r"|(?P<a>[MQ]N(?:BN)*B+[HQ]*)"
    r"|(?P<b>[LP]*N+(?:BN)*B[GP])"
)


def satisfies_3row_rule(t: AlgType, T: Tableau) -> bool:
    """Three-row window rule for the C family (see the module docstring)."""
    n, s = t.rank, T.shape
    for r in range(1, len(T.cells) - 1):
        lo = min(s.mu[i] + 1 for i in (r, r + 1, r + 2))
        hi = max(s.lam[i] for i in (r, r + 1, r + 2))
        word = "".join(
            _col_class(n, T.entry(r, j), T.entry(r + 1, j), T.entry(r + 2, j))
            for j in range(lo, hi + 1)
        )

        def escape(e, j0, j1):
            if e == "a":
                a = T.entry(r, j1 + 1)
                return a is not None and _cmp(t, a, T.entry(r + 1, j1)) < 0
            b = T.entry(r + 2, j0 - 1)
            return b is not None and _cmp(t, b, T.entry(r + 1, j0)) > 0

        for j0 in range(lo, hi + 1):
            for j1 in range(j0, hi + 1, 2):
                m = _ROW3.fullmatch(word, j0 - lo, j1 - lo + 1)
                if m and not any(escape(e, j0, j1) for e in m.lastgroup):
                    return False
    return True


def _column_segments(T: Tableau):
    """(j, i_top, letters) for every column of T."""
    s = T.shape
    lam1 = s.lam[1] if s.lam.parts else 0
    out = []
    lamc, muc = s.lam.conjugate(), s.mu.conjugate()
    for j in range(1, lam1 + 1):
        i_top = muc[j] + 1
        seg = [T.entry(i, j) for i in range(i_top, lamc[j] + 1)]
        if seg:
            out.append((j, i_top, seg))
    return out


def _far_pairs(n: int, seg):
    """(p, q) where seg[p] is a letter c in 1..n and seg[q] its bar, more than
    n-c rows below: the pairs the one-column distance rule forbids."""
    for p, c in enumerate(seg):
        if 1 <= c <= n:
            for q in range(p + 1, len(seg)):
                if seg[q] == -c and q - p > n - c:
                    yield p, q


def satisfies_1col_rule(t: AlgType, T: Tableau) -> bool:
    """A letter c and its bar in one column must be at most n-c rows apart."""
    return not any(any(_far_pairs(t.rank, seg)) for _j, _i, seg in _column_segments(T))


def column_companions(t: AlgType, c: tuple) -> tuple:
    """The letters d_1..d_l attached to a bounding one-column pattern c.

    The pattern has c_1 = n+2-l and c_l its bar, and every proper contiguous
    piece obeys the one-column distance rule.  The d_i are read off the
    unique one-transposed-pair tuple of one-box paths whose weight equals the
    column's weight; the two paths of the transposed pair contribute n-bar
    and n at the crossing.  Raises ValueError if c is not such a pattern.
    """
    # a plain function over the cached one, so that tracers which wrap module
    # functions (perfbench) still see each call
    return _column_companions(t, tuple(c))


@lru_cache(maxsize=None)
def _column_companions(t: AlgType, c: tuple) -> tuple:
    n, l = t.rank, len(c)
    target = z_product(t, [(c[i], -2 * i) for i in range(l)])
    matches = [
        pt
        for pt in no_ordinary_tuples(t, shape([1] * l))
        if len(pt.transposed_pairs(t)) == 1 and pt.weight(t, 0) == target
    ]
    k = max((i for i in range(l) if _cmp(t, c[i], n) <= 0), default=-1) + 1  # 1-based
    # one east step per path, except none at row k and two at row k+1
    labs = [east_labels(t, p) for p in matches[0].paths] if len(matches) == 1 else []
    if [len(x) for x in labs] != [1] * (k - 1) + [0, 2] + [1] * (l - k - 1):
        raise ValueError(f"{c} is not a bounding one-column pattern of {t}")
    return tuple(-n if i == k - 1 else n if i == k else labs[i][0][0] for i in range(l))


def satisfies_2col_rule(t: AlgType, T: Tableau) -> bool:
    """Two-column rule: a bounding column pattern needs a strictly smaller
    right neighbor above the crossing or a strictly larger left neighbor
    below it, measured against the companion letters d_i."""
    n = t.rank
    for j, i_top, seg in _column_segments(T):
        L = len(seg)
        for p in range(L):
            c1 = seg[p]
            if not (1 <= c1 <= n):
                continue
            l = n + 2 - c1
            q = p + l - 1
            if l < 2 or q >= L or seg[q] != -c1:
                continue
            sub = seg[p : q + 1]
            # the pattern must be a valid standalone column (strict)
            if any(_cmp(t, sub[m], sub[m + 1]) >= 0 for m in range(l - 1)):
                continue
            # every proper contiguous piece obeys the one-column rule
            if any(pq != (0, l - 1) for pq in _far_pairs(n, sub)):
                continue
            k = max(i for i in range(l) if _cmp(t, sub[i], n) <= 0) + 1
            d = column_companions(t, tuple(sub))
            i1 = i_top + p
            escape = False
            for i in range(1, k + 1):
                a = T.entry(i1 + i - 1, j + 1)
                if a is not None and _cmp(t, a, d[i - 1]) < 0:
                    escape = True
            for i in range(k + 1, l + 1):
                b = T.entry(i1 + i - 1, j - 1)
                if b is not None and _cmp(t, b, d[i - 1]) > 0:
                    escape = True
            if not escape:
                return False
    return True


RULESETS = ("hv", "rows", "columns", "auto")


def resolve_ruleset(t: AlgType, s: SkewShape, ruleset: str) -> str:
    if ruleset not in RULESETS:
        raise ValueError(f"unknown ruleset {ruleset!r}; expected one of {', '.join(RULESETS)}")
    if ruleset != "auto":
        return ruleset
    if t.family != "C":
        return "hv"
    if len(s.lam) <= 3:
        return "rows"
    if (s.lam[1] if s.lam.parts else 0) <= 2:
        return "columns"
    return "hv"


def satisfies_extra_rules(t: AlgType, T: Tableau, ruleset: str) -> bool:
    if ruleset == "hv" or t.family != "C":
        return True
    if ruleset == "rows":
        return satisfies_2row_rule(t, T) and satisfies_3row_rule(t, T)
    if ruleset == "columns":
        return satisfies_2col_rule(t, T)
    raise ValueError(f"unknown ruleset {ruleset!r}")


# ---------------------------------------------------------------------------
# Row tables and enumeration


@lru_cache(maxsize=None)
def _row_table(t: AlgType, length: int, w: int) -> tuple[int, int, tuple, tuple]:
    """(w', b, words, keys) of the rows of this length allowed by _h_ok and
    _h_triple_ok, in lexicographic alphabet order.  keys[c] packs the weight
    of words[c] placed from column 0 of row 0 (letter m at shift 2*delta*m)
    in the layout (_key_base(t), t.rank, w'), where w' is the larger of w
    and the width the weights need, and b bounds every exponent of a
    weight."""
    alphabet = letters(t)
    words = []
    row: list[int] = []

    def rec():
        if len(row) == length:
            words.append(tuple(row))
            return
        for v in alphabet:
            if row and not (_h_ok(t, row[-1], v) and (len(row) < 2 or _h_triple_ok(t, row[-2], row[-1], v))):
                continue
            row.append(v)
            rec()
            row.pop()

    rec()
    f = 2 * delta(t)
    weights = [z_product(t, [(c, f * m) for m, c in enumerate(word)]) for word in words]
    b = max((x._b for x in weights), default=0)
    w = max(w, _width(b))
    lo = _key_base(t)
    return w, b, tuple(words), tuple(_recode(x, lo, t.rank, w).popitem()[0] for x in weights)


@lru_cache(maxsize=None)
def _below(t: AlgType, w: int, la: int, lb: int, off: int, c: int) -> int:
    """Bitmask over the rows of length lb that may lie under row c of length
    la when the lower row starts off columns right of the upper one: _v_ok
    at every column the two rows share."""
    up = _row_table(t, la, w)[2][c]
    cols = range(max(0, -off), min(lb, la - off))  # indices into the lower row
    mask = 0
    for d, dn in enumerate(_row_table(t, lb, w)[2]):
        if all(
            _v_ok(t, up[p + off], dn[p], dn[p - 1] if p else None, up[p + off + 1] if p + off + 1 < la else None)
            for p in cols
        ):
            mask |= 1 << d
    return mask


class _Rows:
    """The row tables of a shape's rows, read in place.

    Row i of the shape takes its letters from the table of its length.  A
    filling is one index into each row's table, and rows i, i+1 fit when
    the lower index is in _below of the upper one.  Row i's first cell
    (i, mu_i + 1) carries the spectral shift 2*delta*(mu_i + 1 - i), so
    its weight key shifts by kshift[i] into the shape's layout
    (lo, t.rank, w), in which w holds the exponents of any filling.
    """

    def __init__(self, t: AlgType, s: SkewShape):
        self.t, self.s = t, s
        rows = range(1, len(s.lam) + 1)
        self.lengths = [s.lam[i] - s.mu[i] for i in rows]
        self.mu = [s.mu[i] for i in rows]

        def tables(w: int) -> list:
            return [_row_table(t, m, w) for m in self.lengths]

        tabs = tables(_W0)
        self.bound = sum(tab[1] for tab in tabs)
        self.w = w = _width(self.bound)
        if any(tab[0] != w for tab in tabs):
            tabs = tables(w)
        self.words = [tab[2] for tab in tabs]
        self.keys = [tab[3] for tab in tabs]
        starts = [s.mu[i] + 1 - i for i in rows]
        x0 = min(starts, default=0)
        f = 2 * delta(t)
        self.lo = _key_base(t) + f * x0
        self.kshift = [w * t.rank * f * (x - x0) for x in starts]

    def _fits(self, i: int, c: int, k: int, _rows) -> int:
        return _below(self.t, self.w, self.lengths[i], self.lengths[k], self.mu[k] - self.mu[i], c)

    def fillings(self, ruleset: str):
        """Index tuples of the fillings that obey the cell rules and, for C,
        the ruleset's extra rules, in row-major alphabet order."""
        ruleset = resolve_ruleset(self.t, self.s, ruleset)
        lists = [range(len(ws)) for ws in self.words]
        if len(lists) < 2:
            found = itertools.product(*lists)
        else:
            found = (cs for _pi, cs in _search(tuple(range(len(lists))), lists, self._fits, True, {}))
        if ruleset == "hv" or self.t.family != "C":  # no extra rule: no Tableau
            return found
        return (cs for cs in found if satisfies_extra_rules(self.t, self.tableau(cs), ruleset))

    def tableau(self, cs) -> Tableau:
        return Tableau(self.s, tuple(ws[c] for ws, c in zip(self.words, cs)))

    def weight_sum(self, found, a_offset: int = 0) -> RingElem:
        """The sum of the weights of the fillings: the shifted row keys of
        each filling added into one dict."""
        acc: dict = {}
        get = acc.get
        keys, kshift = self.keys, self.kshift
        for cs in found:
            key = 0
            for ks, c, sh in zip(keys, cs, kshift):
                key += ks[c] << sh
            acc[key] = get(key, 0) + 1
        return RingElem._make(acc, self.lo + a_offset, self.t.rank, self.w, self.bound)


def enumerate_tableaux(t: AlgType, s: SkewShape, ruleset: str = "auto"):
    """All tableaux of the shape obeying the family rules and, for C, the
    shape's extra rules (ruleset 'auto' picks row rules for at most three
    rows, else column rules for at most two columns, else none), in
    row-major alphabet order."""
    rows = _Rows(t, s)
    return [rows.tableau(cs) for cs in rows.fillings(ruleset)]


def tableaux_with_sum(
    t: AlgType, s: SkewShape, a_offset: int = 0, ruleset: str = "auto"
) -> tuple[list[Tableau], RingElem]:
    """The tableaux and their weight sum, from one enumeration."""
    rows = _Rows(t, s)
    found = list(rows.fillings(ruleset))
    return [rows.tableau(cs) for cs in found], rows.weight_sum(found, a_offset)


def tableau_sum(t: AlgType, s: SkewShape, a_offset: int = 0, ruleset: str = "auto") -> RingElem:
    rows = _Rows(t, s)
    return rows.weight_sum(rows.fillings(ruleset), a_offset)


# ---------------------------------------------------------------------------
# Path correspondence


def path_tuple_to_tableau(t: AlgType, pt: PathTuple) -> Tableau:
    if pt.pi != tuple(range(len(pt.pi))):
        raise ValueError(f"rows permuted by {pt.to_json_obj()['pi']}; no tableau attached")
    return Tableau(pt.shape, tuple(_path_word(t, p.start[1], p.steps) for p in pt.paths))


@lru_cache(maxsize=None)
def _path_word(t: AlgType, y0: int, steps: str) -> tuple:
    """The letters of the east steps of a path from height y0."""
    return tuple(c for c, _s in east_labels(t, Path((0, y0), steps)))


def _row_heights(t: AlgType, row: tuple) -> list[int]:
    """Heights of the east steps realizing this row; unique by monotonicity."""
    n = t.rank
    if t.family == "A":
        return [c - 1 for c in row]
    if t.family == "B":
        return [c - n - 1 if c > 0 else (0 if c == 0 else n + 1 + c) for c in row]
    # C: an n or n-bar sits at height 0 inside the block n-bar, n, ...,
    # n-bar, n that starts at the first n-bar directly followed by n; any
    # other n sits just below the axis and any other n-bar just above it
    hs = [c - n - 1 if c > 0 else n + 1 + c for c in row]
    m = len(row)
    p = next((x for x in range(m - 1) if row[x] == -n and row[x + 1] == n), m)
    while p + 1 < m and row[p] == -n and row[p + 1] == n:
        hs[p] = hs[p + 1] = 0
        p += 2
    if any(hs[x] > hs[x + 1] for x in range(m - 1)):
        raise ValueError(f"row {row} is realized by no path in {t}")
    return hs


@lru_cache(maxsize=None)
def _row_steps(t: AlgType, row: tuple) -> str:
    """The steps of the h-path that realizes this row."""
    bot, top = band(t)
    steps = []
    y = bot
    for h in _row_heights(t, row):
        steps.append("N" * (h - y) + "E")
        y = h
    steps.append("N" * (top - y))
    return "".join(steps)


def tableau_to_path_tuple(t: AlgType, T: Tableau) -> PathTuple:
    s = T.shape
    us, vs = endpoints(t, s)
    paths = []
    for i, row in enumerate(T.cells, start=1):
        p = Path(us[i - 1], _row_steps(t, tuple(row)))
        if p.end != vs[i - 1]:
            raise ValueError(f"row {i} {row} gives a path ending at {p.end}, not {vs[i - 1]}")
        paths.append(p)
    return PathTuple(tuple(paths), tuple(range(len(paths))), s)
