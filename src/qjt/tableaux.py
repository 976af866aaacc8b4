"""Tableaux for the three classical families, and the path correspondence.

Entries are letters (ints): k>0 plain, 0 (middle letter, B only), -k barred,
compared in the alphabet order of ``ring.letters``.  Every family's cell rule
is weak rows and strict columns in that order, with these exceptions:

* B: no repeated 0 in a row; a repeated 0 in a column.
* C: "HV" rules — the single descent (n-bar, n) allowed in a row and the
  triples (n-bar, n-bar, n), (n-bar, n, n) forbidden; in a column a repeated
  n whose lower cell has an n-bar on its left, or a repeated n-bar whose
  upper cell has an n on its right.

Each cell rule is a test on letters (`_h_ok`, `_h_triple_ok`, `_v_ok`), which
the enumeration applies to whole rows.  The rows of each (type, length) that
obey the horizontal rules are enumerated once, into one table
(``_row_table``), in lexicographic alphabet order: the order in which a
row-major fill of the cells meets them.  Each entry holds its letter
word and its weight, placed from column 0 of row 0, as one key from
``ring.pack``.  The vertical rule reads only two adjacent rows and the
offset between their starts, so the rows of a table that may lie under one
row form one int bitmask (``_below``), built on first use and cached across
calls.  The depth-first search of the path layer (``paths._search``) runs
over these masks and yields the fillings in row-major order, each with its
weight key: the sum of the row keys, row i's moved by 2 delta * (mu_i + 1 - i)
spectral steps through the shape's ``ring.Placement``, carried down the
search.  A tableau sum adds the key of each filling into one dict and has
the placement read the dict as one ``RingElem``.  No ``Tableau`` is built
for a sum.

For the C family (rank at least 2) the generating function identity
requires extra rules that depend on the shape: a two-row block rule and a
three-row window rule for shapes of at most three rows, and one-/two-column
rules for shapes of at most two columns.  Each is one test on the letter
words of the rows it reads, placed by the offsets between their starts, so
the search applies them to table indices: the two-row rule narrows each
``_below`` mask (``_below_2row``); the three-row rule on rows r, r+1, r+2 is
a cached bitmask over row r+2's table for each pair of indices of rows r and
r+1 (``_row3_mask``), read once per complete filling; and the two-column
rule reads the columns of a complete filling through the shape's cached
column layout (``_col_layout``).  The ``Tableau``-level checks
``satisfies_2row_rule`` and ``satisfies_3row_rule`` are loops over the same
tests.

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

The two-column rule measures each bounding one-column pattern c_1..c_l of a
column (``_is_bounding``) against companion letters d_1..d_l in closed form
(``column_companions``): each inner pair (z, z-bar) moves up to the least
free (s, s-bar) with s > z, then d lists the inner plain letters, (n-bar, n)
and the inner barred letters, as a symplectic column splits (Sheats, Trans.
AMS 1999; Lecouvey, J. Algebra 2002).  No path tuple is searched.

The h-paths of width r (``paths._hpath_table``) and the rows of length r,
tabulated apart, are one list: h-path i reads row word i, with the same
key.  Both searches yield one index per row.  The path correspondence maps
steps to words and words to steps directly, per length (``_row_index``),
and reads them through one bounded cached record per (type, shape)
(``_links``): each row's start, end and steps -> word map, the identity
permutation, and a memo of the Path from the row's start of each word
that has passed every check, so a round trip builds each row's Path once
per shape.
"""

from __future__ import annotations

import re
from functools import lru_cache, partial
from operator import getitem
from typing import NamedTuple

from .ring import AlgType, Placement, RingElem, delta, letter_order, letters, pack, z_product
from .shapes import SkewShape
from .paths import Path, PathTuple, _hpath_table, _require_model, _search, endpoints


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


# ---------------------------------------------------------------------------
# Cell rules


def _cmp(t: AlgType, c1: int, c2: int) -> int:
    return letter_order(t, c1) - letter_order(t, c2)


def _h_ok(t: AlgType, left: int, right: int) -> bool:
    if t.family == "B" and left == right == 0:
        return False
    return _cmp(t, left, right) <= 0 or (t.family == "C" and (left, right) == (-t.rank, t.rank))


def _h_triple_ok(t: AlgType, c1, c2, c3) -> bool:
    if t.family != "C":
        return True
    n = t.rank
    return (c1, c2, c3) not in ((-n, -n, n), (-n, n, n))


def _v_ok(t: AlgType, up: int, dn: int, dn_left, up_right) -> bool:
    """Vertical rule between a letter and the letter below it; dn_left is the
    letter left of the lower cell, up_right the letter right of the upper
    cell (None where there is no cell)."""
    n = t.rank
    return (
        _cmp(t, up, dn) < 0
        or (t.family == "B" and up == dn == 0)
        or (t.family == "C" and (up == dn == n and dn_left == -n or up == dn == -n and up_right == n))
    )


# ---------------------------------------------------------------------------
# Extra rules for the C family: tests on row words (see the module docstring)


def _at(word: tuple, p: int):
    """Letter p of a row word, or None off the row."""
    return word[p] if 0 <= p < len(word) else None


def _2row_ok(n: int, up: tuple, dn: tuple, off: int) -> bool:
    """Two-row rule on a row and the row under it, which starts off columns
    right of it: no odd-width block of n's atop n-bar's without an n to its
    upper right or an n-bar to its lower left."""
    x, end = max(0, off), min(len(up), off + len(dn))  # the shared columns, as indices into up
    while x < end:
        if up[x] == n and dn[x - off] == -n:
            x0 = x
            while x + 1 < end and up[x + 1] == n and dn[x + 1 - off] == -n:
                x += 1
            if (x - x0) % 2 == 0 and _at(up, x + 1) != n and _at(dn, x0 - 1 - off) != -n:
                return False
        x += 1
    return True


def satisfies_2row_rule(t: AlgType, T: Tableau) -> bool:
    """The two-row rule on each pair of adjacent rows of T."""
    mu = T.shape.mu
    return all(_2row_ok(t.rank, T.cells[i - 1], T.cells[i], mu[i + 1] - mu[i]) for i in range(1, len(T.cells)))


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


def _3row_ok(t: AlgType, top: tuple, mid: tuple, bot: tuple, off1: int, off2: int) -> bool:
    """Three-row window rule (see the module docstring) on three rows, each
    starting off1, resp. off2, columns right of the one above.  Every class
    but '.' needs a middle letter, so the word runs over the middle row."""
    word = "".join(_col_class(t.rank, _at(top, p + off1), m, _at(bot, p - off2)) for p, m in enumerate(mid))
    if "N" not in word and "B" not in word:  # every pattern holds an N or a B
        return True

    def escape(e, p0, p1):
        if e == "a":
            a = _at(top, p1 + 1 + off1)
            return a is not None and _cmp(t, a, mid[p1]) < 0
        b = _at(bot, p0 - 1 - off2)
        return b is not None and _cmp(t, b, mid[p0]) > 0

    for p0 in range(len(mid)):
        for p1 in range(p0, len(mid), 2):
            m = _ROW3.fullmatch(word, p0, p1 + 1)
            if m and not any(escape(e, p0, p1) for e in m.lastgroup):
                return False
    return True


def satisfies_3row_rule(t: AlgType, T: Tableau) -> bool:
    """The three-row rule on each window of three adjacent rows of T."""
    mu, rows = T.shape.mu, T.cells
    return all(
        _3row_ok(t, rows[r - 1], rows[r], rows[r + 1], mu[r + 1] - mu[r], mu[r + 2] - mu[r + 1])
        for r in range(1, len(rows) - 1)
    )


@lru_cache(maxsize=None)
def _col_layout(lam: tuple, mu: tuple) -> tuple:
    """The cells (row index, index in the row's word), top to bottom, of each
    column of the shape lam/mu with at least two cells, left to right."""
    mus = mu + (0,) * (len(lam) - len(mu))
    cols = (
        tuple((i, j - m) for i, (l, m) in enumerate(zip(lam, mus)) if m <= j < l)
        for j in range(lam[0] if lam else 0)
    )
    return tuple(c for c in cols if len(c) > 1)


def _far_pairs(n: int, seg):
    """(p, q) where seg[p] is a letter c in 1..n and seg[q] its bar, more than
    n-c rows below: the pairs the one-column distance rule forbids."""
    for p, c in enumerate(seg):
        if 1 <= c <= n:
            for q in range(p + 1, len(seg)):
                if seg[q] == -c and q - p > n - c:
                    yield p, q


def _is_bounding(t: AlgType, c: tuple) -> bool:
    """Whether c is a bounding one-column pattern: c_1 in 1..n, length
    l = n+2-c_1, c_l the bar of c_1, strictly increasing, and no far pair
    but (c_1, c_l)."""
    n = t.rank
    if not (c and 1 <= c[0] <= n and len(c) == n + 2 - c[0] and c[-1] == -c[0] and set(c) <= set(letters(t))):
        return False
    return all(_cmp(t, x, y) < 0 for x, y in zip(c, c[1:])) and all(pq == (0, len(c) - 1) for pq in _far_pairs(n, c))


def column_companions(t: AlgType, c: tuple) -> tuple:
    """The letters d_1..d_l attached to a bounding one-column pattern c.

    Each plain z whose bar is also an inner letter (c_2..c_{l-1}) moves, in
    increasing order, with its bar to the least s > z such that neither s
    nor s-bar is in c or picked before.  (One exists: at most n-z-1 letters
    lie between z and z-bar, which leaves more free values above z than
    pairs above z.)  Then d is the inner plain letters in increasing order,
    (n-bar, n), and the inner barred letters in alphabet order: the split
    of a symplectic column (Sheats, Trans. AMS 1999; Lecouvey, J. Algebra
    2002).  Raises ValueError if c is not a bounding pattern.
    """
    c = tuple(c)
    if not _is_bounding(t, c):
        raise ValueError(f"{c} is not a bounding one-column pattern of {t}")
    n, inner = t.rank, list(c[1:-1])
    taken = {abs(x) for x in c}
    for z in sorted(x for x in inner if x > 0 and -x in inner):
        s = min(set(range(z + 1, n + 1)) - taken)
        taken.add(s)
        inner[inner.index(z)], inner[inner.index(-z)] = s, -s
    # the bars -n..-1 in increasing order are the alphabet order n-bar..1-bar
    return tuple(sorted(x for x in inner if x > 0)) + (-n, n) + tuple(sorted(x for x in inner if x < 0))


@lru_cache(maxsize=None)
def _bounding_patterns(t: AlgType, seg: tuple) -> tuple:
    """(p, k, d) for each bounding one-column pattern c = seg[p:p+l] of a
    column: k counts its letters up to n and d = column_companions(c)."""
    n = t.rank
    out = []
    for p, c1 in enumerate(seg):
        c = seg[p : p + n + 2 - c1] if 1 <= c1 <= n else ()
        if _is_bounding(t, c):
            out.append((p, sum(x > 0 for x in c), column_companions(t, c)))
    return tuple(out)


def _2col_ok(t: AlgType, words, layout: tuple) -> bool:
    """Two-column rule on the row words of a shape with column layout
    _col_layout: a bounding column pattern needs a strictly smaller right
    neighbor above the crossing or a strictly larger left neighbor below it,
    measured against the companion letters d_i."""
    for col in layout:
        for p, k, d in _bounding_patterns(t, tuple(words[i][x] for i, x in col)):
            for m, (i, x) in enumerate(col[p : p + len(d)]):
                side = 1 if m < k else -1  # the right neighbor above the crossing, the left one below
                c = _at(words[i], x + side)
                if c is not None and side * _cmp(t, d[m], c) > 0:
                    break
            else:
                return False
    return True


RULESETS = ("hv", "rows", "columns", "auto")


def resolve_ruleset(t: AlgType, s: SkewShape, ruleset: str) -> str:
    if ruleset not in RULESETS:
        raise ValueError(f"unknown ruleset {ruleset!r}; expected one of {', '.join(RULESETS)}")
    if ruleset == "auto":
        if t.family != "C":
            return "hv"
        if len(s.lam) <= 3:
            return "rows"
        if (s.lam[1] if s.lam.parts else 0) > 2:
            raise ValueError(f"no {t} tableau rule covers {s}: more than 3 rows and more than 2 columns")
        ruleset = "columns"
    # past column depth n + 1, chi_h is virtual and the column rules give 0
    if ruleset == "columns" and t.family == "C" and s.depth() > t.rank + 1:
        raise ValueError(f"no {t} tableau rule covers {s}: a column of depth {s.depth()} > n + 1 = {t.rank + 1}")
    return ruleset


# ---------------------------------------------------------------------------
# Row tables and enumeration


@lru_cache(maxsize=None)
def _row_table(t: AlgType, length: int) -> tuple[int, int, tuple, tuple]:
    """(w, b, words, keys) of the rows of this length allowed by _h_ok and
    _h_triple_ok, in lexicographic alphabet order: keys from ``pack`` of the
    weights of the words from column 0 of row 0 (letter m at shift 2*delta*m)."""
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
    w, b, keys = pack(t, (z_product(t, [(c, f * m) for m, c in enumerate(word)]) for word in words))
    return w, b, tuple(words), keys


@lru_cache(maxsize=None)
def _below(t: AlgType, la: int, lb: int, off: int, c: int) -> int:
    """Bitmask over the rows of length lb that may lie under row c of length
    la when the lower row starts off columns right of the upper one: _v_ok
    at every column the two rows share."""
    up = _row_table(t, la)[2][c]
    cols = range(max(0, -off), min(lb, la - off))  # indices into the lower row
    mask = 0
    for d, dn in enumerate(_row_table(t, lb)[2]):
        if all(
            _v_ok(t, up[p + off], dn[p], dn[p - 1] if p else None, up[p + off + 1] if p + off + 1 < la else None)
            for p in cols
        ):
            mask |= 1 << d
    return mask


@lru_cache(maxsize=None)
def _below_2row(t: AlgType, la: int, lb: int, off: int, c: int) -> int:
    """_below with the two-row rule: the rows of _below(..., c) that the rule
    admits under row c."""
    mask = _below(t, la, lb, off, c)
    up = _row_table(t, la)[2][c]
    n = t.rank
    if n not in up:
        return mask
    for d, dn in enumerate(_row_table(t, lb)[2]):
        if mask >> d & 1 and not _2row_ok(n, up, dn, off):
            mask ^= 1 << d
    return mask


@lru_cache(maxsize=None)
def _row3_mask(t: AlgType, la: int, lb: int, lc: int, off1: int, off2: int, a: int, b: int) -> int:
    """Bitmask (-1 for all) over the rows of length lc that the three-row
    rule admits under rows a (length la) and b (length lb), each row
    starting off1, resp. off2, columns right of the one above.  Every
    pattern holds a column (n-1, n or n-bar, 1-n), so only rows with a 1-n
    under _below_2row(..., b) are tested, and none unless row a has an n-1
    and row b an n or an n-bar."""
    n = t.rank
    top, mid = _row_table(t, la)[2][a], _row_table(t, lb)[2][b]
    mask = -1
    if n - 1 not in top or (n not in mid and -n not in mid):
        return mask
    under = _below_2row(t, lb, lc, off2, b)
    for d, bot in enumerate(_row_table(t, lc)[2]):
        if under >> d & 1 and 1 - n in bot and not _3row_ok(t, top, mid, bot, off1, off2):
            mask ^= 1 << d
    return mask


class _Rows:
    """The row tables of a shape's rows, read in place.

    Row i of the shape takes its letters from the table of its length.  A
    filling is one index into each row's table, and rows i, i+1 fit when
    the lower index is in _below of the upper one (_below_2row for the C
    row rules).  Row i's first cell (i, mu_i + 1) carries the spectral
    shift 2*delta*(mu_i + 1 - i), by which the search moves its weight keys
    through the placement, whose width holds the exponents of any filling.
    """

    def __init__(self, t: AlgType, s: SkewShape):
        _require_model(t, "tableau")
        if t.family == "C" and t.rank < 2:
            raise ValueError(f"the C tableau rules need rank at least 2, not {t}")
        self.t, self.s = t, s
        rows = range(1, len(s.lam) + 1)
        self.lengths = [s.lam[i] - s.mu[i] for i in rows]
        self.mu = [s.mu[i] for i in rows]
        tabs = [_row_table(t, m) for m in self.lengths]
        self.words = [tab[2] for tab in tabs]
        self.place = place = Placement(t, sum(tab[1] for tab in tabs), [2 * delta(t) * (s.mu[i] + 1 - i) for i in rows])
        self.keys = [place.recode(tab[0], tab[3]) for tab in tabs]

    def _fits(self, below, i: int, c: int, k: int) -> int:
        return below(self.t, self.lengths[i], self.lengths[k], self.mu[k] - self.mu[i], c)

    def _row3_ok(self, cs) -> bool:
        t, ls, mu = self.t, self.lengths, self.mu
        for r in range(len(cs) - 2):
            offs = mu[r + 1] - mu[r], mu[r + 2] - mu[r + 1]
            if not _row3_mask(t, ls[r], ls[r + 1], ls[r + 2], *offs, cs[r], cs[r + 1]) >> cs[r + 2] & 1:
                return False
        return True

    def fillings(self, ruleset: str):
        """(cs, key) for the fillings that obey the cell rules and, for C,
        the ruleset's extra rules, in row-major alphabet order: cs indexes
        each row's table and key is the filling's weight key.  The two-row
        rule prunes the search, the three-row and column rules filter
        complete fillings."""
        ruleset = resolve_ruleset(self.t, self.s, ruleset)
        if self.t.family != "C":
            ruleset = "hv"
        fits = partial(self._fits, _below_2row if ruleset == "rows" else _below)
        rows = tuple(range(len(self.keys)))
        found = ((cs, key) for _pi, cs, key in _search(rows, self.keys, self.place.kshift, fits, True))
        if ruleset == "rows" and len(rows) > 2:
            return (x for x in found if self._row3_ok(x[0]))
        if ruleset == "columns":
            t, words, layout = self.t, self.words, _col_layout(self.s.lam.parts, self.s.mu.parts)
            return (x for x in found if _2col_ok(t, [ws[c] for ws, c in zip(words, x[0])], layout))
        return found

    def tableau(self, cs) -> Tableau:
        return Tableau(self.s, tuple(map(getitem, self.words, cs)))

    def weight_sum(self, found, a_offset: int = 0) -> RingElem:
        """The sum of the weights of the fillings (cs, key): each key added
        into one dict."""
        acc: dict = {}
        get = acc.get
        for _cs, key in found:
            acc[key] = get(key, 0) + 1
        return self.place.elem(acc, a_offset)


def enumerate_tableaux(t: AlgType, s: SkewShape, ruleset: str = "auto"):
    """All tableaux of the shape obeying the family rules and, for C, the
    shape's extra rules, in row-major alphabet order.  For C, ruleset
    'auto' picks the row rules for at most three rows, else the column
    rules for at most two columns, and raises ValueError for other shapes,
    which no rule covers (ruleset 'hv' still lists their tableaux without
    extra rules); 'auto' and 'columns' raise it for a column deeper than
    n + 1.  Types other than A, B and C raise ValueError."""
    rows = _Rows(t, s)
    return [rows.tableau(cs) for cs, _key in rows.fillings(ruleset)]


def tableaux_with_sum(
    t: AlgType, s: SkewShape, a_offset: int = 0, ruleset: str = "auto"
) -> tuple[list[Tableau], RingElem]:
    """The tableaux and their weight sum, from one enumeration."""
    rows = _Rows(t, s)
    found = list(rows.fillings(ruleset))
    return [rows.tableau(cs) for cs, _key in found], rows.weight_sum(found, a_offset)


def tableau_sum(t: AlgType, s: SkewShape, a_offset: int = 0, ruleset: str = "auto") -> RingElem:
    rows = _Rows(t, s)
    return rows.weight_sum(rows.fillings(ruleset), a_offset)


# ---------------------------------------------------------------------------
# Path correspondence


@lru_cache(maxsize=None)
def _row_index(t: AlgType, r: int) -> tuple[dict, dict]:
    """(steps -> word, word -> steps) over the h-paths of width r and the
    rows of length r, which are one list: path i reads row word i."""
    _require_model(t, "tableau")
    steps, words = [a.path.steps for a in _hpath_table(t, r)[2]], _row_table(t, r)[2]
    return dict(zip(steps, words)), dict(zip(words, steps))


class _Link(NamedTuple):
    """A row of a shape: its path runs from u to v, word maps the steps of
    the h-paths of the row's width to their words, and made memoizes the
    Path from u of each word that has passed every check.  made is a plain
    dict, bounded by the row table of the row's width: it holds at most one
    Path per word of that table, and _links keeps at most 32 shapes."""

    u: tuple
    v: tuple
    word: dict
    made: dict


# bounded like paths.endpoints: its callers read one shape many times in a row
@lru_cache(maxsize=32)
def _links(t: AlgType, s: SkewShape) -> tuple[tuple[_Link, ...], tuple[int, ...]]:
    """The links of the shape's rows, and the identity permutation of them."""
    _require_model(t, "tableau")
    us, vs = endpoints(t, s)
    links = tuple(_Link(u, v, _row_index(t, v[0] - u[0])[0], {}) for u, v in zip(us, vs))
    return links, tuple(range(len(links)))


def path_tuple_to_tableau(t: AlgType, pt: PathTuple) -> Tableau:
    """The tableau whose row i is the word that row i's path reads.  Raises
    ValueError for a path count other than the shape's row count, permuted
    rows, a path that is no h-path from its row's start to its end, and
    type D."""
    links, identity = _links(t, pt.shape)
    if len(pt.paths) != len(links):
        raise ValueError(f"path count {len(pt.paths)} for a shape of {len(links)} rows")
    if pt.pi != identity:
        raise ValueError(f"rows permuted by {pt.to_json_obj()['pi']}; no tableau attached")
    words = []
    for i, (p, link) in enumerate(zip(pt.paths, links), start=1):
        word = link.word.get(p.steps) if p.start == link.u else None
        if word is None:
            raise ValueError(f"path {i} {p.to_text()} is no h-path of {t} from {link.u} to {link.v}")
        words.append(word)
    return Tableau(pt.shape, tuple(words))


def tableau_to_path_tuple(t: AlgType, T: Tableau) -> PathTuple:
    """The tuple whose row i is the h-path that reads row i of T.  Raises
    ValueError for a row count other than the shape's, a row that no h-path
    reads, a row whose path does not end at its row's end, and type D."""
    s = T.shape
    links, identity = _links(t, s)
    if len(T.cells) != len(links):
        raise ValueError(f"row count {len(T.cells)} for a shape of {len(links)} rows")
    paths = []
    for i, (row, link) in enumerate(zip(T.cells, links), start=1):
        row = tuple(row)
        p = link.made.get(row)
        if p is None:
            u, v = link.u, link.v
            steps = _row_index(t, len(row))[1].get(row)
            if steps is None:
                raise ValueError(f"row {i} {row} is read by no h-path of {t}")
            if u[0] + len(row) != v[0]:
                raise ValueError(f"row {i} {row} gives a path ending at {(u[0] + len(row), v[1])}, not {v}")
            p = link.made[row] = Path(u, steps)
        paths.append(p)
    return PathTuple(tuple(paths), identity, s)
