"""Tableaux for the three classical families, and the path correspondence.

Entries are letters (ints): k>0 plain, 0 (middle letter, B only), -k barred,
compared in the alphabet order of ``ring.letters``.  Every family's cell rule
is weak rows and strict columns in that order, with these exceptions:

* B: no repeated 0 in a row; a repeated 0 in a column.
* C: "HV" rules — the single descent (n-bar, n) allowed in a row and the
  triples (n-bar, n-bar, n), (n-bar, n, n) forbidden; in a column a repeated
  n whose lower cell has an n-bar on its left, or a repeated n-bar whose
  upper cell has an n on its right.

The rows of a length r that obey the horizontal rules are the words that the
h-paths of width r read, in the order of the h-path table
(``paths._hpath_table``, one per (type, width) for both layers): the
lexicographic alphabet order, in which a row-major fill of the cells meets
them.  (The horizontal rules as cell tests on letters are the tests' oracle
of the table.)  The vertical rule is the paths' pair condition
(Gessel-Viennot): row k+1 may lie under row k exactly when their paths,
which start d = mu_k - mu_{k+1} + 1 >= 1 columns apart and end
lam_k - lam_{k+1} + 1 >= 1 apart, miss (A) or meet only specially (B, C).
Adjacent rows are never transposed, so C's no-transposed-pair half of P~
always holds.  (The vertical rule as a cell test on letters is the tests'
oracle of the paths' pair masks.)  So a tableau is a path tuple of the
identity permutation, and the tableau layer keeps no frame of its own: it
runs the search of the shape's ``paths._Frame`` on that permutation alone,
adjacent rows only, with the surviving tuples' pair test
(``_Frame.no_ordinary``).  The frame's identity rows are the shape's rows,
row i from x = mu_i + 1 - i, so the search yields the fillings in row-major
order, each with its weight key: the sum of the row keys, row i's moved by
2 delta * (mu_i + 1 - i) spectral steps through the frame's
``ring.Placement``.  A tableau sum is the path layer's signed key sum
(``paths._signed_sum``), every sign +1: each key added into one dict, which
the placement reads as one ``RingElem``.  No ``Tableau`` is built for a
sum; tableaux and the column rule read the words of the row tables that
the frame hands out (``_Frame.rows``).

For the C family the generating function identity requires extra rules that
depend on the shape (``paths.model_status`` says where each holds): a
two-row block rule and a three-row window rule, and one-/two-column rules.
Each is one test on the letter words of the rows it reads, placed by the
offsets between their starts, so the search applies them to table indices.
Their tables are keyed, as the pair masks are, by the offset d of the
paths of a row and the row under it (the lower row starts 1 - d columns
right of the upper one).  The two-row rule narrows each pair mask
(``_below_2row``, a mask table of its own, the C row rules' pair test); the
three-row rule on rows r, r+1, r+2 is a cached bitmask over row r+2's table
for a pair of indices of rows r and r+1 (``_row3_mask``), read per complete
filling.  Both first read per-table bitmasks of the rows
that can start a pattern (``_holding``: an upper row holding n; n-1 over n
or n-bar), so no window where a rule cannot apply is tested or cached.  The
two-column rule reads the columns of a complete filling through the shape's
cached column layout (``_col_layout``).  The ``Tableau``-level checks
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

H-path i of width r reads row word i of length r, one entry of one table,
and both searches yield one index per row into it.  The path
correspondence maps steps and words to that entry through the path layer's
one index per table (``paths._table_index``), and reads them through one
bounded cached record per (type, shape) (``_links``): each row's start,
end, steps -> entry map and words, the identity permutation, and a memo of
the Path from the row's start of each word that has passed every check, so
a round trip builds each row's Path once per shape.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import getitem, sub
from typing import NamedTuple

from .ring import AlgType, RingElem, delta, letter_order, letters, rows_weight
from .shapes import SkewShape
from .paths import Path, PathTuple, _Frame, _hpath_table, _mask_table, _pair_masks, _signed_sum, _table_index
from .paths import endpoints, model_status


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
        """The product of the letter images, cell (i, j)'s at 2 delta (j - i) + a_offset."""
        f, mu = 2 * delta(t), self.shape.mu
        return rows_weight(t, self.cells, [f * (mu[i] + 1 - i) for i in range(1, len(self.cells) + 1)], a_offset)


# ---------------------------------------------------------------------------
# Letter order


def _cmp(t: AlgType, c1: int, c2: int) -> int:
    return letter_order(t, c1) - letter_order(t, c2)


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
    """The rules that run ('hv' outside C); model_status says if they hold."""
    if ruleset not in RULESETS:
        raise ValueError(f"unknown ruleset {ruleset!r}; expected one of {', '.join(RULESETS)}")
    if t.family != "C":
        return "hv"
    if ruleset != "auto":
        return ruleset
    if len(s.lam) <= 3:
        return "rows"
    if s.lam[1] > 2:
        raise ValueError(f"no {t} tableau rule covers {s}: more than 3 rows and more than 2 columns")
    return "columns"


# ---------------------------------------------------------------------------
# Row masks and enumeration, over the words of the h-path tables


@lru_cache(maxsize=None)
def _holding(t: AlgType, r: int, held: tuple) -> int:
    """Bitmask over the rows of length r that hold a letter of held: the
    rows that can start a pattern of a C row rule."""
    return sum(1 << c for c, word in enumerate(_hpath_table(t, r).words) if any(x in word for x in held))


@_mask_table
def _below_2row(t: AlgType, la: int, lb: int, d: int, c: int) -> int:
    """Bitmask over the C rows of length lb that may lie under row c of
    length la, their paths d >= 1 columns apart (the lower row starts
    1 - d <= 0 columns right of the upper one): the rows whose paths meet
    path c only specially (_pair_masks) and that the two-row rule admits.
    The rule reads an n atop an n-bar, so under a row that holds no n
    (_holding) the slot takes the pair mask, not tested."""
    disjoint, special = _pair_masks(t, la, lb, d, c)
    mask, n = disjoint | special, t.rank
    if not _holding(t, la, (n,)) >> c & 1:
        return mask
    up = _hpath_table(t, la).words[c]
    for e, dn in enumerate(_hpath_table(t, lb).words):
        if mask >> e & 1 and not _2row_ok(n, up, dn, 1 - d):
            mask ^= 1 << e
    return mask


@lru_cache(maxsize=None)
def _row3_mask(t: AlgType, la: int, lb: int, lc: int, d1: int, d2: int, a: int, b: int) -> int:
    """Bitmask (-1 for all) over the rows of length lc that the three-row
    rule admits under rows a (length la) and b (length lb), the paths of
    each row and the row under it d1, resp. d2, columns apart.  Every
    pattern holds a column (n-1, n or n-bar, 1-n), so only rows with a 1-n
    under _below_2row(..., b) are tested.  Callers ask only where row a
    holds n-1 and row b an n or an n-bar (_holding): no window where the
    rule cannot apply is cached."""
    n = t.rank
    top, mid = _hpath_table(t, la).words[a], _hpath_table(t, lb).words[b]
    mask, under = -1, _below_2row(t, lb, lc, d2, b) & _holding(t, lc, (1 - n,))
    for e, bot in enumerate(_hpath_table(t, lc).words):
        if under >> e & 1 and not _3row_ok(t, top, mid, bot, 1 - d1, 1 - d2):
            mask ^= 1 << e
    return mask


def _row3_passed(t: AlgType, widths, ux, found):
    """The fillings of found that pass the three-row rule, on three rows
    (the rows ruleset covers no more) of these widths, starting at these x's:
    _row3_mask is read only where rows 1 and 2 can start a pattern
    (_holding)."""
    (la, lb, lc), (x1, x2, x3), n = widths, ux, t.rank
    tops, mids = _holding(t, la, (n - 1,)), _holding(t, lb, (n, -n))
    for x in found:
        a, b, c = x[1]
        if not (tops >> a & 1 and mids >> b & 1) or _row3_mask(t, la, lb, lc, x1 - x2, x2 - x3, a, b) >> c & 1:
            yield x


def _words(frame) -> list:
    """The words of the tables of the frame's identity rows: the shape's rows."""
    return [table.words for table in frame.rows(tuple(range(len(frame.ux))))[1]]


def _fillings(t: AlgType, s: SkewShape, ruleset: str):
    """The shape's path frame and the search's (pi, cs, key) for the
    fillings that obey the cell rules and, for C, the ruleset's extra rules,
    in row-major alphabet order: the frame's tuples of the identity pi whose
    adjacent rows pass its pair test of the surviving tuples (narrowed by
    the two-row rule for the C row rules), cs indexing each row's table and
    key the filling's weight key.  The three-row and column rules filter
    complete fillings."""
    model_status(t, "hv")  # the tableau layer's refusal, before the ruleset's and the frame's
    ruleset = resolve_ruleset(t, s, ruleset)
    model_status(t, ruleset, s)
    frame = _Frame(t, s)
    ux, fits = frame.ux, frame.no_ordinary
    if ruleset == "rows":
        fits = lambda ws, i, c, k: _below_2row(t, ws[i], ws[k], ux[i] - ux[k], c)
    found = frame.search(tuple(range(len(ux))), fits, adjacent_only=True)
    if ruleset == "rows" and len(ux) > 2:
        return frame, _row3_passed(t, list(map(sub, frame.vx, ux)), ux, found)
    if ruleset == "columns":
        words, layout = _words(frame), _col_layout(s.lam.parts, s.mu.parts)
        return frame, (x for x in found if _2col_ok(t, [ws[c] for ws, c in zip(words, x[1])], layout))
    return frame, found


def enumerate_tableaux(t: AlgType, s: SkewShape, ruleset: str = "auto"):
    """All tableaux of the shape under the family rules and the ruleset's
    extra rules (resolve_ruleset), in row-major alphabet order.  Raises
    ValueError where paths.model_status refuses the ruleset on the shape,
    which it calls 'not a character' for C under 'hv'."""
    frame, found = _fillings(t, s, ruleset)
    words = _words(frame)
    return [Tableau(s, tuple(map(getitem, words, cs))) for _pi, cs, _key in found]


def tableaux_with_sum(
    t: AlgType, s: SkewShape, a_offset: int = 0, ruleset: str = "auto"
) -> tuple[list[Tableau], RingElem]:
    """The tableaux and their weight sum, from one enumeration."""
    frame, found = _fillings(t, s, ruleset)
    found, words = list(found), _words(frame)
    tabs = [Tableau(s, tuple(map(getitem, words, cs))) for _pi, cs, _key in found]
    return tabs, _signed_sum(frame.place, found, a_offset)


def tableau_sum(t: AlgType, s: SkewShape, a_offset: int = 0, ruleset: str = "auto") -> RingElem:
    frame, found = _fillings(t, s, ruleset)
    return _signed_sum(frame.place, found, a_offset)


# ---------------------------------------------------------------------------
# Path correspondence


class _Link(NamedTuple):
    """A row of a shape: its path runs from u to v, index maps the steps of
    the h-paths of the row's width to their entries (paths._table_index),
    words are the entries' words, and made memoizes the Path from u of each
    word that has passed every check.  made is a plain dict, bounded by the
    row table of the row's width: it holds at most one Path per word of
    that table, and _links keeps at most 32 shapes."""

    u: tuple
    v: tuple
    index: dict
    words: tuple
    made: dict


# bounded like paths.endpoints: its callers read one shape many times in a row
@lru_cache(maxsize=32)
def _links(t: AlgType, s: SkewShape) -> tuple[tuple[_Link, ...], tuple[int, ...]]:
    """The links of the shape's rows, and the identity permutation of them."""
    model_status(t, "hv")
    us, vs = endpoints(t, s)
    links = tuple(
        _Link(u, v, _table_index(t, v[0] - u[0])[0], _hpath_table(t, v[0] - u[0]).words, {}) for u, v in zip(us, vs)
    )
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
        c = link.index.get(p.steps) if p.start == link.u else None
        if c is None:
            raise ValueError(f"path {i} {p.to_text()} is no h-path of {t} from {link.u} to {link.v}")
        words.append(link.words[c])
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
            c = _table_index(t, len(row))[1].get(row)
            if c is None:
                raise ValueError(f"row {i} {row} is read by no h-path of {t}")
            if u[0] + len(row) != v[0]:
                raise ValueError(f"row {i} {row} gives a path ending at {(u[0] + len(row), v[1])}, not {v}")
            p = link.made[row] = Path(u, _hpath_table(t, len(row)).steps[c])
        paths.append(p)
    return PathTuple(tuple(paths), identity, s)
