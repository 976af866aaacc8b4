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
by `is_valid` and by `enumerate_tableaux`, which fills cells in row-major
order and reads the neighbours of the next cell from the rows placed so far.

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

import re
from functools import lru_cache
from typing import NamedTuple

from .ring import AlgType, RingElem, delta, letter_order, letter_str, letters, parse_letter, z_product
from .shapes import SkewShape, shape
from .paths import Path, PathTuple, band, east_labels, endpoints, no_ordinary_tuples


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
# Enumeration


def enumerate_tableaux(t: AlgType, s: SkewShape, ruleset: str = "auto"):
    """All tableaux of the shape obeying the family rules and, for C, the
    shape's extra rules (ruleset 'auto' picks row rules for at most three
    rows, else column rules for at most two columns, else none)."""
    ruleset = resolve_ruleset(t, s, ruleset)
    cells = [(i, j) for i in range(1, len(s.lam) + 1) for j in range(s.mu[i] + 1, s.lam[i] + 1)]
    rows: list[list[int]] = [[] for _ in range(len(s.lam))]
    alphabet = letters(t)
    out = []

    def above(i, j):
        """Letter at (i-1, j), or None; row i-1 is complete."""
        if i > 1 and s.mu[i - 1] < j <= s.lam[i - 1]:
            return rows[i - 2][j - s.mu[i - 1] - 1]
        return None

    def rec(m: int):
        if m == len(cells):
            T = Tableau(s, tuple(map(tuple, rows)))
            if satisfies_extra_rules(t, T, ruleset):
                out.append(T)
            return
        i, j = cells[m]
        row = rows[i - 1]
        left = row[-1] if row else None
        left2 = row[-2] if len(row) > 1 else None
        up, up_right = above(i, j), above(i, j + 1)
        for v in alphabet:
            if left is not None and not (
                _h_ok(t, left, v) and (left2 is None or _h_triple_ok(t, left2, left, v))
            ):
                continue
            if up is not None and not _v_ok(t, up, v, left, up_right):
                continue
            row.append(v)
            rec(m + 1)
            row.pop()

    rec(0)
    return out


def tableau_sum(t: AlgType, s: SkewShape, a_offset: int = 0, ruleset: str = "auto") -> RingElem:
    return RingElem.sum(T.weight(t, a_offset) for T in enumerate_tableaux(t, s, ruleset))


# ---------------------------------------------------------------------------
# Path correspondence


def path_tuple_to_tableau(t: AlgType, pt: PathTuple) -> Tableau:
    if pt.pi != tuple(range(len(pt.pi))):
        raise ValueError(f"rows permuted by {pt.to_json_obj()['pi']}; no tableau attached")
    rows = tuple(tuple(c for c, _s in east_labels(t, p)) for p in pt.paths)
    return Tableau(pt.shape, rows)


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


def tableau_to_path_tuple(t: AlgType, T: Tableau) -> PathTuple:
    bot, top = band(t)
    s = T.shape
    us, vs = endpoints(t, s)
    paths = []
    for i, row in enumerate(T.cells, start=1):
        hs = _row_heights(t, row)
        steps = []
        y = bot
        for h in hs:
            steps.append("N" * (h - y) + "E")
            y = h
        steps.append("N" * (top - y))
        p = Path(us[i - 1], "".join(steps))
        if p.end != vs[i - 1]:
            raise ValueError(f"row {i} {row} gives a path ending at {p.end}, not {vs[i - 1]}")
        paths.append(p)
    return PathTuple(tuple(paths), tuple(range(len(paths))), s)
