"""Tableaux for the three classical families, and the path correspondence.

Entries are letters (ints): k>0 plain, 0 (middle letter, second family only),
-k barred.  Orderings and cell rules depend on the family:

* A: semistandard (weak rows, strict columns).
* B: weak rows without a repeated 0, strict columns except a repeated 0.
* C: "HV" rules — weak rows with the single descent (n-bar, n) allowed and
  the triples (n-bar, n-bar, n), (n-bar, n, n) forbidden; strict columns
  except a repeated n whose lower cell has an n-bar on its left, or a
  repeated n-bar whose upper cell has an n on its right.

For the C family the generating function identity requires extra rules that
depend on the shape: a two-row block rule and a three-row window rule for
shapes of at most three rows, and one-/two-column rules for shapes of at
most two columns.
"""

from __future__ import annotations

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


def _v_ok(t: AlgType, T: Tableau, i: int, j: int) -> bool:
    """Vertical rule between cells (i, j) and (i+1, j); both must exist."""
    up, dn = T.entry(i, j), T.entry(i + 1, j)
    if t.family == "A":
        return up < dn
    if t.family == "B":
        return _cmp(t, up, dn) < 0 or (up, dn) == (0, 0)
    n = t.rank
    if _cmp(t, up, dn) < 0:
        return True
    if up == dn == n and T.entry(i + 1, j - 1) == -n:
        return True
    if up == dn == -n and T.entry(i, j + 1) == n:
        return True
    return False


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
        if T.entry(i + 1, j) is not None and not _v_ok(t, T, i, j):
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


def _col_kinds(t: AlgType, T: Tableau, r: int, j: int) -> frozenset:
    """Segment kinds column j can play in the window anchored at row r.

    Two-cell kinds only constrain the two drawn cells; the third row's cell
    may or may not exist outside the matched subtableau.
    """
    n = t.rank
    top, mid, bot = T.entry(r, j), T.entry(r + 1, j), T.entry(r + 2, j)
    kinds = set()
    if mid == n and bot == -n:
        kinds.add("lo-n-nb")  # bottom two rows: n over n-bar
    if mid == -n and bot == -n:
        kinds.add("lo-nb-nb")
    if top == n and mid == -n:
        kinds.add("hi-n-nb")
    if top == n and mid == n:
        kinds.add("hi-n-n")
    if top == n - 1 and bot == -(n - 1):
        if mid == n:
            kinds.add("full-n")
        if mid == -n:
            kinds.add("full-nb")
    return frozenset(kinds)


def _windows(T: Tableau, r: int):
    """Maximal column ranges meeting at least two of rows r, r+1, r+2."""
    s = T.shape
    lo = min(s.mu[i] + 1 for i in (r, r + 1, r + 2))
    hi = max(s.lam[i] for i in (r, r + 1, r + 2))
    return lo, hi


def _alt_mid(kinds, start, count2) -> bool:
    """kinds[start:start+count2] alternate full-nb, full-n (even length)."""
    for m in range(count2):
        want = "full-nb" if m % 2 == 0 else "full-n"
        if want not in kinds[start + m]:
            return False
    return True


def satisfies_3row_rule(t: AlgType, T: Tableau) -> bool:
    """Three-row window rule for the C family."""
    for r in range(1, len(T.cells) - 1):
        lo, hi = _windows(T, r)
        width = hi - lo + 1
        if width <= 0:
            continue
        kinds = {j: _col_kinds(t, T, r, j) for j in range(lo, hi + 1)}

        def a_escape(j1):
            a = T.entry(r, j1 + 1)
            below = T.entry(r + 1, j1)
            return a is not None and _cmp(t, a, below) < 0

        def b_escape(j0):
            b = T.entry(r + 2, j0 - 1)
            above = T.entry(r + 1, j0)
            return b is not None and _cmp(t, b, above) > 0

        for j0 in range(lo, hi + 1):
            for j1 in range(j0, hi + 1):
                ks = [kinds[j] for j in range(j0, j1 + 1)]
                if any(not k for k in ks):
                    continue
                w = len(ks)
                # first arrangement: k1 low / k2 full-n / 2*k3 alternating /
                # k4 full-nb / k5 high
                for k1 in range(w + 1):
                    if any("lo-n-nb" not in k for k in ks[:k1]):
                        break
                    for k5 in range(w - k1 + 1):
                        if any("hi-n-nb" not in k for k in ks[w - k5 :]):
                            break
                        for k2 in range(w - k1 - k5 + 1):
                            if any("full-n" not in k for k in ks[k1 : k1 + k2]):
                                break
                            for k4 in range(w - k1 - k2 - k5 + 1):
                                if any(
                                    "full-nb" not in k
                                    for k in ks[w - k5 - k4 : w - k5]
                                ):
                                    break
                                k3x2 = w - k1 - k2 - k4 - k5
                                if k3x2 % 2 != 0 or not _alt_mid(ks, k1 + k2, k3x2):
                                    continue
                                if (k1 + k2 + k4 + k5) % 2 == 1 and (k2 or k4):
                                    if not (a_escape(j1) or b_escape(j0)):
                                        return False
                # second arrangement: fixed pair (lo-nb-nb, full-n) /
                # 2*k3 alternating / k4 full-nb / k5 high; only the a escape
                if w >= 2 and "lo-nb-nb" in ks[0] and "full-n" in ks[1]:
                    for k5 in range(w - 1):
                        if any("hi-n-nb" not in k for k in ks[w - k5 :]):
                            break
                        for k4 in range(w - 2 - k5 + 1):
                            if any(
                                "full-nb" not in k for k in ks[w - k5 - k4 : w - k5]
                            ):
                                break
                            k3x2 = w - 2 - k4 - k5
                            if k3x2 % 2 != 0 or not _alt_mid(ks, 2, k3x2):
                                continue
                            if (k4 + k5) % 2 == 1 and k4:
                                if not a_escape(j1):
                                    return False
                # third arrangement: k1 low / k2 full-n / 2*k3 alternating /
                # fixed pair (full-nb, hi-n-n); only the b escape
                if w >= 2 and "full-nb" in ks[-2] and "hi-n-n" in ks[-1]:
                    for k1 in range(w - 1):
                        if any("lo-n-nb" not in k for k in ks[:k1]):
                            break
                        for k2 in range(w - 2 - k1 + 1):
                            if any("full-n" not in k for k in ks[k1 : k1 + k2]):
                                break
                            k3x2 = w - 2 - k1 - k2
                            if k3x2 % 2 != 0 or not _alt_mid(ks, k1 + k2, k3x2):
                                continue
                            if (k1 + k2) % 2 == 1 and k2:
                                if not b_escape(j0):
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


def satisfies_1col_rule(t: AlgType, T: Tableau) -> bool:
    """A letter c and its bar in one column must be at most n-c rows apart."""
    n = t.rank
    for _j, _i, seg in _column_segments(T):
        for p in range(len(seg)):
            c = seg[p]
            if not (1 <= c <= n):
                continue
            for q in range(p + 1, len(seg)):
                if seg[q] == -c and q - p > n - c:
                    return False
    return True


_D_CACHE: dict = {}


def column_companions(t: AlgType, c: tuple) -> tuple:
    """The letters d_1..d_l attached to a bounding one-column pattern c.

    The pattern has c_1 = n+2-l and c_l its bar, and every proper contiguous
    piece obeys the one-column distance rule.  The d_i are read off the
    unique one-transposed-pair tuple of one-box paths whose weight equals the
    column's weight; the two paths of the transposed pair contribute n-bar
    and n at the crossing.
    """
    key = (t, c)
    if key in _D_CACHE:
        return _D_CACHE[key]
    n = t.rank
    l = len(c)
    col = shape([1] * l)
    target = z_product(t, [(c[i], -2 * i) for i in range(l)])
    k = max(i for i in range(l) if _cmp(t, c[i], n) <= 0) + 1  # 1-based
    matches = []
    for pt in no_ordinary_tuples(t, col):
        if len(pt.transposed_pairs(t)) != 1:
            continue
        if pt.weight(t, 0) == target:
            matches.append(pt)
    assert len(matches) == 1, (c, len(matches))
    pt = matches[0]
    assert len(pt.paths[k - 1].east_steps()) == 0
    assert len(pt.paths[k].east_steps()) == 2
    d = []
    for i in range(l):
        if i == k - 1:
            d.append(-n)
        elif i == k:
            d.append(n)
        else:
            labs = east_labels(t, pt.paths[i])
            assert len(labs) == 1
            d.append(labs[0][0])
    d = tuple(d)
    _D_CACHE[key] = d
    return d


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
            proper_ok = True
            for pp in range(l):
                cc = sub[pp]
                if not (1 <= cc <= n):
                    continue
                for qq in range(pp + 1, l):
                    if (pp, qq) == (0, l - 1):
                        continue
                    if sub[qq] == -cc and qq - pp > n - cc:
                        proper_ok = False
            if not proper_ok:
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

    def partial() -> Tableau:
        return Tableau(s, tuple(tuple(r) for r in rows))

    def ok_to_place(i, j, v) -> bool:
        T = partial()
        left = T.entry(i, j - 1)
        if left is not None:
            if not _h_ok(t, left, v):
                return False
            left2 = T.entry(i, j - 2)
            if left2 is not None and not _h_triple_ok(t, left2, left, v):
                return False
        if i > 1 and T.entry(i - 1, j) is not None:
            rows[i - 1].append(v)
            good = _v_ok(t, partial(), i - 1, j)
            rows[i - 1].pop()
            if not good:
                return False
        return True

    def rec(m: int):
        if m == len(cells):
            T = partial()
            if satisfies_extra_rules(t, T, ruleset):
                out.append(T)
            return
        i, j = cells[m]
        for v in alphabet:
            if ok_to_place(i, j, v):
                rows[i - 1].append(v)
                rec(m + 1)
                rows[i - 1].pop()

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
