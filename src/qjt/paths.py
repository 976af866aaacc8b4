"""Lattice h-paths, labelings, tuples, and signed path sums.

A path is a start point plus a string of N/E unit steps; x is weakly
increasing along a path, so every path stays inside the x-range of its
endpoints and no windowing is needed during enumeration.

Type bands: A runs from height 0 to n; B and C run from -n to n.  At height 0
a B-path may take at most one east step and a C-path must take an even number
of them.  For C the east steps at height 0 are labeled alternately n-bar, n.

An h-path from (ux, bot) to (vx, top) is the translate by ux of an h-path
from (0, bot) to (r, top), r = vx - ux, with the same labels and every
spectral shift moved by 2ux (4ux for B).  So the h-paths of each (type, r)
are enumerated once, into one table (``_hpath_table``) that holds for each
path its steps, its point set as an int bitmask (bit (x - x0) * h + y - y0 for
the point (x, y) in a frame with origin (x0, y0) and h heights), its
leftmost x at height 0, and its weight as one packed ``RingElem`` key.

A tuple enumeration (``_Frame``) reads the table of each endpoint pair (row
i, destination j) in place.  Seen from row k, a path of row i lies
d = ux_i - ux_k further east: its mask shifts by d * h bits and its height-0 x
by d.  Two paths are disjoint when their masks share no bit, specially
intersecting when every shared bit is at height 0 (for C also the leftmost
height-0 x's differ by an odd number), and ordinarily intersecting
otherwise; the verdicts on one path against a later row's list form one
bitmask.  A signed path sum shifts the key of row i's path by
w * n * f * (ux_i - x0) (f = 2, or 4 for B; x0 the least ux), adds the keys of
each tuple into one dict with the sign of its permutation as the
coefficient, and reads the dict as one ``RingElem`` in the shape's layout;
the spectral offset only moves the layout's base.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .ring import _W0, AlgType, RingElem, _f_factors, _recode, _width, letters, z_product
from .shapes import SkewShape


class Path(NamedTuple):
    start: tuple[int, int]
    steps: str  # 'N' and 'E' characters

    @property
    def end(self) -> tuple[int, int]:
        x, y = self.start
        return (x + self.steps.count("E"), y + self.steps.count("N"))

    def points(self) -> tuple[tuple[int, int], ...]:
        return _points(self.start, self.steps)

    def east_steps(self) -> list[tuple[int, int]]:
        """Start points (x, y) of the eastward steps, in path order."""
        x, y = self.start
        out = []
        for s in self.steps:
            if s == "E":
                out.append((x, y))
                x += 1
            else:
                y += 1
        return out

    def to_text(self) -> str:
        return f"({self.start[0]},{self.start[1]}):{self.steps}"


# bounded: the h-path tables read each of their paths' points once, while the
# resolution maps probe the few paths of one tuple many times
@lru_cache(maxsize=256)
def _points(start: tuple[int, int], steps: str) -> tuple[tuple[int, int], ...]:
    x, y = start
    pts = [(x, y)]
    for s in steps:
        if s == "E":
            x += 1
        else:
            y += 1
        pts.append((x, y))
    return tuple(pts)


def parse_path(text: str) -> Path:
    head, _, steps = text.partition(":")
    x, y = head.strip("()").split(",")
    return Path((int(x), int(y)), steps)


def band(t: AlgType) -> tuple[int, int]:
    """(bottom, top) heights of the type's path band."""
    return (0, t.rank) if t.family == "A" else (-t.rank, t.rank)


def enumerate_hpaths(t: AlgType, u: tuple[int, int], v: tuple[int, int]) -> list[Path]:
    """All h-paths of the type from u to v (empty if unreachable)."""
    bot, top = band(t)
    if u[1] != bot or v[1] != top:
        return []
    r, m = v[0] - u[0], v[1] - u[1]
    if r < 0:
        return []
    out = []
    fam = t.family

    def rec(prefix: list[str], x: int, y: int, zero_easts: int):
        if x == v[0] and y == v[1]:
            out.append(Path(u, "".join(prefix)))
            return
        if x < v[0]:
            ze = zero_easts + (1 if y == 0 else 0)
            if not (fam == "B" and ze > 1):
                prefix.append("E")
                rec(prefix, x + 1, y, ze)
                prefix.pop()
        if y < v[1]:
            # leaving height 0 with an odd east count is dead for C
            if not (fam == "C" and y == 0 and zero_easts % 2 == 1):
                prefix.append("N")
                rec(prefix, x, y + 1, zero_easts)
                prefix.pop()

    rec([], u[0], u[1], 0)
    return out


def east_labels(t: AlgType, p: Path) -> list[tuple[int, int]]:
    """(letter, spectral shift) for each east step, in path order."""
    n = t.rank
    fam = t.family
    out = []
    zero_seen = 0
    for x, y in p.east_steps():
        if fam == "A":
            letter = y + 1
            shift = 2 * x
        elif fam == "B":
            letter = n + 1 + y if y < 0 else (0 if y == 0 else -(n + 1 - y))
            shift = 4 * x
        else:  # C
            if y < 0:
                letter = n + 1 + y
            elif y > 0:
                letter = -(n + 1 - y)
            else:
                zero_seen += 1
                letter = -n if zero_seen % 2 == 1 else n
            shift = 2 * x
        out.append((letter, shift))
    return out


def path_weight(t: AlgType, p: Path, a_offset: int = 0) -> RingElem:
    return z_product(t, [(letter, shift + a_offset) for letter, shift in east_labels(t, p)])


# ---------------------------------------------------------------------------
# Paths as bitmask records; pair classification


class _Rec(NamedTuple):
    """A path in a frame: its point set as a bitmask, its leftmost x at
    height 0 (None if it never gets there), its end x and its packed weight
    key (0 where no weight is needed)."""

    path: Path
    mask: int
    zx: int | None
    vx: int
    key: int


def _rec(p: Path, x0: int, y0: int, h: int, key: int = 0) -> _Rec:
    """The record of p in the frame with origin (x0, y0) and h heights."""
    pts = p.points()
    mask = 0
    for x, y in pts:
        mask |= 1 << ((x - x0) * h + y - y0)
    zx = next((x for x, y in pts if y == 0), None)
    return _Rec(p, mask, zx, pts[-1][0], key)


def _zero_row(x0: int, x1: int, y0: int, h: int) -> int:
    """The bits of the points (x, 0), x0 <= x <= x1, in a frame."""
    if not 0 <= -y0 < h:
        return 0
    return sum(1 << ((x - x0) * h - y0) for x in range(x0, x1 + 1))


def _classes(fam: str, mask: int, zx: int | None, recs, zero: int) -> tuple[int, int]:
    """Bitmasks over recs of the paths disjoint from, and specially
    intersecting, the path with this mask and height-0 x; the others
    intersect it ordinarily.  All are in one frame whose height-0 bits are
    zero.  A meeting at height 0 only is special for B, and for C (and D)
    when the leftmost height-0 x's also differ by an odd number."""
    disjoint = special = 0
    off_axis = ~zero
    for d, b in enumerate(recs):
        common = mask & b.mask
        if not common:
            disjoint |= 1 << d
        elif fam != "A" and not common & off_axis and (fam == "B" or (zx - b.zx) % 2):
            special |= 1 << d
    return disjoint, special


def _classify(fam: str, a: _Rec, b: _Rec, zero: int) -> str:
    disjoint, special = _classes(fam, a.mask, a.zx, (b,), zero)
    return "disjoint" if disjoint else "specially" if special else "ordinarily"


def _transposed(x1: int, v1: int, x2: int, v2: int) -> bool:
    """Paths from x1 to v1 and from x2 to v2 have opposite start and end
    orders."""
    return (x1 - x2) * (v1 - v2) < 0


def _bare_records(paths) -> tuple[list[_Rec], int]:
    """Records of arbitrary paths in a frame that spans them all, and the
    frame's height-0 bits."""
    ends = [p.end for p in paths]
    x0 = min(p.start[0] for p in paths)
    y0 = min(p.start[1] for p in paths)
    h = max(y for _x, y in ends) - y0 + 1
    recs = [_rec(p, x0, y0, h) for p in paths]
    return recs, _zero_row(x0, max(x for x, _y in ends), y0, h)


def _bare_transposed(a: _Rec, b: _Rec) -> bool:
    return _transposed(a.path.start[0], a.vx, b.path.start[0], b.vx)


def classify_pair(t: AlgType, p: Path, q: Path) -> str:
    """'disjoint', 'specially' or 'ordinarily'."""
    (a, b), zero = _bare_records((p, q))
    return _classify(t.family, a, b, zero)


def is_transposed(t: AlgType, p: Path, q: Path) -> bool:
    """For non-ordinarily-intersecting pairs: opposite start-x/end-x orders.
    An ordinarily intersecting pair raises ValueError."""
    (a, b), zero = _bare_records((p, q))
    if _classify(t.family, a, b, zero) == "ordinarily":
        raise ValueError(f"{p.to_text()} and {q.to_text()} intersect ordinarily in {t}")
    return _bare_transposed(a, b)


# ---------------------------------------------------------------------------
# The h-path table


def _key_base(t: AlgType) -> int:
    """The least spectral shift in the image of any letter at shift 0: the
    base of the weight keys of paths that start at x = 0 and of tableau rows
    placed from column 0 (0 if no letter has a factor, as for A0)."""
    return min((s for c in letters(t) for _i, s, _e in _f_factors(t, c)), default=0)


@lru_cache(maxsize=None)
def _hpath_table(t: AlgType, r: int, w: int) -> tuple[int, int, tuple[_Rec, ...]]:
    """(w', b, records) of the h-paths from (0, bot) to (r, top), in
    enumeration order.  Each record is in the frame with origin (0, bot)
    and the band's height; its key packs the path's weight in the layout
    (_key_base(t), t.rank, w'), where w' is the larger of w and the width
    the weights need, and b bounds every exponent of a weight."""
    bot, top = band(t)
    paths = enumerate_hpaths(t, (0, bot), (r, top))
    weights = [path_weight(t, p) for p in paths]
    b = max((x._b for x in weights), default=0)
    w = max(w, _width(b))
    lo, n, h = _key_base(t), t.rank, top - bot + 1
    recs = []
    for p, x in zip(paths, weights):
        (key,) = _recode(x, lo, n, w)
        recs.append(_rec(p, 0, bot, h, key))
    return w, b, tuple(recs)


# ---------------------------------------------------------------------------
# Tuples


def _sign(pi: tuple[int, ...]) -> int:
    sgn = 1
    seen = [False] * len(pi)
    for i in range(len(pi)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = pi[j]
            clen += 1
        if clen % 2 == 0:
            sgn = -sgn
    return sgn


class PathTuple(NamedTuple):
    paths: tuple[Path, ...]
    pi: tuple[int, ...]  # pi[i] = destination index (0-based) of row i's path
    shape: SkewShape

    def sign(self) -> int:
        return _sign(self.pi)

    def weight(self, t: AlgType, a_offset: int = 0) -> RingElem:
        return z_product(
            t, [(letter, shift + a_offset) for p in self.paths for letter, shift in east_labels(t, p)]
        )

    def transposed_pairs(self, t: AlgType) -> list[tuple[int, int]]:
        if not self.paths:
            return []
        recs, zero = _bare_records(self.paths)
        return [
            (i, j)
            for (i, a), (j, b) in itertools.combinations(enumerate(recs), 2)
            if _classify(t.family, a, b, zero) != "ordinarily" and _bare_transposed(a, b)
        ]

    def to_json_obj(self) -> dict:
        return {
            "paths": [p.to_text() for p in self.paths],
            "pi": [i + 1 for i in self.pi],
        }


def endpoints(t: AlgType, s: SkewShape) -> tuple[list, list]:
    bot, top = band(t)
    l = len(s.lam)
    us = [(s.mu[i] + 1 - i, bot) for i in range(1, l + 1)]
    vs = [(s.lam[i] + 1 - i, top) for i in range(1, l + 1)]
    return us, vs


class _Frame:
    """The h-path tables of a shape's endpoint pairs, read in place.

    cands[i][j] is the table of the paths from us[i] to vs[j], kept in its
    own frame (origin (0, bot)).  A path of row i seen from row k lies
    ux[i] - ux[k] further east: its mask shifts by that many columns of h
    bits and its height-0 x by that much.  Its weight key shifts by
    kshift[i], into the shape's layout (lo, t.rank, w), in which w holds
    the exponents of any tuple.
    """

    def __init__(self, t: AlgType, s: SkewShape):
        if t.family not in ("A", "B", "C"):
            raise ValueError(f"the path model covers types A, B and C, not {t}")
        self.t, self.s = t, s
        us, vs = endpoints(t, s)
        self.us = us
        bot, top = band(t)
        self.h = top - bot + 1
        self.ux = [u[0] for u in us]
        widths = [[v[0] - u[0] for v in vs] for u in us]

        def tables(w: int) -> list[list]:
            return [[_hpath_table(t, r, w) if r >= 0 else None for r in row] for row in widths]

        tabs = tables(_W0)
        self.bound = sum(max((tab[1] for tab in row if tab), default=0) for row in tabs)
        self.w = w = _width(self.bound)
        if any(tab[0] != w for row in tabs for tab in row if tab):
            tabs = tables(w)
        self.cands = [[tab[2] if tab else () for tab in row] for row in tabs]
        x0 = min(self.ux, default=0)
        f = 4 if t.family == "B" else 2
        self.lo = _key_base(t) + f * x0
        self.kshift = [w * t.rank * f * (x - x0) for x in self.ux]
        self.zero = _zero_row(0, max((r for row in widths for r in row), default=0), bot, self.h)

    def _classes(self, i: int, a: _Rec, k: int, recs) -> tuple[int, int]:
        d = self.ux[i] - self.ux[k]
        return _classes(self.t.family, a.mask << (d * self.h), a.zx + d, recs, self.zero)

    # Pair tests: the bitmask of row k's candidates recs that may follow the
    # candidate a of row i.

    def disjoint(self, i: int, a: _Rec, k: int, recs) -> int:
        return self._classes(i, a, k, recs)[0]

    def no_ordinary(self, i: int, a: _Rec, k: int, recs) -> int:
        disjoint, special = self._classes(i, a, k, recs)
        return disjoint | special

    def untransposed(self, i: int, a: _Rec, k: int, recs) -> int:
        # all of recs end at one x
        if _transposed(self.ux[i], self.ux[i] + a.vx, self.ux[k], self.ux[k] + recs[0].vx):
            return 0
        return self.no_ordinary(i, a, k, recs)

    def surviving(self):
        return self.tuples(self.disjoint if self.t.family == "A" else self.no_ordinary)

    def path_tuple(self, pi: tuple[int, ...], recs) -> PathTuple:
        return PathTuple(tuple(Path(u, a.path.steps) for u, a in zip(self.us, recs)), pi, self.s)

    def transposed_count(self, recs) -> int:
        ends = [(x, x + a.vx) for x, a in zip(self.ux, recs)]
        return sum(_transposed(*e1, *e2) for e1, e2 in itertools.combinations(ends, 2))

    def tuples(self, fits, adjacent_only: bool = False):
        """(pi, records) of every tuple whose row i runs from us[i] to
        vs[pi[i]] and whose pairs of rows i < k pass fits(i, a, k, recs), a
        pair test (see above; adjacent rows only with adjacent_only), in
        the order of the search: permutations in lexicographic order, then
        each row's candidates in table order.  The bitmasks of fits are kept
        per candidate and later list, and a choice that leaves a later row
        without a candidate is cut at once.
        """
        l = len(self.cands)
        memo: dict = {}
        for pi in itertools.permutations(range(l)):
            lists = [self.cands[i][pi[i]] for i in range(l)]
            if not all(lists):
                continue
            if l < 2:
                for recs in itertools.product(*lists):
                    yield pi, recs
                continue
            yield from _search(pi, lists, fits, adjacent_only, memo)

    def signed_sum(self, found, a_offset: int = 0) -> RingElem:
        """The sum of sign(pi) * weight over (pi, records): the keys of each
        tuple added into one dict with the sign as coefficient."""
        acc: dict = {}
        get = acc.get
        signs: dict = {}
        kshift = self.kshift
        for pi, recs in found:
            sgn = signs.get(pi)
            if sgn is None:
                sgn = signs[pi] = _sign(pi)
            key = 0
            for a, sh in zip(recs, kshift):
                key += a.key << sh
            acc[key] = get(key, 0) + sgn
        keys = {k: c for k, c in acc.items() if c}
        return RingElem._make(keys, self.lo + a_offset, self.t.rank, self.w, self.bound)


def _search(pi, lists, fits, adjacent_only, memo):
    """Depth-first search over one candidate per row, in list order.
    memo[(i, pi[i], c, k, pi[k])] is fits for candidate c of row i against
    row k's list."""
    l = len(lists)
    chosen: list = [None] * l

    def allowed_after(i: int, c: int, k: int) -> int:
        key = (i, pi[i], c, k, pi[k])
        m = memo.get(key)
        if m is None:
            m = memo[key] = fits(i, lists[i][c], k, lists[k])
        return m

    def rec(i: int, allowed: tuple):
        m, rest = allowed[0], allowed[1:]
        while m:
            low = m & -m
            m ^= low
            c = low.bit_length() - 1
            chosen[i] = lists[i][c]
            if not rest:
                yield pi, tuple(chosen)
                continue
            nxt = tuple(
                mk & allowed_after(i, c, k) if k == i + 1 or not adjacent_only else mk
                for k, mk in enumerate(rest, i + 1)
            )
            if all(nxt):
                yield from rec(i + 1, nxt)

    yield from rec(0, tuple((1 << len(c)) - 1 for c in lists))


def nonintersecting_tuples(t: AlgType, s: SkewShape) -> list[PathTuple]:
    """P(A_n; mu, lambda): no intersecting pair at all."""
    frame = _Frame(t, s)
    return [frame.path_tuple(*x) for x in frame.tuples(frame.disjoint)]


def no_ordinary_tuples(t: AlgType, s: SkewShape) -> list[PathTuple]:
    """P(B_n/C_n; mu, lambda): no ordinarily intersecting pair."""
    frame = _Frame(t, s)
    return [frame.path_tuple(*x) for x in frame.tuples(frame.no_ordinary)]


def _require_C(t: AlgType, name: str) -> None:
    if t.family != "C":
        raise ValueError(f"{name} is defined for type C only, not {t}")


def p_k_tuples(t: AlgType, s: SkewShape) -> dict[int, list[PathTuple]]:
    """The decomposition of the no-ordinary set by number of transposed pairs."""
    _require_C(t, "p_k_tuples")
    frame = _Frame(t, s)
    out: dict[int, list[PathTuple]] = {}
    for pi, recs in frame.tuples(frame.no_ordinary):
        out.setdefault(frame.transposed_count(recs), []).append(frame.path_tuple(pi, recs))
    return out


def p_tilde(t: AlgType, s: SkewShape) -> list[PathTuple]:
    """Tuples with no adjacent pair ordinarily intersecting or transposed."""
    _require_C(t, "p_tilde")
    frame = _Frame(t, s)
    return [frame.path_tuple(*x) for x in frame.tuples(frame.untransposed, adjacent_only=True)]


def surviving_tuples_with_sum(t: AlgType, s: SkewShape, a_offset: int = 0) -> tuple[list[PathTuple], RingElem]:
    """The surviving tuples and their signed sum, from one enumeration."""
    frame = _Frame(t, s)
    found = list(frame.surviving())
    return [frame.path_tuple(*x) for x in found], frame.signed_sum(found, a_offset)


def signed_path_sum(t: AlgType, s: SkewShape, a_offset: int = 0) -> RingElem:
    """The cancellation-free signed sum over the type's surviving tuple class."""
    frame = _Frame(t, s)
    return frame.signed_sum(frame.surviving(), a_offset)
