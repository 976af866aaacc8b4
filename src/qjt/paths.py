"""Lattice h-paths, labelings, tuples, and signed path sums.

A path is a start point plus a string of N/E unit steps; x is weakly
increasing along a path, so every path stays inside the x-range of its
endpoints and no windowing is needed during enumeration.

Type bands: A runs from height 0 to n; B and C run from -n to n.  At height 0
a B-path may take at most one east step and a C-path must take an even number
of them.  An east step at (x, y) reads letters(t)[y - bot] at spectral shift
2 delta x, except that C has 2n letters on 2n + 1 heights: a C step above
the axis reads one letter lower, and the C steps at height 0 read n-bar, n in
turn.  D has no path model: ``east_labels`` and ``_Frame`` refuse it.

An h-path from (ux, bot) to (vx, top) is the translate by ux of an h-path
from (0, bot) to (r, top), r = vx - ux, with the same labels and every
spectral shift moved by 2 delta ux.  So the h-paths of each (type, r)
are enumerated once, into one table (``_hpath_table``) that holds for each
path its steps, its point set as an int bitmask (bit (x - x0) * h + y - y0 for
the point (x, y) in a frame with origin (x0, y0) and h heights), its
leftmost x at height 0, and its weight as one key from ``ring.pack``.

A path's points are walked off its steps once, into one bounded cached
geometry record (``_geometry``): the points, a point -> index map, the
least and greatest x at each height, the end point, and the point mask in
the path's own frame.  ``Path.points``, the records of ``classify_pair``
and ``PathTuple.transposed_pairs`` (the mask moved into their frame) and
the probes of ``qjt.resolutions`` read it.  ``Path.end`` counts the steps
instead: most paths asked only for their end, such as the paths that a
tableau gives, are never probed, and a record would cost them more.

Two paths are disjoint when their masks share no bit, specially
intersecting when every shared bit is at height 0 (for C also the leftmost
height-0 x's differ by an odd number), and ordinarily intersecting
otherwise; the verdicts on one path against a list form one bitmask.  A
tuple enumeration (``_Frame``) reads the table of each endpoint pair (row
i, destination j) in place.  Seen from row k > i, a path of row i lies
d = ux_i - ux_k further east, and the verdicts on table path c of width
r_i, moved d east, against the table of width r_k depend only on (type,
r_i, r_k, d, c): they are built on first use and cached across shapes
(``_pair_masks``), as ``tableaux._below`` is for rows.  The depth-first
search (``_search``) yields each tuple as one index per row into its
table, with its key: every row's weight key moved by 2 delta ux_i spectral
steps through the shape's ``ring.Placement``, summed down the search.  The
tableau layer runs it over its row tables, one list with these (see
``tableaux._row_index``).  A signed path sum
adds the key of each tuple into one dict with the sign of its permutation
as the coefficient, and has the placement read the dict as one
``RingElem``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial
from operator import and_
from typing import NamedTuple

from .ring import AlgType, Placement, RingElem, delta, letters, pack, z_product
from .shapes import SkewShape


class Path(NamedTuple):
    start: tuple[int, int]
    steps: str  # 'N' and 'E' characters

    @property
    def end(self) -> tuple[int, int]:
        x, y = self.start  # counted: see the module docstring
        east = self.steps.count("E")
        return (x + east, y + len(self.steps) - east)

    def points(self) -> tuple[tuple[int, int], ...]:
        return _geometry(self).points

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


class _Geometry(NamedTuple):
    """A path's points and what is read off them.  With (x0, y0) the start,
    left[y - y0] and right[y - y0] are the least and the greatest x at
    height y, and mask has bit (x - x0) * h + y - y0 for each point (x, y),
    h being the number of heights the path spans."""

    points: tuple[tuple[int, int], ...]
    index: dict  # point -> its index in points
    left: tuple[int, ...]
    right: tuple[int, ...]
    end: tuple[int, int]
    mask: int


# bounded: the h-path tables read each of their paths once, while the
# resolution maps probe the few paths of one tuple many times
@lru_cache(maxsize=256)
def _geometry(p: Path) -> _Geometry:
    x, y = x0, y0 = p.start
    pts, left, right = [(x, y)], [x], []
    for s in p.steps:
        if s == "E":
            x += 1
        else:
            right.append(x)
            y += 1
            left.append(x)
        pts.append((x, y))
    right.append(x)
    h = y - y0 + 1
    mask = 0
    for px, py in pts:
        mask |= 1 << ((px - x0) * h + py - y0)
    return _Geometry(tuple(pts), {q: m for m, q in enumerate(pts)}, tuple(left), tuple(right), (x, y), mask)


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


def _require_model(t: AlgType, model: str) -> None:
    """Refuse type D, which the paper gives no path or tableau model."""
    if t.family not in ("A", "B", "C"):
        raise ValueError(f"the {model} model covers types A, B and C, not {t}")


def east_labels(t: AlgType, p: Path) -> list[tuple[int, int]]:
    """(letter, spectral shift) for each east step, in path order (see the
    module docstring)."""
    _require_model(t, "path")
    bot, top = band(t)
    alphabet, f, fam_c = letters(t), 2 * delta(t), t.family == "C"
    out = []
    zero_seen = 0
    for x, y in p.east_steps():
        if not bot <= y <= top:
            raise ValueError(f"{p.to_text()} leaves the band of {t}")
        i = y - bot
        if fam_c and y == 0:
            i -= zero_seen % 2
            zero_seen += 1
        elif fam_c and y > 0:
            i -= 1
        out.append((alphabet[i], f * x))
    return out


def path_weight(t: AlgType, p: Path, a_offset: int = 0) -> RingElem:
    return z_product(t, [(letter, shift + a_offset) for letter, shift in east_labels(t, p)])


# ---------------------------------------------------------------------------
# Paths as bitmask records; pair classification


class _Rec(NamedTuple):
    """A path in a frame: its point set as a bitmask, its leftmost x at
    height 0 (None if it never gets there) and its end x."""

    path: Path
    mask: int
    zx: int | None
    vx: int


def _rec(p: Path, x0: int, y0: int, h: int) -> _Rec:
    """The record of p in the frame with origin (x0, y0) and h heights: the
    geometry's mask moved there, or laid out again where p spans fewer
    heights than the frame."""
    g = _geometry(p)
    (sx, sy), (vx, vy) = p.start, g.end
    if vy - sy + 1 == h:  # then sy == y0
        mask = g.mask << (sx - x0) * h
    else:
        mask = sum(1 << ((x - x0) * h + y - y0) for x, y in g.points)
    zx = g.left[-sy] if sy <= 0 <= vy else None
    return _Rec(p, mask, zx, vx)


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
    ends = [_geometry(p).end for p in paths]
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


@lru_cache(maxsize=None)
def _hpath_table(t: AlgType, r: int) -> tuple[int, int, tuple[_Rec, ...], tuple[int, ...]]:
    """(w, b, records, keys) of the h-paths from (0, bot) to (r, top), in
    enumeration order.  Each record is in the frame with origin (0, bot)
    and the band's height; keys are the paths' weights from ``pack``, at
    width w, and b bounds every exponent of a weight."""
    bot, top = band(t)
    paths = enumerate_hpaths(t, (0, bot), (r, top))
    w, b, keys = pack(t, (path_weight(t, p) for p in paths))
    return w, b, tuple(_rec(p, 0, bot, top - bot + 1) for p in paths), keys


@lru_cache(maxsize=None)
def _pair_masks(t: AlgType, ri: int, rk: int, d: int, c: int) -> tuple[int, int]:
    """(disjoint, special) bitmasks over the h-paths of width rk of the
    paths that h-path c of width ri, moved d >= 0 columns east, misses and
    meets specially (see _classes), built on first use and cached across
    shapes: the path layer's counterpart of ``tableaux._below``."""
    bot, top = band(t)
    h = top - bot + 1
    a = _hpath_table(t, ri)[2][c]
    return _classes(t.family, a.mask << d * h, a.zx + d, _hpath_table(t, rk)[2], _zero_row(0, rk, bot, h))


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


# bounded: its callers read one shape many times in a row, while a stream of
# shapes would keep every one alive
@lru_cache(maxsize=32)
def endpoints(t: AlgType, s: SkewShape) -> tuple[tuple, tuple]:
    """The start points us and end points vs of the paths of the shape's rows."""
    bot, top = band(t)
    rows = range(1, len(s.lam) + 1)
    return tuple((s.mu[i] + 1 - i, bot) for i in rows), tuple((s.lam[i] + 1 - i, top) for i in rows)


class _Frame:
    """The h-path tables of a shape's endpoint pairs, read in place.

    cands[i][j] is the table of the paths from us[i] to vs[j], of width
    widths[i][j], kept in its own frame (origin (0, bot)).  A path of row i
    seen from row k > i lies ux[i] - ux[k] > 0 columns further east, so the
    pair tests read _pair_masks.  keys[i][j] holds the weight keys of
    cands[i][j] at the placement's width, which holds the exponents of any
    tuple; the search moves row i's keys 2 delta ux[i] spectral steps.
    made[i][j] memoizes the Path from us[i] of each index of cands[i][j]
    that path_tuple has built: a plain dict, bounded by the size of that
    table, that lives as long as the frame.
    """

    def __init__(self, t: AlgType, s: SkewShape):
        _require_model(t, "path")
        self.t, self.s = t, s
        self.us, vs = endpoints(t, s)
        self.ux = [u[0] for u in self.us]
        self.widths = widths = [[v[0] - u[0] for v in vs] for u in self.us]
        tabs = {r: _hpath_table(t, r) for row in widths for r in row if r >= 0}
        bound = sum(max((tabs[r][1] for r in row if r >= 0), default=0) for row in widths)
        self.place = place = Placement(t, bound, [2 * delta(t) * x for x in self.ux])
        # recoded where a table is packed narrower than this shape needs
        keys = {r: place.recode(w, ks) for r, (w, _b, _rs, ks) in tabs.items()}
        self.cands = [[tabs[r][2] if r >= 0 else () for r in row] for row in widths]
        self.keys = [[keys[r] if r >= 0 else () for r in row] for row in widths]
        self.made = [[{} for _ in row] for row in widths]  # c -> Path, per (row, destination)

    # Pair tests: the bitmask of row k's candidates that may follow
    # candidate c of row i < k, the rows running to vs[pi[.]].

    def _masks(self, pi, i: int, c: int, k: int) -> tuple[int, int]:
        return _pair_masks(self.t, self.widths[i][pi[i]], self.widths[k][pi[k]], self.ux[i] - self.ux[k], c)

    def disjoint(self, pi, i: int, c: int, k: int) -> int:
        return self._masks(pi, i, c, k)[0]

    def no_ordinary(self, pi, i: int, c: int, k: int) -> int:
        disjoint, special = self._masks(pi, i, c, k)
        return disjoint | special

    def untransposed(self, pi, i: int, c: int, k: int) -> int:
        ux, widths = self.ux, self.widths
        if _transposed(ux[i], ux[i] + widths[i][pi[i]], ux[k], ux[k] + widths[k][pi[k]]):
            return 0
        return self.no_ordinary(pi, i, c, k)

    def surviving(self):
        return self.tuples(self.disjoint if self.t.family == "A" else self.no_ordinary)

    def path_tuple(self, pi: tuple[int, ...], cs) -> PathTuple:
        """The tuple whose row i is path cs[i] of its table to vs[pi[i]];
        each Path is built once per frame."""
        paths = []
        for i, (j, c) in enumerate(zip(pi, cs)):
            made = self.made[i][j]
            p = made.get(c)
            if p is None:
                p = made[c] = Path(self.us[i], self.cands[i][j][c].path.steps)
            paths.append(p)
        return PathTuple(tuple(paths), pi, self.s)

    def transposed_count(self, pi) -> int:
        ends = [(x, x + ws[j]) for x, ws, j in zip(self.ux, self.widths, pi)]
        return sum(_transposed(*e1, *e2) for e1, e2 in itertools.combinations(ends, 2))

    def tuples(self, fits, adjacent_only: bool = False):
        """(pi, cs, key) of every tuple whose row i is path cs[i] of the
        table from us[i] to vs[pi[i]] and whose rows i < k pass fits(pi, i,
        c, k), a pair test (see above; adjacent rows only with
        adjacent_only), in search order: permutations in lexicographic
        order, then each row's table in order.  key is the sum of the rows'
        weight keys, each moved by the placement."""
        keys, kshift = self.keys, self.place.kshift
        return itertools.chain.from_iterable(
            _search(pi, [keys[i][j] for i, j in enumerate(pi)], kshift, partial(fits, pi), adjacent_only)
            for pi in itertools.permutations(range(len(keys)))
        )

    def signed_sum(self, found, a_offset: int = 0) -> RingElem:
        """The sum of sign(pi) * weight over (pi, cs, key): each key added
        into one dict with the sign as coefficient."""
        acc: dict = {}
        get = acc.get
        last = None
        for pi, _cs, key in found:
            if pi is not last:  # the tuples of one permutation come together
                last, sgn = pi, _sign(pi)
            acc[key] = get(key, 0) + sgn
        return self.place.elem(acc, a_offset)


def _search(pi, keys, kshift, fits, adjacent_only):
    """Depth-first search over one index per row into the table of weight
    keys keys[i], in table order: (pi, cs, key) for each index tuple cs
    whose rows i < k pass fits(i, c, k), the bitmask of row k's indices that
    may follow index c of row i (adjacent rows only with adjacent_only); key
    adds keys[i][c] << kshift[i] over the rows.  The masks that index c of
    row i leaves the later rows are kept per (i, c), and a choice that leaves
    a later row without an index is cut at once.  No rows: one empty tuple."""
    l = len(keys)
    if not l:
        yield pi, (), 0
        return
    full = tuple((1 << len(ks)) - 1 for ks in keys)
    if not all(full):
        return
    last = l - 1
    chosen: list = [None] * l
    after: list = [{} for _ in range(l)]
    allowed: list = [full] + [None] * last  # allowed[i]: masks over rows i.. that rows < i leave
    todo = [full[0]] + [0] * last  # candidates of row i not yet tried
    base = [0] * l  # key of rows < i
    i = 0
    while i >= 0:
        m = todo[i]
        if i == last:
            ks, b, sh = keys[i], base[i], kshift[i]
            while m:
                low = m & -m
                m ^= low
                c = low.bit_length() - 1
                chosen[i] = c
                yield pi, tuple(chosen), b + (ks[c] << sh)
            i -= 1
            continue
        if not m:
            i -= 1
            continue
        low = m & -m
        todo[i] = m ^ low
        c = low.bit_length() - 1
        f = after[i].get(c)
        if f is None:
            f = after[i][c] = tuple(
                fits(i, c, k) if k == i + 1 or not adjacent_only else -1 for k in range(i + 1, l)
            )
        nxt = tuple(map(and_, allowed[i][1:], f))
        if all(nxt):
            chosen[i] = c
            i += 1
            allowed[i], todo[i], base[i] = nxt, nxt[0], base[i - 1] + (keys[i - 1][c] << kshift[i - 1])


def nonintersecting_tuples(t: AlgType, s: SkewShape) -> list[PathTuple]:
    """P(A_n; mu, lambda): no intersecting pair at all."""
    frame = _Frame(t, s)
    return [frame.path_tuple(pi, cs) for pi, cs, _key in frame.tuples(frame.disjoint)]


def no_ordinary_tuples(t: AlgType, s: SkewShape) -> list[PathTuple]:
    """P(B_n/C_n; mu, lambda): no ordinarily intersecting pair."""
    frame = _Frame(t, s)
    return [frame.path_tuple(pi, cs) for pi, cs, _key in frame.tuples(frame.no_ordinary)]


def _require_C(t: AlgType, name: str) -> None:
    if t.family != "C":
        raise ValueError(f"{name} is defined for type C only, not {t}")


def p_k_tuples(t: AlgType, s: SkewShape) -> dict[int, list[PathTuple]]:
    """The decomposition of the no-ordinary set by number of transposed pairs."""
    _require_C(t, "p_k_tuples")
    frame = _Frame(t, s)
    out: dict[int, list[PathTuple]] = {}
    for pi, cs, _key in frame.tuples(frame.no_ordinary):
        out.setdefault(frame.transposed_count(pi), []).append(frame.path_tuple(pi, cs))
    return out


def p_tilde(t: AlgType, s: SkewShape) -> list[PathTuple]:
    """Tuples with no adjacent pair ordinarily intersecting or transposed."""
    _require_C(t, "p_tilde")
    frame = _Frame(t, s)
    return [frame.path_tuple(pi, cs) for pi, cs, _key in frame.tuples(frame.untransposed, adjacent_only=True)]


def surviving_tuples_with_sum(t: AlgType, s: SkewShape, a_offset: int = 0) -> tuple[list[PathTuple], RingElem]:
    """The surviving tuples and their signed sum, from one enumeration."""
    frame = _Frame(t, s)
    found = list(frame.surviving())
    return [frame.path_tuple(pi, cs) for pi, cs, _key in found], frame.signed_sum(found, a_offset)


def signed_path_sum(t: AlgType, s: SkewShape, a_offset: int = 0) -> RingElem:
    """The cancellation-free signed sum over the type's surviving tuple class."""
    frame = _Frame(t, s)
    return frame.signed_sum(frame.surviving(), a_offset)
