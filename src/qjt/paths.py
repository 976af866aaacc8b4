"""Lattice h-paths, labelings, tuples, and signed path sums.

A path is a start point plus a string of N/E unit steps; x is weakly
increasing along a path, so every path stays inside the x-range of its
endpoints and no windowing is needed during enumeration.

Type bands: A runs from height 0 to n; B and C run from -n to n.  At height 0
a B-path may take at most one east step and a C-path must take an even number
of them.  An east step at (x, y) reads letters(t)[y - bot] at spectral shift
2 delta x, except that C has 2n letters on 2n + 1 heights: a C step above
the axis reads one letter lower, and the C steps at height 0 read n-bar, n in
turn.  D has no path model: ``model_status`` refuses it.

An h-path from (ux, bot) to (vx, top) is the translate by ux of an h-path
from (0, bot) to (r, top), r = vx - ux, with the same labels and every
spectral shift moved by 2 delta ux.  So the h-paths of each (type, r) are
enumerated once, into one table (``_hpath_table``) of parallel tuples, with
no Path object: each path's steps, its point set as an int bitmask (bit
(x - x0) * h + y - y0 for the point (x, y) in a frame with origin (x0, y0)
and h heights), its leftmost x at height 0 and its word, all recorded by
the search that enumerates them, for rows of any length.  The m-th east
step of any path reads its letter at x = ux + m, so a path's labels are a
row word from 2 delta ux (the tests' step-by-step labeling is the oracle
of the table's words), and the weight keys of a table's words, at a
placement's width, are packed once by ``ring.word_keys`` (``_table_keys``).
In enumeration order the words are the rows of length r of ``qjt.tableaux``
in lexicographic alphabet order, so this one table per (type, r) serves
both layers: path i reads row word i by construction.  Every fact about a
path of a tuple is read off its entry and start x, which ``_entry`` finds
through the one index per table (``_table_index``: steps and words ->
entry), refusing any path that is no h-path; ``PathTuple.weight`` sums the
entries' keys (``_table_keys``).

The probes of ``qjt.resolutions`` walk a path's points off its steps once,
into one bounded cached geometry record per path (``_geometry``): a point
-> index map in path order and the least and greatest x at each height;
``common_points`` reads it.  The one definition of a path's end,
``Path.end``, counts the steps instead: most paths asked only for their
end, such as a tableau's paths, are never probed.

Two paths are disjoint when they share no point, specially intersecting when
every shared point is at height 0 (for C also the leftmost height-0 x's
differ by an odd number), and ordinarily intersecting otherwise.  Within the
h-path tables the verdicts on one path against a table form two bitmasks,
the one definition of where two paths meet: ``_verdict`` reads it off the
masks of the eastern path's entry at the western path's index, for
``classify_pair`` and ``PathTuple.transposed_pairs``.  A tuple enumeration
(``_Frame``) looks up the table of each row i's width vx_pi(i) - ux_i when
its search starts the permutation pi (``_Frame.rows``), and reads it in
place.  Seen from row k > i, a path of row i lies d = ux_i - ux_k further
east, and the verdicts on table path c of width r_i, moved d east, against
the table of width r_k depend only on (type, r_i, r_k, d, c)
(``_pair_masks``).  They form one mask table per (type, r_i, r_k, d)
(``_mask_table``): a list indexed by c, filled on first use and shared
across shapes and with the tableau layer, so a mask costs one list slot.
The depth-first search (``_search``) yields each tuple as one index per row
into its table, with its key: every row's weight key moved by 2 delta ux_i
spectral steps through the shape's ``ring.Placement``, summed down the
search.  A tableau is a tuple of the identity permutation whose adjacent
rows meet only as the type allows (Gessel-Viennot): the tableau layer
searches that permutation alone.  Both layers sum through one signed key
sum (``_signed_sum``): it adds the key of each tuple into one dict with the
sign of its permutation as the coefficient, +1 for every tableau, deletes a
key where it cancels, and has the placement read the dict as one
``RingElem``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial, wraps
from operator import and_, itemgetter, lshift, or_
from typing import NamedTuple

from .ring import AlgType, Placement, RingElem, delta, letters, word_keys
from .shapes import SkewShape


class Path(NamedTuple):
    start: tuple[int, int]
    steps: str  # 'N' and 'E' characters

    @property
    def end(self) -> tuple[int, int]:
        x, y = self.start  # counted: see the module docstring
        east = self.steps.count("E")
        return (x + east, y + len(self.steps) - east)

    def to_text(self) -> str:
        return f"({self.start[0]},{self.start[1]}):{self.steps}"


class _Geometry(NamedTuple):
    """What is read off a path's points.  A monotone path meets each of its
    points once, so the keys of index are the points in path order.  With
    (x0, y0) the start, left[y - y0] and right[y - y0] are the least and
    the greatest x at height y."""

    index: dict  # point -> its index along the path
    left: tuple[int, ...]
    right: tuple[int, ...]


# bounded: the resolution maps probe the few paths of one tuple many times,
# while a stream of tuples would keep every path alive
@lru_cache(maxsize=256)
def _geometry(p: Path) -> _Geometry:
    x, y = p.start
    index, left, right = {(x, y): 0}, [x], []
    for s in p.steps:
        if s == "E":
            x += 1
        else:
            right.append(x)
            y += 1
            left.append(x)
        index[x, y] = len(index)
    right.append(x)
    return _Geometry(index, tuple(left), tuple(right))


def band(t: AlgType) -> tuple[int, int]:
    """(bottom, top) heights of the type's path band."""
    return (0, t.rank) if t.family == "A" else (-t.rank, t.rank)


def model_status(t: AlgType, model: str, s: SkewShape | None = None) -> str:
    """The one table of the models the paper proves for type t on shape s
    (model: 'path', 'hv', 'rows' or 'columns'): 'proven', or 'not a
    character' for C tableaux under 'hv'.  Raises ValueError where the paper
    gives no model.  With s None only the family is read (D refused, C1
    taken): for the hot path layer and the bijection."""
    if model not in ("path", "hv", "rows", "columns"):
        raise ValueError(f"unknown model {model!r}")
    if t.family not in ("A", "B", "C"):
        raise ValueError(f"the {'path' if model == 'path' else 'tableau'} model covers types A, B and C, not {t}")
    if model == "path" or t.family != "C":
        return "proven"
    if s is not None:
        if t.rank < 2:
            raise ValueError(f"the C tableau rules need rank at least 2, not {t}")
        if model == "rows" and len(s.lam) > 3:
            raise ValueError(f"no {t} tableau rule covers {s}: more than 3 rows")
        # past column depth n + 1, chi_h is virtual and the column rules give 0
        if model == "columns" and s.depth() > t.rank + 1:
            raise ValueError(f"no {t} tableau rule covers {s}: a column of depth {s.depth()} > n + 1 = {t.rank + 1}")
        if model == "columns" and s.lam[1] > 2:
            raise ValueError(f"no {t} tableau rule covers {s}: more than 2 columns")
    return "not a character" if model == "hv" else "proven"


@lru_cache(maxsize=None)
def _reads(t: AlgType) -> tuple[tuple[int, int], ...]:
    """The letters of the east steps by height, from the band's bottom: at
    each height, the letter of an east step with an even and with an odd
    number of east steps before it at that height.  The two differ only at
    C's height 0, which reads n-bar, n in turn.  Read by the h-path search
    alone; ValueError for a type with no path model."""
    model_status(t, "path")
    alphabet = letters(t)
    reads = [(c, c) for c in alphabet]
    if t.family == "C":
        n = t.rank
        reads.insert(n, (alphabet[n], alphabet[n - 1]))
    return tuple(reads)


# ---------------------------------------------------------------------------
# Common points and transposition


def common_points(p: Path, q: Path) -> set:
    """The points that p and q share: the keys common to their geometry
    records' index maps."""
    return _geometry(p).index.keys() & _geometry(q).index.keys()


def _transposed(x1: int, v1: int, x2: int, v2: int) -> bool:
    """Paths from x1 to v1 and from x2 to v2 have opposite start and end
    orders."""
    return (x1 - x2) * (v1 - v2) < 0


# ---------------------------------------------------------------------------
# The h-path tables and the mask tables over them


class _Table(NamedTuple):
    """An h-path table (_hpath_table): entry c of each field is path c's."""

    steps: tuple[str, ...]
    masks: tuple[int, ...]  # point sets, in the frame with origin (0, bot) and the band's heights
    zx: tuple[int, ...]  # leftmost x at height 0
    words: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _hpath_table(t: AlgType, r: int) -> _Table:
    """The h-paths from (0, bot) to (r >= 0, top) as parallel tuples, from
    the one h-path search: depth first, east before north, so in the
    alphabet order of their words (the tableau layer's rows of length r).
    Its stack holds one entry per height a path reaches, so a row of any
    length is searched: each run of e east steps at height y, longest
    first, and the north step after it extend the path's steps, point
    mask, leftmost height-0 x and word.  No Path is kept."""
    bot, reads, fam = band(t)[0], _reads(t), t.family
    h, top, found = len(reads), len(reads) - 1, []
    # from (0, 0), e east steps: the points they reach, and with a north step
    runs = list(itertools.accumulate((1 << e * h for e in range(1, r + 1)), or_, initial=0))
    masks, steps = [m | 1 << e * h + 1 for e, m in enumerate(runs)], ["E" * e + "N" for e in range(r + 1)]
    words = [(pair * r)[:r] for pair in reads]  # a run of e at height y reads words[y][:e]
    todo = [(0, 0, 1, 0 if bot == 0 else None, "", ())]  # a path that has just reached height y at (x, y)
    while todo:
        x, y, mask, zx, path, word = todo.pop()
        if y == top:
            e = r - x
            found.append((path + "E" * e, mask | runs[e] << x * h + y, zx, word + words[y][:e]))
            continue
        es = range(r - x + 1)
        if y == -bot and fam == "B":  # one east step at height 0
            es = es[:2]
        elif y == -bot and fam == "C":  # an even number there
            es = es[::2]
        at, ws, y = x * h + y, words[y], y + 1
        for e in es:  # the longest run is pushed last, so searched first
            z = x + e
            todo.append((z, y, mask | masks[e] << at, z if y == -bot else zx, path + steps[e], word + ws[:e]))
    return _Table(*map(tuple, zip(*found)))


@lru_cache(maxsize=None)
def _table_keys(t: AlgType, r: int, w: int) -> tuple[int, ...]:
    """The weight keys of the words of _hpath_table(t, r), at width w."""
    return word_keys(t, w, _hpath_table(t, r).words)


@lru_cache(maxsize=None)
def _table_index(t: AlgType, r: int) -> tuple[dict, dict]:
    """(steps -> index, word -> index) over _hpath_table(t, r): the one index
    of a table, for the path weights and verdicts and the bijection."""
    table = _hpath_table(t, r)
    return {steps: c for c, steps in enumerate(table.steps)}, {word: c for c, word in enumerate(table.words)}


def _entry(t: AlgType, p: Path) -> tuple[int, int, int]:
    """(width, index, x) of p: entry index of the h-path table of its width,
    moved x = p's start x east.  ValueError for a path that is no h-path of
    t, and through the table for a type with no path model."""
    (bot, top), r = band(t), p.steps.count("E")
    # a path off the band's span is refused before a table of its width is built
    c = _table_index(t, r)[0].get(p.steps) if p.start[1] == bot and len(p.steps) - r == top - bot else None
    if c is None:
        raise ValueError(f"{p.to_text()} is no h-path of {t}")
    return r, c, p.start[0]


def _mask_table(build):
    """build(t, la, lb, off, c), a mask over the table of width lb for
    entry c of the table of width la, off columns apart, cached per table:
    one slot list per (t, la, lb, off), indexed by c, filled on first use
    and shared across shapes.  cache_clear empties every list."""
    slots = lru_cache(maxsize=None)(lambda t, la, lb, off: [None] * len(_hpath_table(t, la).steps))

    @wraps(build)
    def mask(t: AlgType, la: int, lb: int, off: int, c: int):
        table = slots(t, la, lb, off)
        m = table[c]
        if m is None:
            m = table[c] = build(t, la, lb, off, c)
        return m

    mask.cache_clear = slots.cache_clear
    return mask


@_mask_table
def _pair_masks(t: AlgType, ri: int, rk: int, d: int, c: int) -> tuple[int, int]:
    """(disjoint, special) bitmasks over the h-paths of width rk of the
    paths that h-path c of width ri, moved d >= 0 columns east, misses and
    meets specially; it meets the others ordinarily.  A meeting at height
    0 only is special for B, and for C when the leftmost height-0 x's also
    differ by an odd number.  With d >= 1 they are also the vertical rule
    of the tableau rows, whose search runs the frame's pair tests."""
    bot, top = band(t)
    h, fam, a, b = top - bot + 1, t.family, _hpath_table(t, ri), _hpath_table(t, rk)
    mask, zx = a.masks[c] << d * h, a.zx[c] + d
    off_axis = ~sum(1 << (x * h - bot) for x in range(rk + 1))  # all but the height-0 bits
    disjoint = special = 0
    for e, (m, x) in enumerate(zip(b.masks, b.zx)):
        common = mask & m
        if not common:
            disjoint |= 1 << e
        elif fam != "A" and not common & off_axis and (fam == "B" or (zx - x) % 2):
            special |= 1 << e
    return disjoint, special


def _verdict(t: AlgType, a: tuple[int, int, int], b: tuple[int, int, int]) -> str:
    """'disjoint', 'specially' or 'ordinarily' for the paths of entries a, b
    (_entry): the eastern one's pair masks, read at the western one's index."""
    (west, c, x), (east, e, z) = (a, b) if a[2] <= b[2] else (b, a)
    disjoint, special = _pair_masks(t, east, west, z - x, e)
    return "disjoint" if disjoint >> c & 1 else "specially" if special >> c & 1 else "ordinarily"


def classify_pair(t: AlgType, p: Path, q: Path) -> str:
    """The verdict on p and q (_verdict).  ValueError for a path that is no
    h-path of t (_entry)."""
    return _verdict(t, _entry(t, p), _entry(t, q))


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
        """The product of the paths' words: their entries' keys (_entry,
        _table_keys), path i's moved 2 delta x_i by a Placement, summed."""
        place = Placement(t, [2 * delta(t) * p.start[0] for p in self.paths])
        keys = (_table_keys(t, r, place.w)[c] for r, c, _x in (_entry(t, p) for p in self.paths))
        return place.elem({sum(map(lshift, keys, place.kshift)): 1}, a_offset)

    def transposed_pairs(self, t: AlgType) -> list[tuple[int, int]]:
        """The transposed pairs (i, j), i < j, that do not intersect
        ordinarily, read off each path's entry (_entry, looked up once) by
        _verdict.  ValueError for a path that is no h-path of t."""
        model_status(t, "path")
        entries = [_entry(t, p) for p in self.paths]
        return [
            (i, j)
            for (i, a), (j, b) in itertools.combinations(enumerate(entries), 2)
            if _transposed(a[2], a[2] + a[0], b[2], b[2] + b[0]) and _verdict(t, a, b) != "ordinarily"
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

    Row i's path runs from us[i] = (ux[i], bot) to vs[pi[i]]: a path of the
    h-path table of width vx[pi[i]] - ux[i] in its own frame (origin (0,
    bot)).  rows(pi), the one place a frame's rows come from, looks up the
    tables and weight keys of a permutation's rows when the search starts
    it; the keys are packed at the placement's width, which holds the
    exponents of any tuple, and the search moves row i's 2 delta ux[i]
    spectral steps.  A path of row i seen from row k > i lies ux[i] - ux[k]
    > 0 columns further east, so the pair tests read _pair_masks.  made
    memoizes each Path that path_tuple builds, by (row, destination, index):
    a plain dict, bounded by the tables' sizes.
    """

    def __init__(self, t: AlgType, s: SkewShape):
        model_status(t, "path")
        self.t, self.s = t, s
        self.us, vs = endpoints(t, s)
        self.ux, self.vx = [u[0] for u in self.us], [v[0] for v in vs]
        self.place = Placement(t, [2 * delta(t) * x for x in self.ux])
        self.made: dict = {}  # (row, destination, index) -> Path

    def rows(self, pi):
        """(widths, tables, keys) of the rows to vs[pi[.]]: row i's width
        vx[pi[i]] - ux[i], its h-path table and the table's weight keys at
        the placement's width; None where a row ends west of its start."""
        widths = [self.vx[j] - x for x, j in zip(self.ux, pi)]
        if min(widths, default=0) < 0:
            return None
        t, w = self.t, self.place.w
        return widths, [_hpath_table(t, r) for r in widths], [_table_keys(t, r, w) for r in widths]

    # Pair tests: the bitmask of row k's candidates that may follow
    # candidate c of row i < k, the rows of widths ws.

    def _masks(self, ws, i: int, c: int, k: int) -> tuple[int, int]:
        return _pair_masks(self.t, ws[i], ws[k], self.ux[i] - self.ux[k], c)

    def disjoint(self, ws, i: int, c: int, k: int) -> int:
        return self._masks(ws, i, c, k)[0]

    def no_ordinary(self, ws, i: int, c: int, k: int) -> int:
        """The surviving tuples' pair test: disjoint for A, where no meeting
        is special, and no ordinary meeting for B and C."""
        disjoint, special = self._masks(ws, i, c, k)
        return disjoint | special

    def untransposed(self, ws, i: int, c: int, k: int) -> int:
        ux = self.ux
        if _transposed(ux[i], ux[i] + ws[i], ux[k], ux[k] + ws[k]):
            return 0
        return self.no_ordinary(ws, i, c, k)

    def path_tuple(self, pi: tuple[int, ...], cs) -> PathTuple:
        """The tuple whose row i is path cs[i] of its table to vs[pi[i]];
        each Path is built once per frame."""
        made, paths = self.made, []
        for i, (j, c) in enumerate(zip(pi, cs)):
            p = made.get((i, j, c))
            if p is None:
                u = self.us[i]
                p = made[i, j, c] = Path(u, _hpath_table(self.t, self.vx[j] - u[0]).steps[c])
            paths.append(p)
        return PathTuple(tuple(paths), pi, self.s)

    def transposed_count(self, pi) -> int:
        ends = [(x, self.vx[j]) for x, j in zip(self.ux, pi)]
        return sum(_transposed(*e1, *e2) for e1, e2 in itertools.combinations(ends, 2))

    def search(self, pi, fits, adjacent_only: bool = False):
        """(pi, cs, key) of every tuple whose row i is path cs[i] of the
        table from us[i] to vs[pi[i]] and whose rows i < k pass fits(ws, i,
        c, k), a pair test (see above; adjacent rows only with
        adjacent_only), in table order.  key is the sum of the rows' weight
        keys, each moved by the placement."""
        rows = self.rows(pi)
        return () if rows is None else _search(pi, rows[2], self.place.kshift, partial(fits, rows[0]), adjacent_only)

    def tuples(self, fits, adjacent_only: bool = False):
        """The search's tuples of every permutation, in lexicographic order."""
        perms = itertools.permutations(range(len(self.ux)))
        return itertools.chain.from_iterable(self.search(pi, fits, adjacent_only) for pi in perms)


def _search(pi, keys, kshift, fits, adjacent_only):
    """Depth-first search over one index per row into the non-empty table
    of weight keys keys[i], in table order: (pi, cs, key) for each index
    tuple cs whose rows i < k pass fits(i, c, k), the bitmask of row k's
    indices that may follow index c of row i (adjacent rows only with
    adjacent_only); key adds keys[i][c] << kshift[i] over the rows.  The
    masks that index c of row i leaves the later rows are kept per (i, c),
    and a choice that leaves a later row without an index is cut at once.
    No rows: one empty tuple."""
    l = len(keys)
    if not l:
        yield pi, (), 0
        return
    full = tuple((1 << len(ks)) - 1 for ks in keys)
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


def _signed_sum(place: Placement, found, a_offset: int = 0) -> RingElem:
    """The sum of sign(pi) * weight over the (pi, cs, key) of a search placed
    by place: each key added into one dict with the sign as coefficient; a
    key leaves the dict where it cancels, and the dict is the result.  Path
    and tableau sums both run here; a tableau's pi is the identity."""
    acc: dict = {}
    get = acc.get
    last = None
    for pi, _cs, key in found:
        if pi is not last:  # the tuples of one permutation come together
            last, sgn = pi, _sign(pi)
        if v := get(key, 0) + sgn:
            acc[key] = v
        else:
            del acc[key]
    return place.elem(acc, a_offset)


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


def _three_rows(t: AlgType, pt: PathTuple, name: str) -> tuple[Path, ...]:
    """The paths of a three-row C tuple; ValueError for another type or row count."""
    _require_C(t, name)
    if len(pt.paths) != 3:
        raise ValueError(f"{name} is defined for three-row tuples only, not {len(pt.paths)} rows")
    return pt.paths


def p_k_tuples(t: AlgType, s: SkewShape) -> dict[int, list[PathTuple]]:
    """The decomposition of the no-ordinary set by number of transposed pairs."""
    _require_C(t, "p_k_tuples")
    frame = _Frame(t, s)
    out: dict[int, list[PathTuple]] = {}
    for pi, found in itertools.groupby(frame.tuples(frame.no_ordinary), itemgetter(0)):  # one count per pi
        out.setdefault(frame.transposed_count(pi), []).extend(frame.path_tuple(pi, cs) for _pi, cs, _key in found)
    return out


def p_tilde(t: AlgType, s: SkewShape) -> list[PathTuple]:
    """Tuples with no adjacent pair ordinarily intersecting or transposed."""
    _require_C(t, "p_tilde")
    frame = _Frame(t, s)
    return [frame.path_tuple(pi, cs) for pi, cs, _key in frame.tuples(frame.untransposed, adjacent_only=True)]


def surviving_tuples_with_sum(t: AlgType, s: SkewShape, a_offset: int = 0) -> tuple[list[PathTuple], RingElem]:
    """The surviving tuples and their signed sum, from one enumeration."""
    frame = _Frame(t, s)
    found = list(frame.tuples(frame.no_ordinary))
    return [frame.path_tuple(pi, cs) for pi, cs, _key in found], _signed_sum(frame.place, found, a_offset)


def signed_path_sum(t: AlgType, s: SkewShape, a_offset: int = 0) -> RingElem:
    """The cancellation-free signed sum over the type's surviving tuple class."""
    frame = _Frame(t, s)
    return _signed_sum(frame.place, frame.tuples(frame.no_ordinary), a_offset)
