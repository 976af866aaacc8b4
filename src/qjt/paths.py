"""Lattice h-paths, labelings, tuples, and signed path sums.

A path is a start point plus a string of N/E unit steps; x is weakly
increasing along a path, so every path stays inside the x-range of its
endpoints and no windowing is needed during enumeration.

Type bands: A runs from height 0 to n; B and C run from -n to n.  At height 0
a B-path may take at most one east step and a C-path must take an even number
of them.  For C the east steps at height 0 are labeled alternately n-bar, n.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .ring import AlgType, RingElem, z_product
from .shapes import SkewShape


class Path(NamedTuple):
    start: tuple[int, int]
    steps: str  # 'N' and 'E' characters

    @property
    def end(self) -> tuple[int, int]:
        x, y = self.start
        return (x + self.steps.count("E"), y + self.steps.count("N"))

    def points(self) -> tuple[tuple[int, int], ...]:
        x, y = self.start
        pts = [(x, y)]
        for s in self.steps:
            if s == "E":
                x += 1
            else:
                y += 1
            pts.append((x, y))
        return tuple(pts)

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


def parse_path(text: str) -> Path:
    head, _, steps = text.partition(":")
    x, y = head.strip("()").split(",")
    return Path((int(x), int(y)), steps)


@lru_cache(maxsize=200000)
def _point_set(p: Path) -> frozenset:
    return frozenset(p.points())


def band(t: AlgType) -> tuple[int, int]:
    """(bottom, top) heights of the type's path band."""
    return (0, t.rank) if t.family == "A" else (-t.rank, t.rank)


def is_valid_hpath(t: AlgType, p: Path) -> bool:
    bot, top = band(t)
    if p.start[1] != bot or p.end[1] != top:
        return False
    zero_easts = sum(1 for (_x, y) in p.east_steps() if y == 0)
    if t.family == "B":
        return zero_easts <= 1
    if t.family == "C":
        return zero_easts % 2 == 0
    return True


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
# Pair classification


def classify_pair(t: AlgType, p: Path, q: Path) -> str:
    """'disjoint', 'specially' or 'ordinarily'."""
    common = _point_set(p) & _point_set(q)
    if not common:
        return "disjoint"
    if t.family == "A":
        return "ordinarily"
    only_zero = all(y == 0 for (_x, y) in common)
    if t.family == "B":
        return "specially" if only_zero else "ordinarily"
    # C: additionally the distance of the leftmost height-0 points is odd
    if not only_zero:
        return "ordinarily"
    x1 = min(x for (x, y) in _point_set(p) if y == 0)
    x2 = min(x for (x, y) in _point_set(q) if y == 0)
    return "specially" if abs(x1 - x2) % 2 == 1 else "ordinarily"


def is_transposed(t: AlgType, p: Path, q: Path) -> bool:
    """For non-ordinarily-intersecting pairs: opposite start-x/end-x orders."""
    assert classify_pair(t, p, q) != "ordinarily"
    return (p.start[0] - q.start[0]) * (p.end[0] - q.end[0]) < 0


# ---------------------------------------------------------------------------
# Tuples


class PathTuple(NamedTuple):
    paths: tuple[Path, ...]
    pi: tuple[int, ...]  # pi[i] = destination index (0-based) of row i's path
    shape: SkewShape

    def sign(self) -> int:
        sgn = 1
        seen = [False] * len(self.pi)
        for i in range(len(self.pi)):
            if seen[i]:
                continue
            j, clen = i, 0
            while not seen[j]:
                seen[j] = True
                j = self.pi[j]
                clen += 1
            if clen % 2 == 0:
                sgn = -sgn
        return sgn

    def weight(self, t: AlgType, a_offset: int = 0) -> RingElem:
        return z_product(
            t, [(letter, shift + a_offset) for p in self.paths for letter, shift in east_labels(t, p)]
        )

    def transposed_pairs(self, t: AlgType) -> list[tuple[int, int]]:
        out = []
        for i, j in itertools.combinations(range(len(self.paths)), 2):
            pi, pj = self.paths[i], self.paths[j]
            if classify_pair(t, pi, pj) != "ordinarily" and is_transposed(t, pi, pj):
                out.append((i, j))
        return out

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


def enumerate_tuples(t: AlgType, s: SkewShape, pair_ok=None, adjacent_only=False):
    """All tuples (over all permutations pi) whose rows are valid h-paths.

    pair_ok(earlier_path, later_path) may prune partial tuples; with
    adjacent_only it is applied to adjacent rows only.  Yields PathTuples.
    """
    us, vs = endpoints(t, s)
    l = len(us)
    if l == 0:
        yield PathTuple((), (), s)
        return
    for pi in itertools.permutations(range(l)):
        cands = [enumerate_hpaths(t, us[i], vs[pi[i]]) for i in range(l)]
        if any(not c for c in cands):
            continue

        chosen: list[Path] = []

        def rec(i: int):
            if i == l:
                yield PathTuple(tuple(chosen), pi, s)
                return
            for p in cands[i]:
                if pair_ok is not None:
                    lo = i - 1 if adjacent_only else 0
                    if any(not pair_ok(chosen[j], p) for j in range(max(lo, 0), i)):
                        continue
                chosen.append(p)
                yield from rec(i + 1)
                chosen.pop()

        yield from rec(0)


def _no_intersection(t):
    return lambda p, q: classify_pair(t, p, q) == "disjoint"


def _no_ordinary(t):
    return lambda p, q: classify_pair(t, p, q) != "ordinarily"


def nonintersecting_tuples(t: AlgType, s: SkewShape) -> list[PathTuple]:
    """P(A_n; mu, lambda): no intersecting pair at all."""
    return list(enumerate_tuples(t, s, pair_ok=_no_intersection(t)))


def no_ordinary_tuples(t: AlgType, s: SkewShape) -> list[PathTuple]:
    """P(B_n/C_n; mu, lambda): no ordinarily intersecting pair."""
    return list(enumerate_tuples(t, s, pair_ok=_no_ordinary(t)))


def _require_C(t: AlgType, name: str) -> None:
    if t.family != "C":
        raise ValueError(f"{name} is defined for type C only, not {t}")


def p_k_tuples(t: AlgType, s: SkewShape) -> dict[int, list[PathTuple]]:
    """The decomposition of the no-ordinary set by number of transposed pairs."""
    _require_C(t, "p_k_tuples")
    out: dict[int, list[PathTuple]] = {}
    for pt in no_ordinary_tuples(t, s):
        out.setdefault(len(pt.transposed_pairs(t)), []).append(pt)
    return out


def p_tilde(t: AlgType, s: SkewShape) -> list[PathTuple]:
    """Tuples with no adjacent pair ordinarily intersecting or transposed."""
    _require_C(t, "p_tilde")

    def ok(p, q):
        if classify_pair(t, p, q) == "ordinarily":
            return False
        return not is_transposed(t, p, q)

    return list(enumerate_tuples(t, s, pair_ok=ok, adjacent_only=True))


def surviving_tuples(t: AlgType, s: SkewShape) -> list[PathTuple]:
    """The type's surviving tuple class: nonintersecting for A, no
    ordinarily intersecting pair otherwise."""
    return nonintersecting_tuples(t, s) if t.family == "A" else no_ordinary_tuples(t, s)


def signed_path_sum(t: AlgType, s: SkewShape, a_offset: int = 0) -> RingElem:
    """The cancellation-free signed sum over the type's surviving tuple class."""
    return RingElem.sum(pt.weight(t, a_offset).scalar_mul(pt.sign()) for pt in surviving_tuples(t, s))
