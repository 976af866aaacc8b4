"""Weight-preserving resolution maps on C-type path tuples.

These maps resolve crossings of specially intersecting path pairs and are
what turns the signed path sum into a positive tableau sum: the k-transposed
classes cancel against each other except for images characterized by
explicit, checkable conditions on the surviving tuples.

All maps act on tuples of C-type h-paths; the maps and the conditions
refuse other types with ValueError.  A map may be inapplicable to a given
tuple; callers probe applicability with the `NotApplicable` exception or
the condition predicates.  The probes (a point on a path, its index, the
leftmost or rightmost point at a height) are lookups in the path's cached
geometry record (``paths._geometry``); the common points of two paths are
``paths.common_points``; ``paths.classify_pair`` reads the pair masks, so
r_0 refuses a path that is no h-path.  Each new path is spliced from step
strings (``_splice``): the steps of one path up to a point, a joint, and
the steps of another from a point on.  omega caches the rotated shape per
(shape, center).  ``retuple`` still checks the count, starts, ends and
permutation of every tuple that a map builds.
"""

from __future__ import annotations

from functools import lru_cache

from .ring import AlgType
from .shapes import Partition, SkewShape
from .paths import Path, PathTuple, _geometry, _require_C, _three_rows, _transposed
from .paths import classify_pair, common_points, endpoints


class NotApplicable(Exception):
    """The resolution map's geometric preconditions fail for this tuple."""


def _pt_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _on(p: Path, pt) -> bool:
    return pt in _geometry(p).index


def _index(p: Path, pt) -> int:
    m = _geometry(p).index.get(pt)
    if m is None:
        raise NotApplicable(f"{pt} not on path")
    return m


def _splice(p: Path, a, joint: str, q: Path, b) -> Path:
    """p up to its point a, the steps joint, then q from its point b; the
    joint must lead from a to b."""
    east = joint.count("E")
    if (a[0] + east, a[1] + len(joint) - east) != b:
        raise NotApplicable(f"steps {joint!r} do not lead from {a} to {b}")
    return Path(p.start, p.steps[: _index(p, a)] + joint + q.steps[_index(q, b) :])


def _at_height(p: Path, y: int, xs: tuple):
    """(xs[y - y0], y) for the left or right x's of p's geometry, y0 being
    the start height."""
    m = y - p.start[1]
    if not 0 <= m < len(xs):
        raise NotApplicable(f"no point of height {y}")
    return (xs[m], y)


def _leftmost(p: Path, y: int):
    return _at_height(p, y, _geometry(p).left)


def _rightmost(p: Path, y: int):
    return _at_height(p, y, _geometry(p).right)


def _common(p: Path, q: Path):
    pts = common_points(p, q)
    if not pts:
        raise NotApplicable("paths do not intersect")
    return pts


def retuple(t: AlgType, s: SkewShape, paths) -> PathTuple:
    """Assemble a PathTuple, inferring the destination permutation."""
    us, vs = endpoints(t, s)
    if len(paths) != len(us):
        raise ValueError(f"{len(paths)} paths for a shape of {len(us)} rows")
    pi = []
    for i, p in enumerate(paths):
        v = p.end
        if p.start != us[i] or v not in vs:
            raise ValueError(
                f"path {i + 1} runs {p.start} -> {v}; the shape's starts are {list(us)}, its ends {list(vs)}"
            )
        pi.append(vs.index(v))
    if len(set(pi)) < len(pi):
        raise ValueError(f"paths end at {[p.end for p in paths]}, not once at each of {list(vs)}")
    return PathTuple(tuple(paths), tuple(pi), s)


# ---------------------------------------------------------------------------
# The pair maps r_y


def r_y_pair(t: AlgType, p1: Path, p2: Path, y: int) -> tuple:
    """Resolve the pair along heights ±y (y >= 1) or 0 (see r_0 cases)."""
    _require_C(t, "r_y_pair")
    ends = (p1.start[0], p1.end[0], p2.start[0], p2.end[0])
    if y == 0 and classify_pair(t, p1, p2) == "specially" and _transposed(*ends):
        return _r0_transposed(p1, p2)
    w1 = _leftmost(p1, -y)
    w2 = _rightmost(p2, y)
    w1s = _pt_add(w1, (-y - 1, 2 * y))
    w2s = _pt_add(w2, (y + 1, -2 * y))
    if not (_on(p2, w1s) and _on(p1, w2s)):
        raise NotApplicable("condition on w1*, w2* fails")
    below1 = _pt_add(w1, (0, -1))
    above2 = _pt_add(w2, (0, 1))
    return (
        _splice(p1, below1, "E" * (w2s[0] - below1[0]) + "N", p1, w2s),
        _splice(p2, w1s, "N" + "E" * (above2[0] - w1s[0]), p2, above2),
    )


def _r0_transposed(p1: Path, p2: Path) -> tuple:
    zero = sorted(_common(p1, p2))
    u, v = zero[0], zero[-1]
    if not u[1] == v[1] == 0:
        raise NotApplicable(f"common points {zero} are not all at height 0")
    run = "E" * (v[0] - u[0] + 1)
    return (
        _splice(p1, _pt_add(u, (0, -1)), run + "N", p2, _pt_add(v, (1, 0))),
        _splice(p2, _pt_add(u, (-1, 0)), "N" + run, p1, _pt_add(v, (0, 1))),
    )


def r_y(t: AlgType, pt: PathTuple, i: int, j: int, y: int) -> PathTuple:
    """Apply the pair map to rows i < j (1-based) of the tuple."""
    _require_C(t, "r_y")
    if not 1 <= i < j <= len(pt.paths):
        raise ValueError(f"rows {i}, {j} are not 1 <= i < j <= {len(pt.paths)}")
    paths = list(pt.paths)
    pi, pj = paths[i - 1], paths[j - 1]
    paths[i - 1], paths[j - 1] = r_y_pair(t, pi, pj, y)
    return retuple(t, pt.shape, paths)


# ---------------------------------------------------------------------------
# Rotation


def omega(t: AlgType, pt: PathTuple, xhat2: int | None = None) -> PathTuple:
    """Rotate the tuple 180 degrees about (xhat2/2, 0) and reverse row order.

    xhat2 = 2*x of the center; it must satisfy xhat2 >= lam_1 - l + 1 so the
    rotated shape is a partition pair.  Conjugating a map by omega requires
    the same center on both sides.
    """
    _require_C(t, "omega")
    s = pt.shape
    if xhat2 is None:
        xhat2 = default_center(s)
    l = len(pt.paths)
    rotated = [None] * l
    for p, j in zip(pt.paths, pt.pi):
        x, y = p.end
        rotated[l - 1 - j] = Path((xhat2 - x, -y), p.steps[::-1])
    return retuple(t, _rotated(s, xhat2), rotated)


@lru_cache(maxsize=32)
def _rotated(s: SkewShape, xhat2: int) -> SkewShape:
    """The shape of a tuple of s rotated about (xhat2/2, 0); refuses a center
    left of the shape."""
    l = len(s.lam)
    if xhat2 - s.lam[1] + l - 1 < 0:
        raise ValueError(f"center xhat2 = {xhat2} is below lam_1 - l + 1 = {s.lam[1] - l + 1}")
    c = xhat2 + l - 1
    lam_new = [c - s.mu[l + 1 - j] for j in range(1, l + 1)]
    mu_new = [c - s.lam[l + 1 - j] for j in range(1, l + 1)]
    while mu_new and mu_new[-1] == 0:
        mu_new.pop()
    return SkewShape(Partition(tuple(lam_new)), Partition(tuple(mu_new)))


def default_center(s: SkewShape) -> int:
    # Large enough that the rotated pair has the same number of rows.
    l = len(s.lam)
    return max(s.lam[1] - l + 1, s.mu[1] - l + 2)


# ---------------------------------------------------------------------------
# Classification of three-row tuples


def transposed_index_pairs(t: AlgType, pt: PathTuple) -> list:
    return [(i + 1, j + 1) for (i, j) in pt.transposed_pairs(t)]


def crossing_markers(t: AlgType, pt: PathTuple):
    """(u, u', v, v') for a two-transposed-pair three-row tuple."""
    p1, p2, p3 = _three_rows(t, pt, "crossing_markers")
    u = min(_common(p1, p3))
    v = max(_common(p2, p3))
    return u, _pt_add(u, (-1, 1)), v, _pt_add(v, (1, -1))


def is_p2_cross(t: AlgType, pt: PathTuple) -> bool:
    """Whether both crossing corners lie on the tuple (the g-map domain)."""
    _three_rows(t, pt, "is_p2_cross")
    u, u_, v, v_ = crossing_markers(t, pt)
    on_u = any(_on(p, u_) for p in pt.paths)
    on_v = any(_on(p, v_) for p in pt.paths)
    return on_u and on_v


def g_map(t: AlgType, pt: PathTuple) -> PathTuple:
    """Straighten a doubly-crossed three-row tuple into the adjacent-pair
    constrained class without changing weight or sign."""
    p1, p2, p3 = _three_rows(t, pt, "g_map")
    u, u_, v, v_ = crossing_markers(t, pt)
    if not (_on(p2, u_) and _on(p1, v_)):
        raise NotApplicable("crossing corners not on the expected rows")
    paths = [
        _splice(p1, v_, "N", p3, _pt_add(v_, (0, 1))),
        _splice(p2, v, "E" * (u[0] - v[0]), p1, u),
        _splice(p3, _pt_add(u_, (0, -1)), "N", p2, u_),
    ]
    return retuple(t, pt.shape, paths)


# ---------------------------------------------------------------------------
# The crossing-resolving maps f


def f2_13(t: AlgType, pt: PathTuple) -> PathTuple:
    """Resolve the (1,3) transposed pair of a doubly-crossed tuple that is
    not in the g-map domain; lands in the (2,3)-transposed class."""
    p1, p2, p3 = _three_rows(t, pt, "f2_13")
    u = min(_common(p1, p3))
    u_ = _pt_add(u, (-1, 1))
    paths = list(pt.paths)
    paths[0], paths[2] = _r0_transposed(p1, p3)
    out = retuple(t, pt.shape, paths)
    if not any(_on(p, u_) for p in pt.paths):
        return out
    return r_y(t, out, 1, 2, 1)


def f2_23(t: AlgType, pt: PathTuple) -> PathTuple:
    _three_rows(t, pt, "f2_23")
    c = default_center(pt.shape)
    return omega(t, f2_13(t, omega(t, pt, c)), c)


def f1_12(t: AlgType, pt: PathTuple) -> PathTuple:
    """Resolve the (1,2) transposed pair of a singly-crossed tuple; lands in
    the crossing-free class."""
    p1, p2, p3 = _three_rows(t, pt, "f1_12")
    w1 = _leftmost(p1, -1)
    w1s = _pt_add(w1, (-2, 2))
    u = min(_common(p1, p2))
    u_ = _pt_add(u, (-1, 1))
    paths = list(pt.paths)
    paths[0], paths[1] = _r0_transposed(p1, p2)
    out = retuple(t, pt.shape, paths)
    if not any(_on(p, u_) for p in pt.paths):
        return out
    if _on(p3, u_) and _on(p3, w1s):
        return r_y(t, out, 1, 3, 1)
    out2 = r_y(t, out, 2, 3, 0)
    return r_y(t, out2, 1, 3, 1)


def f1_23(t: AlgType, pt: PathTuple) -> PathTuple:
    _three_rows(t, pt, "f1_23")
    c = default_center(pt.shape)
    return omega(t, f1_12(t, omega(t, pt, c)), c)


# ---------------------------------------------------------------------------
# Image conditions


def _cond_core(t: AlgType, pa: Path, pb: Path, pc: Path):
    """Shared shape of the image conditions.

    pa carries the low points (s2, s4), pb the height-1 point s1 and the k
    count, pc the height-2 point s3.  Returns 'a', 'b' or None.
    """
    s1 = _leftmost(pb, 1)
    s2 = _rightmost(pa, -1)
    s3 = _leftmost(pc, 2)
    s4 = _rightmost(pa, -2)
    s1p = _pt_add(s1, (1, -2))
    s2p = _pt_add(s2, (-1, 2))
    s3p = _pt_add(s3, (2, -4))
    s4p = _pt_add(s4, (-2, 4))
    if not _on(pb, s2p):
        return None
    k = abs(_index(pb, s2p) - _index(pb, s1))
    if k % 2 == 0:
        return None
    if _on(pa, s1p):
        return "a"
    if _on(pa, s3p) and _on(pc, s4p):
        return "b"
    return None


def condition_f2_13(t: AlgType, pt: PathTuple):
    """Image test for f2_13 on a (2,3)-transposed tuple: 'a', 'b' or None."""
    p1, p2, p3 = _three_rows(t, pt, "condition_f2_13")
    return _cond_core(t, p1, p3, p2)


def condition_f2_23(t: AlgType, pt: PathTuple):
    _three_rows(t, pt, "condition_f2_23")
    return condition_f2_13(t, omega(t, pt))


def condition_f1_12(t: AlgType, pt: PathTuple):
    """Image test for f1_12 on a crossing-free tuple: 'a', 'b1', 'b2', None."""
    p1, p2, p3 = _three_rows(t, pt, "condition_f1_12")
    res = _cond_core(t, p1, p2, p3)
    if res != "b":
        return res
    s3 = _leftmost(p3, 2)
    s3pp = _pt_add(s3, (2, -3))
    if not _on(p2, s3pp):
        return "b1"
    tt = _leftmost(p3, 1)
    tp = _pt_add(tt, (1, -2))
    if not _on(p2, tp):
        return None
    u = _rightmost(p2, -1)
    if abs(_index(p2, u) - _index(p2, tp)) % 2 == 0:
        return "b2"
    return None


def condition_f1_23(t: AlgType, pt: PathTuple):
    _three_rows(t, pt, "condition_f1_23")
    return condition_f1_12(t, omega(t, pt))
