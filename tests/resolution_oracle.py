"""The resolution maps built from point lists, kept as the oracle of the
splices in ``qjt.resolutions``.

Each new path is a list of points (a prefix of one path, a joint, a suffix
of another) turned back into steps; a list that is not a path of unit steps
is not applicable.  The bodies are those of the library before it spliced
step strings, with the points walked off the steps by the tests' ``walk``
and pairs classified by the tests' ``_ref_classify``; the probes,
``retuple`` and omega are the library's.
"""

from __future__ import annotations

from qjt.paths import Path, PathTuple, _transposed
from qjt.resolutions import (
    NotApplicable,
    _common,
    _index,
    _leftmost,
    _on,
    _pt_add,
    _rightmost,
    crossing_markers,
    default_center,
    omega,
    retuple,
)
from qjt.ring import AlgType

from test_paths import _ref_classify, walk


def _prefix_points(p: Path, pt) -> list:
    return walk(p)[: _index(p, pt) + 1]


def _suffix_points(p: Path, pt) -> list:
    return walk(p)[_index(p, pt) :]


def _east_run(a, b) -> list:
    if a[1] != b[1] or b[0] < a[0]:
        raise NotApplicable(f"no east run {a} -> {b}")
    return [(x, a[1]) for x in range(a[0] + 1, b[0] + 1)]


def _path_from_points(pts) -> Path:
    steps = []
    for m in range(len(pts) - 1):
        dx, dy = pts[m + 1][0] - pts[m][0], pts[m + 1][1] - pts[m][1]
        if (dx, dy) == (1, 0):
            steps.append("E")
        elif (dx, dy) == (0, 1):
            steps.append("N")
        else:
            raise NotApplicable(f"not a unit step: {pts[m]} -> {pts[m + 1]}")
    return Path(pts[0], "".join(steps))


def r_y_pair(t: AlgType, p1: Path, p2: Path, y: int) -> tuple:
    """Resolve the pair along heights ±y (y >= 1) or 0 (see r_0 cases)."""
    ends = (p1.start[0], p1.end[0], p2.start[0], p2.end[0])
    if y == 0 and _ref_classify(t, p1, p2) == "specially" and _transposed(*ends):
        return _r0_transposed(p1, p2)
    w1 = _leftmost(p1, -y)
    w2 = _rightmost(p2, y)
    w1s = _pt_add(w1, (-y - 1, 2 * y))
    w2s = _pt_add(w2, (y + 1, -2 * y))
    if not (_on(p2, w1s) and _on(p1, w2s)):
        raise NotApplicable("condition on w1*, w2* fails")
    below1 = _pt_add(w1, (0, -1))
    p1n = (
        _prefix_points(p1, below1)
        + _east_run(below1, _pt_add(w2s, (0, -1)))
        + _suffix_points(p1, w2s)
    )
    above2 = _pt_add(w2, (0, 1))
    p2n = (
        _prefix_points(p2, w1s)
        + [_pt_add(w1s, (0, 1))]
        + _east_run(_pt_add(w1s, (0, 1)), above2)
        + _suffix_points(p2, above2)[1:]
    )
    return _path_from_points(p1n), _path_from_points(p2n)


def _r0_transposed(p1: Path, p2: Path) -> tuple:
    zero = sorted(_common(p1, p2))
    u, v = zero[0], zero[-1]
    if not u[1] == v[1] == 0:
        raise NotApplicable(f"common points {zero} are not all at height 0")
    if not (_on(p1, _pt_add(u, (0, -1))) and _on(p2, _pt_add(u, (-1, 0)))):
        raise NotApplicable("crossing orientation differs from the assumed one")
    p1n = (
        _prefix_points(p1, _pt_add(u, (0, -1)))
        + _east_run(_pt_add(u, (0, -1)), _pt_add(v, (1, -1)))
        + [_pt_add(v, (1, 0))]
        + _suffix_points(p2, _pt_add(v, (1, 0)))[1:]
    )
    p2n = (
        _prefix_points(p2, _pt_add(u, (-1, 0)))
        + [_pt_add(u, (-1, 1))]
        + _east_run(_pt_add(u, (-1, 1)), _pt_add(v, (0, 1)))
        + _suffix_points(p1, _pt_add(v, (0, 1)))[1:]
    )
    return _path_from_points(p1n), _path_from_points(p2n)


def r_y(t: AlgType, pt: PathTuple, i: int, j: int, y: int) -> PathTuple:
    """Apply the pair map to rows i < j (1-based) of the tuple."""
    paths = list(pt.paths)
    pi, pj = paths[i - 1], paths[j - 1]
    paths[i - 1], paths[j - 1] = r_y_pair(t, pi, pj, y)
    return retuple(t, pt.shape, paths)


def g_map(t: AlgType, pt: PathTuple) -> PathTuple:
    """Straighten a doubly-crossed three-row tuple into the adjacent-pair
    constrained class without changing weight or sign."""
    p1, p2, p3 = pt.paths
    u, u_, v, v_ = crossing_markers(t, pt)
    if not (_on(p2, u_) and _on(p1, v_)):
        raise NotApplicable("crossing corners not on the expected rows")
    p1n = _prefix_points(p1, v_) + [_pt_add(v_, (0, 1))] + _suffix_points(
        p3, _pt_add(v_, (0, 1))
    )[1:]
    p2n = _prefix_points(p2, v) + _east_run(v, u) + _suffix_points(p1, u)[1:]
    p3n = (
        _prefix_points(p3, _pt_add(u_, (0, -1)))
        + [u_]
        + _suffix_points(p2, u_)[1:]
    )
    return retuple(t, pt.shape, [_path_from_points(x) for x in (p1n, p2n, p3n)])


def f2_13(t: AlgType, pt: PathTuple) -> PathTuple:
    """Resolve the (1,3) transposed pair of a doubly-crossed tuple that is
    not in the g-map domain; lands in the (2,3)-transposed class."""
    p1, p2, p3 = pt.paths
    u = min(_common(p1, p3))
    u_ = _pt_add(u, (-1, 1))
    paths = list(pt.paths)
    paths[0], paths[2] = _r0_transposed(p1, p3)
    out = retuple(t, pt.shape, paths)
    if not any(_on(p, u_) for p in pt.paths):
        return out
    return r_y(t, out, 1, 2, 1)


def f2_23(t: AlgType, pt: PathTuple, xhat2: int | None = None) -> PathTuple:
    if xhat2 is None:
        xhat2 = default_center(pt.shape)
    return omega(t, f2_13(t, omega(t, pt, xhat2)), xhat2)


def f1_12(t: AlgType, pt: PathTuple) -> PathTuple:
    """Resolve the (1,2) transposed pair of a singly-crossed tuple; lands in
    the crossing-free class."""
    p1, p2, p3 = pt.paths
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


def f1_23(t: AlgType, pt: PathTuple, xhat2: int | None = None) -> PathTuple:
    if xhat2 is None:
        xhat2 = default_center(pt.shape)
    return omega(t, f1_12(t, omega(t, pt, xhat2)), xhat2)
