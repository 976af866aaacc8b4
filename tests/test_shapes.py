"""Partitions, skew shapes, highest weight tableaux."""

import itertools

import pytest

from qjt.ring import make_type, y_monomial, RingElem
from qjt.shapes import (
    Partition,
    SkewShape,
    hw_monomial,
    parse_partition,
    shape,
)
from qjt.tableaux import Tableau


def all_partitions(max_size, max_len=None, max_part=None):
    """All partitions with |p| <= max_size (and optional bounds)."""
    out = [()]
    def rec(prefix, remaining, bound):
        for p in range(min(bound, remaining), 0, -1):
            if max_len is not None and len(prefix) + 1 > max_len:
                return
            out.append(prefix + (p,))
            rec(prefix + (p,), remaining - p, p)
    rec((), max_size, max_part if max_part is not None else max_size)
    seen = set()
    res = []
    for p in out:
        if (max_len is None or len(p) <= max_len) and p not in seen:
            seen.add(p)
            res.append(p)
    return res


def subpartitions(lam):
    """All mu contained in lam."""
    lam = tuple(lam)
    if not lam:
        return [()]
    ranges = [range(0, p + 1) for p in lam]
    subs = []
    for combo in itertools.product(*ranges):
        t = tuple(p for p in combo if p)
        if all(combo[i] >= combo[i + 1] for i in range(len(combo) - 1)):
            subs.append(t)
    return sorted(set(subs), reverse=True)


def test_parse_partition():
    assert parse_partition("4,3,2") == (4, 3, 2)
    assert parse_partition("") == ()
    with pytest.raises(ValueError):
        parse_partition("2,3")


def test_conjugate():
    assert Partition((4, 3, 2)).conjugate() == Partition((3, 3, 2, 1))
    assert Partition(()).conjugate() == Partition(())
    assert Partition((1, 1, 1)).conjugate() == Partition((3,))
    for p in all_partitions(8):
        assert Partition(p).conjugate().conjugate() == Partition(p)


def test_depth():
    assert shape((4, 3, 2), (2,)).depth() == 2
    assert shape((3, 1), (2,)).depth() == 1
    assert shape((1,)).depth() == 1
    assert shape(()).depth() == 0


def test_boxes_and_size():
    s = shape((3, 1), (2,))
    assert s.boxes() == [(1, 3), (2, 1)]
    assert s.size() == 2
    assert (1, 3) in s.boxes() and (1, 2) not in s.boxes()


def test_equal_shapes_hash_equal_and_share_the_shape_caches():
    # hashes are computed once, at construction: equal shapes built apart
    # (zero parts dropped) hash equal and hit the caches keyed on shapes
    from qjt.paths import endpoints
    from qjt.resolutions import _rotated

    t = make_type("C", 2)
    for lam, mu in itertools.product(all_partitions(5, 3, 3), repeat=2):
        if not Partition(lam).contains(Partition(mu)):
            continue
        s, twin = shape(lam, mu), SkewShape(Partition(lam + (0,)), Partition(tuple(mu) + (0, 0)))
        assert twin is not s and twin == s and hash(twin) == hash(s) == hash((s.lam, s.mu))
        assert Partition(lam + (0,)) == s.lam and hash(Partition(lam + (0,))) == hash(s.lam) == hash(tuple(lam))
        for cached, args in ((endpoints, (t, s)), (_rotated, (s, 2 * len(lam) + 8))):
            cached.cache_clear()
            first = cached(*args)
            assert cached(*[twin if a is s else a for a in args]) is first
            assert cached.cache_info()[:2] == (1, 1), (cached, lam, mu)
    assert shape((2, 1)) != shape((2, 1), (1,)) and shape((2,)) != Partition((2,))


def highest_weight_tableau(s):
    """The oracle for hw_monomial: box (i,j) holds the unbarred letter i - mu'_j."""
    muc = s.mu.conjugate()
    return {(i, j): i - muc[j] for (i, j) in s.boxes()}


def test_highest_weight_tableau():
    s = shape((4, 3, 2), (2,))
    hw = highest_weight_tableau(s)
    assert hw == {
        (1, 3): 1, (1, 4): 1,
        (2, 1): 1, (2, 2): 1, (2, 3): 2,
        (3, 1): 2, (3, 2): 2,
    }
    assert highest_weight_tableau(shape((1,))) == {(1, 1): 1}
    assert highest_weight_tableau(shape((2, 2))) == {(1, 1): 1, (1, 2): 1, (2, 1): 2, (2, 2): 2}


def test_hw_monomial_examples():
    A2, B2, C2 = make_type("A", 2), make_type("B", 2), make_type("C", 2)
    assert hw_monomial(A2, shape((1,)), 0) == y_monomial(1, 0)
    assert hw_monomial(C2, shape((1, 1)), 0) == y_monomial(2, -1)
    assert hw_monomial(B2, shape((1, 1)), 0) == RingElem.monomial([(2, -3, 1), (2, -1, 1)])


def test_hw_monomial_matches_tableau_weight():
    types = [make_type(f, n) for f in "ABCD" for n in (2, 3)]
    for t in types:
        for lam in all_partitions(8, max_len=4, max_part=4):
            for mu in subpartitions(lam):
                s = shape(lam, mu)
                if s.depth() > t.rank:
                    continue
                hw = highest_weight_tableau(s)
                rows = tuple(
                    tuple(hw[(i, j)] for j in range(s.mu[i] + 1, s.lam[i] + 1))
                    for i in range(1, len(s.lam) + 1)
                )
                for off in (0, 3):
                    assert hw_monomial(t, s, off) == Tableau(s, rows).weight(t, off), (
                        t, lam, mu, off,
                    )


def test_hw_monomial_depth_error():
    with pytest.raises(ValueError):
        hw_monomial(make_type("C", 2), shape((1, 1, 1)), 0)
