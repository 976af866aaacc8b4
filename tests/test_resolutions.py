"""Resolution maps on C-type path tuples: rotation, the pair maps, and the
resolution-map lemmas of ``qjt.checks`` beyond rank 2 (criterion 9 of the
acceptance gate runs them on every three-row C2 shape)."""

import pytest

from qjt.checks import resolution_maps
from qjt.ring import make_type
from qjt.shapes import shape
from qjt.paths import Path, p_k_tuples, p_tilde
from qjt.resolutions import NotApplicable, default_center, omega, r_y, retuple

from optimized import error_under_O
from test_shapes import all_partitions, subpartitions


def three_row_shapes(max_col):
    out = []
    for lam in all_partitions(3 * max_col, 3, max_col):
        if len(lam) != 3:
            continue
        for mu in subpartitions(lam):
            out.append(shape(lam, mu))
    return out


T2 = make_type("C", 2)
SHAPES2 = three_row_shapes(3)


def test_omega_is_an_involution():
    for s in SHAPES2[:40]:
        for k, tuples in p_k_tuples(T2, s).items():
            for p in tuples[:5]:
                c = default_center(s)
                q = omega(T2, omega(T2, p, c), c)
                assert q.paths == p.paths
                assert q.pi == p.pi


def test_omega_reverses_roles_and_keeps_transposed_count():
    for s in SHAPES2[:40]:
        for k, tuples in p_k_tuples(T2, s).items():
            for p in tuples[:5]:
                q = omega(T2, p)
                assert len(q.transposed_pairs(T2)) == k


def test_pair_map_preserves_weight_on_higher_bands():
    # r_y with y >= 1 is used inside the f maps; check it independently on
    # the cases where it applies.
    applied = 0
    for s in SHAPES2[:30]:
        for k, tuples in p_k_tuples(T2, s).items():
            for p in tuples:
                for y in (1, 2):
                    try:
                        q = r_y(T2, p, 1, 2, y)
                    except NotApplicable:
                        continue
                    assert q.weight(T2) == p.weight(T2)
                    applied += 1
    assert applied > 0


def test_three_row_suite_on_larger_rank():
    t3 = make_type("C", 3)
    for lam, mu in [((3, 3, 3), ()), ((3, 2, 1), (1,)), ((2, 2, 2), ())]:
        assert resolution_maps(t3, shape(lam, mu)) == [], (lam, mu)


def test_retuple_fails_closed():
    s = shape((2, 2, 1))
    pt = p_tilde(T2, s)[0]
    assert retuple(T2, s, pt.paths) == pt
    # each path starts one column left of the shape's start and ends where it did
    early = [Path((p.start[0] - 1, p.start[1]), "E" + p.steps) for p in pt.paths]
    with pytest.raises(ValueError, match="runs"):
        retuple(T2, s, early)
    with pytest.raises(ValueError, match="not once at each"):
        retuple(T2, s, [pt.paths[0], Path(pt.paths[1].start, "EEENNNN"), pt.paths[2]])
    assert error_under_O(
        "from qjt.paths import Path, p_tilde; from qjt.resolutions import retuple; "
        "from qjt.ring import make_type; from qjt.shapes import shape; "
        "t, s = make_type('C', 2), shape((2, 2, 1)); "
        "retuple(t, s, [Path((p.start[0] - 1, p.start[1]), 'E' + p.steps) for p in p_tilde(t, s)[0].paths])"
    ).startswith("ValueError: path 1 runs (-1, -2) -> (2, 2)")


def test_omega_rejects_a_center_left_of_the_shape():
    pt = p_tilde(T2, shape((2, 2, 1)))[0]
    with pytest.raises(ValueError, match="center"):
        omega(T2, pt, -1)
