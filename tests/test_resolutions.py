"""Resolution maps on C-type path tuples: rotation, the pair maps, and the
resolution-map lemmas of ``qjt.checks`` beyond rank 2 (criterion 9 of the
acceptance gate runs them on every three-row C2 shape)."""

import pytest

import qjt.resolutions as R
from qjt.checks import resolution_maps
from qjt.ring import make_type
from qjt.shapes import shape
from qjt.paths import Path, no_ordinary_tuples, p_k_tuples, p_tilde
from qjt.resolutions import NotApplicable, _splice, default_center, omega, r_y, retuple

import resolution_oracle
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


T3 = make_type("C", 3)
SHAPES3 = [shape(lam, mu) for lam, mu in [((3, 3, 3), ()), ((3, 2, 1), (1,)), ((2, 2, 2), ())]]


def test_three_row_suite_on_larger_rank():
    for s in SHAPES3:
        assert resolution_maps(T3, s) == [], s


def _outcomes(maps, t, pt):
    """The image of pt under r_y for every row pair and y in (0, 1, 2), g and
    the four f maps of the module maps, or the name of what each raised."""
    calls = [(maps.r_y, (i, j, y)) for i, j in ((1, 2), (1, 3), (2, 3)) for y in (0, 1, 2)]
    calls += [(f, ()) for f in (maps.g_map, maps.f2_13, maps.f2_23, maps.f1_12, maps.f1_23)]
    out = []
    for f, args in calls:
        try:
            out.append(f(t, pt, *args))
        except (NotApplicable, ValueError) as e:
            out.append(type(e).__name__)
    return out


def test_splices_match_the_point_list_oracle():
    # every map builds the tuple that the point-list construction builds,
    # and is inapplicable where it is, on every tuple with at most two
    # transposed pairs of every three-row C2 shape in a 3x3 box and of the
    # C3 shapes above
    calls = applied = 0
    for t, s in [(T2, s) for s in SHAPES2] + [(T3, s) for s in SHAPES3]:
        for tuples in p_k_tuples(t, s).values():
            for pt in tuples:
                got = _outcomes(R, t, pt)
                assert got == _outcomes(resolution_oracle, t, pt), (t, s, pt)
                calls += len(got)
                applied += sum(not isinstance(x, str) for x in got)
    assert (calls, applied) == (130_480, 17_106)


def test_splice_refuses_a_joint_that_misses_its_end():
    p = Path((0, 0), "ENEN")  # through (1, 0), (1, 1), (2, 1)
    q = Path((1, 0), "NNE")  # through (1, 1), (1, 2), (2, 2)
    assert _splice(p, (1, 0), "N", q, (1, 1)) == Path((0, 0), "ENNE")
    assert _splice(p, (1, 1), "", q, (1, 1)) == Path((0, 0), "ENNE")
    for joint in ("", "E", "NN", "EN", "NE"):
        with pytest.raises(NotApplicable, match=f"^steps '{joint}' do not lead from"):
            _splice(p, (1, 0), joint, q, (1, 1))
    # a joint that leads from a to b, with a off p or b off q
    with pytest.raises(NotApplicable, match="not on path"):
        _splice(p, (0, 1), "E", q, (1, 1))
    with pytest.raises(NotApplicable, match="not on path"):
        _splice(p, (1, 1), "E", q, (2, 1))


REFUSALS = {
    "r_y_pair": "r_y_pair(t, pt.paths[0], pt.paths[1], 0)",
    "r_y": "r_y(t, pt, 1, 2, 0)",
    **{f: f"{f}(t, pt)" for f in ("omega", "crossing_markers", "is_p2_cross", "g_map", "f2_13", "f2_23", "f1_12", "f1_23")},
    **{f"condition_{f}": f"condition_{f}(t, pt)" for f in ("f2_13", "f2_23", "f1_12", "f1_23")},
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_maps_and_conditions_refuse_types_other_than_C(name):
    # the maps resolve C's special intersections: on B an image need not
    # keep the weight
    t = make_type("B", 2)
    pt = no_ordinary_tuples(t, shape((2, 2, 1)))[0]
    message = f"{name} is defined for type C only, not B2"
    with pytest.raises(ValueError, match=f"^{message}$"):
        eval(REFUSALS[name], vars(R), {"t": t, "pt": pt})
    prelude = (
        "from qjt.paths import no_ordinary_tuples; from qjt.resolutions import *; "
        "from qjt.ring import make_type; from qjt.shapes import shape; "
        "t = make_type('B', 2); pt = no_ordinary_tuples(t, shape((2, 2, 1)))[0]; "
    )
    assert error_under_O(prelude + REFUSALS[name]) == f"ValueError: {message}"


@pytest.mark.parametrize("name", [name for name in REFUSALS if name not in ("r_y_pair", "r_y", "omega")])
def test_three_row_maps_and_conditions_refuse_other_row_counts(name):
    # they unpacked three paths: a C2 (2,2,1,1) or (2,1) tuple failed with
    # "too many values to unpack" or "not enough values", also under -O
    for lam in ((2, 2, 1, 1), (2, 1)):
        message = f"{name} is defined for three-row tuples only, not {len(lam)} rows"
        with pytest.raises(ValueError, match=f"^{message}$"):
            eval(REFUSALS[name], vars(R), {"t": T2, "pt": p_tilde(T2, shape(lam))[0]})
        prelude = (
            "from qjt.paths import p_tilde; from qjt.resolutions import *; "
            "from qjt.ring import make_type; from qjt.shapes import shape; "
            f"t = make_type('C', 2); pt = p_tilde(t, shape({lam}))[0]; "
        )
        assert error_under_O(prelude + REFUSALS[name]) == f"ValueError: {message}"


def test_r_y_rejects_rows_out_of_range():
    # row 0 would read the last row through a negative index
    pt = p_tilde(T2, shape((2, 2, 1)))[0]
    for i, j in ((0, 2), (2, 2), (3, 1), (2, 4)):
        with pytest.raises(ValueError, match=f"^rows {i}, {j} are not 1 <= i < j <= 3$"):
            r_y(T2, pt, i, j, 0)
    assert error_under_O(
        "from qjt.paths import p_tilde; from qjt.resolutions import r_y; "
        "from qjt.ring import make_type; from qjt.shapes import shape; "
        "t = make_type('C', 2); r_y(t, p_tilde(t, shape((2, 2, 1)))[0], 0, 2, 0)"
    ) == "ValueError: rows 0, 2 are not 1 <= i < j <= 3"


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
    prelude = (
        "from qjt.paths import Path, p_tilde; from qjt.resolutions import retuple; "
        "from qjt.ring import make_type; from qjt.shapes import shape; "
        "t, s = make_type('C', 2), shape((2, 2, 1)); "
    )
    assert error_under_O(
        prelude + "retuple(t, s, [Path((p.start[0] - 1, p.start[1]), 'E' + p.steps) for p in p_tilde(t, s)[0].paths])"
    ).startswith("ValueError: path 1 runs (-1, -2) -> (2, 2)")
    # too few paths made a short tuple, too many raised IndexError
    for count, paths in ((2, pt.paths[:2]), (4, pt.paths + pt.paths[:1])):
        with pytest.raises(ValueError, match=f"^{count} paths for a shape of 3 rows$"):
            retuple(T2, s, paths)
        cut = "[:2]" if count == 2 else " + p_tilde(t, s)[0].paths[:1]"
        assert error_under_O(prelude + f"retuple(t, s, p_tilde(t, s)[0].paths{cut})") == (
            f"ValueError: {count} paths for a shape of 3 rows"
        )


def test_omega_rejects_a_center_left_of_the_shape():
    pt = p_tilde(T2, shape((2, 2, 1)))[0]
    with pytest.raises(ValueError, match="center"):
        omega(T2, pt, -1)
