"""E/H series, coefficient extraction, and the HE inversion identity."""

import random

import pytest

from qjt import series
from qjt.jacobitrudi import chi_e, chi_h
from qjt.ring import ONE, ZERO, AlgType, f_hom, letters, make_type
from qjt.series import E_series, H_series, Series, check_HE, e_coeff, geom_inverse, h_coeff, linear_factor
from qjt.shapes import shape

from optimized import error_under_O
from test_shapes import all_partitions, subpartitions

A1 = make_type("A", 1)
A2 = make_type("A", 2)
B2 = make_type("B", 2)
C2 = make_type("C", 2)
C3 = make_type("C", 3)


def test_geom_inverse_coeffs():
    s = geom_inverse(A2, 1, 1, 3)
    assert s.coeffs[0] == ONE
    assert s.coeffs[1] == f_hom(A2, 1, 0)
    assert s.coeffs[2] == f_hom(A2, 1, 0) * f_hom(A2, 1, -2)
    # B has delta = 2, so the ladder steps by 4
    sb = geom_inverse(B2, 2, 1, 2)
    assert sb.coeffs[2] == f_hom(B2, 2, 0) * f_hom(B2, 2, -4)


SMALL_TYPES = [make_type(f, n) for f in "ABCD" for n in (1, 2, 3) if not (f == "D" and n < 2)]


def test_geom_inverse_is_the_inverse_of_its_linear_factor():
    # the closed form against the inversion recursion, coefficient by coefficient
    for t in SMALL_TYPES:
        for c in letters(t):
            for sign in (1, -1):
                got, want = geom_inverse(t, c, sign, 8), linear_factor(t, c, -sign, 8).inverse()
                assert got.trunc == want.trunc == 8
                for m, (g, w) in enumerate(zip(got.coeffs, want.coeffs)):
                    assert g == w and g.terms == w.terms, (t, c, sign, m)


def test_E_examples():
    assert E_series(A1, 2).coeffs[1] == f_hom(A1, 1, 0) + f_hom(A1, 2, 0)
    assert E_series(C2, 4).coeffs[3].is_zero()  # e_{n+1} = 0 for C_n
    assert E_series(A2, 5).coeffs[4].is_zero()  # e_i = 0 for i > n+1
    assert E_series(A2, 5).coeffs[5].is_zero()


def test_E_vanishing_C():
    # e_i = 0 for i > 2n+2 and i = n+1 for C_n
    E = E_series(C2, 8)
    assert E.coeffs[3].is_zero()
    for i in range(7, 9):
        assert E.coeffs[i].is_zero()
    E3 = E_series(C3, 9)
    assert E3.coeffs[4].is_zero()
    assert E3.coeffs[9].is_zero()


def test_H_first_coeffs():
    for t in (A2, B2, C2, make_type("D", 3)):
        H = H_series(t, 2)
        assert H.coeffs[0] == ONE
        want = ZERO
        for c in letters(t):
            want = want + f_hom(t, c, 0)
        assert H.coeffs[1] == want, t


def test_H2_C2_monomial_count():
    h2 = h_coeff(C2, 2, 0)
    assert h2.num_terms() == 11


def test_e2_C2_monomial_count():
    assert e_coeff(C2, 2, 0).num_terms() == 5


def test_coeff_conventions():
    for t in (A2, C2):
        assert h_coeff(t, -1, 0).is_zero()
        assert e_coeff(t, -2, 4).is_zero()
        assert h_coeff(t, 0, 5) == ONE
        assert h_coeff(t, 2, 3) == h_coeff(t, 2, 0).shift_spectral(3)


def test_h1_equals_e1():
    for t in (A2, B2, C2):
        assert (h_coeff(t, 1, 0) - e_coeff(t, 1, 0)).is_zero()


@pytest.mark.parametrize("fam", "ABCD")
@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_HE(fam, n):
    if fam == "D" and n < 2:
        pytest.skip("D needs rank >= 2")
    assert check_HE(make_type(fam, n), 8)


def test_series_invariants_fail_closed():
    with pytest.raises(ValueError, match="spectral steps"):
        H_series(C2, 3) * H_series(B2, 3)
    with pytest.raises(ValueError, match="constant coefficient 1"):
        Series([ONE.scalar_mul(2), ONE], 1).inverse()
    prelude = "from qjt.ring import ONE, make_type; from qjt.series import H_series, Series; "
    assert error_under_O(
        prelude + "H_series(make_type('C', 2), 3) * H_series(make_type('B', 2), 3)"
    ).startswith("ValueError: series with spectral steps")
    assert error_under_O(
        prelude + "Series([ONE.scalar_mul(2), ONE], 1).inverse()"
    ).startswith("ValueError: only a series with constant coefficient 1")


# The coefficient cache builds each (type, kind) series to the largest degree
# asked so far, whatever the order of the asks.


@pytest.fixture
def fresh_cache(monkeypatch):
    monkeypatch.setattr(series, "_SERIES_CACHE", {})
    return series


def test_coefficients_are_those_of_the_full_series_in_any_order(fresh_cache):
    rng = random.Random(21)
    for t in SMALL_TYPES:
        full = {"H": H_series(t, 8).coeffs, "E": E_series(t, 8).coeffs}
        shuffled = list(range(1, 9))
        rng.shuffle(shuffled)
        for order in (range(1, 9), range(8, 0, -1), shuffled):
            fresh_cache._SERIES_CACHE.clear()
            for r in order:
                for kind, coeff in (("H", h_coeff), ("E", e_coeff)):
                    got = coeff(t, r)
                    assert got == full[kind][r] and got.terms == full[kind][r].terms, (t, kind, list(order), r)


def test_a_series_is_built_to_the_degree_asked(fresh_cache):
    for t in SMALL_TYPES:
        fresh_cache._SERIES_CACHE.clear()
        h_coeff(t, 1)
        assert fresh_cache._SERIES_CACHE[(t, "H")].trunc == 1
        assert (t, "E") not in fresh_cache._SERIES_CACHE
        h_coeff(t, 3)
        h_coeff(t, 2)
        assert fresh_cache._SERIES_CACHE[(t, "H")].trunc == 3


def _largest_index(rows, cols):
    """The largest index rows_i - cols_j - i + j of a Jacobi-Trudi matrix
    (rows and cols zero-padded to one length), by scanning every entry."""
    l = max(len(rows), len(cols))
    rows, cols = list(rows) + [0] * (l - len(rows)), list(cols) + [0] * (l - len(cols))
    return max((rows[i] - cols[j] - i + j for i in range(l) for j in range(l)), default=0)


@pytest.mark.parametrize("t", [make_type("A", 2), make_type("B", 2), make_type("C", 2), make_type("D", 3)], ids=str)
def test_a_determinant_builds_its_series_once(fresh_cache, monkeypatch, t):
    builds = []

    def counted(name):
        build = getattr(series, name)

        def run(t, r):
            builds.append(name)
            return build(t, r)

        return run

    for name in ("H_series", "E_series"):
        monkeypatch.setattr(series, name, counted(name))
    for lam in all_partitions(5, 3, 3):
        for mu in subpartitions(lam) if lam else ():
            s = shape(lam, mu)
            for chi, kind, top in (
                (chi_h, "H", _largest_index(lam, mu)),
                (chi_e, "E", _largest_index(s.lam.conjugate().parts, s.mu.conjugate().parts)),
            ):
                fresh_cache._SERIES_CACHE.clear()
                builds.clear()
                want = [f"{kind}_series"] if top >= 1 else []
                chi(t, s)
                assert builds == want, (t, s, kind)
                held = fresh_cache._SERIES_CACHE.get((t, kind))
                assert (held.trunc if held else 0) == max(top, 0), (t, s, kind)
                chi(t, s, 3)  # another offset reads the held series
                assert builds == want, (t, s, kind)
