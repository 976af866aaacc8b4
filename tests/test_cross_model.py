"""A cross-model property test: on drawn types, ranks, skew shapes and
spectral offsets, chi_e and every model that the paper gives the type equal
chi_h, and the other models refuse.  The acceptance gate's shape sets use
offset 0 and ranks 2-3 almost everywhere; this covers the rest, where the
path layer's cross-shape caches and the placements' spectral shifts meet
shapes and offsets that the gate never uses."""

import pytest
from hypothesis import given, settings, strategies as st

from qjt.jacobitrudi import chi_e, chi_h
from qjt.paths import signed_path_sum
from qjt.ring import make_type
from qjt.shapes import shape
from qjt.tableaux import tableau_sum

# The cap: lam within 4 rows and 4 columns, at most 5 boxes in lam/mu.
MAX_ROWS, MAX_COLS, MAX_BOXES = 4, 4, 5


@st.composite
def cases(draw):
    fam = draw(st.sampled_from("ABCD"))
    n = draw(st.integers(2 if fam == "D" else 1, 4))
    lam = sorted(draw(st.lists(st.integers(1, MAX_COLS), max_size=MAX_ROWS)), reverse=True)
    mu, cap = [], MAX_COLS
    for part in lam:
        cap = min(cap, part, draw(st.integers(0, part)))
        mu.append(cap)
    # drop boxes from the bottom rows until at most MAX_BOXES are left
    while sum(lam) - sum(mu) > MAX_BOXES:
        lam.pop()
        mu.pop()
    mu = [m for m in mu if m]
    return make_type(fam, n), shape(lam, mu), draw(st.integers(-5, 5))


@settings(max_examples=200, deadline=None)
@given(cases())
def test_models_agree_with_chi_h(case):
    t, s, off = case
    h = chi_h(t, s, off)
    assert chi_e(t, s, off) == h
    if t.family == "D":  # no path or tableau model
        for fn in (signed_path_sum, tableau_sum):
            with pytest.raises(ValueError, match="covers types A, B and C, not D"):
                fn(t, s, off)
        return
    assert signed_path_sum(t, s, off) == h
    if t.family != "C":
        assert tableau_sum(t, s, off, "hv") == h
        return
    if t.rank == 1:
        with pytest.raises(ValueError, match="need rank at least 2"):
            tableau_sum(t, s, off)
        return
    rows, cols = len(s.lam), s.lam[1]
    if rows <= 3:
        assert tableau_sum(t, s, off, "rows") == h
    if cols <= 2 and s.depth() <= t.rank + 1:
        assert tableau_sum(t, s, off, "columns") == h
    elif cols <= 2:
        # a column deeper than n + 1 makes chi_h virtual (C2 (1,1,1,1): five
        # terms, each of coefficient -1), where the column rules would give 0
        for ruleset in ("columns", "auto"):
            with pytest.raises(ValueError, match="no C.* tableau rule covers .*: a column of depth"):
                tableau_sum(t, s, off, ruleset)
    if rows > 3 and cols > 2:
        with pytest.raises(ValueError, match="no C.* tableau rule covers"):
            tableau_sum(t, s, off)
