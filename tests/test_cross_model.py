"""A cross-model property test: on drawn types, ranks, skew shapes,
spectral offsets and tableau rulesets, chi_e equals chi_h, and each model
does what paths.model_status says of it: a proven model equals chi_h, only
the C tableaux under hv are 'not a character', and a model the table
refuses raises the table's message.  The acceptance gate's shape sets use
offset 0 and ranks 2-3 almost everywhere; this covers the rest, where the
path layer's cross-shape caches and the placements' spectral shifts meet
shapes and offsets that the gate never uses."""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from qjt.jacobitrudi import chi_e, chi_h
from qjt.paths import model_status, signed_path_sum
from qjt.ring import make_type
from qjt.shapes import shape
from qjt.tableaux import RULESETS, resolve_ruleset, tableau_sum

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
    return make_type(fam, n), shape(lam, mu), draw(st.integers(-5, 5)), draw(st.sampled_from(RULESETS))


def assert_as_the_table_says(t, s, model, total, h):
    """total() equals h where model_status proves the model on s, is a sum
    the table calls 'not a character' (C tableaux under hv alone), or raises
    the table's message."""
    try:
        status = model_status(t, model, s)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            total()
        return
    got = total()
    if status == "proven":
        assert got == h
    else:
        assert (status, t.family, model) == ("not a character", "C", "hv")


@settings(max_examples=200, deadline=None)
@given(cases())
# the smallest shapes where a ruleset past its class gives a wrong sum, which
# the draws rarely or never reach: four rows under rows (4 boxes), and more
# than two columns under columns (6 boxes; none of at most 5 boxes in C2 or C3)
@example((make_type("C", 2), shape([1, 1, 1, 1]), 0, "rows"))
@example((make_type("C", 2), shape([3, 3]), 0, "columns"))
def test_models_agree_with_chi_h(case):
    t, s, off, ruleset = case
    h = chi_h(t, s, off)
    assert chi_e(t, s, off) == h
    assert_as_the_table_says(t, s, "path", lambda: signed_path_sum(t, s, off), h)
    try:
        model = resolve_ruleset(t, s, ruleset)
    except ValueError as e:  # auto on a C shape in neither class
        with pytest.raises(ValueError, match=re.escape(str(e))):
            tableau_sum(t, s, off, ruleset)
        return
    assert_as_the_table_says(t, s, model, lambda: tableau_sum(t, s, off, ruleset), h)
