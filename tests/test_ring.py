"""Ring arithmetic, the f/g substitutions, and the classical projection."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qjt.ring import (
    ONE,
    ZERO,
    AlgType,
    Placement,
    RingElem,
    f_hom,
    letter_order,
    letter_str,
    letters,
    make_type,
    word_keys,
    y_monomial,
    z_product,
)
from qjt import ring, series
from qjt.jacobitrudi import chi_e, chi_h
from qjt.ring import _SPREAD, _align, _digits, _f_factors, _key_base, _moved, _recode, delta, row_bound
from qjt.paths import Path, _hpath_table, _table_keys, band
from qjt.shapes import shape

from letter_images import (
    IMAGE_TYPES as ALL_TYPES,
    d_word_failures,
    duality_failures,
    g_hom,
    g_hom_composite,
    inverse_failures,
    oracle_factors,
    relation_failures,
)
from test_paths import east_labels
from test_tableaux import parse_letter, rows_oracle

A1 = make_type("A", 1)
A2 = make_type("A", 2)
B2 = make_type("B", 2)
C2 = make_type("C", 2)
D2 = make_type("D", 2)


def ring_from_json(obj: dict) -> RingElem:
    """The element of RingElem.to_json_obj's form."""
    return RingElem.sum(
        RingElem.monomial([(f["i"], f["s"], f["e"]) for f in term["factors"]], term["coef"]) for term in obj["terms"]
    )


def test_letters_order():
    assert letters(A2) == (1, 2, 3)
    assert letters(B2) == (1, 2, 0, -2, -1)
    assert letters(C2) == (1, 2, -2, -1)
    for t in ALL_TYPES:
        orders = [letter_order(t, c) for c in letters(t)]
        assert orders == sorted(orders) == list(range(len(letters(t))))


@pytest.mark.parametrize("fam", "ABCD")
def test_letters_outside_the_alphabet_are_refused(fam):
    # letter_order and the one membership check of f_hom's factors
    for n in range(2 if fam == "D" else 1, 4):
        t = make_type(fam, n)
        outside = [-(n + 1), n + 2 if fam == "A" else n + 1] + ([] if fam == "B" else [0])
        for c in outside:
            for f in (letter_order, f_hom):
                with pytest.raises(ValueError, match=f"letter {c} not in alphabet of {t}"):
                    f(t, c)


def test_letter_strings():
    assert letter_str(1) == "1"
    assert letter_str(0) == "0"
    assert letter_str(-1) == "1b"
    for c in letters(B2):
        assert parse_letter(letter_str(c)) == c


def test_f_hom_examples():
    assert f_hom(C2, 1, 0) == y_monomial(1, 0)
    assert f_hom(C2, -1, 0) == y_monomial(1, 6, -1)
    assert f_hom(A1, 2, 0) == y_monomial(1, 2, -1)


def test_ring_arithmetic_basics():
    x = f_hom(C2, 2, 0) + f_hom(C2, -2, 4)
    assert x + ZERO == x
    assert x * ONE == x
    y = y_monomial(1, 0)
    assert y + y == y.scalar_mul(2)
    assert x - x == ZERO
    assert (-x) + x == ZERO
    assert x * y == y * x


def test_shift_spectral():
    assert y_monomial(1, 0).shift_spectral(4) == y_monomial(1, 4)
    x = f_hom(B2, 0, 2) + f_hom(B2, -1, 0).scalar_mul(3)
    assert x.shift_spectral(0) == x
    assert x.shift_spectral(-2).shift_spectral(2) == x


def test_shift_is_ring_hom_commuting_with_f():
    for t in (A2, B2, C2, D2):
        for c in letters(t):
            assert f_hom(t, c, 0).shift_spectral(5) == f_hom(t, c, 5)
    x = f_hom(C2, 2, 0) + f_hom(C2, -1, 2)
    y = f_hom(C2, 1, 4) - ONE
    assert (x * y).shift_spectral(3) == x.shift_spectral(3) * y.shift_spectral(3)
    assert (x + y).shift_spectral(3) == x.shift_spectral(3) + y.shift_spectral(3)


def test_g_examples():
    assert g_hom(A2, 1, 0, 1) == f_hom(A2, 1, 0) == y_monomial(1, 0)
    # C_2: Y_{2,0}^{-1} -> z_{1b,-7} z_{2b,-5}
    assert g_hom(C2, 2, 0, -1) == z_product(C2, [(-1, -7), (-2, -5)])
    assert g_hom(C2, 2, 0, -1) == y_monomial(2, 0, -1)
    # B_2 composite: Y_{2,-1}Y_{2,1} -> z_{1,2} z_{2,-2}
    assert g_hom_composite(B2, "nn", 0, 1) == z_product(B2, [(1, 2), (2, -2)])


def test_f_g_inverse_all_generators():
    assert [f for t in ALL_TYPES for f in inverse_failures(t)] == []


def test_generating_relations_hold():
    assert [f for t in ALL_TYPES for f in relation_failures(t)] == []


def test_letter_images_are_the_oracle_tables():
    # the images derived along each type's Frenkel-Mukhin string equal the
    # case-by-case tables on every letter of A1-A40, B1-B40, C1-C40, D2-D40
    types = [make_type(f, n) for f in "ABCD" for n in range(2 if f == "D" else 1, 41)]
    assert len(types) == 159
    assert [(t, c) for t in types for c in letters(t) if tuple(sorted(_f_factors(t, c))) != oracle_factors(t, c)] == []


def _clear_image_caches():
    """Forget every image-derived value: the lru_caches of qjt.ring and
    qjt.series, and the series cache."""
    for module in (ring, series):
        for x in vars(module).values():
            if hasattr(x, "cache_clear"):
                x.cache_clear()
    series._SERIES_CACHE.clear()


def test_every_shifted_image_factor_fails_the_letter_checks(monkeypatch):
    # the generated mutant sweep: each factor of each letter image of A-D at
    # ranks 2 and 3, moved +2, -2 or +1 spectral steps, must fail a letter
    # check of criterion 1; the mutants of B's letter 0 fail its z_0 relation
    images = {t: {c: _f_factors(t, c) for c in letters(t)} for t in (make_type(f, n) for f in "ABCD" for n in (2, 3))}
    monkeypatch.setattr(series, "_SERIES_CACHE", {})
    mutants, survivors = 0, []
    try:
        for t, table in images.items():
            for c, factors in table.items():
                for k, (i, s, e) in enumerate(factors):
                    for d in (2, -2, 1):
                        moved = {**table, c: factors[:k] + ((i, s + d, e),) + factors[k + 1 :]}
                        monkeypatch.setattr(ring, "_f_factors", lambda _t, letter, moved=moved: moved[letter])
                        _clear_image_caches()
                        mutants += 1
                        failures = relation_failures(t) or inverse_failures(t)
                        if t.family == "D" and not failures:
                            failures = d_word_failures(t)
                        if not failures or (c == 0 and not any(r.startswith("z_{0,a}") for _t, r, _a in failures)):
                            survivors.append((str(t), c, (i, s, e), d))
    finally:
        monkeypatch.undo()
        _clear_image_caches()
    assert (mutants, survivors) == (210, [])


def test_duality_fails_under_every_zero_letter_mutant(monkeypatch):
    # the 12 mutants of B's letter 0 above pass every letter check but the
    # z_0 relation; criterion 2's duality identity, which reads no relation,
    # fails under each of them on the shapes (1), (1,1) and (2,1)/(1)
    shapes = [shape((1,)), shape((1, 1)), shape((2, 1), (1,))]
    monkeypatch.setattr(series, "_SERIES_CACHE", {})
    mutants, survivors = 0, []
    try:
        for t in (make_type("B", 2), make_type("B", 3)):
            table = {c: _f_factors(t, c) for c in letters(t)}
            for k, (i, s, e) in enumerate(table[0]):
                for d in (2, -2, 1):
                    moved = {**table, 0: table[0][:k] + ((i, s + d, e),) + table[0][k + 1 :]}
                    monkeypatch.setattr(ring, "_f_factors", lambda _t, letter, moved=moved: moved[letter])
                    _clear_image_caches()
                    mutants += 1
                    if not duality_failures(t, shapes):
                        survivors.append((str(t), (i, s, e), d))
    finally:
        monkeypatch.undo()
        _clear_image_caches()
    assert (mutants, survivors) == (12, [])


def test_beta():
    assert (y_monomial(1, 0) * y_monomial(1, 6, -1)).beta() == ONE
    # C_2: beta(f(z_{2b,0})) = y_1 y_2^{-1}
    got = f_hom(C2, -2, 0).beta()
    assert got == RingElem.monomial([(1, 0, 1), (2, 0, -1)])
    # beta(chi of one box) for C_2: sum over the four letters
    chi = sum((f_hom(C2, c, 0) for c in letters(C2)), ZERO)
    want = (
        y_monomial(1, 0)
        + RingElem.monomial([(1, 0, -1), (2, 0, 1)])
        + RingElem.monomial([(1, 0, 1), (2, 0, -1)])
        + y_monomial(1, 0, -1)
    )
    assert chi.beta() == want


def test_beta_is_hom_and_shift_invariant():
    x = f_hom(C2, 2, 0) + f_hom(C2, -1, 2).scalar_mul(2)
    y = f_hom(C2, 1, -4) - ONE
    assert (x * y).beta() == x.beta() * y.beta()
    assert x.shift_spectral(6).beta() == x.beta()


monomials = st.lists(
    st.tuples(st.integers(1, 3), st.integers(-6, 6), st.integers(-3, 3).filter(bool)),
    max_size=4,
)
elems = st.lists(st.tuples(monomials, st.integers(-5, 5)), max_size=5).map(
    lambda ts: sum((RingElem.monomial(m, c) for m, c in ts), ZERO)
)


@settings(max_examples=60, deadline=None)
@given(elems, elems, elems)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


@settings(max_examples=40, deadline=None)
@given(elems)
def test_serialization_round_trip(x):
    assert ring_from_json(x.to_json_obj()) == x
    # byte-identical after re-serialization
    s = json.dumps(x.to_json_obj(), sort_keys=True)
    assert json.dumps(ring_from_json(json.loads(s)).to_json_obj(), sort_keys=True) == s


def test_text_form():
    x = y_monomial(1, 0) - y_monomial(2, 3, -1).scalar_mul(2) + ONE
    assert x.to_text() == "1 + Y[1,0] - 2*Y[2,3]^-1"
    assert ZERO.to_text() == "0"
    assert ONE.to_text() == "1"


# ---------------------------------------------------------------------------
# The packed kernel against the tuple-merge reference on decoded terms


def ref_mul(x: dict, y: dict) -> dict:
    """The tuple-merging product: every pair of monomials merged as an
    (i, s) -> e dict and sorted back into a tuple."""
    terms: dict = {}
    for m1, c1 in x.items():
        d1 = {(i, s): e for i, s, e in m1}
        for m2, c2 in y.items():
            acc = dict(d1)
            for i, s, e in m2:
                e2 = acc.get((i, s), 0) + e
                if e2:
                    acc[(i, s)] = e2
                else:
                    del acc[(i, s)]
            key = tuple(sorted((i, s, e) for (i, s), e in acc.items()))
            c = terms.get(key, 0) + c1 * c2
            if c:
                terms[key] = c
            else:
                del terms[key]
    return terms


def ref_add(x: dict, y: dict, c: int = 1) -> dict:
    terms = dict(x)
    for m, cc in y.items():
        v = terms.get(m, 0) + c * cc
        if v:
            terms[m] = v
        else:
            terms.pop(m, None)
    return terms


def canonical(pairs) -> dict:
    """{sorted (i, s, e) tuple: coef} of a sum of (factors, coef) pairs."""
    out: dict = {}
    for factors, c in pairs:
        acc: dict = {}
        for i, s, e in factors:
            acc[(i, s)] = acc.get((i, s), 0) + e
        out = ref_add(out, {tuple(sorted((i, s, e) for (i, s), e in acc.items() if e)): c})
    return out


# Indices up to 5 mix strides; exponents up to 300 cross the 8-bit digits.
factor = st.tuples(
    st.integers(1, 5), st.integers(-8, 8), st.one_of(st.integers(-3, 3), st.integers(-300, 300))
)
term_dicts = st.lists(st.tuples(st.lists(factor, max_size=4), st.integers(-4, 4)), max_size=5).map(canonical)
shifts = st.integers(-20, 20)


def build(terms: dict, d: int) -> RingElem:
    """An element equal to `terms`, reached through a shifted layout."""
    return RingElem(terms.items()).shift_spectral(-d).shift_spectral(d)


@settings(max_examples=150, deadline=None)
@given(term_dicts, term_dicts, shifts, st.integers(-3, 3))
def test_kernel_matches_reference(x, y, d, c):
    X, Y = build(x, d), RingElem(y.items())
    assert RingElem(x.items()).terms == x
    assert (X * Y).terms == ref_mul(x, y)
    assert (X + Y).terms == ref_add(x, y)
    assert (X - Y).terms == ref_add(x, y, -1)
    assert (-X).terms == ref_add({}, x, -1)
    assert X.scalar_mul(c).terms == ({m: c * v for m, v in x.items()} if c else {})
    assert X.shift_spectral(d).terms == {tuple((i, s + d, e) for i, s, e in m): v for m, v in x.items()}
    assert (X == Y) == (x == y)
    assert X == RingElem(x.items()) and hash(X) == hash(RingElem(x.items()))
    assert (X * Y == ZERO) == (not ref_mul(x, y))
    assert (X == ONE) == (x == {(): 1})
    assert RingElem.sum([X, Y, X]).terms == ref_add(ref_add(x, y), x)
    assert RingElem.sum_products([(c, X, Y), (2, Y, X)]).terms == ref_add({}, ref_mul(x, y), c + 2)


@settings(max_examples=60, deadline=None)
@given(term_dicts, shifts)
def test_kernel_cancellation_and_layouts(x, d):
    X = RingElem(x.items())
    assert X - X == ZERO and (X - X).terms == {}
    assert (X + (-X)) == ZERO
    assert X.shift_spectral(d) - X.shift_spectral(d) == ZERO
    # the same polynomial in different layouts: equal, with equal hashes
    Z = (X + y_monomial(5, -30)) - y_monomial(5, -30)
    assert Z == X and hash(Z) == hash(X)
    assert X * ONE == X == ONE * X


def _at_lo(x: RingElem, lo: int) -> RingElem:
    """x keyed at the base shift lo <= x._lo, in its own stride and width."""
    return RingElem._make(_moved(x, lo, x._n, x._w), lo, x._n, x._w, x._b)


def _aligned_eq(x: RingElem, y: RingElem) -> bool:
    """== through _align: both operands re-keyed into one layout."""
    a, b = _align((x, y), 0)[0]
    return a == b


@settings(max_examples=150, deadline=None)
@given(term_dicts, st.integers(1, 12), st.data())
def test_equality_across_base_shifts(x, k, data):
    # one element keyed at lo and at lo - k (same stride and width) is equal
    # in both orders; negating one coefficient, or moving one key a slot,
    # makes it unequal, as the re-keyed comparison says
    X = RingElem(x.items())
    Y = _at_lo(X, X._lo - k)
    assert (Y._lo, Y._n, Y._w) == (X._lo - k, X._n, X._w)
    assert X == Y and Y == X and _aligned_eq(X, Y)
    if not Y._keys:
        return
    keys = sorted(Y._keys)
    key = data.draw(st.sampled_from(keys))
    negated = RingElem._make({**Y._keys, key: -Y._keys[key]}, Y._lo, Y._n, Y._w, Y._b)
    moved = {q: c for q, c in Y._keys.items() if q != key}
    moved[key << Y._w] = Y._keys[key]
    shifted = RingElem._make(moved, Y._lo, Y._n, Y._w, Y._b + 1)
    for Z in (negated, shifted):
        unequal = Z._keys != Y._keys
        assert (X == Z) == (Z == X) == (not unequal) == _aligned_eq(X, Z), (x, k, key)


def test_equality_of_constants_across_base_shifts():
    # a constant fits every layout: the constant 1 equals a shifted 1, and
    # a monomial equals itself keyed lower, but not a neighbour's shift
    for d in (-3, 1, 4):
        assert ONE == ONE.shift_spectral(d) and ONE.shift_spectral(d) == ONE
        assert RingElem.const(2) != ONE.shift_spectral(d) != RingElem.const(2)
        assert ZERO == ZERO.shift_spectral(d)
    m = y_monomial(2, 3) * y_monomial(1, 5)
    for k in (1, 2, 7):
        low = _at_lo(m, m._lo - k)
        assert low == m and m == low
        assert low != m.shift_spectral(1) and m.shift_spectral(-1) != low


def test_kernel_width_widens():
    m = RingElem.monomial([(1, 0, 200)])
    assert (m * m).terms == {((1, 0, 400),): 1}
    assert (m * m.scalar_mul(-1) * m).terms == {((1, 0, 600),): -1}
    big = RingElem.monomial([(2, 3, 40000), (1, -2, -1)])
    assert (big * big).terms == {((1, -2, -2), (2, 3, 80000)): 1}
    inv = RingElem.monomial([(2, 3, -40000), (1, -2, 1)])
    assert big * inv == ONE
    assert (big * inv * y_monomial(1, 0)).terms == {((1, 0, 1),): 1}
    assert (m * m + y_monomial(1, 0)).terms == {((1, 0, 1),): 1, ((1, 0, 400),): 1}


def test_kernel_mixed_strides_and_constants():
    # classical weight coordinates (k, 0, e) run past the rank of f_hom's type
    z4 = RingElem.monomial([(4, 0, 1)])
    x = f_hom(C2, 1, 0) * z4
    assert x.terms == {((1, 0, 1), (4, 0, 1)): 1}
    assert (x + f_hom(C2, -2, 3)).terms == {((1, 0, 1), (4, 0, 1)): 1, ((1, 7, 1), (2, 8, -1)): 1}
    assert RingElem.monomial([]) == ONE and RingElem.monomial([]).terms == {(): 1}
    assert RingElem.monomial([(1, 2, 1), (1, 2, -1)]) == ONE
    assert RingElem.const(3) * x == x.scalar_mul(3)
    assert ZERO * x == ZERO == x * ZERO
    assert RingElem.const(0) == ZERO and RingElem() == ZERO and RingElem([]) == ZERO
    assert RingElem.sum([]) == ZERO and RingElem.sum_products([]) == ZERO


def test_ring_elem_encodes_pairs_and_refuses_a_dict():
    # RingElem takes (factors, coefficient) pairs, repeated monomials and
    # factors added in its one encode; a dict is refused, as iterating it
    # would read a two-factor monomial key as a pair
    pairs = [([(1, 0, 1), (2, 3, -1)], 2), ([(2, 3, -1), (1, 0, 1)], 3), ([(1, 0, 1), (1, 0, 1)], -1), ([], 4)]
    x = RingElem(iter(pairs))
    assert x.terms == {((1, 0, 1), (2, 3, -1)): 5, ((1, 0, 2),): -1, (): 4}
    assert RingElem(x.terms.items()) == x == RingElem.sum(RingElem.monomial(f, c) for f, c in pairs)
    assert RingElem([([(1, 0, 1)], 2), ([(1, 0, 1)], -2)]) == ZERO
    for terms in ({((1, 0, 1), (2, 3, -1)): 2}, {}):
        with pytest.raises(TypeError, match="items"):
            RingElem(terms)


def repack(t: AlgType, w: int, monomials) -> tuple[int, ...]:
    """The oracle of word_keys: the keys of one-term elements with no shift
    below _key_base(t), re-packed in the type's layout (base _key_base(t),
    stride t.rank) at width w."""
    return tuple(_recode(x, _key_base(t), t.rank, w).popitem()[0] for x in monomials)


def test_row_exponents_fit_four_bits():
    # the ring's row_bound: a row puts one letter's factors at each position,
    # so a slot's exponent is at most the sum, over the relative shifts of
    # its node and residue mod 2 delta, of the largest exponent any letter
    # has there; it is 1 for A, B, C1 and D2 and 2 for C2+ and D3+ at every
    # rank, so a placement of up to 3 rows packs at 4 bits
    seen = 0
    for fam in "ABCD":
        for n in range(2 if fam == "D" else 1, 41):
            t = make_type(fam, n)
            want = 2 if (fam == "C" and n >= 2) or (fam == "D" and n >= 3) else 1
            assert row_bound(t) == want, t
            assert Placement(t, [0] * (7 // want)).w == 4 and Placement(t, [0] * (7 // want + 1)).w == 8, t
            seen += 1
    assert seen == 159


BOUND_TYPES = [make_type(f, n) for f in "ABCD" for n in range(2 if f == "D" else 1, 7)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(BOUND_TYPES), st.lists(st.integers(0, 13), max_size=8))
def test_any_row_word_keeps_its_exponents_within_the_row_bound(t, picks):
    # every placement packs each row at row_bound, so it must hold for any
    # word of letters, repeats and all, not only for the rows of the tables;
    # the exponents are read through the decode of the row's element
    alphabet = letters(t)
    word = [alphabet[c % len(alphabet)] for c in picks]
    place = Placement(t, [0])
    (key,) = word_keys(t, place.w, [word])
    x = place.elem({key: 1})
    assert max((abs(e) for m in x.terms for _i, _s, e in m), default=0) <= row_bound(t), (t, word)
    f = 2 * delta(t)
    want = z_product(t, [(c, f * m) for m, c in enumerate(word)])
    assert x == want and (key,) == repack(t, place.w, [want]), (t, word)


def test_row_keys_are_the_repacked_z_products():
    # every h-path table of A-C and the cell rules' rows of D (which has no
    # h-path table), ranks 1-4, lengths 0-5, and the A1 h-path tables up to
    # width 128, as test_wide_frames_reuse_the_tables builds them: the keys
    # at widths 8 and 16 equal the z_product weights re-packed, and one
    # row's key, read through its Placement, is its z_product (D too, which
    # has no path or tableau weight)
    seen = 0
    for t in ALL_TYPES:
        f = 2 * delta(t)
        for r in range(6):
            if t.family == "D":
                words = rows_oracle(t, r)
                keys = {w: word_keys(t, w, words) for w in (8, 16)}
            else:
                table, start = _hpath_table(t, r), (0, band(t)[0])
                words = table.words
                keys = {w: _table_keys(t, r, w) for w in (8, 16)}
                labels = (east_labels(t, Path(start, steps)) for steps in table.steps)
                assert keys[8] == repack(t, 8, (z_product(t, x) for x in labels)), (t, r)
            weights = [z_product(t, [(c, f * m) for m, c in enumerate(word)]) for word in words]
            for w, ks in keys.items():
                assert ks == repack(t, w, weights), (t, r, w)
            place = Placement(t, [-f])
            for word, x in zip(words[::7], weights[::7]):
                (key,) = word_keys(t, place.w, [word])
                assert place.elem({key << place.kshift[0]: 1}, 3) == x.shift_spectral(3 - f), (t, word)
            seen += 1
    for r in range(6, 129):
        labels = (east_labels(A1, Path((0, 0), steps)) for steps in _hpath_table(A1, r).steps)
        assert _table_keys(A1, r, 8) == repack(A1, 8, (z_product(A1, x) for x in labels)), r
        seen += 1
    assert seen == 213


# Rows of letter words: per row, the words a tuple may pick, each a list of
# letter indices, and its spectral shift; up to 3 rows, which a placement
# packs at 4 bits, or 4-24, which it packs at 4 bits up to 7 exponents and
# at 8 past them; and a few picks, one word per row each
row_words = st.tuples(st.lists(st.lists(st.integers(0, 7), max_size=4), min_size=1, max_size=3), st.integers(-8, 8))
placed_rows = st.one_of(st.lists(row_words, max_size=3), st.lists(row_words, min_size=4, max_size=24))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_TYPES), placed_rows,
       st.lists(st.lists(st.integers(0, 2), min_size=24, max_size=24), min_size=1, max_size=4),
       st.integers(-5, 5))
def test_placed_keys_sum_to_shifted_products(t, rows, picks, a_offset):
    alphabet = letters(t)
    f = 2 * delta(t)
    words = [[[alphabet[c % len(alphabet)] for c in word] for word in row] for row, _d in rows]
    shifts = [d for _row, d in rows]
    monos = [[z_product(t, [(c, f * m) for m, c in enumerate(word)]) for word in row] for row in words]
    place = Placement(t, shifts)
    assert place.w == (4 if row_bound(t) * len(rows) <= 7 else 8)
    keys = [word_keys(t, place.w, row) for row in words]
    assert keys == [repack(t, place.w, row) for row in monos]
    acc: dict = {}
    want = []
    for pick in picks:
        pick = [p % len(row) for p, row in zip(pick, words)]
        key = sum(ks[c] << sh for ks, c, sh in zip(keys, pick, place.kshift))
        acc[key] = acc.get(key, 0) + 1
        x = ONE
        for row, c, d in zip(monos, pick, shifts):
            x = x * row[c].shift_spectral(d + a_offset)
        want.append(x)
    assert place.elem(acc, a_offset) == RingElem.sum(want)


# ---------------------------------------------------------------------------
# Exponent bounds, digit widths and the spread of the keys

RANK_4_TYPES = [make_type(f, n) for f in "ABCD" for n in range(2 if f == "D" else 1, 5)]


@pytest.mark.parametrize("t", RANK_4_TYPES, ids=str)
def test_row_bound_is_the_brute_force_maximum(t):
    # the largest |exponent| of any word of at most 4 letters, repeats and
    # all, letter m at shift 2 delta m, is row_bound(t)
    f, seen = 2 * delta(t), 0
    for length in range(1, 5):
        for word in itertools.product(letters(t), repeat=length):
            x = z_product(t, [(c, f * m) for m, c in enumerate(word)])
            (m,) = x.terms
            seen = max([seen] + [abs(e) for _i, _s, e in m])
    assert seen == row_bound(t)


@pytest.mark.parametrize("t", RANK_4_TYPES, ids=str)
def test_series_coefficients_stay_within_the_row_bound(t):
    # the build declares row_bound(t) for every coefficient, after checking
    # it: each h_k and e_k up to degree 8 is read back within it, at 4 bits
    for x in [*series.H_series(t, 8), *series.E_series(t, 8)]:
        assert x._b <= row_bound(t) and x._w == 4, t
        assert max((abs(e) for m in x.terms for _i, _s, e in m), default=0) <= row_bound(t), t


@settings(max_examples=200, deadline=None)
@given(term_dicts, st.integers(0, 300))
def test_a_declared_bound_is_checked_on_every_digit(x, b):
    # bounded(b) keeps the keys and declares b where every exponent is
    # within it, and raises where one is not, at 4 and 8 bits and either
    # sign; at 16 bits and more it declares nothing
    X = RingElem(x.items())
    most = max((abs(e) for m in x for _i, _s, e in m), default=0)
    if b >= X._b or X._w > 8:
        assert X.bounded(b) is X
    elif most <= b:
        Y = X.bounded(b)
        assert (Y._keys, Y._w, Y._b) == (X._keys, X._w, b)
    else:
        with pytest.raises(ArithmeticError, match="declared bound"):
            X.bounded(b)


def test_a_wrong_bound_is_refused():
    x = RingElem.monomial([(1, 0, 2), (2, 5, -1)]) * y_monomial(2, 5, -1)  # Y[2,5]^-2, its bound 3
    assert x._b == 3 and x.bounded(2)._b == 2
    for y in (x, x.scalar_mul(-1), x * y_monomial(3, -40, 1), RingElem.monomial([(1, 0, -3)]) * ONE):
        with pytest.raises(ArithmeticError, match="declared bound 1"):
            y.bounded(1)


def test_a_product_widens_past_the_digits_by_the_carried_bounds():
    # widens reads the bounds the operands carry: a product needs 8 bits
    # where they sum past 7, and a tighter bound declared first keeps it at 4
    x = y_monomial(1, 0, 3) * y_monomial(2, 4, -2)  # bound 5, exponents within 3
    y = y_monomial(1, 0, -1) * y_monomial(2, 2, 1)  # bound 2
    assert (x._w, x._b, y._b) == (4, 5, 2)
    assert not x.widens(y) and (x * y)._w == 4
    assert x.widens(y * y) and (x * (y * y))._w == 8
    assert not x.bounded(3).widens(y * y) and (x.bounded(3) * (y * y))._w == 4


def det_universe_shapes():
    """Every skew shape of the benchmark's det workload: lambda in a 3 x 3
    box, mu inside it, 1-6 boxes."""
    lams = [lam for r in range(1, 4) for lam in itertools.combinations_with_replacement(range(3, 0, -1), r)]
    for lam in lams:
        for mu in itertools.product(*(range(p + 1) for p in lam)):
            if list(mu) == sorted(mu, reverse=True) and 0 < sum(lam) - sum(mu) <= 6:
                yield shape(lam, tuple(p for p in mu if p))


def test_det_universe_packs_at_four_bits():
    shapes = list(det_universe_shapes())
    assert len(shapes) == 147
    for t in (make_type(f, n) for f in "ABCD" for n in (2, 3)):
        for s in shapes:
            assert (chi_h(t, s)._w, chi_e(t, s)._w) == (4, 4), (t, s)


def digitwise(x: RingElem, w: int) -> dict:
    """The oracle of the bulk re-encode: x's keys re-packed digit by digit at
    width w, in its own base and stride."""
    return {_SPREAD * sum(e << w * slot for slot, e in enumerate(_digits(k, x._w))): c for k, c in x._keys.items()}


# Exponents that fill 4, 8 and 16-bit digits, negative ones included
wide_factor = st.sampled_from([7, 127, 32767]).flatmap(
    lambda top: st.tuples(st.integers(1, 3), st.integers(-6, 6), st.integers(-top, top))
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.lists(wide_factor, min_size=1, max_size=6), st.integers(-3, 3)), max_size=6), st.integers(1, 3))
def test_bulk_widening_is_the_digitwise_recode(pairs, doublings):
    X = RingElem(pairs)
    w = X._w << doublings
    keys = _recode(X, X._lo, X._n, w)
    assert keys == digitwise(X, w)
    assert RingElem._make(keys, X._lo, X._n, w, X._b).terms == X.terms
    low = _recode(X, X._lo - 2, X._n, w)  # widened, then shifted
    assert low == {k << w * X._n * 2: c for k, c in keys.items()}


def test_spread_keys_fill_the_low_hash_buckets():
    # the 2,352 keys of chi_h of B3 (3,2,1) are 4-bit vectors times one odd
    # constant; the vectors alone share 229 of 4,096 low-hash buckets (115
    # at 8 bits)
    x = chi_h(make_type("B", 3), shape((3, 2, 1)))
    assert len(x._keys) == 2352 and x._w == 4
    assert len({hash(k) & 4095 for k in x._keys}) >= 1500


@pytest.mark.parametrize("t", [make_type("A", 1), make_type("B", 2), make_type("C", 3), make_type("D", 3)], ids=str)
def test_long_words_are_the_z_products(t):
    # word_keys adds a word's letter keys in pairs, so 2,000 letters cost
    # about as much as their keys' length: the keys are z_product's, for
    # the empty word and words of odd and even length alike
    rng = random.Random(2000)
    alphabet, f = letters(t), 2 * delta(t)
    lengths = (0, 1, 2, 3, 2000, 2001)
    words = [sorted(rng.choice(alphabet) for _ in range(L)) if L % 2 == 0 else [rng.choice(alphabet) for _ in range(L)] for L in lengths]
    for w in (4, 16):
        for word, key in zip(words, word_keys(t, w, words)):
            want = z_product(t, [(c, f * m) for m, c in enumerate(word)])
            assert (key,) == repack(t, w, [want])
            assert RingElem._make({key: 1}, _key_base(t), t.rank, w, row_bound(t)) == want
