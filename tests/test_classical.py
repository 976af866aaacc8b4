"""Classical projection and decomposition of the determinant characters."""

import pytest

from qjt.classical import (
    beta_to_z,
    decomposition_multiplicities,
    lr_coeff,
    schur_poly,
    sp_character,
    verify_decomposition_A,
    verify_decomposition_C,
)
from qjt.ring import ONE, RingElem, make_type
from qjt.shapes import Partition, shape
from qjt.jacobitrudi import chi_h

from test_shapes import all_partitions


def dim(p):
    """Value at z = 1, the dimension of a character."""
    return sum(p.terms.values())


def test_lr_basic_values():
    assert lr_coeff((3, 2), (), (3, 2)) == 1
    assert lr_coeff((3, 2), (3, 2), ()) == 1
    assert lr_coeff((2, 1), (1,), (1, 1)) == 1
    assert lr_coeff((2, 1), (1,), (2,)) == 1
    assert all(lr_coeff((1, 1), (2,), m) == 0 for m in [(), (1,), (1, 1)])
    # Pieri: c^lam_{mu,(k)} is 0/1 by horizontal strips
    assert lr_coeff((3, 1), (2,), (2,)) == 1
    assert lr_coeff((2, 2), (2,), (2,)) == 1
    assert lr_coeff((2, 1, 1), (2,), (2,)) == 0
    # a genuinely multiplicity-2 case
    assert lr_coeff((4, 3, 2), (3, 2, 1), (2, 1)) == 2


def test_lr_symmetry_in_lower_arguments():
    parts = all_partitions(4)
    for lam in all_partitions(6, 3, 4):
        for mu in parts:
            for nu in parts:
                assert lr_coeff(lam, mu, nu) == lr_coeff(lam, nu, mu)


def test_schur_product_expands_by_lr():
    # s_mu * s_nu == sum_lam c^lam_{mu,nu} s_lam in 3 variables
    nvars = 3
    cases = [((2,), (1, 1)), ((2, 1), (1,)), ((1, 1), (1, 1))]
    for mu, nu in cases:
        prod = schur_poly(mu, nvars) * schur_poly(nu, nvars)
        total = RingElem.const(0)
        size = sum(mu) + sum(nu)
        for lam in all_partitions(size, nvars, size):
            if sum(lam) != size:
                continue
            c = lr_coeff(lam, mu, nu)
            if c:
                total = total + schur_poly(lam, nvars).scalar_mul(c)
        assert prod == total


def test_sp_character_small_cases():
    p = sp_character((1,), 2)
    # z_k^e is the factor (k, 0, e)
    assert p == RingElem({((1, 0, 1),): 1, ((1, 0, -1),): 1, ((2, 0, 1),): 1, ((2, 0, -1),): 1}.items())
    assert dim(sp_character((), 2)) == 1
    assert dim(sp_character((1, 1), 2)) == 5
    # Weyl dimension checks for C_2: V(2w1)=10, V(w1+w2)=16, V(2w2)=14
    assert dim(sp_character((2,), 2)) == 10
    assert dim(sp_character((2, 1), 2)) == 16
    assert dim(sp_character((2, 2), 2)) == 14
    # C_3 adjoint V(2w1) has dimension 21
    assert dim(sp_character((2,), 3)) == 21


def test_sp_character_dimension_positive_and_grows_along_columns():
    # dimensions are positive; adding a box to the first row never shrinks
    # the representation (full containment monotonicity is false: for rank 2,
    # dim V(2,1) = 16 > dim V(2,2) = 14)
    for n in (2, 3):
        dims = {}
        for mu in all_partitions(4, n, 4):
            dims[mu] = dim(sp_character(mu, n))
            assert dims[mu] > 0
        for mu, d in dims.items():
            grown = (mu[0] + 1,) + mu[1:] if mu else (1,)
            if grown in dims:
                assert dims[grown] >= d


def king_character_oracle(mu, n):
    """sp_character by its own filler: King tableaux on 1 < 1' < ... < n < n',
    encoded as 2(k-1) + primed, filled box by box (rows weak, columns
    strict, row i at least i)."""
    boxes = shape(mu).boxes()
    filling: dict = {}
    monomials = []

    def rec(idx):
        if idx == len(boxes):
            monomials.append(RingElem.monomial((v // 2 + 1, 0, -1 if v % 2 else 1) for v in filling.values()))
            return
        i, j = boxes[idx]
        left = filling.get((i, j - 1), 0)
        above = filling.get((i - 1, j))
        lo = max(left, above + 1 if above is not None else 0, 2 * (i - 1))
        for v in range(lo, 2 * n):
            filling[(i, j)] = v
            rec(idx + 1)
        filling.pop((i, j), None)

    rec(0)
    return RingElem.sum(monomials)


def test_sp_character_matches_king_filler():
    # the filtered type-A enumeration against the box-by-box King filler
    cases = [(mu, n) for n in (1, 2, 3, 4) for mu in all_partitions(6, n)]
    for mu, n in cases:
        assert sp_character(mu, n) == king_character_oracle(mu, n), (mu, n)
    assert len(cases) == 73


def test_sp_character_weyl_symmetry():
    # invariant under z_k -> z_k^-1 separately in each variable
    for mu in [(2, 1), (3,), (1, 1)]:
        p = sp_character(mu, 2)
        for axis in (0, 1):
            flipped = {
                tuple((k, s, -e if k == axis + 1 else e) for k, s, e in m): c
                for m, c in p.terms.items()
            }
            assert RingElem(flipped.items()) == p


def test_beta_projection_on_z_variables():
    # after projection a letter and its barred partner are inverse monomials
    from qjt.ring import z_product

    t = make_type("C", 2)
    for k in (1, 2):
        prod = z_product(t, [(k, 0)]) * z_product(t, [(-k, 4)])
        assert prod.beta() == ONE


def test_decomposition_A():
    for n in (1, 2, 3):
        for lam in all_partitions(5, n + 1, 5):
            if not lam:
                continue
            r = verify_decomposition_A(lam, n)
            assert r["equal"], r


def test_decomposition_C_rank2():
    for lam in all_partitions(4, 2, 4):
        if not lam:
            continue
        r = verify_decomposition_C(lam, 2)
        assert r["equal"], r


def test_decomposition_C_rank3():
    for lam in all_partitions(4, 3, 4):
        if not lam:
            continue
        r = verify_decomposition_C(lam, 3)
        assert r["equal"], r


def test_decomposition_multiplicities_examples():
    assert decomposition_multiplicities((2,), 2) == {(): 1, (2,): 1}
    assert decomposition_multiplicities((1, 1), 2) == {(1, 1): 1}
    assert decomposition_multiplicities((2, 1), 2) == {(1,): 1, (2, 1): 1}


# lhs/rhs text of the decomposition reports: terms ordered by exponent
# vector (z_1 first), factors z1^2*z2, A reduced modulo z_1*...*z_{n+1} = 1
GOLDEN_Z_TEXT = [
    (verify_decomposition_A, (2,), 1, "1 + z2^2 + z1^2"),
    (
        verify_decomposition_A, (2, 1), 2,
        "2 + z2*z3^2 + z2^2*z3 + z1*z3^2 + z1*z2^2 + z1^2*z3 + z1^2*z2",
    ),
    (
        verify_decomposition_A, (2, 1, 1), 3,
        "3 + z2*z3*z4^2 + z2*z3^2*z4 + z2^2*z3*z4 + z1*z3*z4^2 + z1*z3^2*z4"
        " + z1*z2*z4^2 + z1*z2*z3^2 + z1*z2^2*z4 + z1*z2^2*z3 + z1^2*z3*z4"
        " + z1^2*z2*z4 + z1^2*z2*z3",
    ),
    (
        verify_decomposition_C, (2, 1), 2,
        "z1^-2*z2^-1 + z1^-2*z2 + z1^-1*z2^-2 + 3*z1^-1 + z1^-1*z2^2 + 3*z2^-1"
        " + 3*z2 + z1*z2^-2 + 3*z1 + z1*z2^2 + z1^2*z2^-1 + z1^2*z2",
    ),
    (
        verify_decomposition_C, (1, 1), 3,
        "z1^-1*z2^-1 + z1^-1*z3^-1 + z1^-1*z3 + z1^-1*z2 + z2^-1*z3^-1"
        " + z2^-1*z3 + 2 + z2*z3^-1 + z2*z3 + z1*z2^-1 + z1*z3^-1 + z1*z3 + z1*z2",
    ),
]


@pytest.mark.parametrize("verify,lam,n,text", GOLDEN_Z_TEXT)
def test_decomposition_z_text_golden(verify, lam, n, text):
    r = verify(lam, n)
    assert r["lhs"] == text
    assert r["rhs"] == text


@pytest.mark.parametrize(
    "fn,n",
    [(verify_decomposition_C, 2), (verify_decomposition_A, 1), (sp_character, 2)],
    ids=["C", "A", "sp"],
)
def test_row_limit_is_a_value_error(fn, n):
    with pytest.raises(ValueError, match="at most"):
        fn((1, 1, 1), n)
