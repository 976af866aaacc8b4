"""The determinant characters chi_{lambda/mu, a} in h- and e-form."""

from __future__ import annotations

from .ring import ONE, AlgType, RingElem, delta
from .series import e_coeff, h_coeff
from .shapes import SkewShape


def determinant(matrix: list[list[RingElem]]) -> RingElem:
    """Exact determinant by cofactor expansion with memoized minors.

    Minors are keyed by (first row, frozenset of remaining columns); the ring
    has no division, so elimination is not an option.
    """
    l = len(matrix)
    if l == 0:
        return ONE
    memo: dict[tuple[int, frozenset], RingElem] = {}

    def minor(row: int, cols: frozenset) -> RingElem:
        if row == l:
            return ONE
        key = (row, cols)
        out = memo.get(key)
        if out is not None:
            return out
        out = RingElem.sum_products(
            (-1 if pos % 2 else 1, matrix[row][j], minor(row + 1, cols - {j}))
            for pos, j in enumerate(sorted(cols))
            if not matrix[row][j].is_zero()
        )
        memo[key] = out
        return out

    return minor(0, frozenset(range(l)))


def chi_h(t: AlgType, s: SkewShape, a_offset: int = 0) -> RingElem:
    """det( h_{lam_i - mu_j - i + j} at offset a_offset + 2(lam_i - i) delta )."""
    d = delta(t)
    l = max(len(s.lam), len(s.mu))
    matrix = [
        [
            h_coeff(t, s.lam[i] - s.mu[j] - i + j, a_offset + 2 * (s.lam[i] - i) * d)
            for j in range(1, l + 1)
        ]
        for i in range(1, l + 1)
    ]
    return determinant(matrix)


def chi_e(t: AlgType, s: SkewShape, a_offset: int = 0) -> RingElem:
    """det( e_{lam'_i - mu'_j - i + j} at offset a_offset - 2(mu'_j - j + 1) delta )."""
    d = delta(t)
    lamc, muc = s.lam.conjugate(), s.mu.conjugate()
    l = max(len(lamc), len(muc))
    matrix = [
        [
            e_coeff(t, lamc[i] - muc[j] - i + j, a_offset - 2 * (muc[j] - j + 1) * d)
            for j in range(1, l + 1)
        ]
        for i in range(1, l + 1)
    ]
    return determinant(matrix)
