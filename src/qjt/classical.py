"""Classical-character decompositions of the determinant characters.

The spectral-parameter-forgetting projection sends the determinant character
to an ordinary Lie-algebra character.  For type A it is irreducible; for
type C it decomposes with Littlewood-Richardson multiplicities against even
partitions.  Both sides are computed independently here: the left side from
the determinant, the right side from tableau models for the classical
characters.
"""

from __future__ import annotations

from .ring import AlgType, RingElem, make_type, terms_text
from .shapes import Partition, SkewShape, shape
from .jacobitrudi import chi_h
from .tableaux import enumerate_tableaux


# ---------------------------------------------------------------------------
# Characters in weight coordinates: z_k^e is the RingElem factor (k, 0, e).


def _dense(m: tuple, nvars: int) -> list[int]:
    """Exponent vector (e_1..e_nvars) of a z-monomial."""
    exps = [0] * nvars
    for k, _s, e in m:
        exps[k - 1] = e
    return exps


def z_text(p: RingElem) -> str:
    """Text of a z-character, its terms sorted by exponent vector."""
    nvars = max((k for m in p.terms for k, _s, _e in m), default=0)
    return terms_text(
        ([f"z{k}" + (f"^{e}" if e != 1 else "") for k, _s, e in m], c)
        for m, c in sorted(p.terms.items(), key=lambda mc: _dense(mc[0], nvars))
    )


def normalize_projective(p: RingElem, nvars: int) -> RingElem:
    """Canonical form modulo z_1*...*z_nvars = 1: shift each exponent vector
    so its minimum entry is zero."""
    return RingElem(
        ([*m, *((k, 0, -min(_dense(m, nvars))) for k in range(1, nvars + 1))], c) for m, c in p.terms.items()
    )


def beta_to_z(t: AlgType, e: RingElem) -> RingElem:
    """Express the classical projection in weight coordinates z_i.

    The i-th fundamental weight corresponds to z_1*...*z_i, for type A in
    n+1 variables (modulo the determinant relation) and for type C in n
    variables.
    """
    out = RingElem((((k, 0, exp) for i, _s, exp in m for k in range(1, i + 1)), c) for m, c in e.beta().terms.items())
    return normalize_projective(out, t.rank + 1) if t.family == "A" else out


def _require_rows(p: Partition, limit: int, name: str) -> None:
    if len(p) > limit:
        raise ValueError(
            f"{name} allows at most {limit} rows; ({p.to_text()}) has {len(p)}"
        )


# ---------------------------------------------------------------------------
# Schur polynomials and Littlewood-Richardson coefficients


def schur_poly(lam, nvars: int) -> RingElem:
    """Schur polynomial s_lambda(z_1..z_nvars) as a sum over semistandard
    tableaux, which are the type A_{nvars-1} tableaux."""
    return RingElem(
        (((c, 0, 1) for row in T.cells for c in row), 1)
        for T in enumerate_tableaux(AlgType("A", nvars - 1), shape(lam), "hv")
    )


def lr_coeff(lam, mu, nu) -> int:
    """Littlewood-Richardson coefficient: fillings of lam/mu with content nu
    whose reverse reading word is a lattice word."""
    lam_p, mu_p, nu_p = Partition(lam), Partition(mu), Partition(nu)
    if lam_p.size() != mu_p.size() + nu_p.size() or not lam_p.contains(mu_p):
        return 0
    s = SkewShape(lam_p, mu_p)
    count = 0
    lnu = len(nu_p)
    for T in enumerate_tableaux(AlgType("A", max(lnu, 1) - 1), s, "hv"):
        # reverse reading word: right to left along rows, top to bottom; no
        # prefix of a lattice word holds more v's than (v - 1)'s
        content = [0] * (lnu + 1)
        for v in (v for row in T.cells for v in reversed(row)):
            content[v - 1] += 1
            if v > 1 and content[v - 1] > content[v - 2]:
                break
        else:
            count += tuple(content[:lnu]) == nu_p.parts
    return count


# ---------------------------------------------------------------------------
# Symplectic characters via King tableaux


def sp_character(mu, n: int) -> RingElem:
    """Character of the rank-n symplectic irreducible with highest weight mu,
    as a sum over King tableaux.

    Alphabet 1 < 1' < 2 < 2' < ... < n < n', read as the type A_{2n-1}
    letters 1..2n (k is 2k - 1, k' is 2k): King tableaux are the
    semistandard tableaux whose row i holds no letter below i, that is
    below 2i - 1.  A letter k contributes z_k, its primed partner z_k^-1.
    """
    mu_p = Partition(mu)
    _require_rows(mu_p, n, f"C{n}")
    return RingElem(
        ((((v + 1) // 2, 0, -1 if v % 2 == 0 else 1) for row in T.cells for v in row), 1)
        for T in enumerate_tableaux(AlgType("A", 2 * n - 1), shape(mu_p), "hv")
        if all(min(row) >= 2 * i - 1 for i, row in enumerate(T.cells, start=1))
    )


# ---------------------------------------------------------------------------
# Decomposition reports


def _partitions_of(size, max_len=None):
    out = []

    def rec(prefix, remaining, bound):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if max_len is not None and len(prefix) >= max_len:
            return
        for p in range(min(bound, remaining), 0, -1):
            rec(prefix + [p], remaining - p, p)

    rec([], size, size)
    return out


def decomposition_multiplicities(lam, n: int) -> dict:
    """Multiplicity of each symplectic highest weight mu in the projected
    determinant character: sum over even partitions 2-kappa of the
    Littlewood-Richardson coefficient c^lam_{2kappa, mu}."""
    lam_p = Partition(lam)
    mult: dict = {}
    for m2 in range(0, lam_p.size() + 1, 2):
        for kappa in _partitions_of(m2 // 2):
            two_kappa = tuple(2 * p for p in kappa)
            if not lam_p.contains(Partition(two_kappa)):
                continue
            for mu in _partitions_of(lam_p.size() - m2, max_len=n):
                c = lr_coeff(lam_p.parts, two_kappa, mu)
                if c:
                    mult[mu] = mult.get(mu, 0) + c
    return mult


def verify_decomposition_C(lam, n: int) -> dict:
    t = make_type("C", n)
    lam_p = Partition(lam)
    _require_rows(lam_p, n, str(t))
    lhs = beta_to_z(t, chi_h(t, shape(lam_p)))
    mult = decomposition_multiplicities(lam_p.parts, n)
    rhs = RingElem.sum(sp_character(mu, n).scalar_mul(c) for mu, c in sorted(mult.items()))
    return {
        "type": f"C{n}",
        "lambda": list(lam_p.parts),
        "multiplicities": {",".join(map(str, mu)) or "(empty)": c for mu, c in sorted(mult.items())},
        "lhs": z_text(lhs),
        "rhs": z_text(rhs),
        "equal": lhs == rhs,
    }


def verify_decomposition_A(lam, n: int) -> dict:
    t = make_type("A", n)
    lam_p = Partition(lam)
    _require_rows(lam_p, n + 1, str(t))
    lhs = beta_to_z(t, chi_h(t, shape(lam_p)))
    rhs = normalize_projective(schur_poly(lam_p.parts, n + 1), n + 1)
    return {
        "type": f"A{n}",
        "lambda": list(lam_p.parts),
        "lhs": z_text(lhs),
        "rhs": z_text(rhs),
        "equal": lhs == rhs,
    }
