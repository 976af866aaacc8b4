"""The ROADMAP baseline rows as named probes, each run in a fresh process.

    python3 perfbench/run.py --probe NAME

Each probe prints one JSON object with its seconds and the size of what it
computed, so a later run can tell a faster answer from a different one.
The seed baseline of this commit is kept in ``baseline.json``.
"""

from __future__ import annotations

from time import perf_counter

import cases
from run import import_qjt


def _sweep_shapes():
    """skew_shapes(9, 3, 3) of the acceptance tests: 174 shapes, the empty
    skew shapes lam/lam included."""
    return [(lam, mu) for lam in cases.partitions_in_box(3, 3) if lam for mu in cases.subpartitions(lam)]


def h6_x_h5_C3():
    from qjt import ring, series

    t = ring.make_type("C", 3)
    a, b = series.h_coeff(t, 6), series.h_coeff(t, 5).shift_spectral(4)
    t0 = perf_counter()
    prod = a * b
    return {"s": perf_counter() - t0, "terms": [len(a.terms), len(b.terms), len(prod.terms)]}


def chi_h_sweep_C3():
    from qjt import jacobitrudi, ring, shapes

    t = ring.make_type("C", 3)
    t0 = perf_counter()
    terms = sum(len(jacobitrudi.chi_h(t, shapes.shape(lam, mu)).terms) for lam, mu in _sweep_shapes())
    return {"s": perf_counter() - t0, "shapes": len(_sweep_shapes()), "terms": terms}


def path_sum_sweep_C3():
    from qjt import paths, ring, shapes

    t = ring.make_type("C", 3)
    t0 = perf_counter()
    terms = sum(len(paths.signed_path_sum(t, shapes.shape(lam, mu)).terms) for lam, mu in _sweep_shapes())
    return {"s": perf_counter() - t0, "shapes": len(_sweep_shapes()), "terms": terms}


def C4_22211_columns():
    from qjt import ring, shapes, tableaux

    t, s = ring.make_type("C", 4), shapes.shape((2, 2, 2, 1, 1))
    t0 = perf_counter()
    first = tableaux.enumerate_tableaux(t, s, "columns")
    t1 = perf_counter()
    repeat = tableaux.enumerate_tableaux(t, s, "columns")
    t2 = perf_counter()
    return {"s": t1 - t0, "first_s": t1 - t0, "repeat_s": t2 - t1, "tableaux": [len(first), len(repeat)]}


def bijection_sweep_C3():
    from qjt import ring, shapes

    lib = cases.Library()
    t = ring.make_type("C", 3)
    t0 = perf_counter()
    results = [lib.roundtrip(t, shapes.shape(lam, mu)) for lam, mu in _sweep_shapes()]
    return {"s": perf_counter() - t0, "shapes": len(results), "ok": all(ok for ok, _ in results)}


PROBES = {f.__name__: f for f in (h6_x_h5_C3, chi_h_sweep_C3, path_sum_sweep_C3, C4_22211_columns, bijection_sweep_C3)}


def run(name: str) -> dict:
    import_qjt()
    return {"probe": name, **PROBES[name]()}
