"""An in-memory span tracer that wraps qjt's public functions from outside.

``Tracer.install()`` replaces every public function and method of the traced
modules with a wrapper that records a span (name, start, end, parent) in
flat arrays, and re-points every ``from ... import`` copy of those functions
in the other qjt modules.  The qjt source is not modified; ``uninstall()``
puts the originals back.  ``summary()`` turns the spans into additive raw
sums (calls, seconds, work counts and each module's self time), and
``layer_metrics()`` turns raw sums, possibly added over several processes,
into the per-layer metrics.
"""

from __future__ import annotations

import array
import inspect
import sys
from time import perf_counter

MODULES = ("ring", "series", "jacobitrudi", "paths", "tableaux", "resolutions", "classical", "cli")
DUNDERS = {"__add__", "__sub__", "__neg__", "__mul__", "__eq__"}

# Span name -> the layer group whose calls and seconds are reported.  A
# group's seconds are the inclusive time of its outermost spans.
GROUPS = {
    "ring.RingElem.__mul__": "ring.mul",
    "ring.RingElem.__add__": "ring.add",
    "ring.RingElem.shift_spectral": "ring.shift",
    "series.h_coeff": "series.coeff",
    "series.e_coeff": "series.coeff",
    "series.E_series": "series.build",
    "series.H_series": "series.build",
    "series.check_HE": "series.check_HE",
    "jacobitrudi.chi_h": "jacobitrudi.chi",
    "jacobitrudi.chi_e": "jacobitrudi.chi",
    "paths.enumerate_hpaths": "paths.hpaths",
    "paths.classify_pair": "paths.classify",
    "paths.enumerate_tuples": "paths.tuples",
    "paths.path_weight": "paths.weight",
    "paths.PathTuple.weight": "paths.weight",
    "paths.signed_path_sum": "paths.sum",
    "tableaux.enumerate_tableaux": "tableaux.enum",
    "tableaux.is_valid": "tableaux.rules",
    "tableaux.satisfies_extra_rules": "tableaux.rules",
    "tableaux.satisfies_2row_rule": "tableaux.rules",
    "tableaux.satisfies_3row_rule": "tableaux.rules",
    "tableaux.satisfies_1col_rule": "tableaux.rules",
    "tableaux.satisfies_2col_rule": "tableaux.rules",
    "tableaux.column_companions": "tableaux.companions",
    "tableaux.path_tuple_to_tableau": "tableaux.bijection",
    "tableaux.tableau_to_path_tuple": "tableaux.bijection",
    "tableaux.Tableau.weight": "tableaux.weight",
    "tableaux.tableau_sum": "tableaux.sum",
    "classical.verify_decomposition_A": "classical.verify",
    "classical.verify_decomposition_C": "classical.verify",
    "classical.sp_character": "classical.sp_character",
    "classical.lr_coeff": "classical.lr_coeff",
}
for _m in ("omega", "r_y", "r_y_pair", "g_map", "f2_13", "f2_23", "f1_12", "f1_23"):
    GROUPS[f"resolutions.{_m}"] = "resolutions.maps"
for _m in ("f2_13", "f2_23", "f1_12", "f1_23"):
    GROUPS[f"resolutions.condition_{_m}"] = "resolutions.conditions"
CLI_VERBS = ("qchar", "tableaux", "paths", "classical", "verify")
for _v in CLI_VERBS:
    GROUPS[f"cli.cmd_{_v}"] = f"cli.{_v}"


def layer_metrics(raw: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) from additive raw sums."""

    def g(key):
        return raw.get(key, 0)

    def ratio(num, den):
        return g(num) / g(den) if g(den) else 0.0

    out = {}
    for group in sorted(set(GROUPS.values())):
        if group.startswith("cli."):
            out[f"{group}.ms"] = (1000 * ratio(f"{group}.s", f"{group}.calls"), "ms")
            continue
        out[f"{group}.calls"] = (g(f"{group}.calls"), "count")
        out[f"{group}.s"] = (g(f"{group}.s"), "s")
    out["jacobitrudi.chi.s"] = (g("jacobitrudi.self_s"), "s")
    for name in ("ring.mul.term_pairs", "ring.mul.out_terms", "ring.add.copied_terms",
                 "jacobitrudi.chi.out_terms", "paths.hpaths.out", "paths.tuples.out", "tableaux.enum.out"):
        out[name] = (g(name), "count")
    out["ring.add.useful_ratio"] = (ratio("ring.add.added_terms", "ring.add.copied_terms"), "ratio")
    out["series.hit_ratio"] = (1 - ratio("series.coeff.misses", "series.coeff.calls"), "ratio")
    out["paths.hpaths.repeat_ratio"] = (ratio("paths.hpaths.repeats", "paths.hpaths.calls"), "ratio")
    out["paths.tuples.survive_ratio"] = (ratio("paths.tuples.out", "paths.classify.calls"), "ratio")
    out["tableaux.rules.reject_ratio"] = (ratio("tableaux.rules.rejects", "tableaux.rules.calls"), "ratio")
    for name in ("series.check_HE.calls", "tableaux.weight.calls", "tableaux.sum.calls",
                 "paths.sum.calls", "classical.sp_character.calls"):
        del out[name]
    out["cli.import_ms"] = (ratio("cli.import_ms.sum", "cli.children"), "ms")
    out["cli.out_bytes"] = (g("cli.out_bytes"), "bytes")
    for mod in MODULES:
        out[f"{mod}.self_s"] = (g(f"{mod}.self_s"), "s")
    return out


class Tracer:
    """Spans in flat arrays: span i has name id names[i], parent parents[i]
    (-1 for a root) and the interval [starts[i], ends[i]]."""

    def __init__(self):
        self.names = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.stack = [-1]
        self.name_table: list[str] = []
        self.raw: dict = {}
        self.rejected: set = set()
        self._seen_hpaths: set = set()
        self._patches: list = []

    # -- recording

    def _sid(self, name: str) -> int:
        self.name_table.append(name)
        return len(self.name_table) - 1

    def count(self, key: str, n=1):
        self.raw[key] = self.raw.get(key, 0) + n

    def root(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        tracer, sid = self, self._sid(name)

        class _Root:
            def __enter__(self):
                self.i = tracer._push(sid)
                return self.i

            def __exit__(self, *exc):
                tracer.ends[self.i] = perf_counter()
                tracer.stack.pop()

        return _Root()

    def _push(self, sid: int) -> int:
        i = len(self.starts)
        self.names.append(sid)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _wrap(self, fn, name: str):
        sid = self._sid(name)
        push, stack, ends = self._push, self.stack, self.ends
        hook = self._hook(name)
        if inspect.isgeneratorfunction(fn):
            count, group = self.count, GROUPS.get(name, name)

            def gen_wrapper(*args, **kwargs):
                count(f"{group}.calls")
                gen = fn(*args, **kwargs)
                while True:
                    i = push(sid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        ends[i] = perf_counter()
                        stack.pop()
                    count(f"{group}.out")
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            i = push(sid)
            try:
                res = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(i, args, res)
            return res

        return wrapper

    def _hook(self, name: str):
        """Work counters recorded where the work happens."""
        count = self.count
        if name == "ring.RingElem.__mul__":
            def hook(i, a, res):
                count("ring.mul.term_pairs", len(a[0].terms) * len(a[1].terms))
                count("ring.mul.out_terms", len(res.terms))
        elif name == "ring.RingElem.__add__":
            def hook(i, a, res):
                count("ring.add.copied_terms", len(a[0].terms))
                count("ring.add.added_terms", len(a[1].terms))
        elif name in ("jacobitrudi.chi_h", "jacobitrudi.chi_e"):
            def hook(i, a, res):
                count("jacobitrudi.chi.out_terms", len(res.terms))
        elif name == "paths.enumerate_hpaths":
            seen = self._seen_hpaths

            def hook(i, a, res):
                count("paths.hpaths.out", len(res))
                key = (a[0], a[1], a[2])
                if key in seen:
                    count("paths.hpaths.repeats")
                seen.add(key)
        elif name == "tableaux.enumerate_tableaux":
            def hook(i, a, res):
                count("tableaux.enum.out", len(res))
        elif GROUPS.get(name) == "tableaux.rules":
            rejected = self.rejected

            def hook(i, a, res):
                if res is False:
                    rejected.add(i)
        else:
            hook = None
        return hook

    # -- installing

    def install(self):
        """Wrap the public functions and methods of the traced qjt modules."""
        mods = {m: sys.modules[f"qjt.{m}"] for m in MODULES if f"qjt.{m}" in sys.modules}
        replaced = {}
        for short, mod in mods.items():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(val) and val.__module__ == mod.__name__:
                    replaced[val] = self._wrap(val, f"{short}.{attr}")
                    self._patch(mod, attr, replaced[val])
                elif inspect.isclass(val) and val.__module__ == mod.__name__:
                    self._wrap_class(val, f"{short}.{attr}")
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("qjt.") or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in replaced:
                    self._patch(mod, attr, replaced[val])

    def _wrap_class(self, cls, prefix: str):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            if isinstance(val, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(val.__func__, f"{prefix}.{attr}")))
            elif inspect.isfunction(val):
                self._patch(cls, attr, self._wrap(val, f"{prefix}.{attr}"))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- summarizing

    def summary(self) -> dict:
        """Raw additive sums and the self-time split of every root span.

        Returns {"raw": {...}, "roots": {root span index: {module: self s}}}.
        """
        n = len(self.starts)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        table = self.name_table
        module = [name.split(".", 1)[0] for name in table]
        group = [GROUPS.get(name) for name in table]
        bits = {g: 1 << k for k, g in enumerate(sorted(set(GROUPS.values())))}
        gbit = [bits.get(g, 0) for g in group]
        child = [0.0] * n
        mask = [0] * n
        root = [0] * n
        raw = dict(self.raw)
        roots: dict = {}
        misses = 0
        for i in range(n):
            p = parents[i]
            sid = names[i]
            dur = ends[i] - starts[i]
            if p >= 0:
                child[p] += dur
                mask[i] = mask[p] | gbit[sid]
                root[i] = root[p]
                outer = gbit[sid] and not (mask[p] & gbit[sid])
                if group[sid] == "series.build" and group[names[p]] == "series.coeff":
                    misses += 1
            else:
                mask[i] = gbit[sid]
                root[i] = i
                roots[i] = {}
                outer = gbit[sid] != 0
            if outer:
                g = group[sid]
                raw[f"{g}.s"] = raw.get(f"{g}.s", 0.0) + dur
                if g != "paths.tuples":  # counted per generator, not per resume
                    raw[f"{g}.calls"] = raw.get(f"{g}.calls", 0) + 1
                if i in self.rejected:
                    raw["tableaux.rules.rejects"] = raw.get("tableaux.rules.rejects", 0) + 1
        for i in range(n):
            own = ends[i] - starts[i] - child[i]
            mod = module[names[i]]
            key = f"{mod}.self_s"
            raw[key] = raw.get(key, 0.0) + own
            split = roots[root[i]]
            split[mod] = split.get(mod, 0.0) + own
        raw["series.coeff.misses"] = misses
        return {"raw": raw, "roots": roots}

    def write_spans(self, path):
        """Spans as four raw arrays in machine byte order: names (int32), parents
        (int32), starts and ends (float64 seconds of perf_counter)."""
        with open(path, "wb") as fh:
            for arr in (self.names, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def add_raw(total: dict, part: dict):
    for k, v in part.items():
        total[k] = total.get(k, 0) + v
