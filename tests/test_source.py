"""Checks on the library source itself."""

import ast
import pathlib

import qjt


def modules():
    for path in sorted(pathlib.Path(qjt.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), str(path))


def test_no_assert_statements():
    # python -O strips assert statements, so invariants must be exceptions
    found = []
    for name, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_no_module_level_dict_caches():
    # caches are functools.lru_cache, which reports hits and misses; the
    # series cache alone is a dict: it holds one series per (type, kind),
    # replaced by a longer build when a larger degree is asked
    found = []
    for name, tree in modules():
        for node in tree.body:
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            empty = isinstance(value, ast.Dict) and not value.keys
            made = isinstance(value, ast.Call) and getattr(value.func, "id", None) in ("dict", "defaultdict", "OrderedDict")
            if empty or made:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [f"{name}:{ast.unparse(x)}" for x in targets]
    assert found == ["series.py:_SERIES_CACHE"]


def test_packed_layout_stays_in_the_ring():
    # qjt.ring alone knows how a monomial is packed: the other modules reach
    # packed keys through word_keys and Placement, never a private name or
    # field
    fields = {"_make", "_keys", "_b", "_w", "_lo", "_n"}
    found = []
    for name, tree in modules():
        if name == "ring.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("ring", "qjt.ring"):
                found += [f"{name}:{node.lineno}:{a.name}" for a in node.names if a.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and node.attr in fields:
                found.append(f"{name}:{node.lineno}:.{node.attr}")
    assert found == []


def test_weights_sum_letter_keys_outside_the_ring():
    # z_product sums exponent dicts: the series' letter images and the
    # tests' oracle; the path and tableau weights sum the h-path tables'
    # keys (paths._table_keys, from qjt.ring's word_keys) through a
    # Placement, so no other module names it
    found = []
    for name, tree in modules():
        if name == "ring.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found += [f"{name}:{node.lineno}" for a in node.names if a.name == "z_product"]
            elif isinstance(node, ast.Name) and node.id == "z_product" or isinstance(node, ast.Attribute) and node.attr == "z_product":
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_model_coverage_is_decided_in_model_status():
    # paths.model_status is the one table of which models hold: the
    # refusals that name a model's coverage are raised there and nowhere
    # else; resolve_ruleset keeps only auto's refusal of a C shape in
    # neither of its classes
    phrases = ("model covers types", "tableau rule covers", "need rank at least 2")
    found = []
    for name, tree in modules():
        defs = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        parts = set()  # the pieces of an f-string, matched as the whole
        for node in ast.walk(tree):  # breadth first: an f-string before its pieces
            if isinstance(node, ast.JoinedStr):
                parts.update(map(id, node.values))
            elif not (isinstance(node, ast.Constant) and isinstance(node.value, str)) or id(node) in parts:
                continue
            text = ast.unparse(node)
            if any(p in text for p in phrases):
                inner = [d for d in defs if d.lineno <= node.lineno <= d.end_lineno]
                where = max(inner, key=lambda d: d.lineno).name if inner else "<module>"
                found.append((name, where, text))
    assert {(name, where) for name, where, _ in found} == {("paths.py", "model_status"), ("tableaux.py", "resolve_ruleset")}
    assert [text for _, where, text in found if where == "resolve_ruleset"] == [
        "f'no {t} tableau rule covers {s}: more than 3 rows and more than 2 columns'"
    ]


def test_tableaux_runs_no_path_tuple_search():
    # the tableau layer computes from letters: it neither enumerates path
    # tuples nor labels path steps itself (it reads the words of the shared
    # h-path tables, which label each path once per width, and the
    # companion letters are a closed form)
    banned = {
        "nonintersecting_tuples", "no_ordinary_tuples", "p_k_tuples", "p_tilde",
        "surviving_tuples_with_sum", "signed_path_sum", "east_labels", "_path_word",
    }
    tree = dict(modules())["tableaux.py"]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [f"{node.lineno}:{a.name}" for a in node.names if a.name in banned]
        elif isinstance(node, ast.Name) and node.id in banned or isinstance(node, ast.Attribute) and node.attr in banned:
            found.append(f"{node.lineno}:{ast.unparse(node)}")
    assert found == []


def test_one_row_table_for_paths_and_tableaux():
    # the rows of a tableau are the words of the h-path table of their
    # width, packed at a placement's width by paths._table_keys: it alone
    # calls word_keys, so both weights read its keys and no second packing
    # of rows (row_keys, recode, rows_weight) exists, and no module builds
    # rows apart from the cell rules (which the tests keep as the oracle);
    # the table's one search records each path as it steps (no second walk,
    # _walk_steps)
    banned = ("_row_table", "_h_ok", "_h_triple_ok", "row_keys", "recode", "rows_weight", "_walk_steps")
    callers, defined = [], []
    for name, tree in modules():
        defs = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        defined += [f"{name}:{d.name}" for d in defs if d.name in banned]
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            if getattr(func, "id", None) == "word_keys" or getattr(func, "attr", None) == "word_keys":
                inner = [d for d in defs if d.lineno <= node.lineno <= d.end_lineno]
                callers.append(f"{name}:{max(inner, key=lambda d: d.lineno).name if inner else '<module>'}")
    assert callers == ["paths.py:_table_keys"]
    assert defined == []


def test_transposed_pairs_looks_each_entry_up_once():
    # PathTuple.transposed_pairs finds each path's table entry once, in one
    # comprehension over the paths, and reads each transposed pair's verdict
    # off those entries (paths._verdict), not through classify_pair, which
    # would look both paths up again
    tree = dict(modules())["paths.py"]
    path_tuple = next(n for n in tree.body if getattr(n, "name", None) == "PathTuple")
    method = next(n for n in path_tuple.body if getattr(n, "name", None) == "transposed_pairs")
    called = [n for n in ast.walk(method) if isinstance(n, ast.Call)]
    named = lambda name: [n for n in called if getattr(n.func, "id", getattr(n.func, "attr", None)) == name]
    comps = [n for n in ast.walk(method) if isinstance(n, ast.ListComp) and any(c in named("_entry") for c in ast.walk(n.elt))]
    assert (len(named("_entry")), len(comps), named("classify_pair")) == (1, 1, [])
    assert [ast.unparse(g.iter) for g in comps[0].generators] == ["self.paths"]


def test_path_oracles_live_in_the_tests():
    # the step-by-step labeling, the h-path list, a path's point list, the
    # one-path weight and the transposition of a single pair have no caller
    # in the library: the tests keep the labeling, the list and the walk as
    # oracles (test_paths.east_labels, hpath_steps, walk), and the weight
    # and the transposed pairs are PathTuple's
    gone = {"enumerate_hpaths", "east_labels", "east_steps", "points", "path_weight", "is_transposed"}
    found = [
        f"{name}:{n.lineno}:{n.name}"
        for name, tree in modules()
        for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name in gone
    ]
    assert found == []


def test_only_the_path_layer_reads_path_points():
    # a path's points, point index, heights and mask come from one cached
    # geometry record in qjt.paths; no other module scans a list of points
    found = []
    for name, tree in modules():
        if name == "paths.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "points":
                found.append(f"{name}:{node.lineno}:{ast.unparse(node)}")
    assert found == []


def _own_nodes(scope):
    """The nodes of a module or function body, less those of the functions
    defined in it."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    todo = [x for x in scope.body if not isinstance(x, functions)]
    while todo:
        x = todo.pop()
        yield x
        todo += [c for c in ast.iter_child_nodes(x) if not isinstance(c, functions)]


def _is_convolution(x):
    # a sum_products over a comprehension that runs over a range of degrees
    return (
        isinstance(x, ast.Call)
        and getattr(x.func, "attr", getattr(x.func, "id", None)) == "sum_products"
        and any(
            isinstance(a, (ast.GeneratorExp, ast.ListComp))
            and any(isinstance(g.iter, ast.Call) and getattr(g.iter.func, "id", None) == "range" for g in a.generators)
            for a in x.args
        )
    )


def test_series_are_built_by_recurrence_and_only_check_HE_multiplies_them():
    # E and H are built factor by factor by a two-term recurrence, with no
    # dense factor series, series inverse or ordered convolution; the one
    # product of two series, a convolution over the degrees, is check_HE's,
    # so the identity it checks never shares the build's arithmetic
    tree = dict(modules())["series.py"]
    gone = {"linear_factor", "quadratic_factor", "geom_inverse", "inverse", "_ordered_product"}
    assert [n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name in gone] == []
    found = []
    for name, tree in modules():
        scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope in scopes:
            if any(_is_convolution(x) for x in _own_nodes(scope)):
                found.append(f"{name}:{getattr(scope, 'name', '<module>')}")
    assert found == ["series.py:check_HE"]


def test_resolution_maps_splice_step_strings():
    # the maps build each new path as one splice of step strings
    # (resolutions._splice): no point-list helpers, and no point lists read
    tree = dict(modules())["resolutions.py"]
    gone = {"_prefix_points", "_suffix_points", "_east_run", "_path_from_points"}
    assert [n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name in gone] == []
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "points"] == []


def test_accumulators_hold_only_live_monomials():
    # a key leaves the ring's accumulators (and the path and tableau key
    # sum) where its coefficient cancels, so no result is copied through a
    # filter on its coefficients; _encode keeps its filter, as its input
    # comes from outside.  A filter is a comprehension over d.items() whose
    # condition reads the value.
    trees = dict(modules())
    scopes = [("ring.py", trees["ring.py"])]
    scopes += [("paths.py", d) for d in ast.walk(trees["paths.py"]) if isinstance(d, ast.FunctionDef) and d.name == "_signed_sum"]
    found = []
    for name, tree in scopes:
        defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if not isinstance(node, ast.comprehension) or not node.ifs:
                continue
            items = isinstance(node.iter, ast.Call) and getattr(node.iter.func, "attr", None) == "items"
            value = node.target.elts[-1] if isinstance(node.target, ast.Tuple) else None
            if items and isinstance(value, ast.Name) and any(
                isinstance(x, ast.Name) and x.id == value.id for cond in node.ifs for x in ast.walk(cond)
            ):
                inner = [d for d in defs if d.lineno <= node.iter.lineno <= d.end_lineno]
                where = max(inner, key=lambda d: d.lineno).name if inner else "<module>"
                found.append((name, where, node.iter.lineno))
    assert [where for _, where, _ in found] == ["_encode", "_encode"], found


def test_one_way_to_add_and_one_way_to_build_in_the_ring():
    # a sum is a sum of products with 1, so the ring's one cancel-and-delete
    # loop is _add_product (the path layer's key sum, _signed_sum, is the
    # other deleting accumulator); RingElem builds through _make, __init__
    # and const, with no renamed copies of them
    found = []
    for name, tree in modules():
        defs = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Delete) and any(isinstance(x, ast.Subscript) for x in node.targets):
                inner = [d for d in defs if d.lineno <= node.lineno <= d.end_lineno]
                found.append(f"{name[:-3]}.{max(inner, key=lambda d: d.lineno).name if inner else '<module>'}")
    assert found == ["paths._signed_sum", "ring._add_product"]
    ring = next(n for n in dict(modules())["ring.py"].body if getattr(n, "name", None) == "RingElem")
    assert [n.name for n in ring.body if getattr(n, "name", None) in ("_from_exponents", "zero")] == []


def test_the_vertical_rule_is_the_pair_mask():
    # the rows that may lie under a row are the paths' pair masks (the
    # tableau search runs the frame's pair test): no module keeps the
    # vertical cell rule (the tests keep it as the oracle), and the one
    # tableau mask table is the two-row rule's
    trees = dict(modules())
    defined = [f"{name}:{n.lineno}" for name, tree in trees.items() for n in ast.walk(tree)
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name == "_v_ok"]
    assert defined == []
    tables = [n.name for n in ast.walk(trees["tableaux.py"]) if isinstance(n, ast.FunctionDef)
              and any(getattr(x, "id", getattr(x, "attr", None)) == "_mask_table" for x in n.decorator_list)]
    assert tables == ["_below_2row"]


def test_one_frame_for_paths_and_tableaux():
    # a tableau is a path tuple of the identity permutation: the tableau
    # layer keeps no frame of its own (_Rows) and no adjacent-row rule apart
    # from the frame's pair tests (_below), and reaches the search and the
    # row keys through paths._Frame alone; a frame looks up a permutation's
    # rows when the search starts it, so its __init__ tabulates nothing and
    # builds no list per (row, destination), a comprehension in another
    trees = dict(modules())
    tableaux = trees["tableaux.py"]
    defined = [
        n.name for n in ast.walk(tableaux) if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name in ("_Rows", "_below")
    ]
    called = [
        f"{n.lineno}:{ast.unparse(n.func)}"
        for n in ast.walk(tableaux)
        if isinstance(n, ast.Call) and getattr(n.func, "id", getattr(n.func, "attr", None)) in ("_search", "_table_keys")
    ]
    assert (defined, called) == ([], [])
    frame = next(n for n in trees["paths.py"].body if getattr(n, "name", None) == "_Frame")
    init = next(n for n in frame.body if getattr(n, "name", None) == "__init__")
    comps = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    nested = [
        ast.unparse(n) for n in ast.walk(init) if isinstance(n, comps) and any(isinstance(x, comps) for x in list(ast.walk(n))[1:])
    ]
    tabulated = [ast.unparse(n) for n in ast.walk(init) if isinstance(n, ast.Name) and n.id in ("_hpath_table", "_table_keys")]
    assert (nested, tabulated) == ([], [])


def test_one_rule_for_where_h_paths_meet():
    # a path of a tuple is an entry of its h-path table: its word is the
    # table's (no word read off its runs, _word), its entry is found in the
    # one index per table (no second index, _row_index), and classify_pair
    # reads the pair masks, not the points (_geometry, common_points); the
    # letters by height (_reads) are read by the table's search alone
    trees = dict(modules())
    defined = [f"{name}:{n.name}" for name, tree in trees.items() for n in ast.walk(tree)
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name in ("_word", "_row_index")]
    classify = next(n for n in trees["paths.py"].body if getattr(n, "name", None) == "classify_pair")
    named = [n.id for n in ast.walk(classify) if isinstance(n, ast.Name) and n.id in ("_geometry", "common_points")]
    callers = []
    for name, tree in trees.items():
        defs = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_reads":
                inner = [d for d in defs if d.lineno <= node.lineno <= d.end_lineno]
                callers.append(f"{name}:{max(inner, key=lambda d: d.lineno).name if inner else '<module>'}")
    assert (defined, named, callers) == ([], [], ["paths.py:_hpath_table"])
