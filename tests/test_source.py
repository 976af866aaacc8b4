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
    # series cache alone grows its entries' truncation in place
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
