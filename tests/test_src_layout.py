"""src/ holds the pipeline, its certificates and its oracle, nothing else.

Every public top-level function and class of src/hfpss must be read
somewhere in src/ outside its own definition, be exported by
hfpss/__init__, live in the Smith normal form oracle (snf, scalars) or be
on the allowlist below.  So must every public method and property of a
class there, read as an attribute, unless its class is exported.  A
helper that only the tests call belongs in the test that calls it.
"""

import ast
import pathlib
from collections import Counter

from hfpss.modules import column_table

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hfpss"
BENCH = SRC.parent.parent / "bench"
ORACLE = {"snf", "scalars"}
# Exactly the names that need it, each with the bench file that reads it
# and no src module does; a stale entry fails the test too.
ALLOWED = {
    "les.check_two_les": "workloads.py",  # the render workload
    "les.check_eta_les": "workloads.py",
    "Page.modules": "tracer.py",  # the slot and bidegree counters
    "Page.is_trusted": "tracer.py",
    "BidegreeModule.summands": "tracer.py",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _reads(node):
    """The names loaded and the attributes read under node, counted."""
    names, attrs = Counter(), Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            attrs[n.attr] += 1
    return names, attrs


def _exported(trees):
    for node in trees["__init__"].body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _public(body, kinds):
    return [node for node in body if isinstance(node, kinds) and not node.name.startswith("_")]


def _unused(trees):
    """The public definitions that nothing in src reads outside themselves,
    as module.name for a top-level one and Class.name for a method."""
    exported, names, attrs, unused = _exported(trees), Counter(), Counter(), set()
    for tree in trees.values():
        tree_names, tree_attrs = _reads(tree)
        names += tree_names
        attrs += tree_attrs
    for module, tree in trees.items():
        if module in ORACLE:
            continue
        for node in _public(tree.body, (ast.FunctionDef, ast.ClassDef)):
            if node.name in exported:
                continue
            own_names, own_attrs = _reads(node)
            read = names[node.name] + attrs[node.name]
            if read == own_names[node.name] + own_attrs[node.name]:
                unused.add(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                unused |= {f"{node.name}.{method.name}"
                           for method in _public(node.body, ast.FunctionDef)
                           if attrs[method.name] == _reads(method)[1][method.name]}
    return unused


def test_every_public_definition_is_used_exported_or_oracle():
    unused, allowed = _unused(_trees()), set(ALLOWED)
    assert unused - allowed == set(), f"only tests or demos use {sorted(unused - allowed)}"
    assert allowed - unused == set(), f"stale allowlist entries {sorted(allowed - unused)}"
    unread = {name for name, bench in ALLOWED.items()
              if not _reads(ast.parse((BENCH / bench).read_text(encoding="utf-8")))[1][
                  name.split(".")[1]]}
    assert unread == set(), f"allowlisted, but their bench file reads no {sorted(unread)}"


CACHES = {"cache", "lru_cache"}


def _functools_caches(tree):
    """Uses of functools.cache or functools.lru_cache in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [a.name for a in node.names if a.name in CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in CACHES
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append(node.attr)
    return found


def test_src_keeps_one_module_level_cache():
    """Columns, maps and the cell memos live in the column table of their
    (target, K, n_u1), kept across computes by modules.column_table, a
    cache of bounded size; src/ uses functools.cache or lru_cache nowhere
    else (functools.cached_property keeps a value on its own instance)."""
    assert {m: _functools_caches(t) for m, t in _trees().items()
            if _functools_caches(t)} == {"modules": ["lru_cache"]}
    assert column_table.cache_info().maxsize == 16
    bad = ast.parse("import functools\nfrom functools import lru_cache\n"
                    "@functools.cache\ndef f(): pass\n")
    assert _functools_caches(bad) == ["lru_cache", "cache"]
