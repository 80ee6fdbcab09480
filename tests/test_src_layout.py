"""src/ holds the pipeline, its certificates and its oracle, nothing else.

Every public top-level function and class of src/hfpss must be read
somewhere in src/ outside its own definition, be exported by
hfpss/__init__, live in the Smith normal form oracle (snf, scalars) or be
on the allowlist below.  A helper that only the tests call belongs in the
test that calls it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hfpss"
ORACLE = {"snf", "scalars"}
# Exactly the names that need it; a stale entry fails the test too.
ALLOWED = {
    # called by bench/workloads.py (the render workload) and by no src module
    "les.check_two_les", "les.check_eta_les",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _names_read(node, skip=None):
    """Names loaded and attributes read under node, not descending into skip."""
    out, stack = set(), [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return out


def _exported(trees):
    for node in trees["__init__"].body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_public_definition_is_used_exported_or_oracle():
    trees = _trees()
    exported = _exported(trees)
    unused = set()
    for module, tree in trees.items():
        if module in ORACLE:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in exported:
                continue
            if not any(node.name in _names_read(t, skip=node) for t in trees.values()):
                unused.add(f"{module}.{node.name}")
    assert unused - ALLOWED == set(), f"only tests or demos use {sorted(unused - ALLOWED)}"
    assert ALLOWED - unused == set(), f"stale allowlist entries {sorted(ALLOWED - unused)}"


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


def test_src_keeps_no_module_level_cache():
    """Columns and maps live as long as their stack's column table, in no
    cache that outlives it: src/ uses no functools.cache or lru_cache
    (functools.cached_property keeps a value on its own instance)."""
    assert {m: _functools_caches(t) for m, t in _trees().items() if _functools_caches(t)} == {}
    bad = ast.parse("import functools\nfrom functools import lru_cache\n"
                    "@functools.cache\ndef f(): pass\n")
    assert _functools_caches(bad) == ["lru_cache", "cache"]
