"""Reach guard: every top-level function and class of the package has a reader.

The abstract syntax trees of `src/wgcircle/*.py` and `perfbench/*.py` are
walked once.  A top-level definition in `src/` is reached when its name
appears as a `Name` or an `Attribute` anywhere in those files outside its own
definition; tests do not count.  The only unreached names allowed are those
in `UNREACHED`, each kept for a planned reader, and each must still be
unreached, so the list shrinks when one gains a caller.

The same walk, with imports included, keeps the package to one thread of
control: no module of `src/` names `threading`, `concurrent` or
`multiprocessing`.  And `errors` keeps one exception class per cause, all of
them exported by the package.
"""

import ast
from pathlib import Path

import wgcircle

ROOT = Path(__file__).resolve().parent.parent

UNREACHED = {
    # acceptance criterion 8: the grid integral against weighted enumeration
    "integrate_over_set",
    "count_direct_weighted",
    # ROADMAP "The circle-method split": the model J(n; Q) of the major arcs
    "singular_integral",
    # ROADMAP "Exact arc integrals": the Ramanujan sums of the arc kernel
    "ramanujan_sum",
    "arith_tables",
}


def parsed() -> dict[Path, ast.Module]:
    files = sorted((ROOT / "src" / "wgcircle").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in files}


def references(trees: dict[Path, ast.Module], imports: bool = False) -> dict[str, list[tuple[Path, int]]]:
    """name -> (file, line) of every `Name` and `Attribute`, and with `imports`
    of every imported name and module as well."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                names = [node.id if isinstance(node, ast.Name) else node.attr]
            elif imports and isinstance(node, (ast.alias, ast.ImportFrom)):
                names = ((node.name if isinstance(node, ast.alias) else node.module) or "").split(".")
            else:
                continue
            for name in names:
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def unreached_names() -> set[str]:
    trees = parsed()
    refs = references(trees)
    unreached = set()
    for path, tree in trees.items():
        if path.parent.name != "wgcircle":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            outside = [(p, line) for p, line in refs.get(node.name, [])
                       if p != path or not node.lineno <= line <= node.end_lineno]
            if not outside:
                unreached.add(node.name)
    return unreached


def test_every_definition_is_reached():
    assert unreached_names() == UNREACHED


def test_package_starts_no_thread_or_process():
    refs = references(parsed(), imports=True)
    naming = {(name, path.name) for name in ("threading", "concurrent", "multiprocessing")
              for path, _ in refs.get(name, []) if path.parent.name == "wgcircle"}
    assert naming == set()


def test_one_exception_class_per_cause():
    tree = parsed()[ROOT / "src" / "wgcircle" / "errors.py"]
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    causes = ["WgcircleError", "DomainError", "InternalConsistencyError", "ResourceError"]
    assert sorted(classes) == sorted(causes)
    assert sorted(wgcircle.__all__) == sorted(causes + ["__version__"])
