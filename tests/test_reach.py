"""Reach guard: every top-level function and class of the package has a reader.

The abstract syntax trees of `src/wgcircle/*.py` and `perfbench/*.py` are
walked once.  A top-level definition in `src/` is reached when its name
appears as a `Name` or an `Attribute` anywhere in those files outside its own
definition; tests do not count.  The only unreached names allowed are those
in `UNREACHED`, each kept for a planned reader, and each must still be
unreached, so the list shrinks when one gains a caller.
"""

import ast
from pathlib import Path

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


def unreached_names() -> set[str]:
    files = sorted((ROOT / "src" / "wgcircle").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in files}
    # name -> (file, line) of every reference to it
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is not None:
                refs.setdefault(name, []).append((path, node.lineno))
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
