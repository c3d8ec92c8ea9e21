"""List the package definitions that no entry point reaches.

Usage: python scripts/reachability.py [repo_root]

A name-based reachability map over the ``ahrd_ray`` package, built with the
stdlib ``ast`` module.  The roots are the entry points:

* ``queriesdef.registry()`` (every registry query and its oracle);
* ``ahrd_ray/__main__.py`` (the CLI), ``bench.py``, ``__ray_entry__.py``
  and ``perfbench/*.py`` (its ``test_*.py`` files count as tests);
* the statements a package module runs at import (calls, not definitions).

A definition is a module-level function, class or assigned name.  A
reached definition reaches every definition whose name appears in its body
(as a bare name or an attribute) in any module, so the map over-reaches:
a name it lists as unreached is referenced nowhere outside its own
definition.  Code that names a definition only through a string
(``getattr(mod, "x")``) is not seen.  A second pass adds ``tests/`` as roots
and marks the definitions that only tests reach.
"""

from __future__ import annotations

import ast
import os
import sys
from collections import defaultdict

PACKAGE = "ahrd_ray"
ENTRY_FILES = ["ahrd_ray/__main__.py", "bench.py", "__ray_entry__.py"]
REGISTRY = ("ahrd_ray/pipelines/queriesdef.py", "registry")


def names_in(node: ast.AST) -> set[str]:
    """Every identifier a subtree uses: bare names and attribute names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def definitions(tree: ast.Module):
    """(name, node) for each module-level function, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        yield n.id, node


def parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), path)


def py_files(root: str, sub: str) -> list[str]:
    out = []
    for d, _, files in os.walk(os.path.join(root, sub)):
        out += [os.path.join(d, f) for f in files if f.endswith(".py")]
    return sorted(out)


def build(root: str):
    """Definitions, the names each one uses, and the entry/test roots."""
    defs = {}  # (relpath, name) -> (node, names used)
    by_name = defaultdict(list)
    roots: set[str] = set()
    for path in py_files(root, PACKAGE):
        rel = os.path.relpath(path, root)
        tree = parse(path)
        for name, node in definitions(tree):
            defs[(rel, name)] = (node, names_in(node))
            by_name[name].append((rel, name))
        for node in tree.body:  # import-time statements that are not definitions
            if isinstance(node, (ast.Expr, ast.If, ast.Try, ast.For, ast.With)):
                roots |= names_in(node)
    tests: set[str] = set()
    for path in [os.path.join(root, f) for f in ENTRY_FILES] + py_files(root, "perfbench"):
        used = names_in(parse(path))
        (tests if os.path.basename(path).startswith("test_") else roots).update(used)
    roots |= defs[REGISTRY][1] | {REGISTRY[1]}
    for path in py_files(root, "tests"):
        tests |= names_in(parse(path))
    return defs, by_name, roots, tests


def reach(defs, by_name, names: set[str]) -> set[tuple[str, str]]:
    seen: set[tuple[str, str]] = set()
    todo = [k for n in names for k in by_name.get(n, [])]
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        todo += [k for n in defs[key][1] for k in by_name.get(n, []) if k not in seen]
    return seen


def main() -> int:
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )
    defs, by_name, roots, tests = build(root)
    live = reach(defs, by_name, roots)
    with_tests = reach(defs, by_name, roots | tests)
    dead = sorted(k for k in defs if k not in live)
    print(f"{len(defs)} definitions, {len(live)} reached from entry points")
    for rel, name in dead:
        node = defs[(rel, name)][0]
        lines = node.end_lineno - node.lineno + 1
        mark = "tests" if (rel, name) in with_tests else "nothing"
        print(f"{mark:8s} {rel}:{node.lineno} {name} ({lines} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
