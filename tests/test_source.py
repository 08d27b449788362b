"""Code that only the tests use belongs in tests/.

Every public function, class and method of ``src/nlspectral`` must be
referenced by the package itself, the benchmark harness, the demos or the
tools.  References are ``Name`` and ``Attribute`` nodes of the parsed
sources (a method by its attribute name); a name met only inside its own
definition, as in a recursive call, is not referenced.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "nlspectral").glob("*.py"))
USERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py")) + sorted(
    path for folder in ("demos", "tools") for path in (ROOT / folder).rglob("*.py"))

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions(tree):
    """(qualified name, name) of the public top-level definitions and methods."""
    for node in tree.body:
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFS) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name


def _references(node, inside=frozenset()):
    """Names of the Name and Attribute nodes under node, outside definitions of that name."""
    if isinstance(node, _DEFS):
        inside = inside | {node.name}
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    if isinstance(node, (ast.Name, ast.Attribute)) and name not in inside:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _references(child, inside)


def test_no_public_name_is_used_by_the_tests_alone():
    used = set()
    for path in USERS:
        used.update(_references(ast.parse(path.read_text(), str(path))))
    unused = [f"{path.name}: {qualified}"
              for path in LIBRARY
              for qualified, name in _public_definitions(ast.parse(path.read_text(), str(path)))
              if name not in used]
    assert not unused, "public names that only tests/ use; move them there: " + ", ".join(unused)


def test_a_test_only_name_is_found():
    # the check itself: a public function referenced only inside its own
    # body, and one referenced nowhere, are both reported
    tree = ast.parse("def lonely(n):\n    return lonely(n - 1)\n\n"
                     "class Box:\n    def unused(self):\n        return self\n")
    used = set(_references(tree))
    assert [q for q, name in _public_definitions(tree) if name not in used] == [
        "lonely", "Box", "Box.unused"]
