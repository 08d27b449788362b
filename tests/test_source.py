"""Code that only the tests use belongs in tests/.

Every public function, class and method of ``src/nlspectral`` must be
referenced by the package itself, the benchmark harness, the demos or the
tools.  References are ``Name`` and ``Attribute`` nodes of the parsed
sources; a method is referenced only by an ``Attribute`` node of its name,
so that a variable of the same name does not hide it.  A name met only
inside its own definition, as in a recursive call, is not referenced.

Likewise every defaulted parameter of a public function or method must be
passed, by keyword or by position, by some call outside tests/ to a
function of that name: a setting that no caller sets is a constant at its
one use.  A call with ``*args`` passes every position, one with
``**kwargs`` every keyword.

And every kernel family must be run: named as a ``"family"`` value in some
preset, or spelled as a string literal by the demos, the benchmark harness
or the experiment runners.
"""

import ast
import json
import math
from pathlib import Path

from nlspectral.kernels import FAMILIES

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "nlspectral").glob("*.py"))
USERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py")) + sorted(
    path for folder in ("demos", "tools") for path in (ROOT / folder).rglob("*.py"))
PRESETS = sorted((ROOT / "presets").glob("*.json"))
RUNNERS = sorted((ROOT / "demos").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "src" / "nlspectral" / "experiments.py"]

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)


def _public_definitions(tree):
    """(qualified name, node) of the public top-level definitions and methods."""
    for node in tree.body:
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFS) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _references(node, inside=frozenset()):
    """(is an Attribute, name) of the Name and Attribute nodes under node,
    outside definitions of that name."""
    if isinstance(node, _DEFS):
        inside = inside | {node.name}
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    if isinstance(node, (ast.Name, ast.Attribute)) and name not in inside:
        yield isinstance(node, ast.Attribute), name
    for child in ast.iter_child_nodes(node):
        yield from _references(child, inside)


def _unreferenced(library, users):
    """(tree, qualified name) of each public definition in library that no
    tree of users references; a method only an Attribute node references."""
    refs = {ref for tree in users for ref in _references(tree)}
    names, attributes = {name for _, name in refs}, {name for attr, name in refs if attr}
    return [(tree, qualified) for tree in library
            for qualified, node in _public_definitions(tree)
            if node.name not in (attributes if "." in qualified else names)]


def _defaulted(qualified, node):
    """(name, position in a call, None if keyword-only) of the defaulted
    parameters of a function; a method's self or cls takes no position."""
    args = node.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
    skip = 1 if "." in qualified and not static else 0
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _calls(node, inside=frozenset()):
    """(name, positional count, keywords) of the calls under node, outside
    definitions of that name; None among the keywords stands for ``**``."""
    if isinstance(node, _DEFS):
        inside = inside | {node.name}
    if isinstance(node, ast.Call):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name not in inside:
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            yield name, math.inf if starred else len(node.args), {k.arg for k in node.keywords}
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, inside)


def _unset_parameters(library, users):
    """``qualified(parameter)`` of each defaulted parameter no call in users passes."""
    calls = {}
    for tree in users:
        for name, count, keywords in _calls(tree):
            calls.setdefault(name, []).append((count, keywords))
    return [f"{qualified}({param})"
            for tree in library
            for qualified, node in _public_definitions(tree) if isinstance(node, _FUNCS)
            for param, position in _defaulted(qualified, node)
            if not any(None in kw or param in kw or (position is not None and position < count)
                       for count, kw in calls.get(node.name, []))]


def _family_values(doc):
    """The values of every "family" key in a parsed JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key == "family":
                yield value
            yield from _family_values(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _family_values(value)


def _unrun_families(families, presets, runners):
    """The families that no preset names as a "family" and no runner tree
    spells as a string literal."""
    used = {value for doc in presets for value in _family_values(doc)}
    used |= {node.value for tree in runners for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return [family for family in families if family not in used]


def test_no_public_name_is_used_by_the_tests_alone():
    library = [ast.parse(path.read_text(), str(path)) for path in LIBRARY]
    users = [ast.parse(path.read_text(), str(path)) for path in USERS]
    file_of = {id(tree): path.name for path, tree in zip(LIBRARY, library)}
    unused = [f"{file_of[id(tree)]}: {qualified}"
              for tree, qualified in _unreferenced(library, users)]
    assert not unused, "public names that only tests/ use; move them there: " + ", ".join(unused)


def test_a_test_only_name_is_found():
    # the check itself: a public function referenced only inside its own
    # body, and one referenced nowhere, are both reported
    tree = ast.parse("def lonely(n):\n    return lonely(n - 1)\n\n"
                     "class Box:\n    def unused(self):\n        return self\n")
    assert [q for _, q in _unreferenced([tree], [tree])] == ["lonely", "Box", "Box.unused"]


def test_a_method_hidden_by_a_variable_is_found():
    # a variable named like a method does not reference it; an attribute does
    library = ast.parse("class Field:\n    def at(self, xi):\n        return xi\n\n"
                        "    def value(self, a):\n        return a\n")
    users = [library, ast.parse("at = float(Field().value(0.1))\n")]
    assert [q for _, q in _unreferenced([library], users)] == ["Field.at"]
    users.append(ast.parse("Field().at\n"))
    assert _unreferenced([library], users) == []


def test_no_setting_is_set_by_the_tests_alone():
    library = [ast.parse(path.read_text(), str(path)) for path in LIBRARY]
    users = [ast.parse(path.read_text(), str(path)) for path in USERS]
    unset = _unset_parameters(library, users)
    assert not unset, ("defaulted parameters that no caller outside tests/ passes; "
                       "make each a constant at its use: " + ", ".join(unset))


def test_every_kernel_family_is_run_outside_the_tests():
    presets = [json.loads(path.read_text()) for path in PRESETS]
    runners = [ast.parse(path.read_text(), str(path)) for path in RUNNERS]
    unrun = _unrun_families(FAMILIES, presets, runners)
    assert not unrun, ("kernel families that no preset, demo, benchmark workload or "
                       "experiment runner uses; move them to tests/: " + ", ".join(unrun))


def test_a_test_only_family_is_found():
    # the check itself: a family named in a nested preset kernel list, one
    # spelled by a runner, and the miss: a name that is only a variable
    presets = [{"kernels": [{"family": "constant", "dimension": 2}]}]
    runners = [ast.parse('normalize("sine", 1)\nsquare = "fractional".upper()\n')]
    assert _unrun_families(("constant", "sine", "fractional", "square"),
                           presets, runners) == ["square"]


def test_an_unset_parameter_is_found():
    # the check itself: a parameter passed by position, one by keyword, one
    # through **, a method's parameter past self, and the misses: a default
    # passed only inside the function's own body, and a keyword-only one
    library = ast.parse(
        "def f(a, b=1, c=2, d=3, *, e=4):\n    return f(a, b, c, d, e=e)\n\n"
        "class Box:\n    def put(self, x=0, y=0):\n        return x + y\n"
        "    @staticmethod\n    def make(z=0):\n        return z\n")
    users = [library, ast.parse("f(0, 1)\nf(0, d=2)\nBox().put(1)\nBox.make(**{})\n")]
    assert _unset_parameters([library], users) == ["f(c)", "f(e)", "Box.put(y)"]
