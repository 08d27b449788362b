"""Which statements of src/nlspectral no real run reaches.

    python3 tools/reach.py

Traces the package's own frames (``sys.settrace``, and ``threading.settrace``
for the threads of perfbench's field3d pool) from its first import on,
over what the repository runs for real:

- every preset of the table in ``presets/README.md`` with its subcommand,
  through ``cli.main`` into a temporary directory;
- every demo under ``demos/``, as ``__main__``, its stdout discarded;
- every perfbench workload, through ``perfbench/run.py``'s ``main`` with
  ``--seconds 0`` (its set-ups and one pass; it writes its run record to
  ``perfbench/out/`` as it always does).

A run that does not succeed stops the script with exit 1.  Then it prints,
per module, the unreached statements (by first line) and the count of
statements, and the totals last.  A statement is an ``ast.stmt`` other than
a docstring, ``global`` or ``nonlocal``; it is reached when a line of it ran,
where a compound statement's lines are its decorators and its header, up to
its body.  The whole script takes about 11 s on a 2-core
x86-64 machine.
"""

import ast
from collections import defaultdict
import contextlib
import importlib.util
import io
import json
import os
from pathlib import Path
import re
import runpy
import sys
import tempfile
import threading

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nlspectral"
# a row of the presets table: | `crit01_symbol_bounds.json` | `symbols` | ...
PRESET_ROW = re.compile(r"^\| `(crit[^`]*)` \| `([^`]*)`", re.MULTILINE)
WORKLOADS = ("sweep2d", "field3d", "bond1d", "cached2d")
_NO_CODE = (ast.Global, ast.Nonlocal)


def statements(source):
    """The (first, last) line span of each statement of source, in ast.walk order."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.add(body[0])
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _NO_CODE) or node in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        spans.append((first, max(first, last)))
    return spans


@contextlib.contextmanager
def tracing(directory):
    """Record the lines that run in files under directory, in this thread and
    in threads started inside the block: yields {file name: set of lines}."""
    prefix = str(Path(directory).resolve()) + os.sep
    hits = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    before = sys.gettrace(), threading.gettrace()
    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        yield hits
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])


def unreached(directory, hits):
    """{module file name: (unreached spans, statement count)} for every .py under directory."""
    out = {}
    for path in sorted(Path(directory).resolve().rglob("*.py")):
        ran = hits.get(str(path), set())
        spans = statements(path.read_text())
        out[path.name] = ([s for s in spans if not ran.intersection(range(s[0], s[1] + 1))],
                          len(spans))
    return out


def exercise():
    """Run the presets, the demos and the perfbench workloads of this checkout."""
    from nlspectral import cli

    presets = ROOT / "presets"
    with tempfile.TemporaryDirectory() as out:
        for name, command in PRESET_ROW.findall((presets / "README.md").read_text()):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, "--config", str(presets / name), "--out", out])
            if code != 0:
                raise SystemExit(f"preset {name} exited {code}")
    for demo in sorted((ROOT / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")
    sys.path.insert(0, str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    for workload in WORKLOADS:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = run.main(["--workload", workload, "--seconds", "0"])
        if code != 0 or not json.loads(printed.getvalue().splitlines()[-1])["correct"]:
            raise SystemExit(f"perfbench workload {workload} did not run correctly")


def main():
    sys.path.insert(0, str(ROOT / "src"))
    if "nlspectral" in sys.modules:
        raise SystemExit("nlspectral is already imported; its module code would go untraced")
    with tracing(PACKAGE) as hits:
        exercise()
    total = missed = 0
    for name, (spans, count) in unreached(PACKAGE, hits).items():
        total, missed = total + count, missed + len(spans)
        lines = ", ".join(str(first) for first, _ in sorted(spans))
        print(f"{name}: {len(spans)} of {count} unreached" + (f": {lines}" if lines else ""))
    print(f"total: {missed} of {total} statements unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
