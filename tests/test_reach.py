"""The mechanics of tools/reach.py on a tiny package (no preset, demo or benchmark runs)."""

import importlib.util
from pathlib import Path
import sys
import threading

_PATH = Path(__file__).resolve().parents[1] / "tools" / "reach.py"
_SPEC = importlib.util.spec_from_file_location("reach", _PATH)
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

TINY = '''"""A module docstring."""
import functools

COUNT = 0


@functools.lru_cache(maxsize=None)
def used(x,
         y=1):
    """A function docstring."""
    global COUNT
    COUNT += 1
    if x:
        return (x +
                y)
    return -x  # unreached


def in_thread():
    return 1


def unused():
    return 0  # unreached


class Box:
    """A class docstring."""

    def method(self):
        return 1  # unreached
'''


def _marked(source):
    return [i for i, line in enumerate(source.splitlines(), 1) if line.endswith("# unreached")]


def test_statements_skip_docstrings_and_global_and_span_headers():
    spans = sorted(reach.statements(TINY))
    # import, COUNT, used (decorator to header), COUNT += 1, if, return x + y,
    # return -x, in_thread, return 1, unused, return 0, Box, method, return 1
    assert len(spans) == 14
    assert (7, 9) in spans                    # the decorated def: decorator and both header lines
    assert (13, 13) in spans and (14, 15) in spans
    assert not {1, 10, 11, 28} & {first for first, _ in spans}


def test_unreached_lists_what_the_traced_block_did_not_run(tmp_path):
    pkg = tmp_path / "tiny"
    pkg.mkdir()
    (pkg / "tiny.py").write_text(TINY)
    (pkg / "idle.py").write_text("X = 1\n")
    before = sys.gettrace(), threading.gettrace()
    with reach.tracing(pkg) as hits:
        spec = importlib.util.spec_from_file_location("tiny", pkg / "tiny.py")
        tiny = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tiny)
        assert tiny.used(2) == 3
        worker = threading.Thread(target=tiny.in_thread)
        worker.start()
        worker.join()
    assert (sys.gettrace(), threading.gettrace()) == before
    tiny.unused()  # after the block: not recorded
    report = reach.unreached(pkg, hits)
    assert set(report) == {"idle.py", "tiny.py"}
    spans, count = report["tiny.py"]
    assert [first for first, _ in spans] == _marked(TINY) and count == 14
    assert report["idle.py"] == ([(1, 1)], 1)     # never imported
