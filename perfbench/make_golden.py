"""Regenerate golden.json: the checked values of pass 0 at the default seed.

    python3 perfbench/make_golden.py [workload ...]

Each value is stored with the tolerance it is compared at.  Regenerate only
when a change is meant to change results; the diff of golden.json then shows
which values moved and by how much.
"""

import json
import shutil
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))
from workloads import WORKLOADS  # noqa: E402


def main(names):
    golden = json.loads(run.GOLDEN.read_text()) if run.GOLDEN.exists() else {
        "seed": run.DEFAULT_SEED, "size": "full", "workloads": {}}
    run.OUT.mkdir(exist_ok=True)
    for name in names or list(WORKLOADS):
        workdir = run.OUT / f"golden-{name}"
        workdir.mkdir(exist_ok=True)
        try:
            wl = WORKLOADS[name]("full", str(workdir))
            golden["workloads"][name] = dict(sorted(run.observe(wl, run.DEFAULT_SEED).items()))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name}: {len(golden['workloads'][name])} values", flush=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
