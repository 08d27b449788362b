"""nlspectral benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload sweep2d --seed 0 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The run sets up the workload SETUP_REPS times (``setup_s`` is the import
time plus the median set-up), then runs passes of the workload for
``--seconds``: another pass starts while the window is not used up, so the
last one may run past it.  Each pass draws fresh inputs from ``(seed, pass)``;
``wall_s`` is the median pass time.  Every item's
outputs are checked outside the timed window; an exception or a failed
check counts the item as failed and the run goes on.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` the same untraced passes run first, then the last set-up and
the first pass run again with spans on; the result holds the per-layer
metrics of that traced set-up and pass, and the spans go to
``perfbench/out/``.

A fixed calibration loop is timed before the set-ups and after the passes
and kept in the run record, so that a change in the machine's speed can be
told apart from a change in the library.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402

# Pin BLAS and OpenMP pools to one thread before numpy is imported; the only
# parallelism is the benchmark's own pool in field3d.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
SETUP_REPS = 3
CALIBRATION_REPS = 5


class Tally:
    """Operations attempted and failed, failed checks by layer, observed values."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.layer_failures = Counter()
        self.failures = []
        self.observed = {}


def settle(wl, state, item, out, err, tr, tally, golden):
    """Check one item's outputs and count the operation."""
    tally.attempted += 1
    rep = None
    if err is None:
        try:
            rep = wl.check(state, item, out, tr)
            if golden is not None:
                rep.compare(golden, item["key"])
        except Exception as exc:   # a check that cannot run is a failed check
            err = exc
    if err is not None:
        detail = "".join(traceback.format_exception_only(type(err), err)).strip()
        tally.failures.append(f"{wl.name} {item['key']}: raised {detail}")
    else:
        for key, (_, value, tol) in rep.observed.items():
            tally.observed[f"{item['key']}.{key}"] = [value, tol]
        for layer, name, detail in rep.failures:
            tally.layer_failures[layer] += 1
            tally.failures.append(f"{wl.name} {item['key']}: {layer} {name} {detail}")
    if err is not None or rep.failures:
        tally.failed += 1


def run_pass(wl, state, items, tr, tally, golden=None):
    """Run one pass; returns (wall seconds of the items, process CPU seconds).

    A one-thread workload runs its items inline and checks each right after
    it, outside the clock.  A pooled workload submits every item at once to
    ``wl.threads`` workers and checks after the pool has drained.
    """
    def timed(item, submitted):
        with tr.span("pool.item", wait_s=time.perf_counter() - submitted):
            return wl.run(state, item, tr)

    if wl.threads == 1:
        wall = cpu = 0.0
        for item in items:
            t, c = time.perf_counter(), time.process_time()
            out = err = None
            try:
                out = timed(item, time.perf_counter())
            except Exception as exc:
                err = exc
            wall += time.perf_counter() - t
            cpu += time.process_time() - c
            settle(wl, state, item, out, err, tr, tally, golden)
        return wall, cpu
    t, c = time.perf_counter(), time.process_time()
    with ThreadPoolExecutor(max_workers=wl.threads) as pool:
        futures = [pool.submit(timed, item, time.perf_counter()) for item in items]
        done = []
        for fut in futures:
            try:
                done.append((fut.result(), None))
            except Exception as exc:
                done.append((None, exc))
    wall, cpu = time.perf_counter() - t, time.process_time() - c
    for item, (out, err) in zip(items, done):
        settle(wl, state, item, out, err, tr, tally, golden)
    return wall, cpu


def calibrate():
    """Seconds of a fixed loop of interpreted and numpy work, once per rep."""
    import numpy as np

    times = []
    for _ in range(CALIBRATION_REPS):
        t = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        z = np.exp(1j * np.linspace(0.0, 1.0, 200_000))
        np.fft.fft(z)
        times.append(time.perf_counter() - t)
    return times


def measure(wl, seed, seconds, trace, golden):
    """Set up, run the timed passes (and the traced pass); returns the run record."""
    off = Tracer(False)
    tally = Tally()
    t_imports = time.perf_counter() - T0
    calibration_before = calibrate()
    setups = []
    for rep in range(SETUP_REPS):
        t = time.perf_counter()
        state = wl.setup(seed, rep, off)
        items = wl.prepare(state, seed, 0, off)
        setups.append(time.perf_counter() - t)

    walls = []
    start = time.perf_counter()
    while True:
        wall, _ = run_pass(wl, state, items, off, tally, golden if not walls else None)
        walls.append(wall)
        if time.perf_counter() - start >= seconds:
            break
        items = wl.prepare(state, seed, len(walls), off)
    wall_s = statistics.median(walls)
    record = {"setup_reps_s": setups, "import_s": t_imports, "pass_walls_s": walls,
              "calibration_s": {"before": calibration_before, "after": calibrate()}}

    if not trace:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (t_imports + statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
            "pass_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        }
    else:
        # the traced run repeats the last set-up and the first pass, so the
        # overhead compares the same work
        tr = Tracer(True)
        traced = Tally()
        state = wl.setup(seed, SETUP_REPS - 1, tr)
        items = wl.prepare(state, seed, 0, tr)
        wall, cpu = run_pass(wl, state, items, tr, traced, None)
        metrics = layer_metrics(tr.spans, traced.layer_failures, wall, wl.threads, cpu,
                                wall - walls[0])
        OUT.mkdir(exist_ok=True)
        tr.write(OUT / f"{wl.name}-seed{seed}.spans.json")
        record["traced_pass_wall_s"] = wall
        tally.attempted += traced.attempted
        tally.failed += traced.failed
        tally.failures += traced.failures
    record["tally"] = tally
    record["metrics"] = metrics
    return record


def observe(wl, seed):
    """Golden values of pass 0 at ``seed``, from a clean pass on the last set-up."""
    off = Tracer(False)
    state = wl.setup(seed, SETUP_REPS - 1, off)
    tally = Tally()
    run_pass(wl, state, wl.prepare(state, seed, 0, off), off, tally)
    if tally.failed:
        raise RuntimeError("goldens need a clean pass:\n" + "\n".join(tally.failures))
    return tally.observed


def environment(threads):
    import numpy
    import scipy
    from workloads import pool_threads

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "nproc": pool_threads(),
        "pool_threads": threads,
        "machine": platform.machine(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["sweep2d", "field3d", "bond1d", "cached2d"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny shrinks every workload for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "nlspectral" / "__init__.py").is_file():
        print(f"error: no nlspectral sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    golden = None
    if args.seed == DEFAULT_SEED and args.size == "full":
        golden = json.loads(GOLDEN.read_text())["workloads"][args.workload]

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = WORKLOADS[args.workload](args.size, str(workdir))
        record = measure(wl, args.seed, args.seconds, bool(args.trace), golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = record.pop("tally")
    for line in tally.failures:
        print("FAIL " + line, file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record.pop("metrics").items()},
    }
    env = environment(wl.threads)
    run_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    run_file.write_text(json.dumps({"args": vars(args), "env": env, **record,
                                    "failures": tally.failures, "result": result}, indent=1))
    print("env " + json.dumps(env))
    print("calibration_s " + json.dumps(record["calibration_s"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
